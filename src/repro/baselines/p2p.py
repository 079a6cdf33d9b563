"""Two-sided point-to-point messaging (the MPI-class baseline substrate).

Unlike xBGAS one-sided put/get, a two-sided transfer involves both CPUs:
the sender stages the payload into a message, the network (configured
with a two-sided transport, e.g. ``mpi_transport()``) charges handshake/
kernel/copy overheads, and the receiver must post a matching ``recv``
before the data lands in its buffer.  Receives block (in simulated time)
until a matching message exists.

Matching is by (source, tag) FIFO order, like MPI with a communicator.
Wildcards (``ANY_SOURCE``/``ANY_TAG``) are supported for completeness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import CollectiveArgumentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime, Machine

__all__ = ["ANY_SOURCE", "ANY_TAG", "MessageLayer", "attach_message_layer"]

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class _Message:
    src: int
    tag: int
    data: np.ndarray
    deliver_at: float


class MessageLayer:
    """Shared mailbox state for one machine."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        #: dst rank -> FIFO of undelivered messages
        self._mailbox: dict[int, deque[_Message]] = {
            r: deque() for r in range(machine.config.n_pes)
        }
        #: dst rank -> (src, tag) the rank is blocked waiting for
        self._waiting: dict[int, tuple[int, int]] = {}

    # -- send ------------------------------------------------------------------

    def send(self, ctx: "XBRTime", dst: int, addr: int, nelems: int,
             dtype: np.dtype, tag: int = 0) -> None:
        """Two-sided send of ``nelems`` elements at local ``addr``."""
        machine = self.machine
        if not 0 <= dst < machine.config.n_pes:
            raise CollectiveArgumentError(f"send to invalid rank {dst}")
        machine.engine.checkpoint()
        pe = ctx.pe
        eb = np.dtype(dtype).itemsize
        nbytes = nelems * eb
        # Sender-side staging copy out of the user buffer.
        pe.advance(machine.hierarchy_of(ctx.rank).access_range(addr, nbytes))
        data = np.array(ctx.view(addr, dtype, max(nelems, 0)), copy=True)
        # The two-sided baseline models MPI over a reliable transport:
        # exempt from raw message-fault injection.
        t_free, t_delivered, _ = machine.network.send(
            pe.clock, ctx.rank, dst, nbytes, faultable=False)
        pe.advance_to(t_free)
        msg = _Message(src=ctx.rank, tag=tag, data=data,
                       deliver_at=t_delivered)
        self._mailbox[dst].append(msg)
        machine.stats.puts += 1
        machine.stats.bytes_put += nbytes
        if dst != ctx.rank:
            machine.stats.remote_puts += 1
        # Wake the receiver if it is blocked on this message.
        want = self._waiting.get(dst)
        if want is not None and self._match(msg, *want):
            del self._waiting[dst]
            machine.engine.resume(dst, at_time=msg.deliver_at)

    @staticmethod
    def _match(msg: _Message, src: int, tag: int) -> bool:
        return (src in (ANY_SOURCE, msg.src)) and (tag in (ANY_TAG, msg.tag))

    def _take(self, rank: int, src: int, tag: int) -> _Message | None:
        box = self._mailbox[rank]
        for i, msg in enumerate(box):
            if self._match(msg, src, tag):
                del box[i]
                return msg
        return None

    # -- recv ----------------------------------------------------------------

    def recv(self, ctx: "XBRTime", src: int, addr: int, nelems: int,
             dtype: np.dtype, tag: int = 0) -> int:
        """Blocking receive into local ``addr``; returns the source rank."""
        machine = self.machine
        engine = machine.engine
        engine.checkpoint()
        pe = ctx.pe
        msg = self._take(ctx.rank, src, tag)
        while msg is None:
            # Block until a sender wakes us, then re-scan the mailbox
            # (the sender may have matched a wildcard differently).
            self._waiting[ctx.rank] = (src, tag)
            engine.suspend()
            msg = self._take(ctx.rank, src, tag)
        pe.advance_to(msg.deliver_at)
        tp = machine.config.transport
        pe.advance(tp.o_recv)
        eb = np.dtype(dtype).itemsize
        nbytes = nelems * eb
        if msg.data.size != nelems or msg.data.dtype != np.dtype(dtype):
            raise CollectiveArgumentError(
                f"recv type/count mismatch: posted {nelems}x{np.dtype(dtype)}"
                f", got {msg.data.size}x{msg.data.dtype}"
            )
        # Receiver-side copy from staging into the user buffer.
        pe.advance(machine.hierarchy_of(ctx.rank).access_range(
            addr, nbytes, write=True))
        machine.stats.gets += 1
        machine.stats.bytes_got += nbytes
        if nelems:
            ctx.view(addr, dtype, nelems)[:] = msg.data
        return msg.src

    def sendrecv(self, ctx: "XBRTime", dst: int, send_addr: int,
                 src: int, recv_addr: int, nelems: int, dtype: np.dtype,
                 tag: int = 0) -> None:
        """Combined send+recv (avoids the head-to-head deadlock)."""
        self.send(ctx, dst, send_addr, nelems, dtype, tag)
        self.recv(ctx, src, recv_addr, nelems, dtype, tag)


def attach_message_layer(machine: "Machine") -> MessageLayer:
    """Get-or-create the machine's shared :class:`MessageLayer`."""
    layer = getattr(machine, "_message_layer", None)
    if layer is None:
        layer = MessageLayer(machine)
        machine._message_layer = layer
    return layer
