"""Two-sided mailbox engine (the Xctcmsg-style core-to-core design).

Every PE owns one bounded receive queue of
:attr:`~repro.params.MailboxParams.recv_depth` message slots.  A send
travels through the *postoffice*: the ordinary fabric/topology path of
:mod:`repro.machine.network` (injection link, fabric channels, wire
latency) plus a per-hop routing charge and fixed header framing — so
mailbox traffic contends with one-sided traffic for exactly the same
links and extends the same barrier quiescence horizon.

Semantics (matching the ``Send``/``Recv`` IR nodes):

* **send** is eager and buffered — it completes once the message is
  committed to the target's receive queue.  It blocks only on
  *backpressure*: when the queue is full the enqueue does not happen
  (commit-safety — no partial slots), the sender backs off
  ``retry_ns`` and retries, up to ``max_retries`` before
  :class:`~repro.errors.MailboxBackpressureError`.  The retry loop
  keeps the sender runnable, so a stuck receiver surfaces as this
  error instead of a silent scheduler deadlock.
* **recv** takes the *first* message from the named source, or finds
  none and registers the PE as waiting for one: the caller then parks
  (suspends, or leaves a continuation) until the send that enqueues it
  resumes the PE.  Matching is strictly FIFO per
  (source, destination) pair.  The message's ``tag`` is then verified —
  a mismatch means sender and receiver disagree on the protocol and
  raises :class:`~repro.errors.MailboxProtocolError`.
* **try_recv** never blocks and only sees messages whose delivery time
  has already passed on the caller's clock (a message still in flight
  is invisible, exactly as on real hardware).

Fault injection hooks into the *enqueue* path through the machine's
:class:`~repro.faults.injector.FaultInjector` (via ``Network.send``):
a ``drop`` means the message is never enqueued, ``corrupt`` flags the
message so the payload is bit-flipped at delivery, ``delay``/``degrade``
shift its delivery time.  With a :class:`~repro.faults.plan.RetryConfig`
armed, dropped/corrupted enqueues are retried like reliable puts.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from ..errors import (
    MailboxBackpressureError,
    MailboxProtocolError,
    TransferTimeoutError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import Machine

__all__ = ["Message", "MailboxRouter"]


class Message:
    """One mailbox message occupying a receive-queue slot."""

    __slots__ = ("src", "dst", "tag", "data", "nbytes", "seq", "t_avail",
                 "fault")

    def __init__(self, src: int, dst: int, tag: int,
                 data: np.ndarray | None, nbytes: int, seq: int,
                 t_avail: float, fault=None):
        self.src = src
        self.dst = dst
        self.tag = tag
        #: Contiguous payload copy (None for payload-free control msgs).
        self.data = data
        self.nbytes = nbytes
        #: Global enqueue sequence number (diagnostics / determinism).
        self.seq = seq
        #: Instant the message becomes visible at the destination.
        self.t_avail = t_avail
        #: A fired ``corrupt`` fault to apply at delivery (None = clean).
        self.fault = fault

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(#{self.seq} PE{self.src}->PE{self.dst} "
                f"tag={self.tag} {self.nbytes}B @{self.t_avail:.0f}ns)")


class MailboxRouter:
    """Shared mailbox state for one simulated machine.

    Owns every PE's receive queue plus the blocked-receiver registry;
    all mutation happens at scheduler checkpoints so queue order is
    deterministic.  Memory-side costs (gathering the payload from the
    sender's buffer, scattering into the receiver's) are charged by the
    :class:`~repro.runtime.context.XBRTime` wrappers, not here.
    """

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.cfg = machine.config
        self.params = machine.config.mailbox
        n = machine.config.n_pes
        self._queues: list[deque[Message]] = [deque() for _ in range(n)]
        #: Blocked receiver rank -> source rank it awaits.
        self._waiting: dict[int, int] = {}
        self._seq = 0
        #: Peak receive-queue occupancy observed (per PE).
        self.peak_depth = [0] * n
        #: Sender stalls that hit a full queue (backpressure events).
        self.stalls = 0
        #: Messages whose enqueue was dropped by fault injection.
        self.dropped = 0

    # -- introspection ------------------------------------------------------

    def depth(self, rank: int) -> int:
        """Current occupancy of ``rank``'s receive queue."""
        return len(self._queues[rank])

    def route_ns(self, src_pe: int, dst_pe: int) -> float:
        """Postoffice routing charge: per-hop table work between nodes."""
        net = self.machine.network
        hops = net.route_hops(net.node_of(src_pe), net.node_of(dst_pe))
        return self.params.route_ns_per_hop * hops

    # -- send ----------------------------------------------------------------

    def send(self, rank: int, target: int, data: np.ndarray | None,
             nbytes: int, tag: int) -> None:
        """Commit one message into ``target``'s receive queue.

        ``data`` is already a contiguous copy of the payload (the caller
        charged the gather); the router charges wire + routing time and
        blocks the sender on backpressure.  Either the whole message is
        enqueued or nothing is — a failed attempt leaves no partial
        state, and the retry re-runs the entire commit.
        """
        machine = self.machine
        engine = machine.engine
        params = self.params
        pe = engine.pes[rank]
        queue = self._queues[target]
        traced = engine.trace.enabled

        # Backpressure: spin (runnable, so no false scheduler deadlock)
        # until a slot frees, with a bounded retry budget.
        stalls = 0
        while len(queue) >= params.recv_depth:
            stalls += 1
            if stalls > params.max_retries:
                raise MailboxBackpressureError(
                    f"PE {rank}: mailbox send to PE {target} stalled "
                    f"{stalls - 1} times on a full queue "
                    f"(depth {params.recv_depth}, max_retries="
                    f"{params.max_retries} exhausted)"
                )
            self.stalls += 1
            machine.stats.mbx_stalls += 1
            if traced:
                engine.record("mailbox",
                              f"backpressure -> PE{target} "
                              f"(depth {len(queue)})")
            pe.advance(params.retry_ns)
            engine.checkpoint()

        retry = machine.retry
        injector = machine.faults
        timeout = retry.timeout_ns if retry is not None else 0.0
        attempts = 1 + (retry.max_retries if retry is not None else 0)
        wire_bytes = nbytes + params.header_bytes
        for attempt in range(attempts):
            t_free, t_delivered, fault = machine.network.send(
                pe.clock, rank, target, wire_bytes)
            pe.advance_to(t_free)
            if (fault is not None and fault.kind in ("drop", "corrupt")
                    and retry is not None):
                injector.note_retry(pe.clock, rank, target,
                                    fault.seq, attempt, timeout)
                pe.advance(timeout)
                timeout *= retry.backoff
                continue
            if fault is not None and fault.kind == "drop":
                # Unreliable mode: the postoffice lost the message and
                # nothing was ever committed to the queue.
                self.dropped += 1
                machine.stats.mbx_dropped += 1
                return
            t_avail = t_delivered + self.route_ns(rank, target)
            machine.network.note_delivery(t_avail)
            corrupt = (fault if fault is not None
                       and fault.kind == "corrupt" else None)
            self._seq += 1
            msg = Message(rank, target, tag, data, nbytes, self._seq,
                          t_avail, fault=corrupt)
            queue.append(msg)
            depth = len(queue)
            if depth > self.peak_depth[target]:
                self.peak_depth[target] = depth
            machine.stats.sends += 1
            machine.stats.bytes_sent += nbytes
            if self._waiting.get(target) == rank:
                del self._waiting[target]
                engine.resume(target, at_time=msg.t_avail)
            return
        raise TransferTimeoutError(
            f"PE {rank}: mailbox send of {nbytes}B to PE {target} lost "
            f"{attempts} times (max_retries={retry.max_retries} exhausted)"
        )

    # -- receive -------------------------------------------------------------

    def _match(self, rank: int, src: int) -> Message | None:
        """Pop the first queued message from ``src`` (FIFO per pair)."""
        queue = self._queues[rank]
        for msg in queue:
            if msg.src == src:
                queue.remove(msg)
                return msg
        return None

    def recv(self, rank: int, src: int, tag: int) -> Message | None:
        """The next message from ``src``, its tag verified — or, with
        none queued, ``None``: ``rank`` is then registered as waiting,
        and the matching send's enqueue resumes it to try again."""
        msg = self._match(rank, src)
        if msg is None:
            self._waiting[rank] = src
            return None
        if msg.tag != tag:
            raise MailboxProtocolError(
                f"PE {rank}: recv from PE {src} expected tag {tag} but "
                f"the pair's FIFO head is {msg!r} — sender and receiver "
                f"disagree on message order"
            )
        machine = self.machine
        pe = machine.engine.pes[rank]
        pe.advance_to(msg.t_avail)
        pe.advance(self.params.match_ns)
        machine.stats.recvs += 1
        return msg

    def try_recv(self, rank: int, src: int | None = None) -> Message | None:
        """Non-blocking receive: the oldest *visible* message, or None.

        ``src=None`` matches any source (whole-queue FIFO order).  Only
        messages already delivered on the caller's clock are visible.
        """
        machine = self.machine
        pe = machine.engine.pes[rank]
        queue = self._queues[rank]
        for msg in queue:
            if msg.t_avail > pe.clock:
                continue
            if src is not None and msg.src != src:
                continue
            queue.remove(msg)
            pe.advance(self.params.match_ns)
            machine.stats.recvs += 1
            return msg
        return None

    def probe(self, rank: int, src: int | None = None) -> bool:
        """Whether a visible message (optionally from ``src``) is queued."""
        pe = self.machine.engine.pes[rank]
        return any(msg.t_avail <= pe.clock
                   and (src is None or msg.src == src)
                   for msg in self._queues[rank])
