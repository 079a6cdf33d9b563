"""Two-sided point-to-point messaging under MPI costs (paper section 3.1).

The MPI-class baseline has no message layer of its own: it is the
mailbox router (:class:`~repro.machine.mailbox.MailboxRouter`) driven
through ``ctx.msg_send`` / ``msg_recv`` / ``msg_try_recv`` on a machine
priced with ``with_transport("mpi")``.  Matching is FIFO per
(source, destination) pair; a receive names its source, and the tag and
size are checked against the pair's next message.
"""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError, MailboxProtocolError, SimulationError
from repro.runtime import Machine

from ..conftest import small_config


def run(n_pes, fn):
    machine = Machine(small_config(n_pes).with_transport("mpi"),
                      transport="mailbox")
    return machine, machine.run(fn)


class TestSendRecv:
    def test_simple_message(self):
        def body(ctx):
            ctx.init()
            buf = ctx.private_malloc(32)
            if ctx.my_pe() == 0:
                ctx.view(buf, "long", 4)[:] = [1, 2, 3, 4]
                ctx.msg_send(buf, 4, 1, 1, tag=7)
                got = None
            else:
                ctx.msg_recv(buf, 4, 1, 0, tag=7)
                got = list(ctx.view(buf, "long", 4))
            ctx.close()
            return got

        machine, results = run(2, body)
        assert results[1] == [1, 2, 3, 4]
        assert (machine.stats.sends, machine.stats.recvs) == (1, 1)

    def test_recv_blocks_until_send(self):
        def body(ctx):
            ctx.init()
            buf = ctx.private_malloc(8)
            if ctx.my_pe() == 1:
                # Receiver posts early and must wait for the late sender.
                ctx.msg_recv(buf, 1, 1, 0)
                t = ctx.pe.clock
            else:
                ctx.compute(10_000.0)
                ctx.view(buf, "long", 1)[0] = 5
                ctx.msg_send(buf, 1, 1, 1)
                t = None
            ctx.close()
            return t

        _, results = run(2, body)
        assert results[1] > 10_000.0

    def test_fifo_per_source(self):
        def body(ctx):
            ctx.init()
            buf = ctx.private_malloc(8)
            if ctx.my_pe() == 0:
                for v in (10, 20, 30):
                    ctx.view(buf, "long", 1)[0] = v
                    ctx.msg_send(buf, 1, 1, 1)
                got = None
            else:
                got = []
                for _ in range(3):
                    ctx.msg_recv(buf, 1, 1, 0)
                    got.append(int(ctx.view(buf, "long", 1)[0]))
            ctx.close()
            return got

        _, results = run(2, body)
        assert results[1] == [10, 20, 30]

    def test_tag_matching(self):
        """Tags do not reorder a pair's FIFO: receiving the second
        message's tag first is a protocol error, not a match."""
        def body(ctx):
            ctx.init()
            buf = ctx.private_malloc(8)
            got = None
            if ctx.my_pe() == 0:
                ctx.view(buf, "long", 1)[0] = 1
                ctx.msg_send(buf, 1, 1, 1, tag=5)
                ctx.view(buf, "long", 1)[0] = 2
                ctx.msg_send(buf, 1, 1, 1, tag=9)
            else:
                try:
                    ctx.msg_recv(buf, 1, 1, 0, tag=9)  # out of order
                    got = "accepted"
                except MailboxProtocolError:
                    got = "out-of-order"
            ctx.close()
            return got

        _, results = run(2, body)
        assert results[1] == "out-of-order"

    def test_wildcards(self):
        """Any-source receive: ``msg_try_recv(pe=None)`` takes whichever
        visible message is oldest, and reports its source and tag."""
        def body(ctx):
            ctx.init()
            buf = ctx.private_malloc(8)
            me = ctx.my_pe()
            if me != 2:
                ctx.compute(100.0 * (me + 1))
                ctx.view(buf, "long", 1)[0] = me * 10
                ctx.msg_send(buf, 1, 1, 2, tag=me)
            ctx.barrier()  # quiescence: every message is now visible
            got = []
            if me == 2:
                while (res := ctx.msg_try_recv(buf, 1, 1, pe=None)):
                    got.append((*res, int(ctx.view(buf, "long", 1)[0])))
            ctx.close()
            return got

        _, results = run(3, body)
        assert results[2] == [(0, 0, 0), (1, 1, 10)]

    def test_type_mismatch_detected(self):
        """A receive posted for 4 elements refuses a 2-element message."""
        def body(ctx):
            ctx.init()
            buf = ctx.private_malloc(32)
            if ctx.my_pe() == 0:
                ctx.msg_send(buf, 2, 1, 1)
            else:
                ctx.msg_recv(buf, 4, 1, 0)
            ctx.close()

        with pytest.raises(SimulationError) as info:
            run(2, body)
        assert isinstance(info.value.__cause__, MailboxProtocolError)

    def test_unmatched_recv_deadlocks_cleanly(self):
        def body(ctx):
            ctx.init()
            buf = ctx.private_malloc(8)
            if ctx.my_pe() == 1:
                ctx.msg_recv(buf, 1, 1, 0)  # never sent
            ctx.close()

        with pytest.raises(DeadlockError):
            run(2, body)

    def test_sendrecv_head_to_head(self):
        """Every PE sends before it receives: eager buffered sends never
        wait for the matching receive, so the ring cannot deadlock."""
        def body(ctx):
            ctx.init()
            a = ctx.private_malloc(8)
            b = ctx.private_malloc(8)
            me, n = ctx.my_pe(), ctx.num_pes()
            ctx.view(a, "long", 1)[0] = me
            ctx.msg_send(a, 1, 1, (me + 1) % n)
            ctx.msg_recv(b, 1, 1, (me - 1) % n)
            got = int(ctx.view(b, "long", 1)[0])
            ctx.close()
            return got

        _, results = run(4, body)
        assert results == [3, 0, 1, 2]

    def test_two_sided_charges_both_ends(self):
        """MPI-class messages must cost more than the xBGAS put of the
        same payload (section 3.1)."""
        def body(ctx):
            ctx.init()
            buf = ctx.private_malloc(1024)
            ctx.barrier()
            t0 = ctx.pe.clock
            if ctx.my_pe() == 0:
                ctx.msg_send(buf, 128, 1, 1)
            else:
                ctx.msg_recv(buf, 128, 1, 0)
            ctx.barrier()
            dt = ctx.pe.clock - t0
            ctx.close()
            return dt

        def xbgas_body(ctx):
            ctx.init()
            buf = ctx.malloc(1024)
            src = ctx.private_malloc(1024)
            ctx.barrier()
            t0 = ctx.pe.clock
            if ctx.my_pe() == 0:
                ctx.put(buf, src, 128, 1, 1, "long")
            ctx.barrier()
            dt = ctx.pe.clock - t0
            ctx.close()
            return dt

        _, mpi_res = run(2, body)
        m2 = Machine(small_config(2))
        xb_res = m2.run(xbgas_body)
        assert max(mpi_res) > max(xb_res)
