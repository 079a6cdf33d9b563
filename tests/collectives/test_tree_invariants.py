"""Structural invariants of the binomial trees, checked via span metrics.

The paper's complexity claims (section 4) are tree-shape facts: a
broadcast or reduction over ``p`` PEs moves exactly ``p - 1`` messages
through ``ceil(log2 p)`` stages, a barrier closes every stage, and the
scatter/gather adjusted displacements make every stage message one
contiguous transfer.  The tracing layer lets the tests assert those
facts on the *recorded* execution rather than re-deriving them from the
code under test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.binomial import n_stages
from repro.collectives.scatter import adjusted_displacements
from repro.runtime import Machine
from repro.sim.spans import build_span_forest, walk

from ..conftest import small_config

PE_COUNTS = list(range(1, 13))


def _traced_machine(n_pes: int) -> Machine:
    return Machine(small_config(n_pes), trace=True)


def _top_metrics(machine: Machine, name: str):
    mets = [m for m in machine.collective_metrics()
            if m.name == name]
    assert len(mets) == 1, f"expected one {name} call, got {mets}"
    return mets[0]


def _stage_ops(machine: Machine, name: str) -> dict[int, list[dict]]:
    """Remote put/get attrs per stage index of the named collective."""
    out: dict[int, list[dict]] = {}
    for span in walk(build_span_forest(machine.engine.trace)):
        if span.kind != "collective" or span.name != name:
            continue
        for stage in span.children:
            if stage.kind != "stage":
                continue
            idx = int(stage.attrs["index"])
            for op in stage.children:
                if (op.kind == "op" and op.name in ("put", "get")
                        and op.attrs.get("remote")):
                    out.setdefault(idx, []).append(dict(op.attrs))
    return out


class TestBroadcastTree:
    @pytest.mark.parametrize("n_pes", PE_COUNTS)
    def test_messages_stages_barriers(self, n_pes):
        machine = _traced_machine(n_pes)

        def body(ctx):
            ctx.init()
            buf = ctx.malloc(64)
            src = ctx.private_malloc(64)
            if ctx.my_pe() == min(1, n_pes - 1):
                ctx.view(src, "long", 4, 1)[:] = [9, 8, 7, 6]
            ctx.broadcast(buf, src, 4, 1, min(1, n_pes - 1), "long")
            ctx.close()

        machine.run(body)
        cm = _top_metrics(machine, "broadcast")
        assert cm.n_stages == n_stages(n_pes)
        # Every tree edge carries exactly one message: p - 1 in total.
        # The root's local src->dest copy is not a message.
        assert cm.total_messages == n_pes - 1
        assert cm.extra_messages == 0
        for stage in cm.stages:
            # A barrier closes every stage, entered by every participant.
            assert stage.barriers == n_pes
        # The entry barrier (pre-stage ordering) is also per participant.
        assert cm.entry_barriers == n_pes
        assert sorted(cm.per_pe) == list(range(n_pes))

    @pytest.mark.parametrize("n_pes", [2, 5, 8, 12])
    def test_stage_fanout_doubles(self, n_pes):
        """Recursive halving: senders double each stage (until the
        non-power-of-two tail truncates the last stages)."""
        machine = _traced_machine(n_pes)

        def body(ctx):
            ctx.init()
            buf = ctx.malloc(16)
            ctx.broadcast(buf, buf, 1, 1, 0, "long")
            ctx.close()

        machine.run(body)
        cm = _top_metrics(machine, "broadcast")
        for stage in cm.stages:
            assert stage.messages <= 2 ** stage.index
        assert sum(s.messages for s in cm.stages) == n_pes - 1


class TestReduceTree:
    @pytest.mark.parametrize("n_pes", PE_COUNTS)
    def test_messages_stages_barriers(self, n_pes):
        machine = _traced_machine(n_pes)
        root = n_pes // 2

        def body(ctx):
            ctx.init()
            src = ctx.malloc(64)
            dest = ctx.private_malloc(64)
            ctx.view(src, "long", 4, 1)[:] = ctx.my_pe() + 1
            ctx.reduce(dest, src, 4, 1, root, "sum", "long")
            ctx.close()

        machine.run(body)
        cm = _top_metrics(machine, "reduce")
        assert cm.n_stages == n_stages(n_pes)
        # Recursive doubling pulls one get per tree edge: p - 1 in total.
        assert cm.total_messages == n_pes - 1
        for stage in cm.stages:
            assert stage.barriers == n_pes
        # The pre-stage barrier ordering the s_buff loads.
        assert cm.entry_barriers == n_pes


class TestScatterGatherContiguity:
    """The adjusted displacements guarantee one contiguous (stride-1)
    transfer per tree edge, sized to the receiver's whole subtree."""

    @staticmethod
    def _scatter_oracle(pe_msgs, root):
        """Expected per-stage message element counts (sorted)."""
        p = len(pe_msgs)
        adj = adjusted_displacements(pe_msgs, root)
        k = n_stages(p)
        mask = (1 << k) - 1
        expect: dict[int, list[int]] = {}
        for ordinal, i in enumerate(range(k - 1, -1, -1)):
            mask ^= 1 << i
            sizes = []
            for vir in range(p):
                if (vir & mask) == 0 and (vir & (1 << i)) == 0:
                    part = (vir ^ (1 << i)) % p
                    if vir < part:
                        end = min(part + (1 << i), p)
                        size = adj[end] - adj[part]
                        if size:
                            sizes.append(size)
            if sizes:
                expect[ordinal] = sorted(sizes)
        return expect

    @staticmethod
    def _gather_oracle(pe_msgs, root):
        p = len(pe_msgs)
        adj = adjusted_displacements(pe_msgs, root)
        k = n_stages(p)
        mask = (1 << k) - 1
        expect: dict[int, list[int]] = {}
        for i in range(k):
            mask ^= 1 << i
            sizes = []
            for vir in range(p):
                if (vir | mask) == mask and (vir & (1 << i)) == 0:
                    part = (vir ^ (1 << i)) % p
                    if vir < part:
                        end = min(part + (1 << i), p)
                        size = adj[end] - adj[part]
                        if size:
                            sizes.append(size)
            if sizes:
                expect[i] = sorted(sizes)
        return expect

    @pytest.mark.parametrize("n_pes", PE_COUNTS)
    @pytest.mark.parametrize("root", [0, "mid"])
    def test_scatter_stage_messages_match_adj_disp(self, n_pes, root):
        root = n_pes // 2 if root == "mid" else 0
        pe_msgs = [(i % 3) + 1 for i in range(n_pes)]
        pe_disp = np.concatenate([[0], np.cumsum(pe_msgs)[:-1]]).tolist()
        nelems = sum(pe_msgs)
        machine = _traced_machine(n_pes)

        def body(ctx):
            ctx.init()
            src = ctx.private_malloc(max(nelems * 8, 16))
            dest = ctx.malloc(64)
            if ctx.my_pe() == root:
                ctx.view(src, "long", nelems, 1)[:] = np.arange(nelems)
            ctx.scatter(dest, src, pe_msgs, pe_disp, nelems, root, "long")
            ctx.close()

        machine.run(body)
        ops = _stage_ops(machine, "scatter")
        expect = self._scatter_oracle(pe_msgs, root)
        got = {idx: sorted(o["nelems"] for o in stage_ops)
               for idx, stage_ops in ops.items()}
        assert got == expect
        for stage_ops in ops.values():
            for op in stage_ops:
                assert op["stride"] == 1  # contiguity from adj_disp
        # One message per tree edge.
        cm = _top_metrics(machine, "scatter")
        assert sum(s.messages for s in cm.stages) == max(n_pes - 1, 0)
        assert cm.n_stages == n_stages(n_pes)

    @pytest.mark.parametrize("n_pes", PE_COUNTS)
    @pytest.mark.parametrize("root", [0, "mid"])
    def test_gather_stage_messages_match_adj_disp(self, n_pes, root):
        root = n_pes // 2 if root == "mid" else 0
        pe_msgs = [(i % 4) + 1 for i in range(n_pes)]
        pe_disp = np.concatenate([[0], np.cumsum(pe_msgs)[:-1]]).tolist()
        nelems = sum(pe_msgs)
        machine = _traced_machine(n_pes)

        def body(ctx):
            ctx.init()
            src = ctx.private_malloc(64)
            dest = ctx.malloc(max(nelems * 8, 16))
            me = ctx.my_pe()
            ctx.view(src, "long", pe_msgs[me], 1)[:] = me
            ctx.gather(dest, src, pe_msgs, pe_disp, nelems, root, "long")
            ctx.close()

        machine.run(body)
        ops = _stage_ops(machine, "gather")
        expect = self._gather_oracle(pe_msgs, root)
        got = {idx: sorted(o["nelems"] for o in stage_ops)
               for idx, stage_ops in ops.items()}
        assert got == expect
        for stage_ops in ops.values():
            for op in stage_ops:
                assert op["stride"] == 1
        cm = _top_metrics(machine, "gather")
        assert sum(s.messages for s in cm.stages) == max(n_pes - 1, 0)
        assert cm.n_stages == n_stages(n_pes)


class TestAllreduceScanStages:
    @pytest.mark.parametrize("n_pes", [2, 3, 6, 8])
    def test_doubling_stage_count(self, n_pes):
        machine = _traced_machine(n_pes)

        def body(ctx):
            ctx.init()
            src = ctx.malloc(32)
            dest = ctx.private_malloc(32)
            ctx.view(src, "long", 2, 1)[:] = ctx.my_pe()
            ctx.allreduce(dest, src, 2, 1, "sum", "long")
            ctx.close()

        machine.run(body)
        cm = _top_metrics(machine, "allreduce")
        pof2 = 1 << (n_pes.bit_length() - 1)
        if pof2 * 2 <= n_pes:
            pof2 = n_pes
        assert cm.n_stages == n_stages(pof2)
        for stage in cm.stages:
            assert stage.barriers == n_pes

    @pytest.mark.parametrize("n_pes", [2, 5, 8])
    def test_scan_stage_count(self, n_pes):
        machine = _traced_machine(n_pes)

        def body(ctx):
            ctx.init()
            src = ctx.malloc(32)
            dest = ctx.private_malloc(32)
            ctx.view(src, "long", 2, 1)[:] = ctx.my_pe() + 1
            ctx.scan(dest, src, 2, 1, "sum", "long")
            ctx.close()

        machine.run(body)
        cm = _top_metrics(machine, "scan")
        assert cm.n_stages == n_stages(n_pes)
        # Hillis-Steele: stage i has p - 2^i readers.
        for stage in cm.stages:
            assert stage.messages == n_pes - (1 << stage.index)
            assert stage.barriers == n_pes
