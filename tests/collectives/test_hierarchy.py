"""Tests for location-aware hierarchical collectives (paper section 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import Machine

from ..conftest import small_config
from .helpers import run_machine


def scattered_config(n_pes=8, n_nodes=4, **kw):
    """Round-robin PE placement: rank i on node i % n_nodes."""
    return small_config(
        n_pes,
        cores_per_node=-(-n_pes // n_nodes),
        pe_node_map=tuple(i % n_nodes for i in range(n_pes)),
        **kw,
    )


class TestNodeLayout:
    def test_groups_and_leaders(self):
        from repro.collectives.hierarchy import node_layout

        cfg = scattered_config()
        groups, leaders = node_layout(tuple(map(cfg.node_of, range(8))), 5)
        # Round-robin over 4 nodes: node k hosts {k, k+4}.
        assert groups == [(0, 4), (1, 5), (2, 6), (3, 7)]
        # Root 5 leads its node; others are led by their lowest rank.
        assert leaders == [0, 5, 2, 3]

    def test_sequential_layout(self):
        from repro.collectives.hierarchy import node_layout

        cfg = small_config(8, cores_per_node=4)
        groups, leaders = node_layout(tuple(map(cfg.node_of, range(8))), 0)
        assert groups == [(0, 1, 2, 3), (4, 5, 6, 7)]
        assert leaders == [0, 4]


class TestHierarchicalBroadcast:
    @pytest.mark.parametrize("root", [0, 3, 5, 7])
    def test_correctness_scattered(self, root):
        def body(ctx):
            ctx.init()
            dest = ctx.malloc(8 * 4)
            src = ctx.private_malloc(8 * 4)
            ctx.view(dest, "long", 4)[:] = -1
            if ctx.my_pe() == root:
                ctx.view(src, "long", 4)[:] = [root, 2, 3, 4]
            ctx.broadcast(dest, src, 4, 1, root, "long",
                          algorithm="hierarchical")
            got = list(ctx.view(dest, "long", 4))
            ctx.close()
            return got

        m = Machine(scattered_config())
        for got in m.run(body):
            assert got == [root, 2, 3, 4]

    @pytest.mark.parametrize("algorithm", ["binomial", "hierarchical"])
    def test_root_dest_left_alone(self, algorithm):
        """``copy_to_root_dest=False`` (OpenSHMEM semantics) leaves the
        root's ``dest`` as it was, whatever the algorithm."""
        from repro.collectives import COLLECTIVES, prepare

        def body(ctx):
            ctx.init()
            dest = ctx.malloc(8 * 4)
            src = ctx.private_malloc(8 * 4)
            ctx.view(dest, "long", 4)[:] = -1
            ctx.view(src, "long", 4)[:] = 100
            ctx.barrier()
            prepare(ctx, COLLECTIVES["broadcast"], dest, src, 4, 1, 5,
                    np.dtype(np.int64), algorithm=algorithm,
                    copy_to_root_dest=False).run(ctx)
            got = list(ctx.view(dest, "long", 4))
            ctx.close()
            return got

        got = Machine(scattered_config()).run(body)
        assert got[5] == [-1] * 4
        assert all(row == [100] * 4 for r, row in enumerate(got) if r != 5)

    def test_correctness_single_node(self):
        def body(ctx):
            ctx.init()
            dest = ctx.malloc(16)
            src = ctx.private_malloc(16)
            if ctx.my_pe() == 1:
                ctx.view(src, "long", 1)[0] = 77
            ctx.broadcast(dest, src, 1, 1, 1, "long",
                          algorithm="hierarchical")
            got = int(ctx.view(dest, "long", 1)[0])
            ctx.close()
            return got

        assert run_machine(4, body) == [77] * 4

    def test_fewer_inter_node_messages_when_scattered(self):
        """On a scattered placement the flat tree pays inter-node wire
        cost on most edges; the hierarchical one only between leaders."""
        def timing(algorithm):
            def body(ctx):
                ctx.init()
                dest = ctx.malloc(8 * 256)
                src = ctx.private_malloc(8 * 256)
                ctx.barrier()
                t0 = ctx.pe.clock
                ctx.broadcast(dest, src, 256, 1, 0, "long",
                              algorithm=algorithm)
                ctx.barrier()
                dt = ctx.pe.clock - t0
                ctx.close()
                return dt

            m = Machine(scattered_config(
                8, 4,
                memory_bytes_per_pe=8 * 1024 * 1024,
                symmetric_heap_bytes=4 * 1024 * 1024,
                collective_scratch_bytes=512 * 1024,
            ))
            return max(m.run(body))

        assert timing("hierarchical") < timing("binomial")


class TestHierarchicalReduce:
    @pytest.mark.parametrize("root", [0, 2, 6])
    @pytest.mark.parametrize("op", ["sum", "max"])
    def test_correctness_scattered(self, root, op):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 3)
            dest = ctx.private_malloc(8 * 3)
            me = ctx.my_pe()
            ctx.view(src, "long", 3)[:] = [me, me * 2, 1]
            ctx.reduce(dest, src, 3, 1, root, op, "long",
                       algorithm="hierarchical")
            got = (list(ctx.view(dest, "long", 3))
                   if me == root else None)
            ctx.close()
            return got

        m = Machine(scattered_config())
        results = m.run(body)
        if op == "sum":
            want = [sum(range(8)), 2 * sum(range(8)), 8]
        else:
            want = [7, 14, 1]
        assert results[root] == want

    def test_agrees_with_flat_binomial(self):
        def run_with(algorithm):
            def body(ctx):
                ctx.init()
                src = ctx.malloc(8 * 5)
                dest = ctx.private_malloc(8 * 5)
                me = ctx.my_pe()
                ctx.view(src, "long", 5)[:] = (me + 1) * np.arange(1, 6)
                ctx.reduce(dest, src, 5, 1, 2, "sum", "long",
                           algorithm=algorithm)
                got = (list(ctx.view(dest, "long", 5))
                       if me == 2 else None)
                ctx.close()
                return got

            m = Machine(scattered_config(6, 3))
            return m.run(body)[2]

        assert run_with("hierarchical") == run_with("binomial")


class TestPeNodeMap:
    def test_validation(self):
        with pytest.raises(ValueError, match="entries"):
            small_config(4, pe_node_map=(0, 1))
        with pytest.raises(ValueError, match="contiguous"):
            small_config(4, pe_node_map=(0, 2, 2, 0))

    def test_node_members(self):
        cfg = scattered_config(8, 4)
        assert cfg.node_members(0) == (0, 4)
        assert cfg.node_members(3) == (3, 7)
        assert cfg.n_nodes == 4


class TestTeamOrder:
    """A team whose members are not in ascending world order: ``nodes``
    lists each member's node in group order, and each node is led by its
    lowest *group* rank (the root in the root's node), not its lowest
    world PE.  Members (6, 1, 5, 2) on two nodes of four PEs: node 1
    holds group ranks 0 and 2 (PEs 6 and 5), so group rank 0 — PE 6 —
    leads it."""

    MEMBERS = (6, 1, 5, 2)
    ROOT = 1  # group rank 1: PE 1, on node 0

    def test_leaders_are_lowest_group_ranks(self):
        from repro.collectives.hierarchy import node_layout

        cfg = small_config(8, cores_per_node=4)
        nodes = tuple(map(cfg.node_of, self.MEMBERS))
        assert nodes == (1, 0, 1, 0)
        groups, leaders = node_layout(nodes, self.ROOT)
        assert groups == [(1, 3), (0, 2)]
        assert leaders == [1, 0]

    @pytest.mark.parametrize("collective", ["broadcast", "reduce"])
    def test_agrees_with_flat_binomial(self, collective):
        from repro.collectives.request import COLLECTIVES, prepare

        members, root = self.MEMBERS, self.ROOT

        def run_with(algorithm):
            def body(ctx):
                ctx.init()
                me = ctx.my_pe()
                src = ctx.malloc(8 * 5)
                dest = ctx.malloc(8 * 5)
                ctx.view(src, "long", 5)[:] = (me + 1) * np.arange(1, 6)
                ctx.view(dest, "long", 5)[:] = -1
                cross = None
                if me in members:
                    args = (dest, src, 5, 1, root) + (
                        ("sum",) if collective == "reduce" else ())
                    call = prepare(ctx, COLLECTIVES[collective], *args,
                                   np.dtype(np.int64), group=members,
                                   algorithm=algorithm)
                    t = call.schedule.table
                    node = np.array([ctx.config.node_of(m) for m in members])
                    remote = np.flatnonzero(t.rank != t.peer)
                    cross = {(int(t.rank[i]), int(t.peer[i])) for i in remote
                             if node[t.rank[i]] != node[t.peer[i]]}
                    ctx._issue(call)
                ctx.barrier()
                got = ctx.view(dest, "long", 5).tobytes()
                ctx.close()
                return got, cross

            return Machine(small_config(8, cores_per_node=4)).run(body)

        flat, tiered = run_with("binomial"), run_with("hierarchical")
        assert [got for got, _ in tiered] == [got for got, _ in flat]
        # Only the two leaders talk across nodes: the root (group rank 1)
        # and group rank 0, PE 6 — not PE 5, node 1's lowest world PE.
        assert {pair for _, cross in tiered if cross
                for pair in cross} <= {(0, 1), (1, 0)}
        assert any(cross for _, cross in tiered)
