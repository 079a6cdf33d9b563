"""Every front-door check of every collective, by type and text.

One table: each row is a call of :func:`~repro.collectives.prepare` with
one argument wrong — a bad count or stride, an unknown or ill-typed op,
a root out of range, a buffer that must be symmetric and is not, an
overlapping or mis-sized layout, ``segments < 1``, an unknown algorithm,
a group the caller is not in — or several wrong at once, which pins the
order the checks fire in.  The expected exception type and message of
each row were recorded on the per-collective ``prepare_*`` functions
the records replaced, and must not drift.

A second test holds the records, the schedule registry and the tuning
layer to one list of algorithms.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import COLLECTIVES, prepare
from repro.collectives.schedule.registry import BUILTIN_ALGORITHMS
from repro.collectives.tuning import select_algorithm
from repro.errors import CollectiveArgumentError, ReductionOpError
from repro.runtime import Machine

from ..conftest import small_config

N_PES = 4
I64 = np.dtype(np.int64)
F64 = np.dtype(np.float64)
EVEN = ([1] * N_PES, list(range(N_PES)), N_PES)

#: ``label: (collective, args, keywords)``.  In ``args``, ``"S"`` and
#: ``"T"`` stand for two symmetric buffers and ``"P"`` for a private
#: one; the keyword ``group="other"`` is every PE but the caller.
CASES = {
    "broadcast/count": ("broadcast", ("S", "T", -1, 1, 0, I64), {}),
    "broadcast/stride": ("broadcast", ("S", "T", 2, 0, 0, I64), {}),
    "broadcast/root": ("broadcast", ("S", "T", 2, 1, N_PES, I64), {}),
    "broadcast/root-negative": ("broadcast", ("S", "T", 2, 1, -1, I64), {}),
    "broadcast/symmetric": ("broadcast", ("P", "T", 2, 1, 0, I64), {}),
    "broadcast/algorithm": ("broadcast", ("S", "T", 2, 1, 0, I64),
                            {"algorithm": "bogus"}),
    "broadcast/group": ("broadcast", ("S", "T", 2, 1, 0, I64),
                        {"group": "other"}),
    "broadcast/group-duplicate": ("broadcast", ("S", "T", 2, 1, 0, I64),
                                  {"group": (0, 0, 1)}),
    "broadcast/group-range": ("broadcast", ("S", "T", 2, 1, 0, I64),
                              {"group": (0, 1, N_PES)}),
    "broadcast/count+root": ("broadcast", ("S", "T", -1, 1, N_PES, I64),
                             {}),
    "broadcast/root+group": ("broadcast", ("S", "T", 2, 1, N_PES, I64),
                             {"group": "other"}),
    "broadcast/root+symmetric": ("broadcast", ("P", "T", 2, 1, N_PES, I64),
                                 {}),
    "broadcast/symmetric+algorithm": ("broadcast", ("P", "T", 2, 1, 0, I64),
                                      {"algorithm": "bogus"}),
    "reduce/count": ("reduce", ("S", "T", -1, 1, 0, "sum", I64), {}),
    "reduce/stride": ("reduce", ("S", "T", 2, 0, 0, "sum", I64), {}),
    "reduce/op": ("reduce", ("S", "T", 2, 1, 0, "bogus", I64), {}),
    "reduce/op-float": ("reduce", ("S", "T", 2, 1, 0, "xor", F64), {}),
    "reduce/root": ("reduce", ("S", "T", 2, 1, N_PES, "sum", I64), {}),
    "reduce/symmetric": ("reduce", ("S", "P", 2, 1, 0, "sum", I64), {}),
    "reduce/algorithm": ("reduce", ("S", "T", 2, 1, 0, "sum", I64),
                         {"algorithm": "ring"}),
    "reduce/group": ("reduce", ("S", "T", 2, 1, 0, "sum", I64),
                     {"group": "other"}),
    "reduce/count+op": ("reduce", ("S", "T", -1, 1, 0, "bogus", I64), {}),
    "reduce/op+group": ("reduce", ("S", "T", 2, 1, 0, "bogus", I64),
                        {"group": "other"}),
    "reduce/root+symmetric": ("reduce", ("S", "P", 2, 1, N_PES, "sum", I64),
                              {}),
    "allreduce/count": ("allreduce", ("S", "T", -1, 1, "sum", I64), {}),
    "allreduce/stride": ("allreduce", ("S", "T", 2, 0, "sum", I64), {}),
    "allreduce/op": ("allreduce", ("S", "T", 2, 1, "bogus", I64), {}),
    "allreduce/symmetric": ("allreduce", ("S", "P", 2, 1, "sum", I64), {}),
    "allreduce/segments": ("allreduce", ("S", "T", 2, 1, "sum", I64),
                           {"segments": 0}),
    "allreduce/algorithm": ("allreduce", ("S", "T", 2, 1, "sum", I64),
                            {"algorithm": "bogus"}),
    "allreduce/group": ("allreduce", ("S", "T", 2, 1, "sum", I64),
                        {"group": "other"}),
    "allreduce/op+segments": ("allreduce", ("S", "T", 2, 1, "bogus", I64),
                              {"segments": 0}),
    "allreduce/segments+group": ("allreduce", ("S", "T", 2, 1, "sum", I64),
                                 {"segments": 0, "group": "other"}),
    "allreduce/symmetric+algorithm": ("allreduce",
                                      ("S", "P", 2, 1, "sum", I64),
                                      {"algorithm": "bogus"}),
    "scan/count": ("scan", ("S", "T", -1, 1, "sum", I64), {}),
    "scan/stride": ("scan", ("S", "T", 2, 0, "sum", I64), {}),
    "scan/op": ("scan", ("S", "T", 2, 1, "and", F64), {}),
    "scan/symmetric": ("scan", ("S", "P", 2, 1, "sum", I64), {}),
    "scan/group": ("scan", ("S", "T", 2, 1, "sum", I64),
                   {"group": "other"}),
    "scan/op+group": ("scan", ("S", "T", 2, 1, "bogus", I64),
                      {"group": "other"}),
    "scatter/root": ("scatter", ("P", "S", *EVEN, N_PES, I64), {}),
    "scatter/layout-length": ("scatter", ("P", "S", [1] * 3, [0, 1, 2], 3,
                                          0, I64), {}),
    "scatter/layout-negative-count": ("scatter", ("P", "S", [1, -1, 1, 3],
                                                  [0, 1, 1, 2], 4, 0, I64),
                                      {}),
    "scatter/layout-negative-disp": ("scatter", ("P", "S", [1] * 4,
                                                 [0, -1, 2, 3], 4, 0, I64),
                                     {}),
    "scatter/layout-total": ("scatter", ("P", "S", [1] * 4, [0, 1, 2, 3],
                                         5, 0, I64), {}),
    "scatter/group": ("scatter", ("P", "S", [1] * 3, [0, 1, 2], 3, 0, I64),
                      {"group": "other"}),
    "scatter/root+layout": ("scatter", ("P", "S", [1] * 4, [0, 1, 2, 3], 5,
                                        N_PES, I64), {}),
    "gather/root": ("gather", ("P", "S", *EVEN, N_PES, I64), {}),
    "gather/layout-total": ("gather", ("P", "S", [1] * 4, [0, 1, 2, 3], 3,
                                       0, I64), {}),
    "gather/group": ("gather", ("P", "S", [1] * 3, [0, 1, 2], 3, 0, I64),
                     {"group": "other"}),
    "allgather/symmetric": ("allgather", ("P", "S", *EVEN, I64), {}),
    "allgather/layout-overlap": ("allgather", ("S", "T", [1, 2, 1, 1],
                                               [0, 1, 2, 4], 5, I64), {}),
    "allgather/layout-total": ("allgather", ("S", "T", [1] * 4,
                                             [0, 1, 2, 3], 6, I64), {}),
    "allgather/segments": ("allgather", ("S", "T", *EVEN, I64),
                           {"segments": 0}),
    "allgather/algorithm": ("allgather", ("S", "T", *EVEN, I64),
                            {"algorithm": "ring"}),
    "allgather/group": ("allgather", ("S", "T", *EVEN, I64),
                        {"group": "other"}),
    "allgather/segments+group": ("allgather", ("S", "T", *EVEN, I64),
                                 {"segments": 0, "group": "other"}),
    "allgather/symmetric+layout": ("allgather", ("P", "S", [1] * 4,
                                                 [0, 0, 2, 3], 4, I64), {}),
    "allgather/layout+algorithm": ("allgather", ("S", "T", [1] * 4,
                                                 [0, 0, 2, 3], 4, I64),
                                   {"algorithm": "bogus"}),
    "alltoall/count": ("alltoall", ("S", "T", -1, I64), {}),
    "alltoall/symmetric": ("alltoall", ("P", "T", 2, I64), {}),
    "alltoall/group": ("alltoall", ("S", "T", 2, I64), {"group": "other"}),
    "alltoall/count+group": ("alltoall", ("S", "T", -1, I64),
                             {"group": "other"}),
    "reduce_scatter/op": ("reduce_scatter", ("P", "T", *EVEN, "bogus", I64),
                          {}),
    "reduce_scatter/segments": ("reduce_scatter", ("P", "T", *EVEN, "sum",
                                                   I64), {"segments": 0}),
    "reduce_scatter/layout-overlap": ("reduce_scatter",
                                      ("P", "T", [2, 1, 1, 1], [0, 1, 3, 4],
                                       5, "sum", I64), {}),
    "reduce_scatter/algorithm": ("reduce_scatter", ("P", "T", *EVEN, "sum",
                                                    I64),
                                 {"algorithm": "doubling"}),
    "reduce_scatter/group": ("reduce_scatter", ("P", "T", *EVEN, "sum", I64),
                             {"group": "other"}),
    "reduce_scatter/op+segments": ("reduce_scatter",
                                   ("P", "T", *EVEN, "bogus", I64),
                                   {"segments": 0}),
    "reduce_scatter/layout+algorithm": ("reduce_scatter",
                                        ("P", "T", [2, 1, 1, 1],
                                         [0, 1, 3, 4], 5, "sum", I64),
                                        {"algorithm": "bogus"}),
}

_NOT_MEMBER = ("PE 0 called a collective of group (1, 2, 3) it does not "
               "belong to")
_BAD_OP = ("unknown reduction op 'bogus'; expected one of ('sum', 'prod', "
           "'min', 'max', 'and', 'or', 'xor')")

#: ``label: (exception type, message)``, recorded on PE 0.
EXPECTED = {
    'broadcast/count': (CollectiveArgumentError,
                        'nelems must be >= 0, got -1'),
    'broadcast/stride': (CollectiveArgumentError,
                         'stride must be >= 1, got 0'),
    'broadcast/root': (CollectiveArgumentError, 'root 4 out of range [0, 4)'),
    'broadcast/root-negative': (CollectiveArgumentError,
                                'root -1 out of range [0, 4)'),
    'broadcast/symmetric': (CollectiveArgumentError,
                            'broadcast dest 0x10000 must be a symmetric '
                            '(shared-segment) address'),
    'broadcast/algorithm': (CollectiveArgumentError,
                            "unknown broadcast algorithm 'bogus'"),
    'broadcast/group': (CollectiveArgumentError, _NOT_MEMBER),
    'broadcast/group-duplicate': (CollectiveArgumentError,
                                  'group has duplicate ranks: (0, 0, 1)'),
    'broadcast/group-range': (CollectiveArgumentError,
                              'group rank 4 out of range'),
    'broadcast/count+root': (CollectiveArgumentError,
                             'nelems must be >= 0, got -1'),
    'broadcast/root+group': (CollectiveArgumentError, _NOT_MEMBER),
    'broadcast/root+symmetric': (CollectiveArgumentError,
                                 'root 4 out of range [0, 4)'),
    'broadcast/symmetric+algorithm': (CollectiveArgumentError,
                                      'broadcast dest 0x10000 must be a '
                                      'symmetric (shared-segment) address'),
    'reduce/count': (CollectiveArgumentError, 'nelems must be >= 0, got -1'),
    'reduce/stride': (CollectiveArgumentError, 'stride must be >= 1, got 0'),
    'reduce/op': (ReductionOpError, _BAD_OP),
    'reduce/op-float': (ReductionOpError,
                        "bitwise reduction 'xor' is not defined for "
                        "floating-point type float64 (paper section 4.4)"),
    'reduce/root': (CollectiveArgumentError, 'root 4 out of range [0, 4)'),
    'reduce/symmetric': (CollectiveArgumentError,
                         'reduce src 0x10000 must be a symmetric '
                         '(shared-segment) address (paper section 4.4)'),
    'reduce/algorithm': (CollectiveArgumentError,
                         "unknown reduce algorithm 'ring'"),
    'reduce/group': (CollectiveArgumentError, _NOT_MEMBER),
    'reduce/count+op': (CollectiveArgumentError,
                        'nelems must be >= 0, got -1'),
    'reduce/op+group': (ReductionOpError, _BAD_OP),
    'reduce/root+symmetric': (CollectiveArgumentError,
                              'root 4 out of range [0, 4)'),
    'allreduce/count': (CollectiveArgumentError,
                        'nelems must be >= 0, got -1'),
    'allreduce/stride': (CollectiveArgumentError,
                         'stride must be >= 1, got 0'),
    'allreduce/op': (ReductionOpError, _BAD_OP),
    'allreduce/symmetric': (CollectiveArgumentError,
                            'allreduce src must be a symmetric address'),
    'allreduce/segments': (CollectiveArgumentError, 'segments must be >= 1'),
    'allreduce/algorithm': (CollectiveArgumentError,
                            "unknown allreduce algorithm 'bogus'"),
    'allreduce/group': (CollectiveArgumentError, _NOT_MEMBER),
    'allreduce/op+segments': (ReductionOpError, _BAD_OP),
    'allreduce/segments+group': (CollectiveArgumentError,
                                 'segments must be >= 1'),
    'allreduce/symmetric+algorithm': (CollectiveArgumentError,
                                      'allreduce src must be a symmetric '
                                      'address'),
    'scan/count': (CollectiveArgumentError, 'nelems must be >= 0, got -1'),
    'scan/stride': (CollectiveArgumentError, 'stride must be >= 1, got 0'),
    'scan/op': (ReductionOpError,
                "bitwise reduction 'and' is not defined for floating-point "
                "type float64 (paper section 4.4)"),
    'scan/symmetric': (CollectiveArgumentError,
                       'scan src must be a symmetric address'),
    'scan/group': (CollectiveArgumentError, _NOT_MEMBER),
    'scan/op+group': (ReductionOpError, _BAD_OP),
    'scatter/root': (CollectiveArgumentError, 'root 4 out of range [0, 4)'),
    'scatter/layout-length': (CollectiveArgumentError,
                              'scatter: pe_msgs/pe_disp must have one entry '
                              'per PE (4), got 3/3'),
    'scatter/layout-negative-count': (CollectiveArgumentError,
                                      'scatter: negative pe_msgs entry'),
    'scatter/layout-negative-disp': (CollectiveArgumentError,
                                     'scatter: negative pe_disp entry'),
    'scatter/layout-total': (CollectiveArgumentError,
                             'scatter: sum(pe_msgs)=4 does not match '
                             'nelems=5'),
    'scatter/group': (CollectiveArgumentError, _NOT_MEMBER),
    'scatter/root+layout': (CollectiveArgumentError,
                            'root 4 out of range [0, 4)'),
    'gather/root': (CollectiveArgumentError, 'root 4 out of range [0, 4)'),
    'gather/layout-total': (CollectiveArgumentError,
                            'gather: sum(pe_msgs)=4 does not match nelems=3'),
    'gather/group': (CollectiveArgumentError, _NOT_MEMBER),
    'allgather/symmetric': (CollectiveArgumentError,
                            'allgather dest must be symmetric'),
    'allgather/layout-overlap': (CollectiveArgumentError,
                                 'allgather: the blocks of PEs 1 and 2 '
                                 'overlap (pe_disp/pe_msgs)'),
    'allgather/layout-total': (CollectiveArgumentError,
                               'allgather: sum(pe_msgs)=4 does not match '
                               'nelems=6'),
    'allgather/segments': (CollectiveArgumentError, 'segments must be >= 1'),
    'allgather/algorithm': (CollectiveArgumentError,
                            "unknown allgather algorithm 'ring'"),
    'allgather/group': (CollectiveArgumentError, _NOT_MEMBER),
    'allgather/segments+group': (CollectiveArgumentError,
                                 'segments must be >= 1'),
    'allgather/symmetric+layout': (CollectiveArgumentError,
                                   'allgather dest must be symmetric'),
    'allgather/layout+algorithm': (CollectiveArgumentError,
                                   'allgather: the blocks of PEs 0 and 1 '
                                   'overlap (pe_disp/pe_msgs)'),
    'alltoall/count': (CollectiveArgumentError, 'nelems_per_pe must be >= 0'),
    'alltoall/symmetric': (CollectiveArgumentError,
                           'alltoall dest must be symmetric'),
    'alltoall/group': (CollectiveArgumentError, _NOT_MEMBER),
    'alltoall/count+group': (CollectiveArgumentError,
                             'nelems_per_pe must be >= 0'),
    'reduce_scatter/op': (ReductionOpError, _BAD_OP),
    'reduce_scatter/segments': (CollectiveArgumentError,
                                'segments must be >= 1'),
    'reduce_scatter/layout-overlap': (CollectiveArgumentError,
                                      'reduce_scatter: the blocks of PEs 0 '
                                      'and 1 overlap (pe_disp/pe_msgs)'),
    'reduce_scatter/algorithm': (CollectiveArgumentError,
                                 "unknown reduce_scatter algorithm "
                                 "'doubling'"),
    'reduce_scatter/group': (CollectiveArgumentError, _NOT_MEMBER),
    'reduce_scatter/op+segments': (ReductionOpError, _BAD_OP),
    'reduce_scatter/layout+algorithm': (CollectiveArgumentError,
                                        'reduce_scatter: the blocks of PEs 0 '
                                        'and 1 overlap (pe_disp/pe_msgs)'),
}


def _run(call):
    """Run every row of :data:`CASES` on every PE through ``call``;
    return PE 0's ``label: (exception type, message)``."""
    def body(ctx):
        ctx.init()
        bufs = {"S": ctx.malloc(256), "T": ctx.malloc(256),
                "P": ctx.private_malloc(256)}
        other = tuple(r for r in range(N_PES) if r != ctx.rank)
        seen = {}
        for label, (name, args, kw) in CASES.items():
            args = tuple(bufs.get(a, a) if isinstance(a, str) else a
                         for a in args)
            if kw.get("group") == "other":
                kw = {**kw, "group": other}
            try:
                call(ctx, name, args, kw)
            except Exception as exc:  # noqa: BLE001 - recorded, compared
                seen[label] = (type(exc), str(exc))
            else:
                seen[label] = None
        ctx.close()
        return seen

    return Machine(small_config(N_PES)).run(body)[0]


def _prepare(ctx, name, args, kw):
    prepare(ctx, COLLECTIVES[name], *args, **kw)


def test_every_check_keeps_its_type_and_text():
    seen = _run(_prepare)
    assert seen.keys() == EXPECTED.keys()
    for label, want in EXPECTED.items():
        assert seen[label] == want, label


def test_records_tuning_and_registry_agree():
    """The records are :data:`BUILTIN_ALGORITHMS` (bar the superstep's
    fused family), and ``select_algorithm`` only ever returns an
    algorithm its collective's record compiles."""
    pairs = [(name, alg) for name, record in COLLECTIVES.items()
             for alg in record.compilers]
    assert sorted(pairs) == sorted(p for p in BUILTIN_ALGORITHMS
                                   if p[0] != "superstep")
    for name, record in COLLECTIVES.items():
        if not record.auto:
            with pytest.raises(CollectiveArgumentError,
                               match="no selection rule"):
                select_algorithm(name, 8, 4)
            continue
        for n_pes in (1, 2, 3, 4, 5, 8, 13, 31, 32, 33, 63, 64, 65, 4096):
            for nbytes in (0, 8, 4096, 4097, 32 * 1024, 128 * 1024,
                           1 << 20, 1 << 24):
                for topology in ("fully-connected", "ring", "torus"):
                    pick = select_algorithm(name, nbytes, n_pes, topology)
                    assert pick in record.compilers, (name, pick)
