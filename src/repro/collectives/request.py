"""A collective is a record; one request path prepares every call.

The paper's library picks among "a variety of algorithms ... dynamically
chosen from at runtime based on the arguments of a specific call"
(sections 4.1 and 7).  Every collective here follows the same path from
a call to a runnable :class:`~.schedule.PreparedCollective`, so each is
described once, as data — a :class:`Collective` record in the shape of
bsponmpi's ``coll_request_t {coll, root, group, params}`` — and
:func:`prepare` is that path:

1. the counts or stride, the reduction op and ``segments``;
2. the group (the caller must belong to it), then the root;
3. the buffer that must be symmetric, then the per-PE layout;
4. the algorithm (``"auto"`` asks :mod:`~.tuning`, once);
5. the compile, through the algorithm's :class:`Compiler`;
6. the span attributes, the stats key and the bindings.

The front doors (``ctx.broadcast`` …, :class:`~.teams.Team`,
:class:`~repro.baselines.shmem.ShmemAPI`, the ``i*`` initiators and the
resilient calls) all come here; the schedule registry compiles its call
shapes through the same :class:`Compiler` entries, and the tuning layer
reads which collectives it may choose for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from types import ModuleType
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import CollectiveArgumentError
from . import allreduce, broadcast, extra, gather, hierarchy, reduce
from . import reduce_scatter, scan, scatter
from .allreduce import auto_segments
from .common import resolve_group, validate_counts, validate_root
from .ops import BITWISE_OPS, REDUCE_OPS, check_op
from .schedule.executor import PreparedCollective
from .schedule.ir import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = ["Collective", "Compiler", "COLLECTIVES", "prepare"]


@dataclass(frozen=True, eq=False)
class Compiler:
    """How one algorithm compiles: ``module.function(*args, **keywords)``
    with every argument named by its role in the call.  The function is
    looked up on its module at each call, so whatever wraps the module
    attribute (a tracer, a test double) sees every compile."""

    module: ModuleType
    function: str
    args: tuple[str, ...]
    keywords: tuple[str, ...] = ()

    def arguments(self, call: Mapping) -> tuple[tuple, dict]:
        """The positional and keyword arguments of ``call``, a mapping
        of role to value."""
        return (tuple(call[role] for role in self.args),
                {role: call[role] for role in self.keywords})

    def build(self, args: tuple, kwargs: dict) -> Schedule:
        """Compile ``args`` and ``kwargs`` (see :meth:`arguments`)."""
        return getattr(self.module, self.function)(*args, **kwargs)


#: How a collective's element counts are given, after ``dest, src``:
#: ``nelems, stride``; one ``nelems`` for every peer; or per-PE
#: ``pe_msgs, pe_disp`` summing to ``nelems``.
STRIDED, PER_PE, COUNTS = "strided", "per-pe", "counts"
_COUNT_ROLES = {STRIDED: ("nelems", "stride"), PER_PE: ("nelems",),
                COUNTS: ("pe_msgs", "pe_disp", "nelems")}


@dataclass(frozen=True, eq=False)
class Collective:
    """One collective: its call's roles and checks, its algorithms, and
    what a call records (see the module docstring for the order).

    A call's positional arguments after ``ctx`` are ``dest, src``, the
    counts of its ``layout``, ``root`` if ``rooted``, ``op`` if
    ``reduces``, and ``dtype`` — :attr:`params` spells them out."""

    name: str
    #: How the counts are given (:data:`STRIDED`, :data:`PER_PE`,
    #: :data:`COUNTS`).
    layout: str
    #: Accepted keywords and their defaults; a collective that takes
    #: ``algorithm`` lets ``"auto"`` select.
    options: Mapping[str, object]
    #: Algorithm -> compiler; the first is the default when the call
    #: takes no ``algorithm``.
    compilers: Mapping[str, Compiler]
    #: Span-attribute keys, in order (``dtype`` follows when traced).
    attrs: tuple[str, ...]
    #: ``str.format_map`` pattern of the stats key over the call's roles.
    stats: str
    #: Registry call shapes: ``(n_pes, nelems, algorithm)`` ->
    #: ``(label, roles)`` pairs.
    shapes: Callable[[int, int, str], Iterator[tuple[str, dict]]]
    rooted: bool = False
    reduces: bool = False
    #: ``COUNTS`` only: refuse two overlapping non-empty blocks.
    disjoint: bool = False
    #: ``"dest"`` or ``"src"``: the buffer that must be symmetric on more
    #: than one PE, and the message (``{addr}`` is its address) if not.
    symmetric: str | None = None
    symmetric_error: str = ""
    #: The algorithm whose span reports its ``segments`` (auto-sized).
    segment_attr: str | None = None
    #: Derived: the positional roles; the algorithm of a call without
    #: the keyword; whether ``"auto"`` may select.
    params: tuple[str, ...] = field(init=False)
    default: str = field(init=False)
    auto: bool = field(init=False)

    def __post_init__(self) -> None:
        def derive(name, value):
            object.__setattr__(self, name, value)

        derive("params", ("dest", "src") + _COUNT_ROLES[self.layout]
               + ("root",) * self.rooted + ("op",) * self.reduces
               + ("dtype",))
        derive("default", self.options.get("algorithm",
                                           next(iter(self.compilers))))
        derive("auto", "algorithm" in self.options)


#: Prepared calls a context keeps before it starts over.
_MAX_PREPARED = 256


def prepare(ctx: "XBRTime", desc: Collective, *args,
            group: Sequence[int] | None = None,
            **kw) -> PreparedCollective:
    """Validate, select and compile one call of ``desc`` — everything but
    the execution.  ``args`` are the record's ``params`` in order and
    ``kw`` its ``options``; ``group`` (world ranks, ``None`` for the
    context's default group) runs it on a subset, with group-relative
    roots.  The caller runs the result: the context's dispatcher at
    once or at a superstep's flush, a non-blocking handle at ``wait()``.

    A context keeps what it prepared (not under ``fast_paths=False``):
    a call with the same record, arguments and their types (a numpy
    integer is an int), ``group``, keywords and spans on or off gets the
    same object while its compiler function on its module is unchanged.
    Holding :data:`_MAX_PREPARED` calls, a context starts over.
    """
    memo = ctx._prepared
    if memo is not None:
        traced, options = ctx.spans.enabled, tuple(kw.items())
        prepared = _kept(memo, (desc, args, tuple(map(type, args)), group,
                                options, traced))
        if prepared is not None:
            return prepared
    # A numpy integer is an int from here on, and per-PE counts a tuple:
    # span attributes, the stats key and the compile cache see one kind
    # of number whatever came in, and the call has a key.
    args, group = tuple(map(_plain, args)), _plain(group)
    if memo is not None:
        key = (desc, args, tuple(map(type, args)), group, options, traced)
        if (prepared := _kept(memo, key)) is not None:
            return prepared
    opts = {**desc.options, **kw}
    if len(args) != len(desc.params) or len(opts) != len(desc.options):
        raise TypeError(f"{desc.name} takes {desc.params} and the keywords "
                        f"{tuple(desc.options)}")
    # The checks read the arguments where ``params`` puts them.
    dest, src, dtype = args[0], args[1], args[-1]
    layout = desc.layout
    stride = 1
    if layout == STRIDED:
        nelems, stride = args[2], args[3]
        if nelems < 0 or stride < 1:
            validate_counts(nelems, stride)
    elif layout == PER_PE:
        nelems = args[2]
        if nelems < 0:
            raise CollectiveArgumentError("nelems_per_pe must be >= 0")
    else:
        nelems = args[4]
    op = None
    if desc.reduces:
        op = args[-2]
        if op not in REDUCE_OPS or op in BITWISE_OPS and dtype.kind == "f":
            check_op(op, dtype)
    segments = opts.get("segments")
    if segments is not None and segments < 1:
        raise CollectiveArgumentError("segments must be >= 1")
    if group is None and ctx.default_group is None:
        members, me = ctx.world_group, ctx.rank
    else:
        members, me = resolve_group(ctx, group)
    n_pes = len(members)
    root = 0
    if desc.rooted:
        root = args[-3] if desc.reduces else args[-2]
        if not 0 <= root < n_pes:
            validate_root(root, n_pes)
    if desc.symmetric is not None and n_pes > 1:
        addr = dest if desc.symmetric == "dest" else src
        if not ctx.is_symmetric(addr):
            raise CollectiveArgumentError(
                desc.symmetric_error.format(addr=addr))
    counts = disps = nodes = None
    if layout == COUNTS:
        check_layout(args[2], args[3], nelems, n_pes, desc.name,
                     disjoint=desc.disjoint)
        counts, disps = tuple(args[2]), tuple(args[3])
    algorithm = opts.get("algorithm", desc.default)
    if algorithm == "auto":
        from .tuning import select_algorithm

        algorithm = select_algorithm(desc.name, nelems * dtype.itemsize,
                                     n_pes, ctx.config.topology)
    compiler = desc.compilers.get(algorithm)
    if compiler is None:
        raise CollectiveArgumentError(
            f"unknown {desc.name} algorithm {algorithm!r}")
    if compiler.args[0] == "nodes":
        nodes = tuple(map(ctx.config.node_of, members))
    compile_args, compile_kwargs, attrs, stats_key = _shape(
        desc, (n_pes, root, nelems, stride, dtype.itemsize, op, counts,
               disps, nodes, algorithm, segments,
               opts.get("inclusive", True), opts.get("copy_to_root_dest")),
        dtype if ctx.spans.enabled else None)
    function = getattr(compiler.module, compiler.function)
    prepared = PreparedCollective(
        desc.name, members, me, dtype,
        function(*compile_args, **compile_kwargs), attrs,
        {"dest": dest, "src": src}, stats_key, root)
    if memo is not None:
        if len(memo) >= _MAX_PREPARED:
            memo.clear()
        try:
            memo[key] = (prepared, compiler, function)
        except TypeError:  # an argument no call can be keyed by
            pass
    return prepared


def _kept(memo: dict, key: tuple) -> PreparedCollective | None:
    """The call kept under ``key``, while the compiler function that
    compiled it is still the one on its module."""
    try:
        kept = memo.get(key)
    except TypeError:  # an unhashable argument: a list of counts
        return None
    if kept is not None and getattr(kept[1].module,
                                    kept[1].function) is kept[2]:
        return kept[0]
    return None


def _plain(value):
    """``value`` with a numpy integer made an int and a sequence (per-PE
    counts, a group) a tuple of such."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (list, tuple, range, np.ndarray)):
        return tuple(int(v) if isinstance(v, np.integer) else v
                     for v in value)
    return value


#: The roles of a call, in the order :func:`prepare` hands them to
#: :func:`_shape`.
_ROLES = ("n_pes", "root", "nelems", "stride", "itemsize", "op", "counts",
          "disps", "nodes", "algorithm", "segments", "inclusive",
          "copy_to_root_dest")


@lru_cache(maxsize=1024)
def _shape(desc: Collective, roles: tuple,
           dtype) -> tuple[tuple, dict, dict, str]:
    """The compiler arguments, the span attributes (with ``dtype`` when
    spans are recorded) and the stats key of a call of ``desc`` with
    ``roles``.  Calls of one shape share them: they are read, never
    written."""
    call = dict(zip(_ROLES, roles))
    call["kind"] = "inclusive" if call["inclusive"] else "exclusive"
    attrs = {key: call[key] for key in desc.attrs}
    if dtype is not None:
        attrs["dtype"] = str(dtype)
    if call["algorithm"] == desc.segment_attr:
        attrs["segments"] = call["segments"] or auto_segments(
            call["nelems"] * call["itemsize"])
    return (*desc.compilers[call["algorithm"]].arguments(call), attrs,
            desc.stats.format_map(call))


def check_layout(pe_msgs: Sequence[int], pe_disp: Sequence[int],
                 nelems: int, n_pes: int, what: str, *,
                 disjoint: bool = False) -> None:
    """Check the per-PE counts and displacements; ``disjoint`` also
    rejects two non-empty blocks that overlap (a collective that writes
    every block into one buffer would race on the shared bytes)."""
    if len(pe_msgs) != n_pes or len(pe_disp) != n_pes:
        raise CollectiveArgumentError(
            f"{what}: pe_msgs/pe_disp must have one entry per PE "
            f"({n_pes}), got {len(pe_msgs)}/{len(pe_disp)}"
        )
    if any(m < 0 for m in pe_msgs):
        raise CollectiveArgumentError(f"{what}: negative pe_msgs entry")
    if any(d < 0 for d in pe_disp):
        raise CollectiveArgumentError(f"{what}: negative pe_disp entry")
    total = sum(pe_msgs)
    if total != nelems:
        raise CollectiveArgumentError(
            f"{what}: sum(pe_msgs)={total} does not match nelems={nelems}"
        )
    if disjoint:
        blocks = sorted((d, d + m, pe) for pe, (m, d)
                        in enumerate(zip(pe_msgs, pe_disp)) if m)
        for (_, end, a), (lo, _, b) in zip(blocks, blocks[1:]):
            if lo < end:
                raise CollectiveArgumentError(
                    f"{what}: the blocks of PEs {min(a, b)} and "
                    f"{max(a, b)} overlap (pe_disp/pe_msgs)")


# -- registry call shapes --------------------------------------------------
#
# The structurally distinct paths of every compiler: degenerate (zero
# elements), non-zero roots, for the vector collectives ragged per-PE
# counts including a zero-count PE, for the hierarchical algorithms a
# sequential and a scattered node layout, and segment counts either side
# of the payload.


def _roots(n_pes: int) -> list[int]:
    return sorted({0, n_pes - 1, n_pes // 2})


def _rooted_shapes(n_pes: int, nelems: int, algorithm: str):
    # The ``locality`` record's placements over four nodes.
    per_node = -(-n_pes // 4)
    layouts = ((" nodes=sequential",
                tuple(r // per_node for r in range(n_pes))),
               (" nodes=scattered", tuple(r % 4 for r in range(n_pes)))) \
        if algorithm == "hierarchical" else (("", None),)
    for tag, nodes in layouts:
        for root in _roots(n_pes):
            for ne in (0, nelems):
                yield (f"root={root} nelems={ne}{tag}",
                       {"root": root, "nelems": ne, "nodes": nodes})


def _allreduce_shapes(n_pes: int, nelems: int, algorithm: str):
    yield from _sized_shapes(n_pes, nelems, algorithm, "nelems")
    if algorithm == "dual-pipelined":
        # Segment counts straddling nelems hit the pipelined wavefront's
        # clamping and idle-round paths.
        for segs in (1, 3, nelems + 1):
            yield f"nelems={nelems} segments={segs}", {"segments": segs}


def _scan_shapes(n_pes: int, nelems: int, algorithm: str):
    for inclusive in (True, False):
        yield f"inclusive={inclusive}", {"inclusive": inclusive}


def _sized_shapes(n_pes: int, nelems: int, algorithm: str,
                  label: str = "nelems_per_pe"):
    """No elements, then ``nelems``."""
    for ne in (0, nelems):
        yield f"{label}={ne}", {"nelems": ne}


def _ragged(n_pes: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """A ragged counts/displacements shape with a zero-count PE."""
    counts = tuple(0 if i == n_pes // 2 and n_pes > 1 else (i % 3) + 1
                   for i in range(n_pes))
    ends = tuple(accumulate(counts, initial=0))
    return counts, ends[:-1], ends[-1]


def _layouts(n_pes: int, nelems: int):
    yield "uniform", {"counts": (nelems,) * n_pes,
                      "disps": tuple(i * nelems for i in range(n_pes)),
                      "nelems": nelems * n_pes}
    counts, disps, total = _ragged(n_pes)
    yield "ragged", {"counts": counts, "disps": disps, "nelems": total}


def _rooted_vector_shapes(n_pes: int, nelems: int, algorithm: str):
    for root in _roots(n_pes):
        for name, shape in _layouts(n_pes, nelems):
            yield f"root={root} {name}", {**shape, "root": root}


def _vector_shapes(n_pes: int, nelems: int, algorithm: str):
    for segs in (1, 2, 4) if algorithm == "pat" else (None,):
        tag = f" segments={segs}" if segs else ""
        for name, shape in _layouts(n_pes, nelems):
            yield f"{name}{tag}", {**shape, "segments": segs or 1}


# -- the records -----------------------------------------------------------

_STRIDED_ARGS = ("n_pes", "nelems", "stride", "itemsize")
_VECTOR_ARGS = ("n_pes", "counts", "disps", "nelems", "itemsize")
_ROOTED_VECTOR_ARGS = ("n_pes", "root", "counts", "disps", "nelems",
                       "itemsize")

COLLECTIVES: dict[str, Collective] = {desc.name: desc for desc in (
    Collective(
        "broadcast", STRIDED,
        {"algorithm": "binomial", "copy_to_root_dest": True},
        {alg: Compiler(broadcast, "compile_broadcast",
                       ("n_pes", "root", "nelems", "stride", "itemsize"),
                       ("algorithm", "copy_to_root_dest"))
         for alg in ("binomial", "linear", "ring")}
        | {"hierarchical": Compiler(
            hierarchy, "compile_hierarchical_broadcast",
            ("nodes", "root", "nelems", "stride", "itemsize",
             "copy_to_root_dest"))},
        ("algorithm", "root", "nelems"), "broadcast:{algorithm}",
        _rooted_shapes, rooted=True, symmetric="dest",
        symmetric_error="broadcast dest {addr:#x} must be a symmetric "
                        "(shared-segment) address"),
    Collective(
        "reduce", STRIDED, {"algorithm": "binomial"},
        {alg: Compiler(reduce, "compile_reduce",
                       ("n_pes", "root", "nelems", "stride", "itemsize",
                        "op"), ("algorithm",))
         for alg in ("binomial", "linear")}
        | {"hierarchical": Compiler(
            hierarchy, "compile_hierarchical_reduce",
            ("nodes", "root", "nelems", "stride", "itemsize", "op"))},
        ("algorithm", "root", "op", "nelems"), "reduce:{op}:{algorithm}",
        _rooted_shapes, rooted=True, reduces=True, symmetric="src",
        symmetric_error="reduce src {addr:#x} must be a symmetric "
                        "(shared-segment) address (paper section 4.4)"),
    Collective(
        "allreduce", STRIDED, {"algorithm": "doubling", "segments": None},
        {alg: Compiler(allreduce, "compile_allreduce",
                       _STRIDED_ARGS + ("op",), ("algorithm", "segments"))
         for alg in ("doubling", "rabenseifner", "ring", "dual-pipelined")},
        ("algorithm", "op", "nelems"), "allreduce:{algorithm}",
        _allreduce_shapes, reduces=True, symmetric="src",
        symmetric_error="allreduce src must be a symmetric address",
        segment_attr="dual-pipelined"),
    Collective(
        "scan", STRIDED, {"inclusive": True},
        {"hillis-steele": Compiler(scan, "compile_scan",
                                   _STRIDED_ARGS + ("op", "inclusive"))},
        ("inclusive", "op", "nelems"), "scan:{kind}", _scan_shapes,
        reduces=True, symmetric="src",
        symmetric_error="scan src must be a symmetric address"),
    Collective(
        "scatter", COUNTS, {},
        {"binomial": Compiler(scatter, "compile_scatter",
                              _ROOTED_VECTOR_ARGS)},
        ("root", "nelems"), "scatter:{algorithm}", _rooted_vector_shapes,
        rooted=True),
    Collective(
        "gather", COUNTS, {},
        {"binomial": Compiler(gather, "compile_gather",
                              _ROOTED_VECTOR_ARGS)},
        ("root", "nelems"), "gather:{algorithm}", _rooted_vector_shapes,
        rooted=True),
    Collective(
        "allgather", COUNTS, {"algorithm": "tree", "segments": 1},
        {"tree": Compiler(extra, "compile_allgather_tree", _VECTOR_ARGS),
         "dissemination": Compiler(extra, "compile_allgather",
                                   _VECTOR_ARGS),
         "pat": Compiler(extra, "compile_allgather_pat",
                         _VECTOR_ARGS + ("segments",))},
        ("algorithm", "nelems"), "allgather:{algorithm}", _vector_shapes,
        disjoint=True, symmetric="dest",
        symmetric_error="allgather dest must be symmetric"),
    Collective(
        "alltoall", PER_PE, {},
        {"rotated": Compiler(extra, "compile_alltoall",
                             ("n_pes", "nelems", "itemsize"))},
        ("nelems",), "alltoall:{algorithm}", _sized_shapes,
        symmetric="dest",
        symmetric_error="alltoall dest must be symmetric"),
    Collective(
        "reduce_scatter", COUNTS, {"algorithm": "auto", "segments": 1},
        {alg: Compiler(reduce_scatter, "compile_reduce_scatter",
                       _VECTOR_ARGS + ("op",), ("algorithm", "segments"))
         for alg in ("ring", "pat")},
        ("algorithm", "op", "nelems"), "reduce_scatter:{algorithm}",
        _vector_shapes, reduces=True, disjoint=True),
)}
