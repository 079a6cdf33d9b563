"""Binomial-tree collective operations for xBGAS (paper section 4).

The initial xBGAS collective library implements broadcast, reduction,
scatter and gather as variants of one binomial-tree pattern:

* a *virtual rank* remapping makes the root virtual rank 0 (Table 2);
* broadcast and scatter walk the rank-bit mask left→right (*recursive
  halving*) and push data root→leaves with one-sided ``put``;
* reduction and gather walk it right→left (*recursive doubling*) and
  pull data leaves→root with one-sided ``get``;
* every tree stage ends with a barrier;
* scatter/gather take per-PE counts (``pe_msgs``) and displacements
  (``pe_disp``) and reorder data by virtual rank (``adj_disp``) so each
  tree-stage message stays contiguous and needs a single put/get.

Every collective is a *compiler*: each is one record in
:mod:`~repro.collectives.request`, whose one ``prepare`` validates a
call and compiles it, through the record, into a
:class:`~repro.collectives.schedule.Schedule` — per-rank stages of
primitive PUT/GET/REDUCE/COPY/BARRIER steps — and hands it to the single
executor in :mod:`~repro.collectives.schedule`.  The compiled schedules
are statically checkable (:func:`~repro.collectives.schedule.lint_schedule`)
and cached per call shape.

Extensions beyond the paper's initial library (its section 7 future
work) live in :mod:`~repro.collectives.extra` (reduce-to-all,
gather-to-all, all-to-all), :mod:`~repro.collectives.teams` (PE-subset
collectives), :mod:`~repro.collectives.nonblocking` and
:mod:`~repro.collectives.tuning` (runtime algorithm selection).
"""

from .virtual_rank import virtual_rank, logical_rank, rank_table
from .binomial import tree_stages, tree_children, tree_parent, render_tree
from .ops import REDUCE_OPS, apply_op, check_op
from . import broadcast, reduce, scatter, gather, extra, teams, nonblocking, tuning, hierarchy, allreduce, scan, reduce_scatter
from . import request, schedule
from .request import COLLECTIVES, prepare

__all__ = [
    "virtual_rank",
    "logical_rank",
    "rank_table",
    "tree_stages",
    "tree_children",
    "tree_parent",
    "render_tree",
    "REDUCE_OPS",
    "apply_op",
    "check_op",
    "broadcast",
    "reduce",
    "scatter",
    "gather",
    "extra",
    "teams",
    "nonblocking",
    "tuning",
    "hierarchy",
    "allreduce",
    "scan",
    "reduce_scatter",
    "request",
    "schedule",
    "COLLECTIVES",
    "prepare",
]
