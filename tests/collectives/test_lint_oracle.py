"""The table-driven linter against the brute-force reference.

``lint_schedule`` runs its passes as sorts and sweeps over the columnar
step table; ``lint_reference`` walks the schedule's tree view step by
step and compares all pairs.  Hypothesis breaks builtin schedules —
every registry family at 2–9 PEs, mailbox-lowered and fused ones
included — in the ways the linter exists to catch, editing their rows
and per-rank skeletons, and the two must report the same issues: check,
rank, phase, message, and order.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives.schedule.ir import (
    OP_GET,
    OP_PUT,
    OP_RECV,
    OP_SEND,
    Buffer,
    Rows,
    Schedule,
    skeleton,
)
from repro.collectives.schedule.lint import (
    lint_fused_schedule,
    lint_schedule,
)
from repro.collectives.schedule.mailbox import lower_to_mailbox
from repro.collectives.schedule.registry import (
    BUILTIN_ALGORITHMS,
    _shapes_for,
)

from .lint_reference import reference_lint, reference_lint_fused

_SETTINGS = settings(max_examples=1000, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# -- editing a schedule's rows ------------------------------------------------


class _Edit:
    """A schedule's rows as editable columns (``section`` included),
    each rank's skeleton and the buffer names; :meth:`schedule` makes
    the edited schedule."""

    def __init__(self, sched: Schedule):
        t = sched.table
        self.sched = sched
        self.cols = {name: getattr(t, name).copy() for name in Rows.FIELDS}
        self.skeletons = [t.skeletons[i] for i in t.skeleton_of.tolist()]
        self.names = list(t.names)

    def rows(self, rank: int, want=None) -> list:
        """``rank``'s rows, those ``want(cols)`` marks if given."""
        mask = self.cols["rank"] == rank
        if want is not None:
            mask &= want(self.cols)
        return np.flatnonzero(mask).tolist()

    def present(self, row: int, fields: tuple) -> list:
        """Which of ``fields`` (``a_*`` / ``b_*``) the row's op has."""
        return [f for f in fields if self.cols[f[0] + "_buf"][row] >= 0]

    def insert(self, row: int, **values) -> None:
        """A row after ``row``, like it but for ``values``."""
        for name, col in self.cols.items():
            self.cols[name] = np.insert(col, row + 1,
                                        values.get(name, col[row]))

    def delete(self, row: int) -> None:
        for name, col in self.cols.items():
            self.cols[name] = np.delete(col, row)

    def add_barriers(self, rank: int, section: int, by: int,
                     moved: np.ndarray) -> None:
        """Give ``section`` of ``rank`` ``by`` more barriers, moving the
        rows ``moved`` marks past them."""
        sk = self.skeletons[rank]
        sec = sk.sections[section]
        self.skeletons[rank] = sk._replace(sections=(
            *sk.sections[:section], sec._replace(nbars=sec.nbars + by),
            *sk.sections[section + 1:]))
        self.cols["phase"][moved] += by

    def schedule(self) -> Schedule:
        s = self.sched
        return Schedule.from_rows(
            s.collective, s.algorithm, s.n_pes, s.itemsize, self.cols,
            self.skeletons, skeleton_of=range(s.n_pes), root=s.root,
            op=s.op, buffers=s.buffers, deliver=s.deliver, names=self.names)


def _edit_one(sched: Schedule, rank: int, sel: int, want, edit) -> Schedule:
    """Apply ``edit(e, row)`` to one row of ``rank`` that ``want(cols)``
    marks (all if ``None``), chosen by ``sel``; unchanged if none is."""
    e = _Edit(sched)
    sites = e.rows(rank, want)
    if not sites:
        return sched
    edit(e, sites[sel % len(sites)])
    return e.schedule()


def _has_peer(cols) -> np.ndarray:
    return np.isin(cols["op"], (OP_PUT, OP_GET, OP_SEND, OP_RECV))


def _messages(cols) -> np.ndarray:
    return np.isin(cols["op"], (OP_SEND, OP_RECV))


def _set(column: str, value):
    """An edit setting ``column`` of the row to ``value(old)``."""
    def edit(e, row):
        e.cols[column][row] = value(int(e.cols[column][row]))
    return edit


def _shift(b: int):
    def edit(e, row):
        fields = e.present(row, ("a_off", "b_off"))
        e.cols[fields[b % len(fields)]][row] += (-16, -8, 8, 16, 40)[b % 5]
    return edit


def _rename(s: Schedule, b: int):
    def edit(e, row):
        fields = e.present(row, ("a_buf", "b_buf"))
        if s.buffers and b % 2:
            index = b % len(s.buffers)
        else:
            if "ghost" not in e.names:
                e.names.append("ghost")
            index = e.names.index("ghost")
        e.cols[fields[b % len(fields)]][row] = index
    return edit


def _stray_put(s: Schedule, r: int, a: int, b: int):
    def edit(e, row):
        e.insert(row, op=OP_PUT, a_buf=a % len(s.buffers),
                 a_off=8 * (b % 3), b_buf=b % len(s.buffers), b_off=0,
                 nelems=1 + a % 3, stride=1, peer=(r + 1 + b) % s.n_pes,
                 aux=0)
    return edit


def _cross_block_put(s: Schedule, r: int, a: int, b: int) -> Schedule:
    """A put, beside one of ``r``'s rows in a partitioned section, to a
    rank outside the block that section's barriers meet."""
    e = _Edit(s)
    sections = e.skeletons[r].sections
    sites = [row for row in e.rows(r)
             if sections[e.cols["section"][row]].block]
    if not sites or not s.buffers:
        return s
    row = sites[a % len(sites)]
    block = sections[e.cols["section"][row]].block
    outside = [q for q in range(s.n_pes) if q not in block]
    if not outside:
        return s
    e.insert(row, op=OP_PUT, a_buf=0, a_off=0, b_buf=0, b_off=0, nelems=1,
             stride=1, peer=outside[b % len(outside)], aux=0)
    return e.schedule()


def _add_barrier(s: Schedule, r: int, a: int) -> Schedule:
    """A barrier after one row outside the pipeline rounds (a round
    owns its one barrier)."""
    e = _Edit(s)
    sections = e.skeletons[r].sections
    sites = [row for row in e.rows(r)
             if sections[e.cols["section"][row]].round < 0]
    if not sites:
        return s
    row = sites[a % len(sites)]
    e.add_barriers(r, int(e.cols["section"][row]), 1,
                   (e.cols["rank"] == r)
                   & (np.arange(len(e.cols["rank"])) > row))
    return e.schedule()


def _drop_barrier(s: Schedule, r: int, a: int) -> Schedule:
    """One of the rank's barriers outside the pipeline rounds, gone."""
    e = _Edit(s)
    sites, start = [], 0  # (section, the phase the barrier ends)
    for j, sec in enumerate(e.skeletons[r].sections):
        if sec.round < 0:
            sites += [(j, start + k) for k in range(sec.nbars)]
        start += sec.nbars
    if not sites:
        return s
    j, after = sites[a % len(sites)]
    e.add_barriers(r, j, -1, (e.cols["rank"] == r)
                   & (e.cols["phase"] > after))
    return e.schedule()


def _edit_buffer(sched: Schedule, sel: int, edit) -> Schedule:
    if not sched.buffers:
        return sched
    i = sel % len(sched.buffers)
    return replace(sched, buffers=(sched.buffers[:i]
                                   + (edit(sched.buffers[i]),)
                                   + sched.buffers[i + 1:]))


def _shrink(buf: Buffer, a: int, b: int) -> Buffer:
    if isinstance(buf.nbytes, tuple):
        r = a % len(buf.nbytes)
        return replace(buf, nbytes=(buf.nbytes[:r]
                                    + (max(buf.nbytes[r] - 8 * (1 + b % 3),
                                           0),)
                                    + buf.nbytes[r + 1:]))
    return replace(buf, nbytes=max(buf.nbytes - 8 * (1 + b % 3), 0))


#: name -> mutate(sched, rank, a, b): ``a`` and ``b`` are free integers
#: the mutation reduces modulo whatever it is choosing among.
MUTATIONS = {
    "drop-barrier": lambda s, r, a, b: _drop_barrier(s, r, a),
    "add-barrier": lambda s, r, a, b: _add_barrier(s, r, a),
    "drop-step": lambda s, r, a, b: _edit_one(
        s, r, a, None, lambda e, row: e.delete(row)),
    "shift-range": lambda s, r, a, b: _edit_one(s, r, a, None, _shift(b)),
    "widen-range": lambda s, r, a, b: _edit_one(
        s, r, a, None, _set("nelems", lambda n: n + 1 + b % 4)),
    "empty-range": lambda s, r, a, b: _edit_one(
        s, r, a, None, _set("nelems", lambda n: 0)),
    "restride": lambda s, r, a, b: _edit_one(
        s, r, a, None, _set("stride", lambda n: n + 1 + b % 2)),
    "retarget-peer": lambda s, r, a, b: _edit_one(
        s, r, a, _has_peer, _set("peer", lambda q: b % (s.n_pes + 3) - 1)),
    "swap-peers": lambda s, r, a, b: _swap_peers(s, r, a, b),
    "retag": lambda s, r, a, b: _edit_one(
        s, r, a, _messages, _set("aux", lambda tag: tag + 1 + b % 2)),
    "rename-buffer": lambda s, r, a, b: _edit_one(
        s, r, a, None, _rename(s, b)),
    "stray-put": lambda s, r, a, b: _edit_one(
        s, r, a, None, _stray_put(s, r, a, b)) if s.buffers else s,
    "cross-block-put": _cross_block_put,
    "shrink-buffer": lambda s, r, a, b: _edit_buffer(
        s, a, lambda buf: _shrink(buf, r, b)),
    "unsymmetric": lambda s, r, a, b: _edit_buffer(
        s, a, lambda buf: replace(buf, symmetric=not buf.symmetric)),
    "restrict-buffer": lambda s, r, a, b: _edit_buffer(
        s, a, lambda buf: replace(buf, ranks=tuple(
            q for q in range(s.n_pes) if (q + b) % 3))),
    "rekind-buffer": lambda s, r, a, b: _edit_buffer(
        s, a, lambda buf: replace(buf, kind=("user", "scratch", "private",
                                             "bogus")[b % 4])),
    "drop-deliver": lambda s, r, a, b: replace(
        s, deliver=s.deliver[:a % len(s.deliver)]
        + s.deliver[a % len(s.deliver) + 1:]) if s.deliver else s,
    "widen-deliver": lambda s, r, a, b: replace(s, deliver=s.deliver + (
        (r, s.buffers[a % len(s.buffers)].name if b % 4 else "ghost",
         8 * (b % 3), 8 * (b % 3) + 8 * (1 + a % 5)),)) if s.buffers else s,
}


def _swap_peers(sched: Schedule, rank: int, a: int, b: int) -> Schedule:
    e = _Edit(sched)
    sites = e.rows(rank, _has_peer)
    if len(sites) < 2:
        return sched
    i, j = sites[a % len(sites)], sites[b % len(sites)]
    peer = e.cols["peer"]
    peer[i], peer[j] = peer[j], peer[i]
    return e.schedule()


# -- the property -------------------------------------------------------------


@st.composite
def broken_schedules(draw):
    collective, algorithm = draw(st.sampled_from(BUILTIN_ALGORITHMS))
    n_pes = draw(st.integers(2, 9))
    shapes = [s for _, s in _shapes_for(collective, algorithm, n_pes, 12, 8)]
    sched = draw(st.sampled_from(shapes))
    if draw(st.booleans()):
        sched = lower_to_mailbox(sched)
    applied = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(MUTATIONS)))
        rank = draw(st.integers(0, n_pes - 1))
        a, b = draw(st.integers(0, 999)), draw(st.integers(0, 999))
        sched = MUTATIONS[name](sched, rank, a, b)
        applied.append((name, rank, a, b))
    return sched, applied


def _both(sched: Schedule) -> tuple[list, list]:
    if sched.collective == "superstep":
        return lint_fused_schedule(sched), reference_lint_fused(sched)
    return lint_schedule(sched), reference_lint(sched)


def _assert_same(sched: Schedule, context) -> None:
    got, want = _both(sched)
    assert [str(i) for i in got] == [str(i) for i in want], context
    assert got == want, context
    for issue in got:
        assert type(issue.rank) in (int, type(None)), issue
        assert type(issue.phase) in (int, type(None)), issue


@_SETTINGS
@given(broken_schedules())
def test_linter_matches_reference_on_broken_schedules(case):
    sched, applied = case
    _assert_same(sched, applied)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_mutation_is_seen_by_both(name, builtin_schedules):
    """Each mutation kind, swept deterministically over a small grid:
    the two linters agree, and the mutation is not a no-op everywhere
    (it changes the verdict of at least one schedule)."""
    changed = 0
    for collective, algorithm in BUILTIN_ALGORITHMS:
        for n_pes in (2, 5, 8):
            prefix = f"{collective}:{algorithm} n_pes={n_pes} "
            shapes = [s for label, s in builtin_schedules((2, 5, 8))
                      if label.startswith(prefix)
                      and not label.endswith(" stride=2")]
            for k, base in enumerate(shapes[:3]):
                for lowered in (False, True):
                    sched = lower_to_mailbox(base) if lowered else base
                    mutant = MUTATIONS[name](sched, (k + 1) % n_pes,
                                             3 + k, 5 + n_pes)
                    _assert_same(mutant, (name, collective, algorithm,
                                          n_pes, k, lowered))
                    changed += bool(_both(mutant)[0])
    # Withdrawing a promise cannot break one.
    assert changed or name == "drop-deliver", f"{name} never broke a schedule"


# -- directed: what the linter must not turn into a crash -------------------


def test_malformed_steps_come_out_as_issues():
    """A name no buffer declares and peers outside the group."""
    rows = Rows()
    rows.add(0, 0, 0, OP_PUT, (1, 0), (0, 0), 1, 1, 1)
    rows.add(1, 0, 0, OP_PUT, (0, 0), (0, 8), 1, 1, [7, -1])
    sched = Schedule.from_rows(
        "test", "test", 2, 8, rows, (skeleton(1, (), 0),),
        buffers=(Buffer("s", "scratch", 64, symmetric=True),),
        names=("s", "nowhere"))
    text = [str(i) for i in lint_schedule(sched)]
    assert any("unknown buffer 'nowhere'" in t for t in text), text
    assert any("peer 7 outside group of 2" in t for t in text), text
    assert any("peer -1 outside group of 2" in t for t in text), text
    _assert_same(sched, "directed")
