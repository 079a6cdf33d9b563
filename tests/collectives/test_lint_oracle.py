"""The table-driven linter against the brute-force reference.

``lint_schedule`` runs its passes as sorts and sweeps over the columnar
step table; ``lint_reference`` walks the dataclass tree step by step and
compares all pairs.  Hypothesis breaks builtin schedules — every
registry family at 2–9 PEs, mailbox-lowered and fused ones included —
in the ways the linter exists to catch, and the two must report the
same issues: check, rank, phase, message, and order.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives.schedule.ir import (
    BARRIER,
    Buffer,
    Pipeline,
    Put,
    RankProgram,
    Schedule,
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


# -- editing a schedule tree --------------------------------------------------


def _map_rank(sched: Schedule, rank: int, fn) -> Schedule:
    """``sched`` with ``fn(i, step) -> steps`` applied to every step of
    ``rank``, ``i`` counting them in tree order (pipeline groups by
    group, then segment)."""
    site = count()

    def run(steps):
        return tuple(out for step in steps for out in fn(next(site), step))

    prog = sched.programs[rank]
    stages = tuple(
        replace(stage, groups=tuple(tuple(run(seg) for seg in group)
                                    for group in stage.groups))
        if isinstance(stage, Pipeline)
        else replace(stage, steps=run(stage.steps))
        for stage in prog.stages)
    edited = replace(prog, prologue=run(prog.prologue), stages=stages,
                     epilogue=run(prog.epilogue))
    return replace(sched, programs=(sched.programs[:rank] + (edited,)
                                    + sched.programs[rank + 1:]))


def _sites(sched: Schedule, rank: int, want) -> list:
    found = []

    def look(i, step):
        if want(step):
            found.append(i)
        return (step,)

    _map_rank(sched, rank, look)
    return found


def _edit_one(sched: Schedule, rank: int, sel: int, want, edit) -> Schedule:
    """Apply ``edit(step) -> steps`` to one step of ``rank`` that
    satisfies ``want``, chosen by ``sel``; unchanged if there is none."""
    sites = _sites(sched, rank, want)
    if not sites:
        return sched
    target = sites[sel % len(sites)]
    return _map_rank(sched, rank,
                     lambda i, step: edit(step) if i == target else (step,))


def _is_barrier(step) -> bool:
    return step.kind == "barrier"


def _moves(step) -> bool:
    return step.kind != "barrier"


def _has_peer(step) -> bool:
    return hasattr(step, "peer")


def _offset_field(step, sel: int) -> str:
    fields = [f for f in ("dst_off", "src_off", "acc_off", "operand_off")
              if hasattr(step, f)]
    return fields[sel % len(fields)]


def _buffer_field(step, sel: int) -> str:
    fields = [f for f in ("dst", "src", "acc", "operand")
              if hasattr(step, f)]
    return fields[sel % len(fields)]


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
    "drop-barrier": lambda s, r, a, b: _edit_one(
        s, r, a, _is_barrier, lambda step: ()),
    "add-barrier": lambda s, r, a, b: _edit_one(
        s, r, a, _moves, lambda step: (step, BARRIER)),
    "drop-step": lambda s, r, a, b: _edit_one(
        s, r, a, _moves, lambda step: ()),
    "shift-range": lambda s, r, a, b: _edit_one(
        s, r, a, _moves, lambda step: (replace(step, **{
            _offset_field(step, b): getattr(step, _offset_field(step, b))
            + (-16, -8, 8, 16, 40)[b % 5]}),)),
    "widen-range": lambda s, r, a, b: _edit_one(
        s, r, a, _moves, lambda step: (replace(
            step, nelems=step.nelems + 1 + b % 4),)),
    "empty-range": lambda s, r, a, b: _edit_one(
        s, r, a, _moves, lambda step: (replace(step, nelems=0),)),
    "restride": lambda s, r, a, b: _edit_one(
        s, r, a, _moves, lambda step: (replace(
            step, stride=step.stride + 1 + b % 2),)),
    "retarget-peer": lambda s, r, a, b: _edit_one(
        s, r, a, _has_peer, lambda step: (replace(
            step, peer=(b % (s.n_pes + 3)) - 1),)),
    "swap-peers": lambda s, r, a, b: _swap_peers(s, r, a, b),
    "retag": lambda s, r, a, b: _edit_one(
        s, r, a, lambda step: hasattr(step, "tag"),
        lambda step: (replace(step, tag=step.tag + 1 + b % 2),)),
    "rename-buffer": lambda s, r, a, b: _edit_one(
        s, r, a, _moves, lambda step: (replace(step, **{
            _buffer_field(step, b): ("ghost", s.buffers[b % len(
                s.buffers)].name)[b % 2] if s.buffers else "ghost"}),)),
    "stray-put": lambda s, r, a, b: _edit_one(
        s, r, a, _moves, lambda step: (step, Put(
            s.buffers[a % len(s.buffers)].name, 8 * (b % 3),
            s.buffers[b % len(s.buffers)].name, 0, 1 + a % 3, 1,
            (r + 1 + b) % s.n_pes)) if s.buffers else (step,)),
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
    sites = _sites(sched, rank, _has_peer)
    if len(sites) < 2:
        return sched
    i, j = sites[a % len(sites)], sites[b % len(sites)]
    peers = {}

    def note(k, step):
        if k in (i, j):
            peers[k] = step.peer
        return (step,)

    _map_rank(sched, rank, note)
    return _map_rank(
        sched, rank,
        lambda k, step: (replace(step, peer=peers[j if k == i else i]),)
        if k in (i, j) else (step,))


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
def test_every_mutation_is_seen_by_both(name):
    """Each mutation kind, swept deterministically over a small grid:
    the two linters agree, and the mutation is not a no-op everywhere
    (it changes the verdict of at least one schedule)."""
    changed = 0
    for collective, algorithm in BUILTIN_ALGORITHMS:
        for n_pes in (2, 5, 8):
            shapes = [s for _, s in _shapes_for(collective, algorithm,
                                                n_pes, 12, 8)]
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


# -- directed: what the table build must not turn into a crash ----------------


class _Bogus:
    kind = "teleport"
    nelems = stride = 1


def _two_rank(steps0, steps1, buffers, deliver=()):
    return Schedule("test", "test", 2, 8, buffers=buffers, deliver=deliver,
                    programs=(RankProgram(0, steps0), RankProgram(1, steps1)))


def test_malformed_steps_come_out_as_issues():
    sym = Buffer("s", "scratch", 64, symmetric=True)
    sched = _two_rank(
        (Put("nowhere", 0, "s", 0, 1, 1, 1), _Bogus(), BARRIER),
        (Put("s", 0, "s", 8, 1, 1, 7), Put("s", 0, "s", 8, 1, 1, -1),
         BARRIER),
        (sym,))
    text = [str(i) for i in lint_schedule(sched)]
    assert any("unknown step kind 'teleport'" in t for t in text), text
    assert any("unknown buffer 'nowhere'" in t for t in text), text
    assert any("peer 7 outside group of 2" in t for t in text), text
    assert any("peer -1 outside group of 2" in t for t in text), text
    _assert_same(sched, "directed")
