"""The mailbox lowering pass, checked per builtin collective family.

For every ``(collective, algorithm)`` pair in the registry and every PE
count in 1–16 (sampled), the lowered two-sided schedule must be

* **equivalent** — byte-identical buffer contents to the one-sided
  original under the batch evaluator, for uniform, ragged and
  degenerate call shapes alike;
* **lint-clean** — zero issues from :func:`lint_schedule`, including
  the two-sided message-matching pass;
* **deadlock-free** — the evaluator's dataflow fixpoint raises
  ``SimulationError`` on any send/recv cycle, so a completed
  evaluation is a deadlock-freedom certificate for the batch model
  (the conformance suite covers the cooperative executor);
* **queue-bounded** — :func:`max_fan_in` stays within the default
  ``recv_depth``, so lowered builtins run without exhausting
  backpressure retries on an out-of-the-box machine.

The linter's message-matching pass is itself tested against hand-built
broken lowerings: unmatched sends, tag and size disagreements, and a
recv that can only deadlock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.schedule import (
    Buffer,
    Schedule,
    lint_schedule,
    lower_to_mailbox,
    max_fan_in,
)
from repro.collectives.schedule.evaluate import evaluate_schedule
from repro.collectives.schedule.ir import (
    OP_GET,
    OP_PUT,
    OP_RECV,
    OP_SEND,
    Rows,
    pipeline_skeleton,
    skeleton,
)
from repro.collectives.schedule.registry import BUILTIN_ALGORITHMS
from repro.params import MachineConfig, MailboxParams

from ..conftest import small_config
from .helpers import ring_schedule

PE_COUNTS = (1, 2, 3, 5, 8, 16)


def _family_schedules(builtin_schedules, collective: str, algorithm: str):
    """Every builtin shape of one family at the sampled PE counts."""
    for label, sched in builtin_schedules(PE_COUNTS, nelems=12):
        if (sched.collective, sched.algorithm) == (collective, algorithm):
            yield label, sched


def _seed_inputs(sched: Schedule, seed: int):
    """Deterministic random contents for every user buffer, per rank."""
    rng = np.random.default_rng(seed)
    dt = np.dtype("int64") if sched.itemsize == 8 else np.dtype("int32")
    inputs = {}
    for buf in sched.buffers:
        if buf.kind != "user":
            continue
        inputs[buf.name] = [
            rng.integers(-1000, 1000,
                         size=buf.nbytes_on(r) // dt.itemsize).astype(dt)
            if buf.held_by(r) else np.zeros(0, dt)
            for r in range(sched.n_pes)
        ]
    return inputs


@pytest.mark.parametrize(("collective", "algorithm"), BUILTIN_ALGORITHMS,
                         ids=[f"{c}:{a}" for c, a in BUILTIN_ALGORITHMS])
def test_family_lowers_equivalently(collective, algorithm,
                                    builtin_schedules):
    """Lowered ≡ one-sided, lint-clean, bounded fan-in — every shape."""
    cfg = MachineConfig(n_pes=2)  # resized per schedule by the evaluator
    checked = 0
    for label, sched in _family_schedules(builtin_schedules, collective,
                                          algorithm):
        lowered = lower_to_mailbox(sched)
        assert lowered.algorithm == sched.algorithm + "+mailbox"
        assert lowered.n_pes == sched.n_pes

        issues = lint_schedule(lowered)
        assert issues == [], f"{label}: lowered schedule lints dirty"

        fan_in = max_fan_in(lowered)
        assert fan_in <= MailboxParams().recv_depth, \
            f"{label}: fan-in {fan_in} exceeds the default queue depth"

        inputs = _seed_inputs(sched, seed=abs(hash(label)) % (2 ** 31))
        base = evaluate_schedule(sched, cfg, inputs=inputs)
        two = evaluate_schedule(lowered, cfg, inputs=inputs)
        for buf in sched.buffers:
            for r in range(sched.n_pes):
                if not buf.held_by(r):
                    continue
                a = base.buffer(buf.name, r)
                b = two.buffer(buf.name, r)
                assert np.array_equal(a, b), \
                    f"{label}: buffer {buf.name!r} diverges on rank {r}"

        # The rewrite must conserve traffic: every remote put/get of the
        # original becomes exactly one payload send (gets add one
        # zero-payload request besides), while local copies stay local.
        assert two.stats.sends == two.stats.recvs
        remote = int(np.count_nonzero(_remote(sched.table)
                                      & (sched.table.nelems > 0)))
        if remote:
            assert two.stats.sends >= remote
        checked += 1
    assert checked > 0, "registry yielded no schedules for this family"


def test_lowering_is_cached_and_pure(builtin_schedules):
    sched = next(s for _, s in builtin_schedules((4,), nelems=8))
    assert lower_to_mailbox(sched) is lower_to_mailbox(sched)
    # And the input schedule is untouched: no send/recv leaked into it.
    assert not np.isin(sched.table.op, (OP_SEND, OP_RECV)).any()


def _remote(table):
    """Which rows are a put or get to another rank."""
    return np.isin(table.op, (OP_PUT, OP_GET)) & (table.peer != table.rank)


def _allreduce_thrice(ctx) -> bool:
    ctx.init()
    me, n, k = ctx.my_pe(), ctx.num_pes(), 11
    i64 = np.dtype(np.int64)
    src = ctx.malloc(8 * k)
    dest = ctx.malloc(8 * k)
    ctx.view(src, i64, k)[:] = np.arange(k) * (me + 1)
    ok = True
    for _ in range(3):
        ctx.allreduce(dest, src, k, 1, "sum", i64, algorithm="rabenseifner")
        ok &= np.array_equal(ctx.view(dest, i64, k),
                             np.arange(k) * n * (n + 1) // 2)
    ctx.close()
    return ok


def test_mailbox_calls_lower_once_and_hash_nothing(monkeypatch):
    """Every rank of every mailbox-transport call asks for the lowering;
    it is made once per schedule and kept on it, and no schedule is
    hashed on the way (a compiled one would have to hash its tree)."""
    from repro.collectives import allreduce
    from repro.collectives.schedule import ir, mailbox
    from repro.runtime.context import Machine

    allreduce._compile_folded.cache_clear()  # a schedule never lowered
    lowered = hashed = 0
    lower, hash_ = mailbox.lower, ir.Schedule.__hash__

    def counted_lower(sched):
        nonlocal lowered
        lowered += 1
        return lower(sched)

    def counted_hash(sched):
        nonlocal hashed
        hashed += 1
        return hash_(sched)

    monkeypatch.setattr(mailbox, "lower", counted_lower)
    monkeypatch.setattr(ir.Schedule, "__hash__", counted_hash)
    machine = Machine(small_config(4), transport="mailbox")
    assert all(machine.run(_allreduce_thrice))
    assert machine.stats.sends > 0
    assert (lowered, hashed) == (1, 0)


# ---------------------------------------------------------------------------
# the linter vs deliberately broken lowerings
# ---------------------------------------------------------------------------

def _toy(stages, *messages, rows=None):
    """A 2-PE schedule of ``stages`` one-barrier stages on each rank (a
    stage's rows are section ``stage + 1`` and phase ``stage``), holding
    ``rows`` and ``messages``: ``(rank, stage, op, offset, nelems, peer,
    tag)`` of a send or recv of scratch ``s``."""
    rows = rows or Rows()
    for rank, stage, op, off, nelems, peer, tag in messages:
        a, b = ((-1, 0), (0, off)) if op == OP_SEND else ((0, off), (-1, 0))
        rows.add(rank, stage + 1, stage, op, a, b, nelems, 1, peer, tag)
    return Schedule.from_rows(
        "toy", "handmade+mailbox", 2, 8, rows,
        (skeleton(0, [(i, ()) for i in range(stages)], 0),),
        buffers=(Buffer("s", "scratch", 64, symmetric=True),))


def _message_issues(sched):
    return [i for i in lint_schedule(sched) if i.check == "messages"]


class TestBrokenLowerings:
    def test_well_formed_toy_is_clean(self):
        sched = _toy(1, (0, 0, OP_SEND, 0, 2, 1, 5),
                     (1, 0, OP_RECV, 0, 2, 0, 5))
        assert lint_schedule(sched) == []

    def test_unmatched_send_is_flagged(self):
        sched = _toy(1, (0, 0, OP_SEND, 0, 2, 1, 0))
        issues = _message_issues(sched)
        assert len(issues) == 1
        assert "1 sends vs 0 recvs" in issues[0].message

    def test_tag_disagreement_is_flagged(self):
        sched = _toy(1, (0, 0, OP_SEND, 0, 2, 1, 3),
                     (1, 0, OP_RECV, 0, 2, 0, 4))
        issues = _message_issues(sched)
        assert len(issues) == 1
        assert "FIFO order disagreement" in issues[0].message

    def test_size_disagreement_is_flagged(self):
        sched = _toy(1, (0, 0, OP_SEND, 0, 4, 1, 0),
                     (1, 0, OP_RECV, 0, 2, 0, 0))
        issues = _message_issues(sched)
        assert len(issues) == 1
        assert "carries 4 elements but recv expects 2" in issues[0].message

    def test_future_send_deadlock_is_flagged(self):
        # The recv sits in phase 0 but its matching send only happens in
        # phase 1 — the sender is stuck behind the barrier the receiver
        # will never reach.
        issues = _message_issues(_future_send())
        assert len(issues) == 1
        assert "deadlock" in issues[0].message

    def test_fifo_order_swap_is_flagged(self):
        # Two messages whose recv order is inverted relative to send
        # order: FIFO matching pairs them crosswise, so both tags clash.
        sched = _toy(1, (0, 0, OP_SEND, 0, 2, 1, 1),
                     (0, 0, OP_SEND, 16, 2, 1, 2),
                     (1, 0, OP_RECV, 16, 2, 0, 2),
                     (1, 0, OP_RECV, 0, 2, 0, 1))
        issues = _message_issues(sched)
        assert len(issues) == 2
        assert all("FIFO order disagreement" in i.message for i in issues)


def _future_send():
    """Rank 1 receives in stage 0 what rank 0 sends only in stage 1."""
    return _toy(2, (0, 1, OP_SEND, 0, 2, 1, 0), (1, 0, OP_RECV, 0, 2, 0, 0))


# ---------------------------------------------------------------------------
# schedules the lowering must refuse
# ---------------------------------------------------------------------------

class TestMalformedInputIsRefused:
    """A schedule the lowering cannot keep deadlock-free raises
    ``ValueError`` rather than lowering to something else; one that
    cannot mean anything is refused by ``Schedule.from_rows``."""

    def _refused(self, sched, match):
        assert lint_schedule(sched) != []
        with pytest.raises(ValueError, match=match):
            lower_to_mailbox(sched)

    def test_pipeline_without_segments(self):
        with pytest.raises(ValueError, match="no segments"):
            Schedule.from_rows(
                "toy", "handmade", 2, 8, Rows(),
                (pipeline_skeleton(1, 0, 1, (), 0),),
                buffers=(Buffer("s", "scratch", 64, symmetric=True),))

    def test_put_to_own_rank(self):
        """Refused by a check, not an ``assert`` that ``python -O``
        strips."""
        rows = Rows()
        rows.add(0, 1, 0, OP_PUT, (0, 0), (0, 8), 1, 1, 0)
        self._refused(_toy(1, rows=rows), "targeting itself")

    def test_step_of_no_known_kind(self):
        rows = Rows()
        rows.add(0, 1, 0, 0)
        with pytest.raises(ValueError, match="no step kind"):
            _toy(1, rows=rows)

    def test_rank_divergent_barrier_counts(self):
        self._refused(ring_schedule(3, rank0_barriers=1),
                      "rank-divergent")


# ---------------------------------------------------------------------------
# evaluator deadlock detection (the certificate the family test relies on)
# ---------------------------------------------------------------------------

def test_evaluator_raises_on_deadlocked_lowering():
    from repro.errors import SimulationError

    with pytest.raises(SimulationError, match="deadlock"):
        evaluate_schedule(_future_send(), MachineConfig(n_pes=2))


def test_evaluator_charges_mailbox_costs(builtin_schedules):
    """Lowered schedules pay header + routing + match time — they are
    modelled as slower, never faster, than the one-sided original."""
    sched = next(s for label, s in builtin_schedules((8,), nelems=64)
                 if (s.collective, s.algorithm) == ("allreduce", "ring")
                 and "nelems=64" in label)
    cfg = small_config(8)
    base = evaluate_schedule(sched, cfg)
    two = evaluate_schedule(lower_to_mailbox(sched), cfg)
    assert two.elapsed_ns > base.elapsed_ns
    # Payload conservation: the wire carries exactly the formerly-remote
    # put/get bytes (requests are zero-payload; local copies stay local).
    remote_bytes = int(sched.table.nelems[_remote(sched.table)].sum()) \
        * sched.itemsize
    assert two.stats.bytes_sent == remote_bytes
