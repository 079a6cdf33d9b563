"""Unit tests for serving admission control — no clock, no workers.

The scheduler is driven with explicit ``now`` timestamps, so every
policy decision (backpressure, bounded wait, conservative backfill,
lowest-rank carving) is checked deterministically here; the pool tests
only have to cover the glue.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.mp import TIMEOUT_BYTES_PER_S, scaled_timeout
from repro.errors import CollectiveArgumentError, QueueFullError
from repro.serve import JobSpec, TeamScheduler, percentile


def _spec(n_pes: int = 2, tenant: str = "t") -> JobSpec:
    return JobSpec(tenant=tenant, n_pes=n_pes)


# -- carving ----------------------------------------------------------------


def test_carves_lowest_free_ranks():
    sched = TeamScheduler(4)
    sched.offer(0, _spec(2), now=0.0)
    [([qj], ranks)] = sched.dispatch_batches(now=0.0, max_batch=1)
    assert qj.job_id == 0 and ranks == (0, 1)
    sched.offer(1, _spec(2), now=0.0)
    [([qj], ranks)] = sched.dispatch_batches(now=0.0, max_batch=1)
    assert qj.job_id == 1 and ranks == (2, 3)
    assert sched.free_pes == 0


def test_release_returns_ranks_and_packs_low():
    sched = TeamScheduler(4)
    sched.offer(0, _spec(2), now=0.0)
    sched.offer(1, _spec(2), now=0.0)
    dispatched = {qj.job_id: ranks for [qj], ranks
                  in sched.dispatch_batches(now=0.0, max_batch=1)}
    sched.release(dispatched[0])  # (0, 1) free again
    sched.offer(2, _spec(1), now=1.0)
    [([qj], ranks)] = sched.dispatch_batches(now=1.0, max_batch=1)
    assert ranks == (0,), "freed low ranks must be re-used first"
    assert sched.free_pes == 1


def test_double_release_raises():
    sched = TeamScheduler(2)
    sched.offer(0, _spec(2), now=0.0)
    [(_, ranks)] = sched.dispatch_batches(now=0.0, max_batch=1)
    sched.release(ranks)
    with pytest.raises(ValueError, match="released twice"):
        sched.release(ranks)


# -- admission policy -------------------------------------------------------


def test_fifo_order_with_conservative_backfill():
    """A stuck wide head must not block a narrow job that fits now."""
    sched = TeamScheduler(4)
    sched.offer(0, _spec(2), now=0.0)
    [(_, busy)] = sched.dispatch_batches(now=0.0, max_batch=1)  # 2 PEs left
    sched.offer(1, _spec(4, "wide"), now=0.0)   # cannot fit yet
    sched.offer(2, _spec(2, "narrow"), now=0.0)
    started = sched.dispatch_batches(now=0.0, max_batch=1)
    assert [qj.job_id for [qj], _ in started] == [2], \
        "backfill skips the head"
    assert sched.depth == 1, "the wide job keeps its queue position"
    # Once everything drains, the wide head goes first.
    sched.release(busy)
    sched.release(started[0][1])
    assert [qj.job_id for [qj], _
            in sched.dispatch_batches(now=0.0, max_batch=1)] == [1]


def test_backpressure_at_depth_limit():
    sched = TeamScheduler(1, max_queue_depth=2)
    sched.offer(0, _spec(1), now=0.0)
    sched.dispatch_batches(now=0.0, max_batch=1)  # job 0 occupies the only PE
    sched.offer(1, _spec(1), now=0.0)
    sched.offer(2, _spec(1), now=0.0)
    with pytest.raises(QueueFullError):
        sched.offer(3, _spec(1), now=0.0)
    assert sched.depth == 2, "a rejected offer must not consume a slot"


def test_bounded_wait_expires_old_jobs_only():
    sched = TeamScheduler(1, max_wait_s=5.0)
    sched.offer(0, _spec(1), now=0.0)
    sched.dispatch_batches(now=0.0, max_batch=1)
    sched.offer(1, _spec(1, "old"), now=1.0)
    sched.offer(2, _spec(1, "young"), now=4.0)
    assert sched.expired(now=5.0) == []  # 4.0s wait: still within bounds
    expired = sched.expired(now=6.5)
    assert [qj.job_id for qj in expired] == [1]
    assert sched.depth == 1, "the young job stays queued"


def test_wider_than_pool_rejected_up_front():
    sched = TeamScheduler(2)
    with pytest.raises(ValueError, match="pool has only"):
        sched.offer(0, _spec(4), now=0.0)
    assert sched.depth == 0


def test_idle_tracks_queue_and_free_set():
    sched = TeamScheduler(2)
    assert sched.idle
    sched.offer(0, _spec(2), now=0.0)
    assert not sched.idle
    [(_, ranks)] = sched.dispatch_batches(now=0.0, max_batch=1)
    assert not sched.idle
    sched.release(ranks)
    assert sched.idle


def test_constructor_validation():
    with pytest.raises(ValueError):
        TeamScheduler(0)
    with pytest.raises(ValueError):
        TeamScheduler(2, max_queue_depth=0)
    with pytest.raises(ValueError):
        TeamScheduler(2, max_wait_s=0.0)


# -- opportunistic batching -------------------------------------------------


def _batchable(job_id: int, tenant: str = "t", **kw) -> JobSpec:
    base = dict(tenant=tenant, collective="allreduce", n_pes=2, nelems=8,
                dtype="long", seed=job_id)
    base.update(kw)
    return JobSpec(**base)


def test_dispatch_batches_absorbs_same_shape_jobs():
    """Same-shape jobs from *different tenants* share one team."""
    sched = TeamScheduler(2)
    for i in range(3):
        sched.offer(i, _batchable(i, tenant=f"t{i}"), now=0.0)
    [(batch, ranks)] = sched.dispatch_batches(now=0.0, max_batch=4)
    assert [qj.job_id for qj in batch] == [0, 1, 2]
    assert ranks == (0, 1)
    assert sched.depth == 0
    assert sched.free_pes == 0, "one team serves the whole batch"


def test_dispatch_batches_respects_max_batch():
    sched = TeamScheduler(4)
    for i in range(3):
        sched.offer(i, _batchable(i), now=0.0)
    out = sched.dispatch_batches(now=0.0, max_batch=2)
    assert [[qj.job_id for qj in b] for b, _ in out] == [[0, 1], [2]]
    assert [ranks for _, ranks in out] == [(0, 1), (2, 3)]


def test_dispatch_batches_skips_mismatched_shapes():
    sched = TeamScheduler(2)
    sched.offer(0, _batchable(0), now=0.0)
    sched.offer(1, _batchable(1, nelems=16), now=0.0)   # different key
    sched.offer(2, _batchable(2), now=0.0)              # matches the head
    [(batch, _)] = sched.dispatch_batches(now=0.0, max_batch=4)
    assert [qj.job_id for qj in batch] == [0, 2]
    assert sched.depth == 1, "the mismatched job keeps its queue slot"


def test_fault_jobs_never_batch():
    sched = TeamScheduler(2)
    sched.offer(0, _batchable(0, fault="raise", fault_rank=0,
                              tenant="evil"), now=0.0)
    sched.offer(1, _batchable(1, fault="raise", fault_rank=0,
                              tenant="evil"), now=0.0)
    assert _batchable(9, fault="raise", fault_rank=0).batch_key is None
    [(batch, ranks)] = sched.dispatch_batches(now=0.0, max_batch=4)
    assert [qj.job_id for qj in batch] == [0]
    sched.release(ranks)
    [(batch2, _)] = sched.dispatch_batches(now=0.0, max_batch=4)
    assert [qj.job_id for qj in batch2] == [1]


def test_dispatchable_is_batch_size_one():
    sched = TeamScheduler(2)
    for i in range(3):
        sched.offer(i, _batchable(i), now=0.0)
    [([qj], ranks)] = sched.dispatch_batches(now=0.0, max_batch=1)
    assert qj.job_id == 0 and ranks == (0, 1)
    assert sched.depth == 2, "plain dispatch never absorbs"


def test_batch_key_distinguishes_roots_and_dtypes():
    a = _batchable(0, collective="broadcast", root=1)
    assert a.batch_key == _batchable(1, collective="broadcast",
                                     root=1).batch_key
    assert a.batch_key != _batchable(2, collective="broadcast",
                                     root=0).batch_key
    assert _batchable(3).batch_key != _batchable(4, dtype="double").batch_key
    assert _batchable(5).batch_key != _batchable(6, n_pes=1).batch_key


# -- job specs --------------------------------------------------------------


@pytest.mark.parametrize("kw", [
    {"tenant": ""},
    {"collective": "allfancy"},
    {"n_pes": 0},
    {"nelems": -1},
    {"root": 2, "n_pes": 2},
    {"fault": "segv"},
    {"fault_rank": 5, "n_pes": 2},
])
def test_jobspec_rejects_malformed(kw):
    base = dict(tenant="t", n_pes=2)
    base.update(kw)
    with pytest.raises(CollectiveArgumentError):
        JobSpec(**base)


def test_jobspec_payload_scales_with_fanout():
    dense = JobSpec(tenant="t", collective="allreduce", n_pes=4, nelems=8,
                    dtype="long")
    fanned = JobSpec(tenant="t", collective="alltoall", n_pes=4, nelems=8,
                     dtype="long")
    assert dense.payload_nbytes == 8 * 8 * 4
    assert fanned.payload_nbytes == 8 * 8 * 4 * 4


def test_jobspec_wire_roundtrips_program_fields():
    spec = JobSpec(tenant="t", collective="scan", n_pes=3, nelems=5,
                   dtype="double", root=1, seed=9, fault="raise",
                   fault_rank=2)
    wire = spec.as_wire()
    assert wire["collective"] == "scan" and wire["fault_rank"] == 2
    assert "tenant" not in wire, "tenancy is pool metadata, not program input"


# -- stats helpers ----------------------------------------------------------


def test_percentile_matches_numpy():
    vals = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    for q in (0, 25, 50, 75, 95, 99, 100):
        assert percentile(vals, q) == pytest.approx(
            float(np.percentile(vals, q)))
    assert percentile([], 50) == 0.0
    assert percentile([4.2], 99) == 4.2
    with pytest.raises(ValueError):
        percentile(vals, 101)


# -- watchdog scaling (satellite: payload-aware deadlines) ------------------


def test_scaled_timeout_grows_with_payload():
    assert scaled_timeout(10.0) == 10.0
    assert scaled_timeout(10.0, 0) == 10.0
    one_second = TIMEOUT_BYTES_PER_S
    assert scaled_timeout(10.0, one_second) == pytest.approx(11.0)
    assert scaled_timeout(10.0, 8 * one_second) == pytest.approx(18.0)
    # Garbage payload sizes never *shrink* the deadline.
    assert scaled_timeout(10.0, -12345) == 10.0
