"""ServePool behaviour on the in-process (sim/vec) engines.

These run everywhere — including the coreless CI runner — and pin down
the backend-independent serving semantics: digests, accounting, fault
isolation, rejection paths and tracing.  The mp-specific concurrency
and crash-isolation properties live in ``test_serve_mp.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import ServeError
from repro.serve import COLLECTIVES, JobSpec, ServePool

from ..conftest import small_config


@pytest.fixture(autouse=True)
def _no_backend_override(monkeypatch):
    monkeypatch.delenv("XBGAS_SERVE_BACKEND", raising=False)


def _pool(backend: str = "sim", **kw) -> ServePool:
    kw.setdefault("config", small_config(4))
    return ServePool(4, backend=backend, **kw)


def _mixed_specs() -> list[JobSpec]:
    return [
        JobSpec(tenant=f"tenant{i % 3}", collective=coll,
                n_pes=2 if coll != "alltoall" else 4,
                nelems=24, dtype="long", seed=i)
        for i, coll in enumerate(COLLECTIVES)
    ]


def test_runs_mixed_jobs_and_bills_every_tenant():
    with _pool() as pool:
        specs = _mixed_specs()
        for spec in specs:
            pool.submit(spec)
        results = pool.drain(timeout_s=120.0)
    assert len(results) == len(specs)
    assert all(r.ok and r.digest for r in results)
    snap = pool.snapshot()
    assert snap["totals"]["completed"] == len(specs)
    assert snap["totals"]["failed"] == 0
    assert set(snap["tenants"]) == {"tenant0", "tenant1", "tenant2"}
    for acct in snap["tenants"].values():
        assert acct["pe_seconds"] > 0.0
        assert acct["latency_s"]["p50"] <= acct["latency_s"]["p99"]
    assert snap["pool"]["backend"] == "sim"
    assert snap["pool"]["free_pes"] == 4


@pytest.mark.parametrize("backend", ["sim", "vec"])
def test_digests_deterministic_across_pool_lifetimes(backend):
    spec = JobSpec(tenant="t", collective="allreduce", n_pes=3, nelems=33,
                   dtype="double", seed=17)

    def digest_once() -> str:
        with _pool(backend) as pool:
            pool.submit(spec)
            [result] = pool.drain(timeout_s=60.0)
        assert result.ok
        return result.digest

    assert digest_once() == digest_once()


def test_fault_fails_only_its_own_job():
    evil = JobSpec(tenant="evil", collective="allreduce", n_pes=2,
                   nelems=16, seed=3, fault="raise", fault_rank=1)
    good = [JobSpec(tenant=f"good{i}", collective="scan", n_pes=2,
                    nelems=16, seed=i) for i in range(4)]
    with _pool() as pool:
        for spec in [good[0], evil, *good[1:]]:
            pool.submit(spec)
        results = pool.drain(timeout_s=120.0)
    failed = [r for r in results if not r.ok]
    assert [r.tenant for r in failed] == ["evil"]
    assert "injected tenant fault" in failed[0].error
    assert all(r.ok for r in results if r.tenant != "evil")
    snap = pool.snapshot()
    assert snap["tenants"]["evil"]["failed"] == 1
    # A failed job still occupied PEs: the tenant is billed for them.
    assert snap["tenants"]["evil"]["pe_seconds"] > 0.0


def test_exit_fault_degrades_to_raise_in_process():
    """In-process engines must never let a tenant kill the server."""
    spec = JobSpec(tenant="evil", collective="barrier", n_pes=2,
                   fault="exit", fault_rank=0)
    with _pool() as pool:
        pool.submit(spec)
        [result] = pool.drain(timeout_s=60.0)
    assert not result.ok and "injected tenant fault" in result.error


def test_rejects_spec_wider_than_pool():
    with _pool() as pool:
        with pytest.raises(ValueError, match="pool has only"):
            pool.submit(JobSpec(tenant="t", n_pes=8))
        assert pool.pending == 0


def test_submit_after_close_raises():
    pool = _pool()
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(ServeError, match="after close"):
        pool.submit(JobSpec(tenant="t"))
    with pytest.raises(ServeError, match="after close"):
        pool.pump()


def test_unknown_backend_rejected():
    with pytest.raises(ServeError, match="unknown serving backend"):
        ServePool(2, backend="cuda", config=small_config(2))


def test_env_var_overrides_backend(monkeypatch):
    monkeypatch.setenv("XBGAS_SERVE_BACKEND", "sim")
    with ServePool(2, backend="vec", config=small_config(2)) as pool:
        assert pool.backend_name == "sim"


def test_trace_records_serving_spans():
    with _pool(trace=True) as pool:
        pool.submit(JobSpec(tenant="a", collective="allreduce", n_pes=2,
                            nelems=8))
        pool.submit(JobSpec(tenant="b", collective="broadcast", n_pes=2,
                            nelems=8))
        pool.drain(timeout_s=60.0)
    spans = pool.trace.spans()
    assert len(spans) == 2
    details = {e.detail for e in spans}
    assert details == {"collective:serve:allreduce",
                       "collective:serve:broadcast"}
    tenants = {e.attrs["tenant"] for e in spans}
    assert tenants == {"a", "b"}
    assert all(e.dur_ns > 0 for e in spans)


def test_batch_window_validation():
    with pytest.raises(ValueError):
        ServePool(2, backend="sim", config=small_config(2), batch_window=0)


@pytest.mark.parametrize("collective", COLLECTIVES)
def test_batched_digests_match_solo_runs(collective):
    """Same-shape jobs fused into one superstep return exactly the
    digests the same specs produce when served one at a time."""
    specs = [JobSpec(tenant=f"t{i % 3}", collective=collective, n_pes=4,
                     nelems=24, dtype="long", seed=i) for i in range(6)]

    def digests(batch_window: int) -> dict[str, str]:
        with _pool(batch_window=batch_window) as pool:
            ids = {pool.submit(spec): spec.seed for spec in specs}
            results = pool.drain(timeout_s=120.0)
        assert all(r.ok for r in results)
        return {ids[r.job_id]: r.digest for r in results}

    solo = digests(1)
    batched = digests(4)
    assert batched == solo
    assert len(set(solo.values())) == len(specs), (
        "distinct seeds must produce distinct digests — otherwise the "
        "demux could pass by collision")


def test_batched_results_keep_per_job_accounting():
    specs = [JobSpec(tenant=f"t{i}", collective="broadcast", n_pes=2,
                     nelems=16, dtype="long", seed=i, root=1)
             for i in range(3)]
    with _pool(batch_window=8) as pool:
        ids = [pool.submit(spec) for spec in specs]
        results = pool.drain(timeout_s=120.0)
    by_id = {r.job_id: r for r in results}
    assert sorted(by_id) == sorted(ids)
    for r in results:
        assert r.ok and r.ranks == (0, 1)
        assert r.pe_seconds == pytest.approx(2 * r.service_s)
    snap = pool.snapshot()
    assert snap["pool"]["batch_window"] == 8
    assert snap["pool"]["free_pes"] == 4, "batched ranks released once"
    assert snap["totals"]["completed"] == 3
    assert set(snap["tenants"]) == {"t0", "t1", "t2"}


def test_mixed_shapes_still_complete_with_batching_on():
    """A batching pool serving *non*-batchable mixtures (different
    shapes, plus a fault job) degrades to solo dispatch untouched."""
    evil = JobSpec(tenant="evil", collective="allreduce", n_pes=2,
                   nelems=16, seed=3, fault="raise", fault_rank=1)
    specs = _mixed_specs()
    with _pool(batch_window=4) as pool:
        for spec in [*specs[:2], evil, *specs[2:]]:
            pool.submit(spec)
        results = pool.drain(timeout_s=120.0)
    failed = [r for r in results if not r.ok]
    assert [r.tenant for r in failed] == ["evil"]
    assert len(results) == len(specs) + 1


def test_result_records_team_and_timing():
    with _pool() as pool:
        job_id = pool.submit(JobSpec(tenant="t", collective="reduce",
                                     n_pes=3, nelems=12, root=2, seed=5))
        [result] = pool.drain(timeout_s=60.0)
    assert result.job_id == job_id
    assert result.ranks == (0, 1, 2)
    assert result.pe_seconds == pytest.approx(3 * result.service_s)
    assert result.latency_s >= result.service_s >= 0.0
    assert result.latency_s >= result.queue_wait_s >= 0.0
