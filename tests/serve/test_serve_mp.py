"""Multi-tenant serving on the real worker pool (``stress`` marker).

The tentpole acceptance properties, against one ``ServePool`` process
lifetime on the mp backend:

* **throughput** — a 4-PE pool sustains 200+ mixed collective jobs
  across 8 tenants;
* **crash isolation** — a seeded tenant crash (Python raise or hard
  ``os._exit``) fails exactly its own job; every other job's digest is
  byte-identical to a fault-free run of the same workload;
* **admission control** — saturation triggers backpressure, starvation
  triggers bounded-wait rejection, and both paths leave the pool
  serving;
* **leak census** — no worker process and no ``/dev/shm`` segment
  outlives the pool, and mid-run slot rebuilds reuse the existing
  segments instead of re-creating them.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.errors import QueueFullError
from repro.serve import COLLECTIVES, JobSpec, ServePool

from ..backends.conftest import xbgas_children, xbgas_segments
from ..conftest import small_config

pytestmark = pytest.mark.stress


def _pool(**kw) -> ServePool:
    kw.setdefault("config", small_config(4))
    return ServePool(4, backend="mp", **kw)


def _workload(n_jobs: int, tenants: int, fault_every: int) -> list[JobSpec]:
    """Deterministic mixed-collective workload; every ``fault_every``-th
    job carries a seeded crash (alternating raise / hard exit)."""
    specs = []
    for i in range(n_jobs):
        coll = COLLECTIVES[i % len(COLLECTIVES)]
        n_pes = 4 if i % 9 == 0 else (i % 2) + 1 if coll == "barrier" else 2
        fault = None
        if fault_every and i % fault_every == fault_every - 1:
            fault = "exit" if (i // fault_every) % 2 else "raise"
        specs.append(JobSpec(
            tenant=f"tenant{i % tenants}", collective=coll, n_pes=n_pes,
            nelems=16 + (i % 5) * 24, dtype="double" if i % 3 else "long",
            seed=i, fault=fault, fault_rank=i % n_pes,
        ))
    return specs


def _run_workload(specs: list[JobSpec], **pool_kw) -> dict[int, object]:
    """One pool lifetime; returns results keyed by submission index."""
    with _pool(**pool_kw) as pool:
        for spec in specs:
            while True:
                try:
                    pool.submit(spec)
                    break
                except QueueFullError:
                    pool.pump(0.02)
        results = pool.drain(timeout_s=300.0)
        snap = pool.snapshot()
    by_id = {r.job_id: r for r in results}
    assert sorted(by_id) == list(range(len(specs))), \
        "exactly one terminal result per submitted job"
    return {"results": by_id, "snapshot": snap}


@pytest.mark.timeout(300)
def test_acceptance_200_jobs_8_tenants_crash_isolated():
    before_segs = xbgas_segments()
    before_pids = {p.pid for p in xbgas_children()}
    specs = _workload(n_jobs=210, tenants=8, fault_every=35)
    faulted_idx = {i for i, s in enumerate(specs) if s.fault}
    assert len(specs) - len(faulted_idx) >= 200

    run = _run_workload(specs)

    # Exactly the seeded-fault jobs failed; nothing spilled over.
    failures = {i for i, r in run["results"].items() if not r.ok}
    assert failures == faulted_idx, (
        f"cross-tenant failure spill: unexpected {sorted(failures - faulted_idx)}, "
        f"missing {sorted(faulted_idx - failures)}"
    )
    snap = run["snapshot"]
    assert len(snap["tenants"]) == 8
    assert snap["totals"]["completed"] >= 200
    assert snap["totals"]["failed"] == len(faulted_idx)
    for acct in snap["tenants"].values():
        assert acct["pe_seconds"] > 0.0

    # Differential: the same workload with the faults stripped must give
    # byte-identical digests on every non-faulted job.
    clean = _run_workload([dataclasses.replace(s, fault=None)
                           for s in specs])
    for i in sorted(set(range(len(specs))) - faulted_idx):
        got, want = run["results"][i], clean["results"][i]
        assert got.digest == want.digest, (
            f"job {i} ({specs[i].tenant}, {specs[i].collective}): digest "
            f"diverged from the fault-free run"
        )

    # Census: both pool lifetimes cleaned up completely.
    assert [p for p in xbgas_children() if p.pid not in before_pids] == []
    assert xbgas_segments() == before_segs


@pytest.mark.timeout(300)
def test_admission_saturation_backpressure():
    with _pool(max_queue_depth=4) as pool:
        # A full-width job pins every PE, so followers can only queue.
        pool.submit(JobSpec(tenant="pinner", collective="alltoall",
                            n_pes=4, nelems=4096, seed=1))
        with pytest.raises(QueueFullError):
            for i in range(pool.scheduler.max_queue_depth + 1):
                pool.submit(JobSpec(tenant=f"t{i}", collective="barrier",
                                    n_pes=2, seed=i))
        assert pool.scheduler.depth == 4, \
            "the rejected submit must not occupy a queue slot"
        results = pool.drain(timeout_s=120.0)
    assert all(r.ok for r in results)
    assert len(results) == 5  # pinner + the four admitted followers


@pytest.mark.timeout(300)
def test_bounded_wait_rejects_starved_job_and_pool_recovers():
    with _pool(max_wait_s=0.05) as pool:
        pool.submit(JobSpec(tenant="pinner", collective="alltoall",
                            n_pes=4, nelems=4096, seed=2))
        victim = pool.submit(JobSpec(tenant="starved", collective="barrier",
                                     n_pes=4, seed=3))
        time.sleep(0.12)  # exceed the wait bound before the next pump
        results = pool.drain(timeout_s=120.0)
        by_id = {r.job_id: r for r in results}
        assert by_id[victim].rejected
        assert "AdmissionTimeoutError" in by_id[victim].error
        assert by_id[victim].ranks == (), "a rejected job never held PEs"
        # The pool still serves after the rejection.
        pool.submit(JobSpec(tenant="after", collective="allreduce",
                            n_pes=2, nelems=32, seed=4))
        [late] = pool.drain(timeout_s=120.0)
        assert late.ok
    snap = pool.snapshot()
    assert snap["tenants"]["starved"]["rejected"] == 1
    assert snap["tenants"]["starved"]["pe_seconds"] == 0.0


@pytest.mark.timeout(300)
def test_hard_crash_rebuild_reuses_segments_midrun():
    """A tenant's dead worker is rebuilt in place: same segment names,
    and a concurrent tenant's job matches its fault-free digest."""
    good = JobSpec(tenant="good", collective="scan", n_pes=2, nelems=64,
                   seed=9)
    with ServePool(2, backend="sim",
                   config=small_config(2)) as ref_pool:
        ref_pool.submit(good)
        [ref] = ref_pool.drain(timeout_s=60.0)

    with _pool() as pool:
        segs_live = xbgas_segments()
        pool.submit(good)
        pool.submit(JobSpec(tenant="evil", collective="allreduce", n_pes=2,
                            nelems=64, seed=10, fault="exit", fault_rank=1))
        results = pool.drain(timeout_s=120.0)
        assert xbgas_segments() == segs_live, \
            "slot rebuild must reuse segments, not unlink/recreate"
        outcomes = {r.tenant: r for r in results}
        assert outcomes["good"].ok
        assert outcomes["good"].digest == ref.digest
        assert not outcomes["evil"].ok
        assert "died" in outcomes["evil"].error
        # The rebuilt pool keeps serving both tenants.
        pool.submit(dataclasses.replace(good, seed=11))
        [again] = pool.drain(timeout_s=120.0)
        assert again.ok


@pytest.mark.timeout(300)
@pytest.mark.parametrize("collective", COLLECTIVES)
def test_batched_dispatch_on_workers_matches_solo_digests(collective):
    """Opportunistic batching on the real worker pool: same-shape jobs
    from different tenants fuse into one superstep per team, and every
    digest matches its solo (batch_window=1) run."""
    specs = [JobSpec(tenant=f"tenant{i % 3}", collective=collective,
                     n_pes=4, nelems=24, dtype="long", seed=i)
             for i in range(6)]

    def digests(batch_window: int) -> dict[int, str]:
        with _pool(batch_window=batch_window) as pool:
            ids = {pool.submit(spec): spec.seed for spec in specs}
            results = pool.drain(timeout_s=300.0)
        assert all(r.ok for r in results), [r.error for r in results
                                            if not r.ok]
        return {ids[r.job_id]: r.digest for r in results}

    solo = digests(1)
    batched = digests(6)
    assert batched == solo
    assert len(set(solo.values())) == len(specs)
