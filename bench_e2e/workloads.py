"""The six benchmark workloads.

Each workload is a class with the same three-step life: ``__init__``
builds the seeded inputs (and, for serve, the pool), ``rep(i)`` runs one
repetition and checks every output, ``close`` releases what was opened.
Product code only ever sees the generated inputs, never the seed.

A repetition returns a :class:`Rep`: how many checks it made and how
many failed, the simulated time it produced (``model_ns`` — the *model*
clock), the host latency of every unit of work a caller waited for
(``job_ms`` — the *host* clock: each job of a serve block; elsewhere the
repetition is the one job, and the caller's own timing of it stands) and
the exactly-repeating counts the
product reports about itself.  Wall and CPU time of the repetition are
measured by the caller (``run.py``), not here.

Why these six, and these sizes, is recorded in ``BENCHMARK.json`` and
``README.md``; sizes were timed to give ~1-2 s per repetition pinned to
one CPU on the 2-core reference host.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench import gups as gups_mod
from repro.bench import nas_is as is_mod
from repro.bench import serve_sweep
from repro.collectives import allreduce as allreduce_mod
from repro.collectives import broadcast as broadcast_mod
from repro.collectives import tuning
from repro.collectives.schedule import evaluate as evaluate_mod
from repro.collectives.schedule import lint as lint_mod
from repro.errors import QueueFullError
from repro.params import MachineConfig
from repro.runtime import context as context_mod
from repro.serve import pool as pool_mod
from repro.serve.stats import percentile

__all__ = ["Rep", "WORKLOADS", "coll_program", "coll_inputs",
           "children_cpu_s", "children_rss_mb"]

I64 = np.dtype(np.int64)


@dataclass
class Rep:
    """What one repetition did (see the module docstring)."""

    ops: int
    checks: int
    failed: int
    model_ns: float
    #: empty when the repetition is itself the one job a caller waits for
    job_ms: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


class Workload:
    """What ``run.py`` needs of a workload besides ``rep``."""

    #: Pin the subprocess to one CPU (everything that runs PE threads).
    pinned = True
    #: What ``Rep.ops`` counts.
    op_name = "operations"
    #: Set for traced repetitions: record counts that cost time to take.
    tracing = False

    def close(self) -> None:
        """Release what ``__init__`` opened."""


# --------------------------------------------------------------------------
# gups_sim — the paper's Figure 4 kernel: scalar random remote access
# --------------------------------------------------------------------------

class GupsSim(Workload):
    """``run_gups`` on 8 PEs, 2^16-word table, verification on."""

    op_name = "updates"

    def __init__(self, seed: int, quick: bool = False):
        self.config = MachineConfig(n_pes=8)
        self.params = gups_mod.GupsParams(
            log2_table_size=12 if quick else 16,
            updates_per_pe=64 if quick else 1536,
            verify=True, seed=seed,
        )

    def rep(self, index: int) -> Rep:
        res = gups_mod.run_gups(self.config, self.params)
        return Rep(ops=res.total_updates, checks=1,
                   failed=0 if res.passed and res.verified else 1,
                   model_ns=res.sim_seconds * 1e9)


# --------------------------------------------------------------------------
# is_sim — the paper's Figure 5 kernel: bulk ranges and an all-to-all
# --------------------------------------------------------------------------

class IsSim(Workload):
    """``run_is`` class A-scaled on 8 PEs; key generation is set-up."""

    op_name = "keys_ranked"

    def __init__(self, seed: int, quick: bool = False):
        self.config = MachineConfig(n_pes=8)
        # NPB's multiplicative LCG (mod 2^46) needs an odd seed; 314159265
        # is the reference one, and stepping by 2 keeps it odd.
        self.params = is_mod.IsParams(
            problem_class="S-scaled" if quick else "A-scaled",
            max_iterations=2 if quick else 10,
            seed=float((314159265 + 2 * seed) % (1 << 46)),
        )
        self.keys = is_mod.generate_keys(self.params)

    def rep(self, index: int) -> Rep:
        res = is_mod.run_is(self.config, self.params, self.keys)
        failed = (not res.partial_verified) + (not res.full_verified)
        return Rep(ops=res.iterations * res.total_keys, checks=2,
                   failed=failed, model_ns=res.sim_seconds * 1e9)

# --------------------------------------------------------------------------
# coll_small_sim — the paper's contribution, latency-bound regime
# --------------------------------------------------------------------------

COLLECTIVES = ("broadcast", "reduce", "allreduce", "scan", "alltoall")
#: Payload sizes per call, int64 elements (mean 8: the latency-bound
#: regime).  Every size and every root comes up equally often under every
#: seed, so runs at different seeds do the same work; the seed sets the
#: order, the pairing of size with root, and the data, which is enough to
#: move model time.
COLL_NELEMS = (4, 6, 8, 10, 12)


def _shuffled_cycle(rng, values, n: int) -> np.ndarray:
    """``n`` draws covering ``values`` evenly, in seeded order."""
    reps = -(-n // len(values))
    return rng.permutation(np.tile(np.asarray(values), reps))[:n]


def coll_inputs(seed: int, n_pes: int, iters: int) -> dict:
    """Seeded payloads, sizes, root order and numpy oracles for the loop."""
    rng = np.random.default_rng(seed)
    width = max(COLL_NELEMS)
    vals = rng.integers(-1000, 1000, size=(iters, n_pes, width),
                        dtype=np.int64)
    a2a = rng.integers(-1000, 1000, size=(iters, n_pes, n_pes, width),
                       dtype=np.int64)
    return {
        "vals": vals, "a2a": a2a,
        "roots": _shuffled_cycle(rng, range(n_pes), iters),
        "nelems": _shuffled_cycle(rng, COLL_NELEMS, iters),
        "sum": vals.sum(axis=1),
        "scan": np.cumsum(vals, axis=1),
        # alltoall: block q of rank p's output is block p of rank q's input
        "a2a_out": a2a.transpose(0, 2, 1, 3),
    }


def coll_program(ctx, inp: dict) -> tuple[int, str]:
    """The per-PE loop: 5 collectives per iteration, each checked.

    Returns this PE's mismatch count and a digest of every output buffer
    it saw.  Written against the PE context protocol only, so the traced
    run can replay it unchanged on the vec and mp backends and under the
    mailbox transport and compare the digests byte for byte.
    """
    ctx.init()
    me, n = ctx.my_pe(), ctx.num_pes()
    width = max(COLL_NELEMS)
    src = ctx.malloc(8 * n * width)
    dst = ctx.malloc(8 * n * width)
    sv = ctx.view(src, "int64", n * width)
    dv = ctx.view(dst, "int64", n * width)
    vals, a2a, roots = inp["vals"], inp["a2a"], inp["roots"]
    want_sum, want_scan, want_a2a = inp["sum"], inp["scan"], inp["a2a_out"]
    bad = 0
    seen = hashlib.sha256()

    def check(got: np.ndarray, want: np.ndarray) -> int:
        seen.update(got.tobytes())
        return 0 if np.array_equal(got, want) else 1

    ctx.barrier()
    for it in range(len(roots)):
        root, k = int(roots[it]), int(inp["nelems"][it])
        sv[:k] = vals[it, me, :k]

        ctx.broadcast(dst, src, k, 1, root, dtype="int64")
        bad += check(dv[:k], vals[it, root, :k])

        ctx.reduce(dst, src, k, 1, root, op="sum", dtype="int64")
        if me == root:
            bad += check(dv[:k], want_sum[it, :k])

        ctx.allreduce(dst, src, k, 1, op="sum", dtype="int64")
        bad += check(dv[:k], want_sum[it, :k])

        ctx.scan(dst, src, k, 1, op="sum", dtype="int64")
        bad += check(dv[:k], want_scan[it, me, :k])

        sv[:n * k] = a2a[it, me, :, :k].reshape(-1)
        ctx.alltoall(dst, src, k, dtype="int64")
        bad += check(dv[:n * k], want_a2a[it, me, :, :k].reshape(-1))
    ctx.barrier()
    ctx.free(dst)
    ctx.free(src)
    ctx.close()
    return bad, seen.hexdigest()


class CollSmallSim(Workload):
    """One ``Machine.run`` looping 200 x 5 small collectives on 8 PEs."""

    op_name = "collectives"

    def __init__(self, seed: int, quick: bool = False):
        self.config = MachineConfig(n_pes=8)
        self.iters = 4 if quick else 200
        self.inputs = coll_inputs(seed, self.config.n_pes, self.iters)

    def rep(self, index: int) -> Rep:
        machine = context_mod.Machine(self.config)
        results = machine.run(coll_program,
                              [(self.inputs,)] * self.config.n_pes)
        return Rep(ops=self.iters * len(COLLECTIVES),
                   # every PE checks every call except reduce, which
                   # only the root can check
                   checks=self.iters * (4 * self.config.n_pes + 1),
                   failed=sum(bad for bad, _ in results),
                   model_ns=machine.elapsed_ns)


# --------------------------------------------------------------------------
# plan_scale — schedule IR without PE threads: compile, lint, evaluate
# --------------------------------------------------------------------------

PLAN_PES = (64, 256, 1024, 4096)
PLAN_NELEMS = (8, 4096)          # 64 B and 32 KiB of int64
PLAN_SMALL_MAX_PES = 256         # the 64 B payload stops here
PLAN_ALLREDUCE_MAX_PES = 256     # 1024 PEs costs ~0.5 s, 4096 PEs ~3 s
PLAN_LINT_MAX_PES = 256          # lint at 1024 PEs alone costs ~2 s
PLAN_DATA_PES = 64               # data-carrying evaluation + oracle
PLAN_ALGOS = {
    "broadcast": ("binomial", "linear", "ring"),
    "allreduce": ("doubling", "rabenseifner", "ring"),
}
PLAN_RING_MAX_PES = 64
PLAN_LINEAR_MAX_PES = 1024       # vec_sweep's cap: O(N) root-serialised
#: The nelems offset is ``seed % PLAN_SEED_SPAN + rep``: small enough to
#: keep both payloads in their regime, wide enough that nearby seeds
#: compile different shapes.
PLAN_SEED_SPAN = 24


def _plan_compile(collective: str, algorithm: str, n_pes: int, nelems: int):
    # Looked up on the module at call time so the trace wrappers apply.
    if collective == "broadcast":
        return broadcast_mod.compile_broadcast(n_pes, 0, nelems, 1, 8,
                                               algorithm=algorithm)
    return allreduce_mod.compile_allreduce(n_pes, nelems, 1, 8, "sum",
                                           algorithm=algorithm)


def _count_steps(sched) -> int:
    return sum(1 for r in range(sched.n_pes)
               for _ in sched.program(r).all_steps())


class PlanScale(Workload):
    """Cold compile + lint + cost evaluation over a 64-4096 PE grid."""

    op_name = "plans"

    def __init__(self, seed: int, quick: bool = False):
        self.offset = seed % PLAN_SEED_SPAN
        self.rng_seed = seed
        self.pes = (16,) if quick else PLAN_PES
        self.data_pes = 16 if quick else PLAN_DATA_PES
        self.ring_max = 16 if quick else PLAN_RING_MAX_PES

    def _grid(self):
        for collective, algos in PLAN_ALGOS.items():
            for n_pes in self.pes:
                for base in PLAN_NELEMS:
                    if base == PLAN_NELEMS[0] and n_pes > PLAN_SMALL_MAX_PES:
                        continue
                    if (collective == "allreduce"
                            and n_pes > PLAN_ALLREDUCE_MAX_PES):
                        continue
                    yield collective, n_pes, base, [
                        a for a in algos
                        if not (a == "ring" and n_pes > self.ring_max)
                        and not (a == "linear"
                                 and n_pes > PLAN_LINEAR_MAX_PES)
                    ]

    def _data_check(self, collective: str, sched, n_pes: int,
                    nelems: int, salt: int) -> bool:
        rng = np.random.default_rng([self.rng_seed, salt])
        payload = rng.integers(-1000, 1000, size=(n_pes, nelems),
                               dtype=np.int64)
        ev = evaluate_mod.evaluate_schedule(
            sched, MachineConfig(n_pes=n_pes, cores_per_node=1),
            dtype=I64, inputs={"src": payload})
        want = payload[0] if collective == "broadcast" \
            else payload.sum(axis=0)
        return all(np.array_equal(ev.buffer("dest", r), want)
                   for r in range(n_pes))

    def rep(self, index: int) -> Rep:
        clock = time.perf_counter
        # index is -1 for the warm-up; every repetition of a process
        # compiles shapes no earlier one did, so compilation stays cold.
        shift = self.offset + index + 1
        checks = failed = plans = 0
        steps = lint_steps = lint_issues = 0
        data_s = model_ns = 0.0
        regrets: list[float] = []
        for collective, n_pes, base, algos in self._grid():
            nelems = base + shift
            cfg = MachineConfig(n_pes=n_pes, cores_per_node=1)
            makespans: dict[str, float] = {}
            for algorithm in algos:
                linted = n_pes <= PLAN_LINT_MAX_PES
                sched = _plan_compile(collective, algorithm, n_pes, nelems)
                if linted:
                    issues = lint_mod.lint_schedule(sched)
                    checks += 1
                    failed += bool(issues)
                    lint_issues += len(issues)
                ev = evaluate_mod.evaluate_schedule(
                    sched, cfg, dtype=I64, collect_data=False)
                makespans[algorithm] = ev.elapsed_ns
                if n_pes == self.data_pes:
                    t1 = clock()
                    checks += 1
                    failed += not self._data_check(
                        collective, sched, n_pes, nelems, plans)
                    data_s += clock() - t1
                plans += 1
                if self.tracing:    # walking every step costs ~0.1 s
                    n_steps = _count_steps(sched)
                    steps += n_steps
                    lint_steps += n_steps if linted else 0
            pick = tuning.select_algorithm(collective, nelems * 8, n_pes)
            if pick not in makespans:   # a pick the grid capped (ring)
                sched = _plan_compile(collective, pick, n_pes, nelems)
                makespans[pick] = evaluate_mod.evaluate_schedule(
                    sched, cfg, dtype=I64, collect_data=False).elapsed_ns
            model_ns += makespans[pick]
            regrets.append(makespans[pick] / min(makespans.values()))
        return Rep(ops=plans, checks=checks, failed=failed,
                   model_ns=model_ns, counts={
                       "compile.steps": steps,
                       "lint.steps": lint_steps,
                       "lint.issues": lint_issues,
                       "evaluate.data_s": data_s,
                       "tuning.regret_max": max(regrets),
                       "tuning.within_1p25x_frac":
                           sum(r <= 1.25 for r in regrets) / len(regrets),
                   })


# --------------------------------------------------------------------------
# serve_sat / serve_solo — the mp serving pool under a closed loop
# --------------------------------------------------------------------------

SERVE_PES = 4
SERVE_TENANTS = 8
SERVE_BLOCK = 1000         # jobs per timed repetition
SERVE_SAMPLE_FRAC = 0.05   # jobs re-run alone on the sim backend


def _proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of a live process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(") ", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_private_rss_mb(pid: int) -> float:
    """Resident anonymous memory of a live process, MiB.  The shared
    segments every worker maps are left out: each worker counts the pages
    of them it happened to touch, which varies run to run."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) / 1024
    return 0.0


def worker_pids() -> list[int]:
    """The pool's worker processes, as the standard library sees them."""
    return [p.pid for p in multiprocessing.active_children()
            if p.pid is not None]


def children_cpu_s() -> float:
    return sum(_proc_cpu_s(pid) for pid in worker_pids())


def children_rss_mb() -> float:
    return sum(_proc_private_rss_mb(pid) for pid in worker_pids())


def _proportional_block(stream: list, block: int) -> list:
    """The first ``block`` jobs of the seeded stream, skipping a job once
    its profile holds its share of the block (mix weight plus 1 % slack).

    A raw prefix of the stream carries 4 % +- 0.6 % wide all-to-alls, and
    that alone moved the work in a block by several percent from seed to
    seed; with the proportions pinned, a block is the same amount of work
    under every seed while tenants, payloads and order still follow it.
    """
    total = sum(p.weight for p in serve_sweep.DEFAULT_MIX)
    room = {
        (p.collective, min(p.n_pes, SERVE_PES), p.nelems, p.dtype):
            math.ceil(1.01 * block * p.weight / total)
        for p in serve_sweep.DEFAULT_MIX
    }
    taken, skipped = [], []
    for spec in stream:
        shape = (spec.collective, spec.n_pes, spec.nelems, spec.dtype)
        if room[shape] > 0:
            room[shape] -= 1
            taken.append(spec)
            if len(taken) == block:
                return taken
        else:
            skipped.append(spec)
    return (taken + skipped)[:block]   # the stream ran short of a profile


class _Serve(Workload):
    """``ServePool(4, "mp")`` driven by a single-threaded closed loop.

    ``window`` is the number of jobs kept outstanding: each of that many
    callers submits its next job only when its previous one returned.
    """

    pinned = False   # workers are separate processes
    op_name = "jobs"
    window = 1

    def __init__(self, seed: int, quick: bool = False):
        self.block = 60 if quick else SERVE_BLOCK
        os.environ.pop("XBGAS_SERVE_BACKEND", None)
        stream = serve_sweep.build_jobs(
            seed, 1.0, 2 * self.block + 64, tenants=SERVE_TENANTS,
            pool_pes=SERVE_PES)
        self.specs = _proportional_block([spec for _, spec in stream],
                                         self.block)
        # The workers fork first, from a driver that has built nothing
        # yet: what the oracle below leaves in this process's heap would
        # otherwise be inherited, copy-on-write, by every worker.
        self.pool = pool_mod.ServePool(n_pes=SERVE_PES, backend="mp")
        try:
            rng = np.random.default_rng(seed)
            n_sample = max(1, round(SERVE_SAMPLE_FRAC * self.block))
            sample = rng.choice(self.block, n_sample, replace=False)
            self.oracle = self._solo_digests(sorted(int(i) for i in sample))
            self.model_ns = self._solo_model_ns()
        except BaseException:
            self.pool.close()
            raise

    def _solo_digests(self, sample: list[int]) -> dict[int, str]:
        """Digest of each sampled job run alone on ``backend="sim"``."""
        digests = {}
        with pool_mod.ServePool(n_pes=SERVE_PES, backend="sim") as solo:
            for k, i in enumerate(sample):
                solo.submit(self.specs[i])
                (res,) = solo.drain(timeout_s=60)
                digests[i] = res.digest
                if k % 10 == 9:
                    # Finished machines are cyclic garbage; left to the
                    # collector's own timing they make the driver's
                    # high-water RSS vary by 100+ MiB between runs.
                    gc.collect()
        return digests

    def _solo_model_ns(self) -> float:
        """Simulated ns to run the block's jobs one after another, each
        alone on a fresh simulated machine of its own width."""
        from repro.serve.programs import run_collective_job

        by_shape: dict[tuple, float] = {}
        total = 0.0
        for spec in self.specs:
            shape = (spec.collective, spec.n_pes, spec.nelems, spec.dtype,
                     spec.root)
            if shape not in by_shape:
                machine = context_mod.Machine(
                    MachineConfig(n_pes=spec.n_pes))
                machine.run(run_collective_job,
                            [(spec.as_wire(),)] * spec.n_pes)
                by_shape[shape] = machine.elapsed_ns
            total += by_shape[shape]
        return total

    def _drive(self) -> list:
        """Closed loop: keep ``window`` jobs outstanding until all ran."""
        pool, specs = self.pool, self.specs
        results = []
        nxt = outstanding = 0
        self.rejected = 0
        while len(results) + self.rejected < len(specs):
            while outstanding < self.window and nxt < len(specs):
                try:
                    pool.submit(specs[nxt])
                    outstanding += 1
                except QueueFullError:
                    self.rejected += 1
                nxt += 1
            pool.pump(0.0005)
            done = pool.poll()
            outstanding -= len(done)
            results.extend(done)
        return results

    def rep(self, index: int) -> Rep:
        cpu0 = time.process_time()
        kids0 = children_cpu_s()
        t0 = time.perf_counter()
        results = self._drive()
        wall = time.perf_counter() - t0
        cpu1 = time.process_time()
        kids1 = children_cpu_s()

        first_id = min(r.job_id for r in results)
        by_index = {r.job_id - first_id: r for r in results}
        failed = self.rejected + sum(
            1 for r in results if not r.ok or r.rejected)
        failed += sum(
            1 for i, digest in self.oracle.items()
            if i not in by_index or by_index[i].digest != digest)
        qw = [r.queue_wait_s * 1e3 for r in results]
        sv = [r.service_s * 1e3 for r in results]
        return Rep(ops=self.block, checks=self.block + len(self.oracle),
                   failed=failed, model_ns=self.model_ns,
                   job_ms=[r.latency_s * 1e3 for r in results], counts={
                       "serve.jobs_per_s": len(results) / wall,
                       "serve.queue_wait_ms_p50": percentile(qw, 50),
                       "serve.queue_wait_ms_p99": percentile(qw, 99),
                       "serve.service_ms_p50": percentile(sv, 50),
                       "serve.service_ms_p99": percentile(sv, 99),
                       "serve.driver_cpu_s": cpu1 - cpu0,
                       "serve.worker_cpu_s": kids1 - kids0,
                       "serve.rejected": self.rejected,
                   })

    def close(self) -> None:
        self.pool.close()


class ServeSat(_Serve):
    """Capacity at saturation: 8 tenants, one outstanding job each."""

    window = SERVE_TENANTS


class ServeSolo(_Serve):
    """Unloaded per-job latency: one caller, one job at a time."""

    window = 1


WORKLOADS = {
    "gups_sim": GupsSim,
    "is_sim": IsSim,
    "coll_small_sim": CollSmallSim,
    "plan_scale": PlanScale,
    "serve_sat": ServeSat,
    "serve_solo": ServeSolo,
}
