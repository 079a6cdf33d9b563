"""NAS Integer Sort (IS) adapted from the NPB / ORNL OSB versions.

Bucket sort of ``N`` uniformly-bucketed keys drawn from NPB's Gaussian
approximation (the average of four ``randlc`` uniforms), ranked over
``max_iterations`` timed iterations.  The distributed algorithm follows
the NPB MPI/SHMEM structure; each iteration

1. histograms the PE's local keys into ``n_buckets`` buckets;
2. obtains the global bucket counts with the *reduction* + *broadcast*
   collectives (the two operations the paper highlights IS exercising);
3. splits bucket ownership so every PE receives an equal share of keys;
   a PE's buckets are one contiguous range;
4. redistributes the keys with one-sided puts (all-to-all-v) after an
   exchange of send counts.  The send counts are the bucket histogram
   summed over each owner's range, and the keys are staged in owner
   order by one stable radix partition: a stable argsort of each key's
   owner in the narrowest unsigned dtype that holds ``n_pes - 1`` (8 or
   16 bits up to 65 536 PEs, which numpy sorts by radix in linear time);
5. ranks its received keys locally: they all lie in the PE's own
   contiguous key range, so a counting sort over that range gives the
   sorted sequence in linear time;
6. checks the ranks of five tracked test keys (*partial verification*)
   against an oracle.

Per NPB, iteration ``i`` first mutates two keys (``key[i] = i`` and
``key[i + MAX_ITERATIONS] = max_key - i``) so every iteration ranks a
slightly different sequence.  The oracle sorts the generated keys once,
independently of the distributed kernel, and then follows the mutations
incrementally: a test key's rank moves by one when a mutated key crosses
it.  *Full verification* checks global sortedness at the end (boundary
exchange with the neighbour PE plus an error reduction).

Class sizes follow the NPB table with additional scaled classes sized
for a Python-process simulation; the default ``B-scaled`` keeps class
B's shape (total key volume ≫ one L2) at 1/8 the key count.  Reported
metric: ranked keys per second (Mop/s), total and per PE — Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CollectiveArgumentError
from ..params import MachineConfig
from ..runtime.context import Machine, XBRTime
from ..runtime.symmetric_heap import check_footprint

__all__ = ["IsParams", "IsResult", "CLASS_PARAMS", "run_is", "generate_keys"]

#: NPB problem classes: (log2 total keys, log2 max key).  The *-scaled
#: classes shrink the key count for simulation speed while keeping the
#: working-set-vs-cache relationship of the full class.
CLASS_PARAMS: dict[str, tuple[int, int]] = {
    "S": (16, 11),
    "W": (20, 16),
    "A": (23, 19),
    "B": (25, 21),
    "S-scaled": (14, 11),
    "A-scaled": (19, 16),
    "B-scaled": (22, 18),
}


@dataclass(frozen=True)
class IsParams:
    """Workload configuration (defaults: scaled class B, NPB's 10
    iterations and 2^10 buckets)."""

    problem_class: str = "B-scaled"
    max_iterations: int = 10
    log2_n_buckets: int = 10
    seed: float = 314159265.0

    @property
    def total_keys(self) -> int:
        return 1 << CLASS_PARAMS[self.problem_class][0]

    @property
    def max_key(self) -> int:
        return 1 << CLASS_PARAMS[self.problem_class][1]

    @property
    def n_buckets(self) -> int:
        return 1 << self.log2_n_buckets

    def __post_init__(self) -> None:
        if self.problem_class not in CLASS_PARAMS:
            raise CollectiveArgumentError(
                f"unknown IS class {self.problem_class!r}; expected one of "
                f"{sorted(CLASS_PARAMS)}"
            )
        # Iteration i writes key[i] = i and key[i + max_iterations] =
        # max_key - i: both must be keys in range, at indices that exist.
        if not 1 <= self.max_iterations < self.max_key:
            raise CollectiveArgumentError(
                f"max_iterations must be in [1, {self.max_key}) for class "
                f"{self.problem_class}, got {self.max_iterations}"
            )
        if 2 * self.max_iterations >= self.total_keys:
            raise CollectiveArgumentError(
                f"max_iterations {self.max_iterations} mutates key index "
                f"{2 * self.max_iterations}, past class "
                f"{self.problem_class}'s {self.total_keys} keys"
            )

    def recv_cap(self, n_pes: int) -> int:
        """Keys a PE's receive buffer holds: the equal share plus slack
        for bucket-granularity imbalance (a PE can exceed its share by at
        most the largest bucket, which is ~2x the mean bucket for NPB's
        Gaussian keys)."""
        total = self.total_keys
        return max(total // n_pes + total // 32 + 4 * self.max_iterations,
                   64)

    def check_config(self, config: MachineConfig) -> None:
        """Refuse, before any PE starts, a PE count that does not split
        the keys evenly or a class whose buffers do not fit a PE: the
        symmetric mallocs of :func:`_is_pe` against the symmetric heap,
        its staging buffer against the private segment."""
        n = config.n_pes
        if self.total_keys % n:
            raise CollectiveArgumentError(
                f"total keys {self.total_keys} not divisible by {n} PEs"
            )
        n_keys = self.total_keys // n
        check_footprint(
            config, f"NAS IS class {self.problem_class} on {n} PEs",
            heap=(4 * n_keys, 8 * self.n_buckets, 8 * self.n_buckets,
                  8 * n, 8 * n, 4 * self.recv_cap(n), 8 * n, 8, 8, 8),
            private=(4 * n_keys, 8))


@dataclass(frozen=True)
class IsResult:
    """One IS run (one row of Figure 5)."""

    n_pes: int
    problem_class: str
    total_keys: int
    iterations: int
    sim_seconds: float
    partial_verified: bool
    full_verified: bool

    @property
    def mops_total(self) -> float:
        """Million keys ranked per second (NPB's Mop/s for IS)."""
        return self.iterations * self.total_keys / self.sim_seconds / 1e6

    @property
    def mops_per_pe(self) -> float:
        return self.mops_total / self.n_pes


# --- NPB pseudorandom key generation -----------------------------------------

#: NPB's randlc is the multiplicative LCG x' = a·x mod 2^46 with
#: a = 5^13; the reference implements it in double precision via 23-bit
#: halves.  The integer form below is the same recurrence exactly.
_LCG_A = 1220703125
_MASK23 = (1 << 23) - 1
_MASK46 = (1 << 46) - 1
_R46 = 2.0 ** -46


def _randlc_int(x: int) -> int:
    """One exact ``randlc`` step (x, result are 46-bit integers)."""
    return (x * _LCG_A) & _MASK46


def _lcg_block(x0: int, apow_lo: np.ndarray, apow_hi: np.ndarray) -> np.ndarray:
    """Vectorised jump: states ``x0·a^j mod 2^46`` for j = 1..len(apow).

    46×46-bit modular multiply in uint64 via 23-bit split halves (the
    high×high partial is ≡ 0 mod 2^46); every intermediate fits 2^47.
    """
    xl, xh = x0 & _MASK23, x0 >> 23
    cross = ((np.uint64(xh) * apow_lo + np.uint64(xl) * apow_hi)
             & np.uint64(_MASK23))
    return (np.uint64(xl) * apow_lo + (cross << np.uint64(23))) & np.uint64(_MASK46)


def generate_keys(params: IsParams) -> np.ndarray:
    """NPB ``create_seq``: keys = max_key/4 × (sum of 4 uniforms)."""
    n = params.total_keys
    k = params.max_key // 4
    total = 4 * n
    chunk = 1 << 14
    apow = np.empty(chunk, dtype=np.uint64)
    p = 1
    for j in range(chunk):
        p = _randlc_int(p)  # a^(j+1) mod 2^46
        apow[j] = p
    apow_lo = apow & np.uint64(_MASK23)
    apow_hi = apow >> np.uint64(23)
    states = np.empty(total, dtype=np.uint64)
    x = int(params.seed)
    for start in range(0, total, chunk):
        m = min(chunk, total - start)
        block = _lcg_block(x, apow_lo[:m], apow_hi[:m])
        states[start:start + m] = block
        x = int(block[-1])
    r = states.reshape(n, 4).astype(np.float64) * _R46
    return (k * r.sum(axis=1)).astype(np.int64)


# --- the distributed benchmark ------------------------------------------------

#: Cost charged per key for histogramming / ranking passes (cycles).
_CYCLES_PER_KEY = 4.0


def _owner_order(owner_of_bucket: np.ndarray, key_bucket: np.ndarray,
                 n: int) -> np.ndarray:
    """The stable permutation that groups keys by owner PE.

    A stable order is unique, so this is ``argsort(owners,
    kind="stable")`` in any integer dtype; owners in the narrowest
    unsigned one that holds ``n - 1`` take numpy's radix sort (8- and
    16-bit keys) instead of a timsort over int64.
    """
    owners = owner_of_bucket.astype(np.min_scalar_type(n - 1))
    return np.argsort(owners[key_bucket], kind="stable")


def _rank_keys(got: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``np.sort(got)`` for keys that all lie in ``[lo, hi)``: a counting
    sort, one bincount over the range and one repeat of its values."""
    counts = np.bincount(got - lo, minlength=hi - lo)
    return np.repeat(np.arange(lo, hi, dtype=got.dtype), counts)


def _is_pe(ctx: XBRTime, params: IsParams, my_keys: np.ndarray,
           test_keys: np.ndarray, test_ranks_by_iter: np.ndarray) -> dict:
    ctx.init()
    me, n = ctx.my_pe(), ctx.num_pes()
    n_keys = my_keys.size
    max_key = params.max_key
    n_buckets = params.n_buckets
    shift = max(0, (max_key.bit_length() - 1) - params.log2_n_buckets)
    cyc = ctx.machine.config.cycle_ns

    # Working arrays in simulated memory.
    keys_addr = ctx.malloc(4 * n_keys)
    keys = ctx.view(keys_addr, "int32", n_keys)
    keys[:] = my_keys
    ctx.charge_stream(keys_addr, 4 * n_keys, write=True)

    hist_addr = ctx.malloc(8 * n_buckets)       # local bucket counts
    ghist_addr = ctx.malloc(8 * n_buckets)      # global bucket counts
    send_cnt_addr = ctx.malloc(8 * n)           # keys for each target PE
    recv_cnt_addr = ctx.malloc(8 * n)           # keys from each source PE
    recv_cap = params.recv_cap(n)
    recv_addr = ctx.malloc(4 * recv_cap)
    ready_addr = ctx.malloc(8 * n)              # per-source recv offsets

    hist = ctx.view(hist_addr, "uint64", n_buckets)
    ghist = ctx.view(ghist_addr, "uint64", n_buckets)
    send_cnt = ctx.view(send_cnt_addr, "uint64", n)
    recv_cnt = ctx.view(recv_cnt_addr, "uint64", n)
    recv = ctx.view(recv_addr, "int32", recv_cap)

    partial_ok = True
    base_index = me * n_keys  # global index of my first key

    ctx.barrier()
    t0 = ctx.time_ns
    for it in range(1, params.max_iterations + 1):
        # NPB iteration tweak: two keys change each iteration.
        if base_index <= it < base_index + n_keys:
            keys[it - base_index] = it
        j = it + params.max_iterations
        if base_index <= j < base_index + n_keys:
            keys[j - base_index] = max_key - it

        # 1. Local bucket histogram.  Bucket ids in intp, numpy's index
        #    type: the bincount and the owner lookup below would each
        #    convert an int32 array again.
        key_bucket = (keys >> shift).astype(np.intp)
        counts = np.bincount(key_bucket, minlength=n_buckets)
        hist[:] = counts.astype(np.uint64)
        ctx.charge_stream(keys_addr, 4 * n_keys)
        ctx.charge_stream(hist_addr, 8 * n_buckets, write=True)
        ctx.compute(n_keys * _CYCLES_PER_KEY * cyc)

        # 2. Global bucket counts: reduction + broadcast (the collectives
        #    the paper highlights for IS).
        ctx.uint64_reduce_sum(ghist_addr, hist_addr, n_buckets, 1, 0)
        ctx.uint64_broadcast(ghist_addr, ghist_addr, n_buckets, 1, 0)

        # 3. Split buckets across PEs by equal key share.
        cum = np.cumsum(ghist.astype(np.int64))
        share = cum[-1] / n
        # bucket b goes to PE floor(prefix(b)/share), clamped.
        owner_of_bucket = np.minimum(
            ((cum - 1) / share).astype(np.int64), n - 1
        )
        ctx.compute(n_buckets * 2 * cyc)
        bucket_first = np.searchsorted(owner_of_bucket, np.arange(n), "left")
        bucket_last = np.searchsorted(owner_of_bucket, np.arange(n), "right")

        # 4. Redistribute keys with one-sided puts (all-to-all-v).
        order = _owner_order(owner_of_bucket, key_bucket, n)
        ctx.compute(n_keys * _CYCLES_PER_KEY * cyc)
        bucket_cum = np.concatenate(([0], np.cumsum(counts)))
        send_counts = (bucket_cum[bucket_last]
                       - bucket_cum[bucket_first]).astype(np.uint64)
        send_cnt[:] = send_counts
        # Exchange counts so each PE knows its incoming layout.
        ctx.alltoall(recv_cnt_addr, send_cnt_addr, 1, "uint64")
        recv_offsets = np.concatenate(
            ([0], np.cumsum(recv_cnt.astype(np.int64))[:-1])
        )
        total_recv = int(recv_cnt.astype(np.int64).sum())
        if total_recv > recv_cap:
            raise CollectiveArgumentError(
                f"IS receive buffer overflow: {total_recv} > {recv_cap}"
            )
        # Publish my per-source offsets so senders know where to put.
        ready = ctx.view(ready_addr, "uint64", n)
        ready[:] = recv_offsets.astype(np.uint64)
        ctx.barrier()
        # Stage outgoing keys and deposit each block at the target's
        # published offset for this source.
        stage_addr = ctx.private_malloc(4 * max(n_keys, 1))
        stage = ctx.view(stage_addr, "int32", n_keys)
        stage[:] = keys[order]
        ctx.charge_stream(stage_addr, 4 * n_keys, write=True)
        send_disp = np.concatenate(
            ([0], np.cumsum(send_counts.astype(np.int64))[:-1])
        )
        off_scratch = ctx.private_malloc(8)
        for step in range(n):
            target = (me + step) % n
            cnt = int(send_counts[target])
            if cnt == 0:
                continue
            # Fetch the target's published offset for source `me`.
            ctx.get(off_scratch, ready_addr + 8 * me, 1, 1, target, "uint64")
            dst_off = int(ctx.view(off_scratch, "uint64", 1)[0])
            ctx.put(recv_addr + 4 * dst_off,
                    stage_addr + 4 * int(send_disp[target]),
                    cnt, 1, target, "int32")
        ctx.private_free(off_scratch)
        ctx.private_free(stage_addr)
        ctx.barrier()

        # 5. Local ranking: every received key lies in my buckets' key
        #    range, so a counting sort over it sorts them.
        got = _rank_keys(recv[:total_recv], int(bucket_first[me]) << shift,
                         int(bucket_last[me]) << shift)
        recv[:total_recv] = got
        ctx.charge_stream(recv_addr, 4 * total_recv, write=True)
        if total_recv:
            ctx.compute(total_recv * np.log2(max(total_recv, 2))
                        * _CYCLES_PER_KEY * cyc)

        # 6. Partial verification: the rank of each tracked test key,
        #    against the harness oracle for *this* iteration's key state.
        my_first_bucket = int(bucket_first[me])
        rank_before_me = int(cum[my_first_bucket - 1]) if my_first_bucket else 0
        for t in range(test_keys.size):
            tk = int(test_keys[t])
            if not 0 <= tk < max_key:
                continue
            if owner_of_bucket[tk >> shift] == me:
                # An int32 needle: a Python int would first cast all of
                # ``got`` to int64.
                rank = rank_before_me + int(
                    np.searchsorted(got, np.int32(tk), "left"))
                if rank != int(test_ranks_by_iter[it][t]):
                    partial_ok = False
    ctx.barrier()
    t1 = ctx.time_ns

    # Full verification: global sortedness across PE boundaries — put my
    # minimum to my left neighbour, then compare with my maximum.
    got_n = total_recv
    bmin_addr = ctx.malloc(8)
    neigh_addr = ctx.malloc(8)
    nv = ctx.view(neigh_addr, "int64", 1)
    nv[0] = np.iinfo(np.int64).max
    ctx.view(bmin_addr, "int64", 1)[0] = int(got[0]) if got_n else np.iinfo(np.int64).max
    ctx.barrier()
    if me > 0:
        ctx.put(neigh_addr, bmin_addr, 1, 1, me - 1, "int64")
    ctx.barrier()
    errors = 0
    if got_n:
        local_sorted = bool(np.all(got[:-1] <= got[1:]))
        if not local_sorted:
            errors += 1
        if me < n - 1 and got_n and int(got[-1]) > int(nv[0]):
            errors += 1
    ebuf = ctx.malloc(8)
    ctx.view(ebuf, "uint64", 1)[0] = errors
    eout = ctx.private_malloc(8)
    ctx.uint64_reduce_sum(eout, ebuf, 1, 1, 0)
    total_errors = int(ctx.view(eout, "uint64", 1)[0]) if me == 0 else -1
    ctx.close()
    return {
        "rank": me,
        "t_ns": t1 - t0,
        "partial_ok": partial_ok,
        "errors": total_errors,
    }


def _oracle_ranks(keys: np.ndarray, test_keys: np.ndarray,
                  params: IsParams) -> np.ndarray:
    """Per-iteration oracle ranks of the test keys.

    Row ``it`` holds each test key's rank (count of strictly smaller
    keys) after the mutations of iterations ``1..it`` — NPB's partial
    verification uses class-specific precomputed tables; scaled classes
    need the oracle recomputed, so we compute it for all classes.

    One sort ranks the test keys in the generated sequence.  Each
    mutation then moves a rank by one where exactly one of the key's old
    and new values is below the test key; no index is mutated twice, so
    the old value is the generated one.
    """
    m = params.max_iterations
    below = np.searchsorted(np.sort(keys), test_keys, "left")
    out = np.zeros((m + 1, test_keys.size), dtype=np.int64)
    for it in range(1, m + 1):
        for i, new in ((it, it), (it + m, params.max_key - it)):
            below += np.subtract(new < test_keys, keys[i] < test_keys,
                                 dtype=np.int64)
        out[it] = below
    return out


def run_is(config: MachineConfig, params: IsParams | None = None,
           keys: np.ndarray | None = None) -> IsResult:
    """Run NAS IS on a fresh machine built from ``config``.

    ``keys`` may be supplied to reuse one generated sequence across a
    PE-count sweep (generation is untimed but slow in pure Python).
    """
    params = params if params is not None else IsParams()
    params.check_config(config)
    if keys is None:
        keys = generate_keys(params)
    if keys.size != params.total_keys:
        raise CollectiveArgumentError(
            f"key array has {keys.size} keys, class needs {params.total_keys}"
        )
    n = config.n_pes
    chunk = params.total_keys // n
    rng = np.random.default_rng(5)
    test_keys = rng.integers(params.max_key // 8, 7 * params.max_key // 8,
                             size=5, dtype=np.int64)
    test_ranks = _oracle_ranks(keys, test_keys, params)
    args = [
        (params, keys[r * chunk:(r + 1) * chunk], test_keys, test_ranks)
        for r in range(n)
    ]
    machine = Machine(config)
    results = machine.run(_is_pe, args)
    t_ns = max(r["t_ns"] for r in results)
    return IsResult(
        n_pes=n,
        problem_class=params.problem_class,
        total_keys=params.total_keys,
        iterations=params.max_iterations,
        sim_seconds=t_ns / 1e9,
        partial_verified=all(r["partial_ok"] for r in results),
        full_verified=(results[0]["errors"] == 0),
    )
