"""Static checker for compiled collective schedules.

``lint_schedule`` analyses a :class:`~.ir.Schedule` without executing
it and reports :class:`LintIssue`\\ s for the classes of bugs that made
the inline tree walks hard to extend safely:

* **deadlock freedom** — every rank issues the same number of team
  barriers (the simulator matches barriers by arrival ordinal, so a
  mismatch hangs the collective), and every rank has the same stage
  structure.
* **scope** — where a schedule partitions the group at its barriers
  (``Section.block``), the blocks at each barrier form a partition, and
  a put, get, send or recv stays inside the rank's block at the
  barriers that open and close its phase: two blocks are not
  synchronised with each other there.
* **matched put/get pairs** — every remote step names a peer inside the
  group, never itself (local movement must be a copy), and
  only touches buffers the peer actually holds, remotely accessible
  (symmetric) ones at that.
* **bounds** — every access fits the declared extent of its buffer on
  the rank that owns the memory.
* **overlap within a barrier phase** — steps between consecutive
  barriers run concurrently across ranks; the linter flags any byte
  range that one rank writes remotely while another (or the owner)
  reads or writes it in the same phase.  This is the check that proves
  ring/Rabenseifner-style single-buffer algorithms safe: their per-
  stage read and write intervals must be disjoint.
* **data conservation** — the union of local and incoming remote
  writes covers every byte range the schedule's ``deliver`` contract
  promises (so no rank can end with an undefined output region).
* **message matching** — for mailbox-lowered schedules, every
  (src, dst) pair's ordered send list must agree with the pair's
  ordered recv list on length, tag and element count (FIFO matching is
  per pair), and no recv may precede its matching send's barrier phase
  (that ordering is a guaranteed deadlock).
* **pipelined hazards** — pipeline blocks must agree on
  segment/group counts across ranks (deadlock freedom with segment
  counts) and respect **cross-segment ordering**: no remote read of
  bytes any rank writes in a later round of the same pipeline.
  The per-segment byte-range overlap hazards are checked on the
  *lowered* rounds by the phase-overlap pass.

Checks are conservative: strided accesses are widened to their byte
span.  All builtin algorithms lint clean at 1–16 PEs (enforced in CI
via ``python -m repro.collectives.schedule``).

Every pass reads the schedule's step table (:class:`~.ir.StepTable`,
``Schedule.table``) and its barrier record, never a step at a time, and
works on whole columns: masks for peers, visibility and bounds, a
sort-and-count sweep for phase overlap and, once per round, for
cross-segment ordering, merged write runs for conservation, a stable
group-by for message matching.  The structure passes compare each
rank's :class:`~.ir.Skeleton`; a row's section in it names the pipeline
round the cross-segment pass needs.  A row that cannot mean anything
never reaches them: ``Schedule.from_rows`` refuses it.  What a vector
pass flags is then *worded* by a scalar loop over just those rows or
keys, in the order a walk of each rank's rows in program order would
meet them; ``tests/collectives/lint_reference.py`` is that walk, kept
as the oracle.  An access whose target PE lies outside the group is the peers
pass's finding and takes no part in the memory passes; an access of
zero bytes touches nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ir import (
    OP_GET,
    OP_NAMES,
    OP_PUT,
    OP_RECV,
    OP_REDUCE,
    OP_SEND,
    Schedule,
    StepTable,
)

__all__ = ["LintIssue", "lint_schedule", "lint_fused_schedule"]


@dataclass(frozen=True)
class LintIssue:
    """One finding: which check fired, where, and why."""

    check: str
    message: str
    rank: int = None  # type: ignore[assignment]
    phase: int = None  # type: ignore[assignment]

    def __str__(self) -> str:
        where = []
        if self.rank is not None:
            where.append(f"rank {self.rank}")
        if self.phase is not None:
            where.append(f"phase {self.phase}")
        loc = f" [{', '.join(where)}]" if where else ""
        return f"{self.check}{loc}: {self.message}"


# Access modes: local read / local write by the owning rank, remote
# read (a get's source) / remote write (a put's destination).
_LR, _LW, _RR, _RW = range(4)


class _Accesses:
    """Every memory access of a table's steps, as parallel vectors.

    ``row`` is the step's table row; ``order`` ranks accesses the way a
    walk of the rows meets them — by row, and within a step the operand
    read (``b``), then a reduce's read of its accumulator, then the
    operand written (``a``) — which is the order issues are reported in;
    ``pe`` owns the memory touched, ``origin`` is the rank executing the
    step, ``[lo, hi)`` the byte span (strided accesses widened to it).
    An access whose target PE lies outside the group is left out: the
    peers pass reports the step, and there is no memory to check.
    """

    __slots__ = ("row", "order", "phase", "pe", "origin", "buf", "lo", "hi",
                 "mode")

    def __init__(self, table: StepTable, n_pes: int, itemsize: int):
        op, rank, peer = table.op, table.rank, table.peer
        span = np.where(table.nelems == 0, 0,
                        ((table.nelems - 1) * table.stride + 1) * itemsize)
        reads = np.flatnonzero(table.b_buf >= 0)
        folds = np.flatnonzero(op == OP_REDUCE)
        writes = np.flatnonzero(table.a_buf >= 0)
        row = np.concatenate((reads, folds, writes))
        from_peer = op[reads] == OP_GET
        to_peer = op[writes] == OP_PUT
        pe = np.concatenate((np.where(from_peer, peer[reads], rank[reads]),
                             rank[folds],
                             np.where(to_peer, peer[writes], rank[writes])))
        keep = (pe >= 0) & (pe < n_pes)
        self.row = row[keep]
        self.order = (row * 3 + np.repeat(
            (0, 1, 2), (len(reads), len(folds), len(writes))))[keep]
        self.pe = pe[keep]
        self.mode = np.concatenate((
            np.where(from_peer, _RR, _LR), np.full(len(folds), _LR),
            np.where(to_peer, _RW, _LW)))[keep]
        self.buf = np.concatenate((
            table.b_buf[reads], table.a_buf[folds], table.a_buf[writes]))[keep]
        self.lo = np.concatenate((
            table.b_off[reads], table.a_off[folds], table.a_off[writes]))[keep]
        self.hi = self.lo + span[self.row]
        self.phase = table.phase[self.row]
        self.origin = rank[self.row]


class _BufferFacts:
    """What the declared buffers allow, indexed like ``table.names``:
    ``symmetric[i]``, ``held[i, rank]`` and ``extent[i, rank]`` (bytes).
    Names no buffer declares read as held everywhere with no bytes; the
    passes report them before consulting either."""

    __slots__ = ("symmetric", "held", "extent")

    def __init__(self, sched: Schedule, table: StepTable):
        n = sched.n_pes
        k = max(len(table.names), 1)
        self.symmetric = np.ones(k, dtype=bool)
        self.held = np.ones((k, n), dtype=bool)
        self.extent = np.zeros((k, n), dtype=np.int64)
        for i, buf in enumerate(sched.buffers):
            self.symmetric[i] = buf.symmetric
            if buf.ranks is not None:
                self.held[i] = False
                self.held[i, [r for r in buf.ranks if 0 <= r < n]] = True
            if isinstance(buf.nbytes, tuple):
                self.extent[i, :len(buf.nbytes)] = buf.nbytes[:n]
            else:
                self.extent[i] = buf.nbytes


# Sorted-key packing for the sweeps: a group id in the high bits, a byte
# offset in the low 38.  Offsets are clipped to +-2**36 first — far past
# any real buffer — in a way that keeps overlapping ranges overlapping,
# so a sweep can only flag too much, never too little, out there.
_SHIFT = 38
_HALF = 1 << 36


def _lo_key(group: np.ndarray, lo: np.ndarray) -> np.ndarray:
    return (group << _SHIFT) + (np.clip(lo, -_HALF, _HALF - 1) + _HALF)


def _hi_key(group: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return (group << _SHIFT) + (np.clip(hi, 1 - _HALF, _HALF) + _HALF)


def _count_overlaps(gx, lox, hix, gy, loy, hiy) -> np.ndarray:
    """For each range ``y``, how many ranges ``x`` of its group overlap
    it (all ranges non-empty): those starting before ``y`` ends, less
    those ending by the time it starts."""
    starts = np.sort(_lo_key(gx, lox))
    ends = np.sort(_hi_key(gx, hix))
    return (np.searchsorted(starts, _hi_key(gy, hiy), "left")
            - np.searchsorted(ends, _lo_key(gy, loy), "right"))


def _dense(*keys: np.ndarray) -> np.ndarray:
    """One id per distinct key tuple, numbered in sorted key order."""
    order = np.lexsort(keys[::-1])
    change = np.zeros(len(order), dtype=bool)
    for key in keys:
        key = key[order]
        change[1:] |= key[1:] != key[:-1]
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(change)
    return ids


def _runs(sorted_ids: np.ndarray) -> list:
    """Bounds of every run of equal values: run ``i`` is
    ``[bounds[i], bounds[i + 1])``."""
    if not len(sorted_ids):
        return [0]
    cuts = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
    return [0, *cuts.tolist(), len(sorted_ids)]


def _check_structure(table: StepTable, issues: list) -> None:
    """Every rank must agree with rank 0 on its stage signature — a
    pipeline block whose segment or group count differs between
    ranks lowers to a different number of rounds, so some rank would
    wait at a barrier nobody else reaches (deadlock with segment counts)
    — and on its barrier count."""
    signatures = [sk.signature for sk in table.skeletons]
    of = table.skeleton_of.tolist()
    barriers = table.barriers.tolist()
    ref_sig, ref_barriers = signatures[of[0]], barriers[0]
    for r in range(len(of)):
        sig = signatures[of[r]]
        if sig is not ref_sig and sig != ref_sig:
            issues.append(LintIssue(
                "deadlock",
                f"stage structure {list(sig)} differs from rank 0's "
                f"{list(ref_sig)} (span structure would diverge)", rank=r))
        if barriers[r] != ref_barriers:
            issues.append(LintIssue(
                "deadlock",
                f"{barriers[r]} barriers vs rank 0's {ref_barriers} — the "
                "team barrier would never complete", rank=r))


def _check_scope(table: StepTable, n: int, issues: list) -> None:
    """Partitioned barriers: at each barrier every rank's block holds it
    and is named by all its ranks, and a remote or two-sided step's peer
    is in the rank's block at the barriers that open and close its
    phase.  Each distinct block is judged once per barrier."""
    if not table.partitioned:
        return
    every = tuple(range(n))
    blocks = [[sec.block or every for sec in table.skeletons[k].sections
               for _ in range(sec.nbars)] for k in table.skeleton_of]
    held = {blk: frozenset(blk) for row in blocks for blk in row}
    for b in range(max(map(len, blocks))):
        whole: dict = {}
        for r in range(n):
            blk = blocks[r][b] if b < len(blocks[r]) else None
            if blk is not None and blk not in whole:
                whole[blk] = all(0 <= q < n and b < len(blocks[q])
                                 and blocks[q][b] == blk for q in blk)
            if blk is not None and not (whole[blk] and r in held[blk]):
                issues.append(LintIssue(
                    "scope", f"block {list(blk)} at barrier {b} is not one "
                    "block of a partition", rank=r, phase=b))
    for i in np.flatnonzero(np.isin(table.op, (OP_PUT, OP_GET, OP_SEND,
                                               OP_RECV))).tolist():
        r, q, p = (int(table.rank[i]), int(table.peer[i]),
                   int(table.phase[i]))
        for b in (p - 1, p) if 0 <= q < n and q != r else ():
            if 0 <= b < len(blocks[r]) and q not in held[blocks[r][b]]:
                issues.append(LintIssue(
                    "scope", f"{OP_NAMES[table.op[i]]} to rank {q} leaves "
                    f"the block {list(blocks[r][b])} of barrier {b}",
                    rank=r, phase=p))
                break


def _check_buffers(sched: Schedule, issues: list) -> None:
    seen = set()
    for buf in sched.buffers:
        if buf.name in seen:
            issues.append(LintIssue(
                "buffers", f"duplicate buffer name {buf.name!r}"))
        seen.add(buf.name)
        if buf.kind not in ("user", "scratch", "private"):
            issues.append(LintIssue(
                "buffers", f"{buf.name}: unknown kind {buf.kind!r}"))
        if buf.kind == "scratch":
            if buf.ranks is not None:
                issues.append(LintIssue(
                    "buffers",
                    f"{buf.name}: scratch must be allocated by every rank "
                    "(position-dependent symmetric addresses)"))
            if not isinstance(buf.nbytes, int):
                issues.append(LintIssue(
                    "buffers",
                    f"{buf.name}: scratch extent must be uniform"))
            if not buf.symmetric:
                issues.append(LintIssue(
                    "buffers", f"{buf.name}: scratch is always symmetric"))
        if buf.kind == "private" and buf.symmetric:
            issues.append(LintIssue(
                "buffers", f"{buf.name}: private memory is never symmetric"))


def _check_steps(sched: Schedule, table: StepTable, acc: _Accesses,
                 facts: _BufferFacts, issues: list) -> None:
    """Peer validity, buffer existence/visibility and bounds."""
    n = sched.n_pes
    declared = table.n_declared
    op, rank, peer = table.op, table.rank, table.peer
    paired = np.isin(op, (OP_PUT, OP_GET, OP_SEND, OP_RECV))
    outside = paired & ((peer < 0) | (peer >= n))
    # The buffer a one-sided step touches on its peer.
    remote = np.where(op == OP_PUT, table.a_buf, table.b_buf)
    visible = (((op == OP_PUT) | (op == OP_GET)) & ~outside
               & (remote < declared))
    there = (np.clip(remote, 0, None), np.clip(peer, 0, n - 1))
    suspect = np.flatnonzero(
        outside | (paired & (peer == rank))
        | (visible & ~(facts.symmetric[there[0]] & facts.held[there])))
    for i in suspect.tolist():
        r, q = int(rank[i]), int(peer[i])
        kind = OP_NAMES[op[i]]
        if not 0 <= q < n:
            issues.append(LintIssue(
                "peers", f"{kind} peer {q} outside group of {n}", rank=r))
            continue
        if q == r:
            issues.append(LintIssue(
                "peers", f"{kind} targets its own rank — use Copy "
                "for local movement", rank=r))
        if visible[i]:
            # Two-sided steps touch only local buffers (covered by the
            # access checks below); their pairing is the
            # message-matching pass's job.
            buf = sched.buffers[remote[i]]
            if not buf.symmetric:
                issues.append(LintIssue(
                    "peers",
                    f"{kind} of non-symmetric buffer {buf.name!r} on peer "
                    f"{q}", rank=r))
            if not buf.held_by(q):
                issues.append(LintIssue(
                    "peers",
                    f"{kind} touches {buf.name!r} which rank {q} does not "
                    "hold", rank=r))
    undeclared = acc.buf >= declared
    own = acc.pe == acc.origin
    extent = facts.extent[acc.buf, acc.pe]
    suspect = np.flatnonzero(
        undeclared | (own & ~facts.held[acc.buf, acc.origin])
        | (acc.lo < 0) | (acc.hi > extent))
    suspect = suspect[np.argsort(acc.order[suspect])]
    for j in suspect.tolist():
        name = table.names[acc.buf[j]]
        origin = int(acc.origin[j])
        if undeclared[j]:
            issues.append(LintIssue(
                "buffers", f"step references unknown buffer {name!r}",
                rank=origin))
            continue
        if own[j] and not facts.held[acc.buf[j], origin]:
            issues.append(LintIssue(
                "buffers", f"rank {origin} uses {name!r} it does not hold",
                rank=origin))
        lo, hi = int(acc.lo[j]), int(acc.hi[j])
        if lo < 0 or hi > extent[j]:
            issues.append(LintIssue(
                "bounds",
                f"access [{lo}, {hi}) outside {name!r} "
                f"({int(extent[j])} bytes on rank {int(acc.pe[j])})",
                rank=origin, phase=int(acc.phase[j])))


def _overlap(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> bool:
    return a_lo < b_hi and b_lo < a_hi


def _check_phase_overlap(table: StepTable, acc: _Accesses,
                         issues: list) -> None:
    """Concurrent-access hazards between two consecutive barriers.

    Within one ``(phase, pe, buffer)`` key a remote write may overlap
    nothing but the same origin's other remote accesses, and a remote
    read may not overlap the owner's local write.  A sort-and-count
    sweep over all keys at once finds the keys where some such pair
    exists — O(M log M) — and only those go through the all-pairs loop
    that words the issues; an access of zero bytes touches nothing and
    takes no part.
    """
    live = np.flatnonzero(acc.hi > acc.lo)
    phase, pe, buf = acc.phase[live], acc.pe[live], acc.buf[live]
    lo, hi, mode, origin = (acc.lo[live], acc.hi[live], acc.mode[live],
                            acc.origin[live])
    key = _dense(phase, pe, buf)
    rw = np.flatnonzero(mode == _RW)
    rr = np.flatnonzero(mode == _RR)
    flagged = []
    if len(rw):
        local = np.flatnonzero(mode <= _LW)
        flagged.append(key[rw[_count_overlaps(
            key[local], lo[local], hi[local], key[rw], lo[rw], hi[rw]) > 0]])
        # Remote accesses of other origins: all that overlap, less those
        # of the writer itself (the write counts itself in both).
        far = np.concatenate((rw, rr))
        by_origin = _dense(key[far], origin[far])
        mine = by_origin[:len(rw)]
        flagged.append(key[rw[
            _count_overlaps(key[far], lo[far], hi[far],
                            key[rw], lo[rw], hi[rw])
            > _count_overlaps(by_origin, lo[far], hi[far],
                              mine, lo[rw], hi[rw])]])
    if len(rr):
        lw = np.flatnonzero(mode == _LW)
        flagged.append(key[rr[_count_overlaps(
            key[lw], lo[lw], hi[lw], key[rr], lo[rr], hi[rr]) > 0]])
    flagged = np.concatenate(flagged) if flagged else key[:0]
    if not len(flagged):
        return
    hot = np.zeros(len(key), dtype=bool)  # key ids are dense
    hot[flagged] = True
    # The flagged keys' accesses, keys in (phase, pe, buffer name) order
    # and each key's accesses in program order: what the walk produced.
    pick = np.flatnonzero(hot[key])
    by_name = {name: i for i, name in enumerate(sorted(set(table.names)))}
    name_rank = np.array([by_name[name] for name in table.names])
    pick = pick[np.lexsort((acc.order[live][pick], name_rank[buf[pick]],
                            pe[pick], phase[pick]))]
    cols = [x[pick].tolist() for x in (lo, hi, mode, origin)]
    bounds = _runs(key[pick])
    for start, end in zip(bounds, bounds[1:]):
        at = pick[start]
        name, on, ph = table.names[buf[at]], int(pe[at]), int(phase[at])
        accs = list(zip(*(col[start:end] for col in cols)))
        for i, (a_lo, a_hi, a_mode, a_org) in enumerate(accs):
            for b_lo, b_hi, b_mode, b_org in accs[i + 1:]:
                if not _overlap(a_lo, a_hi, b_lo, b_hi):
                    continue
                modes = {a_mode, b_mode}
                hazard = None
                if modes == {_RW} and a_org != b_org:
                    hazard = "two ranks remotely write the same range"
                elif modes == {_RW, _LW}:
                    hazard = "remote write races the owner's local write"
                elif modes == {_RW, _LR}:
                    hazard = "remote write races the owner's local read"
                elif modes == {_RW, _RR} and a_org != b_org:
                    hazard = "remote write races another rank's remote read"
                elif modes == {_LW, _RR}:
                    hazard = "owner's local write races a remote read"
                if hazard:
                    issues.append(LintIssue(
                        "overlap",
                        f"{name!r} on rank {on} bytes "
                        f"[{max(a_lo, b_lo)}, {min(a_hi, b_hi)}): {hazard} "
                        f"(ranks {a_org} and {b_org})", rank=on, phase=ph))


def _check_pipelines(table: StepTable, acc: _Accesses,
                     issues: list) -> None:
    """Cross-segment ordering on well-formed pipeline blocks.

    Within one pipeline, a remote read must not target bytes that any
    rank writes in a *later* round: the reader would observe
    pre-pipeline data.  Same-round conflicts are the phase-overlap
    pass's job (the lowered rounds feed it); this pass catches the
    staleness bugs segmentation introduces, e.g. segment boundaries
    that do not match the producing group's.

    A row's section in its rank's skeleton says which pipeline block
    and which round of it the row runs in.  One sort-and-count sweep per
    round ``t`` finds the remote reads of round ``t`` that some write of
    a later round overlaps, keyed by ``(pipeline, pe, buffer)``; only
    those reads are worded, each against its key's writes in program
    order.
    """
    sections = [sec for sk in table.skeletons for sec in sk.sections]
    if all(sec.pipeline < 0 for sec in sections):
        return
    first = np.cumsum([0] + [len(sk.sections) for sk in table.skeletons])
    at = (first[:-1][table.skeleton_of[table.rank[acc.row]]]
          + table.section[acc.row])
    of, turn = (np.array([getattr(sec, name) for sec in sections],
                         dtype=np.int64)[at] for name in ("pipeline", "round"))
    live = np.flatnonzero((of >= 0) & (acc.hi > acc.lo) & (acc.mode != _LR))
    of, turn, pe, buf, lo, hi, mode, origin, order = (
        x[live] for x in (of, turn, acc.pe, acc.buf, acc.lo, acc.hi,
                          acc.mode, acc.origin, acc.order))
    key = _dense(of, pe, buf)
    writes, reads = np.flatnonzero(mode != _RR), np.flatnonzero(mode == _RR)
    stale = np.zeros(len(reads), dtype=bool)
    for t in np.unique(turn[reads]).tolist():
        later = writes[turn[writes] > t]
        now = np.flatnonzero(turn[reads] == t)
        if len(later):
            y = reads[now]
            stale[now] = _count_overlaps(key[later], lo[later], hi[later],
                                         key[y], lo[y], hi[y]) > 0
    flagged = reads[stale]
    flagged = flagged[np.lexsort((order[flagged], of[flagged]))]
    writes = writes[np.isin(key[writes], key[flagged])]
    by_target: dict = {}
    for j in writes[np.argsort(order[writes])].tolist():
        by_target.setdefault(int(key[j]), []).append(
            (int(turn[j]), int(lo[j]), int(hi[j]), int(origin[j])))
    for j in flagged.tolist():
        t_r, r_lo, r_hi, on = int(turn[j]), int(lo[j]), int(hi[j]), int(pe[j])
        for t_w, w_lo, w_hi, w_org in by_target[int(key[j])]:
            if t_w > t_r and _overlap(r_lo, r_hi, w_lo, w_hi):
                issues.append(LintIssue(
                    "pipeline",
                    f"cross-segment ordering: rank {int(origin[j])} reads "
                    f"{table.names[buf[j]]!r} bytes [{max(r_lo, w_lo)}, "
                    f"{min(r_hi, w_hi)}) on rank {on} in round {t_r}, "
                    f"written by rank {w_org} only in round {t_w}", rank=on,
                    phase=t_r))


def _check_message_matching(table: StepTable, n: int, issues: list) -> None:
    """Two-sided protocol: every (src, dst) pair's send and recv lists
    must agree element-by-element.

    Mailbox matching is FIFO per pair, so the i-th send from ``src`` to
    ``dst`` is consumed by the i-th recv at ``dst`` naming ``src``: the
    lists must have equal length, agree on ``tag`` and ``nelems`` at
    every index (a mismatch is the runtime's
    :class:`~repro.errors.MailboxProtocolError`), and every recv's
    barrier phase must be at or after its send's — a recv whose
    matching send only happens in a *later* phase blocks the barrier
    the sender needs to reach it: guaranteed deadlock.

    Rows are stored by rank in program order, so a stable sort on the
    pair id is the order-preserving group-by: the i-th row of a pair's
    run is its i-th message.
    """
    inside = (table.peer >= 0) & (table.peer < n)

    def by_pair(op: int, src: np.ndarray, dst: np.ndarray) -> dict:
        # pair id -> its messages, in order, as (phase, tag, nelems).
        rows = np.flatnonzero((table.op == op) & inside)
        pair = src[rows] * n + dst[rows]
        order = np.argsort(pair, kind="stable")
        rows, pair = rows[order], pair[order]
        msgs = list(zip(table.phase[rows].tolist(), table.aux[rows].tolist(),
                        table.nelems[rows].tolist()))
        bounds = _runs(pair)
        return {int(pair[lo]): msgs[lo:hi]
                for lo, hi in zip(bounds, bounds[1:])}

    sends = by_pair(OP_SEND, table.rank, table.peer)
    recvs = by_pair(OP_RECV, table.peer, table.rank)
    for which in sorted(set(sends) | set(recvs)):
        src, dst = divmod(which, n)
        ss = sends.get(which, [])
        rr = recvs.get(which, [])
        if len(ss) != len(rr):
            kind, rank = (("send", src) if len(ss) > len(rr)
                          else ("recv", dst))
            issues.append(LintIssue(
                "messages",
                f"pair PE {src} -> PE {dst}: {len(ss)} sends vs "
                f"{len(rr)} recvs — the surplus {kind}s never match",
                rank=rank))
        for i, ((sp, st, sn), (rp, rt, rn)) in enumerate(zip(ss, rr)):
            if st != rt:
                issues.append(LintIssue(
                    "messages",
                    f"pair PE {src} -> PE {dst} message {i}: send tag "
                    f"{st} vs recv tag {rt} (FIFO order disagreement)",
                    rank=dst, phase=rp))
            if sn != rn:
                issues.append(LintIssue(
                    "messages",
                    f"pair PE {src} -> PE {dst} message {i}: send "
                    f"carries {sn} elements but recv expects {rn}",
                    rank=dst, phase=rp))
            if sp > rp:
                issues.append(LintIssue(
                    "messages",
                    f"pair PE {src} -> PE {dst} message {i}: recv in "
                    f"phase {rp} blocks on a send issued only in phase "
                    f"{sp} — the sender can never reach it (deadlock)",
                    rank=dst, phase=rp))


def _check_conservation(sched: Schedule, table: StepTable, acc: _Accesses,
                        issues: list) -> None:
    """Every promised ``deliver`` range is covered by some write.

    A write covers its span and, when strided, the trailing hole of its
    last element's stride.  The writes landing in each ``(pe, buffer)``
    are merged into disjoint
    runs (sort by start, cut where a start passes the running end); a
    promise is kept iff the run holding its first byte reaches its last.
    """
    promised = [d for d in sched.deliver if d[3] > d[2]]
    if not promised:
        return
    n, k = sched.n_pes, len(table.names)
    wrote = np.flatnonzero((acc.hi > acc.lo)
                           & ((acc.mode == _LW) | (acc.mode == _RW)))
    group = acc.pe[wrote] * k + acc.buf[wrote]
    # A strided write also covers the hole after its last element, up to
    # where its next element would land: nothing of its layout is there,
    # and the next chunk of the same layout starts exactly at that end.
    row = acc.row[wrote]
    reach = (acc.lo[wrote]
             + table.nelems[row] * table.stride[row] * sched.itemsize)
    order = np.lexsort((acc.lo[wrote], group))
    group, lo, hi = group[order], acc.lo[wrote][order], reach[order]
    # Packed keys sort by group first, so one running maximum serves all.
    reach = np.maximum.accumulate(_hi_key(group, hi))
    first = np.flatnonzero(
        np.append(True, _lo_key(group, lo)[1:] > reach[:-1])[:len(lo)])
    run_start = _lo_key(group[first], lo[first])
    # One trailing run of no group: where index -1 lands.
    run_group = np.append(group[first], -1)
    run_end = np.append(np.maximum.reduceat(hi, first), 0)
    index = {name: i for i, name in enumerate(table.names)}
    want_group, want_lo, want_hi = np.array(
        [(rank * k + index[name] if name in index and 0 <= rank < n else -2,
          lo, hi) for rank, name, lo, hi in promised], dtype=np.int64).T
    run = np.searchsorted(run_start, _lo_key(want_group, want_lo),
                          "right") - 1
    cover = np.where(run_group[run] == want_group,
                     np.maximum(run_end[run], want_lo), want_lo)
    for j in np.flatnonzero(cover < want_hi).tolist():
        rank, name, lo, hi = promised[j]
        issues.append(LintIssue(
            "conservation",
            f"deliver contract [{lo}, {hi}) of {name!r} on rank {rank} "
            f"only covered up to byte {int(cover[j])}", rank=rank))


def lint_schedule(sched: Schedule) -> list:
    """Run every check; returns the (possibly empty) issue list."""
    issues: list = []
    n = sched.n_pes
    table = sched.table
    _check_structure(table, issues)
    _check_scope(table, n, issues)
    _check_buffers(sched, issues)
    acc = _Accesses(table, n, sched.itemsize)
    _check_steps(sched, table, acc, _BufferFacts(sched, table), issues)
    _check_pipelines(table, acc, issues)
    _check_phase_overlap(table, acc, issues)
    _check_message_matching(table, n, issues)
    _check_conservation(sched, table, acc, issues)
    return issues


def _check_fused_prefixes(sched: Schedule, issues: list) -> None:
    """Fused-schedule isolation: every buffer belongs to exactly one
    sub-request (``r{i}:`` prefix) and no step mixes two requests'
    buffers — a cross-request reference would mean the fusion aliased
    one tenant's data into another's schedule."""
    for buf in sched.buffers:
        if ":" not in buf.name:
            issues.append(LintIssue(
                "fused",
                f"buffer {buf.name!r} carries no request prefix — it is "
                "not attributable to any fused sub-request"))
    table = sched.table
    owners = [name.split(":", 1)[0] for name in table.names]
    ids = {owner: i for i, owner in enumerate(dict.fromkeys(owners))}
    owner = np.array([ids[o] for o in owners] + [-1])
    mixed = np.flatnonzero((table.a_buf >= 0) & (table.b_buf >= 0)
                           & (owner[table.a_buf] != owner[table.b_buf]))
    for i in mixed.tolist():
        pair = sorted({owners[table.a_buf[i]], owners[table.b_buf[i]]})
        issues.append(LintIssue(
            "fused",
            f"step {table.step_text(i)} mixes buffers of requests {pair} "
            "(cross-request aliasing)", rank=int(table.rank[i])))


def _check_fused_conservation(sched: Schedule, issues: list) -> None:
    """Every fused sub-request must still deliver something somewhere:
    a request whose entire ``deliver`` contract vanished in fusion was
    silently dropped (the per-range coverage itself is re-checked by
    the ordinary conservation pass over the prefixed buffers)."""
    promised = {rank_name[1].split(":", 1)[0]
                for rank_name in sched.deliver}
    for buf in sched.buffers:
        if ":" not in buf.name:
            continue  # already reported by the prefix pass
        owner = buf.name.split(":", 1)[0]
        base = buf.name.split(":", 1)[1]
        if base.startswith("dest") and buf.nbytes_on(0) and \
                owner not in promised:
            issues.append(LintIssue(
                "fused",
                f"sub-request {owner!r} has output buffer {buf.name!r} "
                "but no deliver contract — dropped in fusion?"))


def lint_fused_schedule(sched: Schedule) -> list:
    """Lint a fused superstep schedule: every ordinary pass plus the
    fused-specific isolation checks (no cross-request buffer aliasing,
    per-sub-request delivery)."""
    issues = lint_schedule(sched)
    _check_fused_prefixes(sched, issues)
    _check_fused_conservation(sched, issues)
    return issues
