"""Brute-force reference for the schedule linter (test tree only).

The linter in ``repro.collectives.schedule.lint`` runs every pass on the
columnar :class:`~repro.collectives.schedule.ir.StepTable` — sorts,
sweeps and ``searchsorted`` — and keeps an exact scalar loop only to
render what those flag.  This module is the other way of computing the
same verdict: a per-step walk of every rank's program and the all-pairs
overlap loops the linter had before the table existed (commit 4ab22ab),
kept here as the oracle ``test_lint_oracle.py`` compares against, the
way ``ListLru`` stands behind the array-backed cache.  It must produce
the same issues in the same order.

Three deliberate differences from the 4ab22ab code, all bug fixes the
table-driven linter shares: an access whose target PE lies outside the
group is the peers pass's finding alone (the old bounds loop indexed a
per-rank extent tuple with it), an access of zero bytes takes no part
in the phase-overlap pass (it touches nothing), and a strided write
covers the hole after its last element in the conservation pass (two
chunks of one strided payload left that hole "uncovered").

It walks each rank's rows one at a time in program order, as
``table.layout(r)`` lays them out — a barrier over the section's block
at each gap — so it reads a schedule only the way ``all_steps`` shows
it, never through the linter's vectors.  The cross-segment pass takes a
step's pipeline block and round from its section, so a fused round,
whose rows name no group, is checked like any other.  A malformed
pipeline block, a step of no known kind and a barrier record that does
not match the ranks are rows ``Schedule.from_rows`` refuses, and have no
reference here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from repro.collectives.schedule.ir import OP_NAMES, Schedule, step_span_bytes
from repro.collectives.schedule.lint import LintIssue

__all__ = ["reference_lint", "reference_lint_fused"]


class _Step(NamedTuple):
    """One row, read alone: ``dst`` is the operand written (a reduce's
    accumulator), ``src`` the operand read (a reduce's operand), each
    ``None`` where the kind has none; ``aux`` is a send's or recv's tag."""

    kind: str
    dst: str
    dst_off: int
    src: str
    src_off: int
    nelems: int
    stride: int
    peer: int
    aux: int
    row: int


@lru_cache(maxsize=256)
def _walk(sched: Schedule, rank: int) -> tuple:
    """``rank``'s program, step by step: ``(section, step)``, the step
    ``None`` for a barrier (kept per schedule: every pass walks it)."""
    t = sched.table
    rows, parts = t.layout(rank)
    steps = [_Step(OP_NAMES[op], t.names[a] if a >= 0 else None, a_off,
                   t.names[b] if b >= 0 else None, b_off, nelems, stride,
                   peer, aux, i)
             for i, (op, a, a_off, b, b_off, nelems, stride, peer, aux)
             in enumerate(zip(*t.rows_of(rows)), rows.start)]
    return tuple((sec, None if k is None else steps[k])
                 for sec, items in parts for k in items)


def _steps(sched: Schedule, rank: int) -> Iterator[_Step]:
    """``rank``'s steps in program order, barriers as ``None``."""
    return (step for _, step in _walk(sched, rank))


# One memory access: (phase, pe, buffer, lo, hi, mode, origin_rank)
# mode: "lw" local write, "lr" local read, "rw" remote write,
#       "rr" remote read.
_Access = tuple


def _step_accesses(step: _Step, rank: int, itemsize: int) -> Iterator[tuple]:
    """Accesses of one non-barrier step: (pe, buffer, lo, hi, mode)."""
    kind = step.kind
    span = step_span_bytes(step.nelems, step.stride, itemsize)
    if kind == "put":
        yield (rank, step.src, step.src_off, step.src_off + span, "lr")
        yield (step.peer, step.dst, step.dst_off, step.dst_off + span, "rw")
    elif kind == "get":
        yield (step.peer, step.src, step.src_off, step.src_off + span, "rr")
        yield (rank, step.dst, step.dst_off, step.dst_off + span, "lw")
    elif kind == "copy":
        yield (rank, step.src, step.src_off, step.src_off + span, "lr")
        yield (rank, step.dst, step.dst_off, step.dst_off + span, "lw")
    elif kind == "reduce":
        yield (rank, step.src, step.src_off, step.src_off + span, "lr")
        yield (rank, step.dst, step.dst_off, step.dst_off + span, "lr")
        yield (rank, step.dst, step.dst_off, step.dst_off + span, "lw")
    elif kind == "fill":
        yield (rank, step.dst, step.dst_off, step.dst_off + span, "lw")
    elif kind == "send":
        # Two-sided: the payload is *copied* at the send, so only the
        # local source buffer is touched here; the matching recv owns
        # the destination write.
        yield (rank, step.src, step.src_off, step.src_off + span, "lr")
    elif kind == "recv":
        yield (rank, step.dst, step.dst_off, step.dst_off + span, "lw")


def _accesses(sched: Schedule, rank: int) -> Iterator[_Access]:
    """Yield every access of ``rank``'s program, tagged by barrier phase."""
    phase = 0
    for step in _steps(sched, rank):
        if step is None:
            phase += 1
            continue
        for pe, name, lo, hi, mode in _step_accesses(step, rank,
                                                     sched.itemsize):
            if 0 <= pe < sched.n_pes:
                yield (phase, pe, name, lo, hi, mode, rank)


def _barrier_count(sched: Schedule, rank: int) -> int:
    return sum(1 for step in _steps(sched, rank) if step is None)


def _stage_signature(sched: Schedule, rank: int) -> list:
    """Per-slot shape: plain stage index, or pipeline (index, S, G).

    Ranks must agree on this signature — a pipeline block whose segment
    or group count differs between ranks lowers to a different number of
    rounds, so some rank would wait at a barrier nobody else reaches
    (deadlock with segment counts).
    """
    t = sched.table
    return list(t.skeletons[t.skeleton_of[rank]].signature)


def _check_structure(sched: Schedule, issues: list) -> None:
    ref_sig = _stage_signature(sched, 0)
    ref_barriers = _barrier_count(sched, 0)
    for r in range(sched.n_pes):
        sig = _stage_signature(sched, r)
        if sig != ref_sig:
            issues.append(LintIssue(
                "deadlock",
                f"stage structure {sig} differs from rank 0's {ref_sig} "
                "(span structure would diverge)", rank=r))
        got = _barrier_count(sched, r)
        if got != ref_barriers:
            issues.append(LintIssue(
                "deadlock",
                f"{got} barriers vs rank 0's {ref_barriers} — the team "
                "barrier would never complete", rank=r))


def _check_scope(sched: Schedule, issues: list) -> None:
    """Partitioned barriers, barrier by barrier and step by step: each
    rank's block at a barrier holds it and is named by all its ranks; a
    put, get, send or recv reaches only ranks of the rank's block at the
    barriers around its phase."""
    n = sched.n_pes
    every = tuple(range(n))
    blocks = [[sec.block or every for sec, step in _walk(sched, r)
               if step is None] for r in range(n)]
    if all(not sec.block for r in range(n)
           for sec, step in _walk(sched, r) if step is None):
        return
    for b in range(max(map(len, blocks))):
        for r in range(n):
            if b >= len(blocks[r]):
                continue
            block = blocks[r][b]
            if r not in block or any(
                    not 0 <= q < n or b >= len(blocks[q])
                    or blocks[q][b] != block for q in block):
                issues.append(LintIssue(
                    "scope", f"block {list(block)} at barrier {b} is not "
                    "one block of a partition", rank=r, phase=b))
    for r in range(n):
        phase = 0
        for step in _steps(sched, r):
            if step is None:
                phase += 1
                continue
            if step.kind not in ("put", "get", "send", "recv") \
                    or not 0 <= step.peer < n or step.peer == r:
                continue
            for b in (phase - 1, phase):
                if 0 <= b < len(blocks[r]) and step.peer not in blocks[r][b]:
                    issues.append(LintIssue(
                        "scope", f"{step.kind} to rank {step.peer} leaves "
                        f"the block {list(blocks[r][b])} of barrier {b}",
                        rank=r, phase=phase))
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


def _check_steps(sched: Schedule, issues: list) -> None:
    """Peer validity, buffer existence/visibility and bounds."""
    n = sched.n_pes
    names = {buf.name: buf for buf in sched.buffers}
    for r in range(n):
        for step in _steps(sched, r):
            if step is None:
                continue
            kind = step.kind
            if kind in ("put", "get", "send", "recv"):
                if not 0 <= step.peer < n:
                    issues.append(LintIssue(
                        "peers", f"{kind} peer {step.peer} outside group of "
                        f"{n}", rank=r))
                    continue
                if step.peer == r:
                    issues.append(LintIssue(
                        "peers", f"{kind} targets its own rank — use Copy "
                        "for local movement", rank=r))
                if kind in ("send", "recv"):
                    # Two-sided steps touch only local buffers (covered
                    # by the access checks below); the pairing itself is
                    # the message-matching pass's job.
                    continue
                remote_name = step.dst if kind == "put" else step.src
                buf = names.get(remote_name)
                if buf is not None:
                    if not buf.symmetric:
                        issues.append(LintIssue(
                            "peers",
                            f"{kind} of non-symmetric buffer "
                            f"{remote_name!r} on peer {step.peer}", rank=r))
                    if not buf.held_by(step.peer):
                        issues.append(LintIssue(
                            "peers",
                            f"{kind} touches {remote_name!r} which rank "
                            f"{step.peer} does not hold", rank=r))
    for phase, pe, name, lo, hi, mode, origin in _all_accesses(sched):
        buf = names.get(name)
        if buf is None:
            issues.append(LintIssue(
                "buffers", f"step references unknown buffer {name!r}",
                rank=origin))
            continue
        if not buf.held_by(origin) and pe == origin:
            issues.append(LintIssue(
                "buffers",
                f"rank {origin} uses {name!r} it does not hold",
                rank=origin))
        if lo < 0 or hi > buf.nbytes_on(pe):
            issues.append(LintIssue(
                "bounds",
                f"access [{lo}, {hi}) outside {name!r} "
                f"({buf.nbytes_on(pe)} bytes on rank {pe})", rank=origin,
                phase=phase))


def _all_accesses(sched: Schedule) -> Iterator[_Access]:
    for r in range(sched.n_pes):
        yield from _accesses(sched, r)


def _overlap(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> bool:
    return a_lo < b_hi and b_lo < a_hi


def _check_phase_overlap(sched: Schedule, issues: list) -> None:
    """Concurrent-access hazards between two consecutive barriers."""
    by_key: dict = {}
    for acc in _all_accesses(sched):
        phase, pe, name, lo, hi = acc[:5]
        if hi > lo:
            by_key.setdefault((phase, pe, name), []).append(acc)
    for (phase, pe, name), accs in sorted(by_key.items()):
        if len(accs) < 2:
            continue
        for i, a in enumerate(accs):
            for b in accs[i + 1:]:
                _, _, _, a_lo, a_hi, a_mode, a_org = a
                _, _, _, b_lo, b_hi, b_mode, b_org = b
                if not _overlap(a_lo, a_hi, b_lo, b_hi):
                    continue
                modes = {a_mode, b_mode}
                hazard = None
                if modes == {"rw"} and a_org != b_org:
                    hazard = "two ranks remotely write the same range"
                elif modes == {"rw", "lw"}:
                    hazard = "remote write races the owner's local write"
                elif modes == {"rw", "lr"}:
                    hazard = "remote write races the owner's local read"
                elif modes == {"rw", "rr"} and a_org != b_org:
                    hazard = "remote write races another rank's remote read"
                elif modes == {"lw", "rr"}:
                    hazard = "owner's local write races a remote read"
                if hazard:
                    issues.append(LintIssue(
                        "overlap",
                        f"{name!r} on rank {pe} bytes "
                        f"[{max(a_lo, b_lo)}, {min(a_hi, b_hi)}): {hazard} "
                        f"(ranks {a_org} and {b_org})", rank=pe,
                        phase=phase))


def _check_pipelines(sched: Schedule, issues: list) -> None:
    """Cross-segment ordering on well-formed pipeline blocks.

    Within one pipeline, a remote read must not target bytes that any
    rank writes in a *later* round: the reader would observe
    pre-pipeline data.  Same-round conflicts are the phase-overlap
    pass's job (the lowered rounds feed it); this pass catches the
    staleness bugs segmentation introduces, e.g. segment boundaries
    that do not match the producing group's.
    """
    # Cross-segment ordering over all ranks' aligned pipeline blocks:
    # per block, (rank, round, step) in rank and then program order.
    by_index: dict = {}
    for r in range(sched.n_pes):
        for sec, step in _walk(sched, r):
            if step is not None and sec.round >= 0:
                by_index.setdefault(sec.pipeline, []).append(
                    (r, sec.round, step))
    for index, steps in sorted(by_index.items()):
        writes: list = []   # (round, pe, buffer, lo, hi, origin)
        reads: list = []    # remote reads: (round, pe, buffer, lo, hi, origin)
        for r, t, step in steps:
            for pe, name, lo, hi, mode in _step_accesses(step, r,
                                                         sched.itemsize):
                if hi <= lo or not 0 <= pe < sched.n_pes:
                    continue
                if mode in ("lw", "rw"):
                    writes.append((t, pe, name, lo, hi, r))
                elif mode == "rr":
                    reads.append((t, pe, name, lo, hi, r))
        by_target: dict = {}
        for t, pe, name, lo, hi, org in writes:
            by_target.setdefault((pe, name), []).append((t, lo, hi, org))
        for t_r, pe, name, lo, hi, org in reads:
            for t_w, w_lo, w_hi, w_org in by_target.get((pe, name), ()):
                if t_w > t_r and _overlap(lo, hi, w_lo, w_hi):
                    issues.append(LintIssue(
                        "pipeline",
                        f"cross-segment ordering: rank {org} reads "
                        f"{name!r} bytes [{max(lo, w_lo)}, {min(hi, w_hi)}) "
                        f"on rank {pe} in round {t_r}, written by rank "
                        f"{w_org} only in round {t_w}", rank=pe,
                        phase=t_r))


def _check_message_matching(sched: Schedule, issues: list) -> None:
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
    """
    n = sched.n_pes
    sends: dict = {}
    recvs: dict = {}
    for r in range(n):
        phase = 0
        for step in _steps(sched, r):
            if step is None:
                phase += 1
            elif step.kind == "send" and 0 <= step.peer < n:
                sends.setdefault((r, step.peer), []).append(
                    (phase, step.aux, step.nelems))
            elif step.kind == "recv" and 0 <= step.peer < n:
                recvs.setdefault((step.peer, r), []).append(
                    (phase, step.aux, step.nelems))
    for src, dst in sorted(set(sends) | set(recvs)):
        ss = sends.get((src, dst), [])
        rr = recvs.get((src, dst), [])
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


def _check_conservation(sched: Schedule, issues: list) -> None:
    """Every promised ``deliver`` range is covered by some write; a
    strided write covers the trailing hole of its last element's stride
    too (``nelems * stride * itemsize`` bytes from its start)."""
    written: dict = {}
    for r in range(sched.n_pes):
        for step in _steps(sched, r):
            if step is None:
                continue
            reach = step.nelems * step.stride * sched.itemsize
            for pe, name, lo, hi, mode in _step_accesses(step, r,
                                                         sched.itemsize):
                if mode in ("lw", "rw") and hi > lo and 0 <= pe < sched.n_pes:
                    written.setdefault((pe, name), []).append(
                        (lo, lo + reach))
    for rank, name, lo, hi in sched.deliver:
        if hi <= lo:
            continue
        ivs = sorted(written.get((rank, name), []))
        cover = lo
        for iv_lo, iv_hi in ivs:
            if iv_lo > cover:
                break
            cover = max(cover, iv_hi)
        if cover < hi:
            issues.append(LintIssue(
                "conservation",
                f"deliver contract [{lo}, {hi}) of {name!r} on rank {rank} "
                f"only covered up to byte {cover}", rank=rank))


def reference_lint(sched: Schedule) -> list:
    """Run every check; returns the (possibly empty) issue list."""
    issues: list = []
    _check_structure(sched, issues)
    _check_scope(sched, issues)
    _check_buffers(sched, issues)
    _check_steps(sched, issues)
    _check_pipelines(sched, issues)
    _check_phase_overlap(sched, issues)
    _check_message_matching(sched, issues)
    _check_conservation(sched, issues)
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
    for r in range(sched.n_pes):
        for step in _steps(sched, r):
            if step is None:
                continue
            owners = {name.split(":", 1)[0] for name in (step.dst, step.src)
                      if name is not None}
            if len(owners) > 1:
                issues.append(LintIssue(
                    "fused",
                    f"step {sched.table.step_text(step.row)} mixes buffers "
                    f"of requests {sorted(owners)} (cross-request "
                    "aliasing)", rank=r))


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


def reference_lint_fused(sched: Schedule) -> list:
    """Lint a fused superstep schedule: every ordinary pass plus the
    fused-specific isolation checks (no cross-request buffer aliasing,
    per-sub-request delivery)."""
    issues = reference_lint(sched)
    _check_fused_prefixes(sched, issues)
    _check_fused_conservation(sched, issues)
    return issues
