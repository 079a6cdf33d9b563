"""Text rendering of the paper's tables and figures.

Each function returns the rows the paper presents, as plain text, so the
benchmark harness can print a like-for-like artefact next to the
measured numbers (EXPERIMENTS.md records the comparison).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..collectives.binomial import render_tree
from ..collectives.virtual_rank import rank_table
from ..types import TYPE_TABLE

if TYPE_CHECKING:
    from .harness import SweepPoint

__all__ = [
    "render_table1",
    "render_table2",
    "render_figure3",
    "render_figure",
    "sweep_to_csv",
    "render_collective_metrics",
]


def render_table1() -> str:
    """Table 1: xBGAS matched type names & types."""
    w = max(len(t.typename) for t in TYPE_TABLE)
    lines = [f"{'TYPENAME':<{w}}  TYPE", "-" * (w + 24)]
    for t in TYPE_TABLE:
        lines.append(f"{t.typename:<{w}}  {t.ctype}")
    return "\n".join(lines)


def render_table2(root: int = 4, n_pes: int = 7) -> str:
    """Table 2: logical → virtual rank mapping (root 4, 7 PEs)."""
    lines = ["log_rank  vir_rank", "-" * 18]
    for lr, vr in rank_table(root, n_pes):
        lines.append(f"{lr:>8d}  {vr:>8d}")
    return "\n".join(lines)


def render_figure3(n_pes: int = 8) -> str:
    """Figure 3: the binomial tree with recursive halving."""
    return render_tree(n_pes)


def render_figure(points: Sequence["SweepPoint"], title: str) -> str:
    """A Figure 4/5-style series: MOPS total and per PE by PE count."""
    lines = [
        title,
        f"{'PEs':>4}  {'MOPS total':>12}  {'MOPS/PE':>10}  verified",
        "-" * 44,
    ]
    for p in points:
        lines.append(
            f"{p.n_pes:>4}  {p.mops_total:>12.3f}  {p.mops_per_pe:>10.3f}  "
            f"{'yes' if p.verified else 'NO'}"
        )
    return "\n".join(lines)


def render_collective_metrics(metrics: Sequence) -> str:
    """Per-collective span metrics as text.

    Takes the :class:`~repro.sim.metrics.CollectiveMetrics` list from
    :meth:`Machine.collective_metrics` and renders one
    block per logical call: the stage table (messages, bytes, barriers,
    latency) plus the per-PE busy/blocked split and the critical path.
    """
    out: list[str] = []
    for cm in metrics:
        out.append(
            f"{cm.name}#{cm.seq} over {len(cm.group)} PEs: "
            f"{cm.n_stages} stages, {cm.total_messages} messages, "
            f"{cm.total_bytes} bytes, "
            f"critical path {cm.critical_path_ns:.0f} ns"
        )
        if cm.entry_barriers or cm.extra_messages:
            out.append(
                f"  entry barriers: {cm.entry_barriers}, "
                f"out-of-stage messages: {cm.extra_messages} "
                f"({cm.extra_bytes} bytes)"
            )
        if cm.stages:
            out.append(f"  {'stage':>5}  {'msgs':>5}  {'bytes':>8}  "
                       f"{'barriers':>8}  {'latency ns':>10}")
            for s in cm.stages:
                out.append(
                    f"  {s.index:>5}  {s.messages:>5}  {s.bytes:>8}  "
                    f"{s.barriers:>8}  {s.latency_ns:>10.0f}"
                )
        busiest = max(cm.per_pe.values(), key=lambda a: a.busy_ns,
                      default=None)
        if busiest is not None:
            blocked = sum(a.blocked_ns for a in cm.per_pe.values())
            out.append(
                f"  busiest PE {busiest.pe}: {busiest.busy_ns:.0f} ns busy / "
                f"{busiest.blocked_ns:.0f} ns blocked; "
                f"total blocked across PEs: {blocked:.0f} ns"
            )
        out.append("")
    return "\n".join(out).rstrip("\n")


def sweep_to_csv(points: Sequence["SweepPoint"]) -> str:
    """A Figure 4/5-style sweep as CSV (for external plotting)."""
    lines = ["n_pes,mops_total,mops_per_pe,verified"]
    for p in points:
        lines.append(
            f"{p.n_pes},{p.mops_total:.6f},{p.mops_per_pe:.6f},"
            f"{int(p.verified)}"
        )
    return "\n".join(lines) + "\n"
