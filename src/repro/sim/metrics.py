"""Per-collective metrics derived from the span tree.

Answers the questions the paper's evaluation turns on (Figs. 3–5):
where does time go inside the binomial trees?  For every traced
collective call this module reports

* the stage count and, per stage, the messages/bytes moved and the
  stage latency (first entry to last exit across the participants);
* per-PE busy/blocked split (blocked = time inside barriers);
* the critical-path latency through the tree — with a barrier closing
  every stage the stages are sequential, so the critical path is the
  makespan from the first PE entering to the last PE leaving.

Correlation across PEs relies on SPMD execution *within a group*:
every participant of a group opens its collective spans over that group
in the same order, so ``(name, group, occurrence)`` identifies one
logical call — ``occurrence`` being the per-PE count of earlier spans
with the same name and group.  Disjoint teams therefore correlate
independently, even when their members interleave differently with
other work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .spans import Span, build_span_forest, walk
from .trace import EventTrace

__all__ = [
    "StageMetrics",
    "PEActivity",
    "CollectiveMetrics",
    "collective_metrics",
]


@dataclass
class StageMetrics:
    """One binomial-tree stage, aggregated over all participants."""

    index: int
    messages: int = 0        #: remote puts + gets + sends issued in the stage
    local_copies: int = 0    #: puts/gets a PE issued to itself
    bytes: int = 0           #: payload bytes of the remote messages
    barriers: int = 0        #: barrier entries closing the stage
    t_start: float = float("inf")
    t_end: float = float("-inf")

    @property
    def latency_ns(self) -> float:
        """First entry to last exit across the participants."""
        if self.t_end < self.t_start:
            return 0.0
        return self.t_end - self.t_start


@dataclass
class PEActivity:
    """One participant's time split inside a collective."""

    pe: int
    t0: float
    t1: float
    blocked_ns: float = 0.0  #: time inside barriers

    @property
    def busy_ns(self) -> float:
        return max(0.0, (self.t1 - self.t0) - self.blocked_ns)


@dataclass
class CollectiveMetrics:
    """One logical collective call, correlated across its participants."""

    name: str
    seq: int
    group: tuple[int, ...]
    stages: list[StageMetrics] = field(default_factory=list)
    per_pe: dict[int, PEActivity] = field(default_factory=dict)
    #: remote messages issued outside any stage (staging/reorder phases)
    extra_messages: int = 0
    extra_bytes: int = 0
    entry_barriers: int = 0

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def total_messages(self) -> int:
        return sum(s.messages for s in self.stages) + self.extra_messages

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.stages) + self.extra_bytes

    @property
    def t_start(self) -> float:
        return min(a.t0 for a in self.per_pe.values())

    @property
    def t_end(self) -> float:
        return max(a.t1 for a in self.per_pe.values())

    @property
    def critical_path_ns(self) -> float:
        """Makespan of the barrier-closed tree (see module docstring)."""
        return self.t_end - self.t_start

    def stage(self, index: int) -> StageMetrics:
        for s in self.stages:
            if s.index == index:
                return s
        raise KeyError(f"no stage {index} in {self.name}#{self.seq}")


def _op_stats(span: Span) -> tuple[bool, int]:
    """(is_remote_message, payload_bytes) for an op span."""
    remote = bool(span.attrs.get("remote"))
    nbytes = int(span.attrs.get("bytes", 0))
    return remote, nbytes


def _fold_ops(ops: Iterable[Span], cm: CollectiveMetrics,
              stage: StageMetrics | None) -> None:
    for op in ops:
        if op.name == "barrier":
            if stage is not None:
                stage.barriers += 1
            else:
                cm.entry_barriers += 1
            continue
        if op.name == "send":
            # Two-sided path: the send side owns the message accounting —
            # the matching recv is the same wire message, so folding both
            # would double-count mailbox traffic.
            _, nbytes = _op_stats(op)
            if stage is not None:
                stage.messages += 1
                stage.bytes += nbytes
            else:
                cm.extra_messages += 1
                cm.extra_bytes += nbytes
            continue
        if op.name not in ("put", "get"):
            continue
        remote, nbytes = _op_stats(op)
        if stage is not None:
            if remote:
                stage.messages += 1
                stage.bytes += nbytes
            else:
                stage.local_copies += 1
        elif remote:
            cm.extra_messages += 1
            cm.extra_bytes += nbytes


def _subtree_blocked_ns(span: Span) -> float:
    """Barrier time anywhere under ``span`` (one PE's subtree)."""
    total = 0.0
    for s in walk([span]):
        if s.kind == "op" and s.name == "barrier":
            total += s.dur_ns
    return total


def collective_metrics(trace: EventTrace) -> list[CollectiveMetrics]:
    """Aggregate a trace's collective spans into per-call metrics.

    Returns one entry per logical collective, ordered by start time
    (every collective is one schedule, so none opens inside another).
    """
    forest = build_span_forest(trace)
    # Per-PE program order (span ids ascend with begin order on one PE)
    # gives each collective span its occurrence index within
    # (pe, name, group); matching occurrences across PEs are one call.
    by_pe: dict[tuple, list[Span]] = {}
    for span in walk(forest):
        if span.kind != "collective":
            continue
        group = tuple(span.attrs.get("group", ()))
        by_pe.setdefault((span.pe, span.name, group), []).append(span)
    flat: list[tuple[tuple, Span]] = []
    for (pe, name, group), pe_spans in by_pe.items():
        pe_spans.sort(key=lambda s: s.sid)
        for occ, span in enumerate(pe_spans):
            flat.append(((name, occ, group), span))
    flat.sort(key=lambda item: item[1].sid)
    calls: dict[tuple, CollectiveMetrics] = {}
    for (name, occ, group), span in flat:
        key = (name, occ, group)
        cm = calls.get(key)
        if cm is None:
            cm = calls[key] = CollectiveMetrics(name, occ, group)
        cm.per_pe[span.pe] = PEActivity(
            pe=span.pe, t0=span.t0, t1=span.t1,
            blocked_ns=_subtree_blocked_ns(span),
        )
        # Fold this PE's stages and loose ops into the shared stage table.
        for child in span.children:
            if child.kind == "stage":
                idx = int(child.attrs.get("index", 0))
                stage = next((s for s in cm.stages if s.index == idx), None)
                if stage is None:
                    stage = StageMetrics(index=idx)
                    cm.stages.append(stage)
                stage.t_start = min(stage.t_start, child.t0)
                stage.t_end = max(stage.t_end, child.t1)
                _fold_ops((c for c in child.children if c.kind == "op"),
                          cm, stage)
            elif child.kind == "op":
                _fold_ops([child], cm, None)
    for cm in calls.values():
        cm.stages.sort(key=lambda s: s.index)
    return sorted(calls.values(), key=lambda c: c.t_start)
