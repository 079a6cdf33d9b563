"""Runtime fault injector: the live side of a :class:`FaultPlan`.

One injector per :class:`~repro.runtime.context.Machine`.  It sits at
two choke points:

* the **transport boundary** — :meth:`on_message` is consulted by
  :meth:`Network.send <repro.machine.network.Network.send>` /
  ``Network.fetch`` for every remote message (any ``src != dst`` pair,
  same-node or cross-node), assigning each message a global sequence
  number and sampling the plan against it; and
* the **runtime call boundary** — :meth:`check_pe` runs at every
  ``ctx`` API checkpoint and fires pending PE stalls/crashes once the
  victim's simulated clock reaches the scheduled instant.

Every firing is recorded three ways so faults are observable end to
end: a ``fault`` instant event in the trace (→ Chrome-trace export), a
tag on the PE's innermost open span (→ collective metrics), and an
entry in :attr:`fired` — a plain list of tuples the determinism tests
compare across runs.

The machine consults the injector only through ``is None`` guards, so
a machine built without a plan pays nothing and behaves identically to
one built before this subsystem existed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import PECrashedError
from .plan import FaultPlan, FiredFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import Machine

__all__ = ["FaultInjector"]


class FaultInjector:
    """Mutable per-run fault state driven by an immutable plan."""

    def __init__(self, machine: "Machine", plan: FaultPlan):
        self.machine = machine
        self.plan = plan
        #: Global remote-message counter (the sequence-number space).
        self._msg_index = 0
        #: Firings per rule (enforces FaultRule.count).
        self._rule_fired = [0] * len(plan.rules)
        #: World ranks that crashed.
        self._dead: set[int] = set()
        #: (seq_or_-1, kind, src_pe, dst_pe_or_-1, time_ns) per firing —
        #: the schedule the determinism tests assert byte-identical.
        self.fired: list[tuple[int, str, int, int, float]] = []
        #: Pending per-PE crash trigger times (earliest rule wins).
        n = machine.config.n_pes
        self._crash_at: list[float | None] = [None] * n
        for _, rule in plan.pe_rules("crash"):
            assert rule.pe is not None
            if 0 <= rule.pe < n:
                cur = self._crash_at[rule.pe]
                if cur is None or rule.at_ns < cur:
                    self._crash_at[rule.pe] = rule.at_ns
        #: Pending per-PE stalls: [(at_ns, duration_ns), ...], unfired.
        self._stalls: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        for _, rule in plan.pe_rules("stall"):
            assert rule.pe is not None
            if 0 <= rule.pe < n:
                self._stalls[rule.pe].append((rule.at_ns, rule.duration_ns))
        for lst in self._stalls:
            lst.sort()

    # -- liveness ---------------------------------------------------------

    @property
    def dead_pes(self) -> frozenset[int]:
        """World ranks that have crashed so far."""
        return frozenset(self._dead)

    def is_dead(self, rank: int) -> bool:
        return rank in self._dead

    @property
    def detector_timeout_ns(self) -> float:
        return self.plan.detector_timeout_ns

    # -- transport boundary ------------------------------------------------

    def on_message(self, t_now: float, src_pe: int, dst_pe: int,
                   nbytes: int) -> FiredFault | None:
        """Sample the plan for one remote message; record any firing."""
        seq = self._msg_index
        self._msg_index += 1
        fault = self.plan.sample_message(seq, t_now, src_pe, dst_pe,
                                         self._rule_fired)
        if fault is None:
            return None
        self._rule_fired[fault.rule_index] += 1
        self._record(fault.kind, src_pe, dst_pe, t_now, {
            "seq": seq, "src": src_pe, "dst": dst_pe, "bytes": nbytes,
            "rule": fault.rule_index,
        }, f"{fault.kind} seq={seq} PE{src_pe}->PE{dst_pe} {nbytes}B")
        return fault

    def note_retry(self, t_now: float, src_pe: int, dst_pe: int,
                   seq: int, attempt: int, timeout_ns: float) -> None:
        """Account one retransmission (trace + stats, not a fault)."""
        st = self.machine.stats
        st.retries += 1
        trace = self.machine.engine.trace
        if trace.enabled:
            trace.record(
                t_now, src_pe, "retry",
                f"seq={seq} attempt={attempt} -> PE{dst_pe}",
                attrs={"seq": seq, "attempt": attempt, "dst": dst_pe,
                       "timeout_ns": timeout_ns},
            )

    # -- payload faults (applied by the transfer engine) -------------------

    @staticmethod
    def corrupt_payload(view: np.ndarray, fault: FiredFault) -> None:
        """Flip one deterministic bit of the delivered payload, in place
        and among the element's value bytes: an x86 ``long double`` keeps
        80 value bits in 16 bytes, and a flip in its padding is no fault."""
        flat = view.reshape(-1)
        if flat.size == 0:
            return
        idx = fault.salt % flat.size
        nbits = flat.dtype.itemsize * 8
        if flat.dtype.kind == "f":
            # Sign, exponent and mantissa bits, rounded up to whole
            # bytes (which also takes in x87's explicit integer bit).
            fi = np.finfo(flat.dtype)
            nbits = min(nbits, (fi.nexp + fi.nmant + 8) // 8 * 8)
        bit = (fault.salt >> 20) % nbits
        flat[idx:idx + 1].view(np.uint8)[bit // 8] ^= 1 << (bit % 8)

    # -- runtime call boundary ---------------------------------------------

    def check_pe(self, rank: int, clock: float) -> None:
        """Fire any due stall/crash for ``rank``; called at API
        checkpoints.  Raises :class:`PECrashedError` on a crash."""
        stalls = self._stalls[rank]
        while stalls and stalls[0][0] <= clock:
            at_ns, duration = stalls.pop(0)
            pe = self.machine.engine.pes[rank]
            self._record("stall", rank, -1, pe.clock, {
                "duration_ns": duration, "scheduled_ns": at_ns,
            }, f"stall PE{rank} {duration:.0f}ns")
            pe.advance(duration)
            clock = pe.clock
        at = self._crash_at[rank]
        if at is not None and clock >= at and rank not in self._dead:
            self._crash_at[rank] = None
            self._dead.add(rank)
            self._record("crash", rank, -1, clock, {
                "scheduled_ns": at,
            }, f"crash PE{rank}")
            # Release any barrier now only waiting on the dead.
            self.machine.barriers.handle_pe_death(rank)
            raise PECrashedError(
                f"PE {rank} crashed (injected fault) at t={clock:.0f} ns"
            )

    # -- recording ---------------------------------------------------------

    def _record(self, kind: str, src_pe: int, dst_pe: int, t_now: float,
                attrs: dict, detail: str) -> None:
        machine = self.machine
        machine.stats.faults_injected[kind] += 1
        seq = attrs.get("seq", -1)
        self.fired.append((seq, kind, src_pe, dst_pe, t_now))
        trace = machine.engine.trace
        if trace.enabled:
            trace.record(t_now, src_pe, "fault", detail,
                         attrs={"fault": kind, **attrs})
            machine.engine.spans.annotate(src_pe, "faults", kind,
                                          append=True)
