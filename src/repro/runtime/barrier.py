"""Barrier synchronisation.

The paper's runtime provides "a simple barrier" (section 3.3) and every
binomial-tree stage of the collectives ends with one (section 4.3).

Semantics: a PE arriving at the barrier suspends until all participants
have arrived; everyone is released at

    max(latest arrival, network quiescence) + ceil(log2 N) * round_cost

— a dissemination barrier over the transport, which also waits for every
in-flight one-sided put to land (the memory-consistency point the
algorithms rely on).

Teams (paper section 7, "integration of collective functionality between
a subset of PEs") are supported by keying concurrent barrier instances on
the participant set: disjoint teams synchronise independently.

Failure detection (fault-injection runs): when a participant has been
crashed by the :mod:`repro.faults` injector, the barrier does not hang.
Once every *live* participant has arrived (or a participant dies while
the rest are waiting), the instance performs a *degraded release*: the
survivors pay the failure detector's timeout on top of the normal cost
and every one of them raises :class:`~repro.errors.PeerFailedError`
carrying the same frozen set of dead members.  That agreement — all
survivors of one instance observe an identical membership verdict — is
what lets the resilient collectives rebuild their trees without
diverging.
"""

from __future__ import annotations

from math import ceil, log2
from typing import TYPE_CHECKING, Iterable

from ..errors import CollectiveArgumentError, PeerFailedError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..params import MachineConfig
    from .context import Machine

__all__ = ["BarrierController", "round_cost_ns"]


def round_cost_ns(cfg: "MachineConfig", participants: Iterable[int]) -> float:
    """Cost of one dissemination round among ``participants``."""
    tp = cfg.transport
    nodes = {cfg.node_of(r) for r in participants}
    if len(nodes) <= 1:
        lat = tp.intra_latency_ns
    else:
        lat = tp.latency_ns
    return tp.o_send + tp.kernel_ns + lat + 8 * tp.gap_ns_per_byte


class _Pending:
    """One in-progress barrier instance."""

    __slots__ = ("key", "arrivals", "degraded")

    def __init__(self, key: tuple[int, ...]):
        self.key = key
        #: rank -> arrival clock, in arrival order.
        self.arrivals: dict[int, float] = {}
        #: Set once on a degraded release: the dead members every
        #: survivor must report (the group-agreement payload).
        self.degraded: frozenset[int] | None = None


class BarrierController:
    """Shared barrier state for one machine.

    :meth:`barrier` is the whole operation for a PE on its own thread:
    :meth:`enter` (the span), ``Engine.checkpoint``, :meth:`arrive`,
    :meth:`release` by the last to arrive (the only copy of the release
    arithmetic) or a wait, and :meth:`leave` (a degraded release, the
    span).  The parts are public for the schedule executor's
    continuations, which park where :meth:`barrier` would switch.
    """

    def __init__(self, machine: "Machine"):
        self.machine = machine
        #: members (sorted tuple) -> in-progress instance
        self._pending: dict[tuple[int, ...], _Pending] = {}
        #: participants as passed -> members, normalised once
        self._members: dict[tuple[int, ...] | None, tuple[int, ...]] = {}
        #: members -> what a release adds: rounds x round cost
        self._cost: dict[tuple[int, ...], float] = {}

    def members(self, participants: tuple[int, ...] | None) -> tuple[int, ...]:
        """The sorted, duplicate-free member tuple that keys a barrier
        over ``participants`` (``None`` = all PEs)."""
        key = self._members.get(participants)
        if key is None:
            if participants is None:
                key = tuple(range(self.machine.config.n_pes))
            else:
                key = tuple(sorted(set(participants)))
            self._members[participants] = key
            # A barrier of one is one round (see ``enter``).
            self._cost[key] = max(1, ceil(log2(len(key)))) * round_cost_ns(
                self.machine.config, key)
        return key

    # -- the parts -----------------------------------------------------------

    def enter(self, rank: int,
              participants: tuple[int, ...] | None) -> tuple[int, ...] | None:
        """Open ``rank``'s barrier over ``participants``: its key, or
        ``None`` for a barrier of one, which completes here (only the
        round cost)."""
        machine = self.machine
        key = self._members.get(participants) or self.members(participants)
        if participants is not None and rank not in key:
            raise CollectiveArgumentError(
                f"PE {rank} called a barrier it does not participate in"
            )
        engine = machine.engine
        if engine.trace.enabled:
            engine.spans.begin(rank, "op", "barrier",
                               {"participants": len(key)})
        if len(key) > 1:
            return key
        engine.pes[rank].advance(self._cost[key])
        machine.stats.barriers += 1
        if engine.trace.enabled:
            engine.spans.end(rank)
        return None

    def arrive(self, rank: int, key: tuple[int, ...]) -> tuple[_Pending, bool]:
        """Record ``rank``'s arrival, at its current clock, at the
        barrier over ``key``.

        Returns the instance and whether ``rank`` was the last live
        member to arrive — in which case the caller must
        :meth:`release` it; otherwise ``rank`` waits to be woken.
        """
        machine = self.machine
        engine = machine.engine
        if engine.trace.enabled:
            engine.record("barrier", f"arrive ({len(key)} PEs)")
        inst = self._pending.get(key)
        if inst is None:
            inst = self._pending[key] = _Pending(key)
        arrivals = inst.arrivals
        if rank in arrivals:
            raise SimulationError(
                f"PE {rank} re-entered barrier {key} before it completed"
            )
        arrivals[rank] = engine.pes[rank].clock
        faults = machine.faults
        if faults is None:
            return inst, len(arrivals) == len(key)
        dead = faults.dead_pes
        return inst, all(r in arrivals or r in dead for r in key)

    def leave(self, rank: int, inst: _Pending | None) -> None:
        """Close ``rank``'s barrier once ``inst`` (if it got that far)
        released it: raises :class:`PeerFailedError` on a degraded
        release."""
        engine = self.machine.engine
        try:
            if inst is not None and inst.degraded:
                if engine.trace.enabled:
                    engine.record("barrier",
                                  f"degraded: peers {sorted(inst.degraded)} dead")
                raise PeerFailedError(inst.degraded)
        finally:
            if engine.trace.enabled:
                engine.spans.end(rank)

    def release(self, inst: _Pending, waker: int | None) -> float:
        """Release ``inst``: compute the exit time, wake the arrived
        waiters and retire the instance.  ``waker`` (if not None) is the
        arrived rank doing the waking — it advances itself to the
        returned time.

        On a degraded release (some participants dead) the exit time
        additionally pays the failure detector's timeout and
        ``inst.degraded`` is frozen so every waiter reports the same
        verdict.
        """
        machine = self.machine
        key = inst.key
        faults = machine.faults
        release = max(inst.arrivals.values())
        release = max(release, machine.network.quiescence_time())
        release += self._cost[key]
        if faults is not None:
            dead_members = frozenset(r for r in key if faults.is_dead(r))
            if dead_members:
                # Survivors only learn of the death when the detector's
                # timeout on the missing peer expires.
                release += faults.detector_timeout_ns
                inst.degraded = dead_members
        del self._pending[key]
        machine.stats.barriers += 1
        machine.engine.resume_all(
            [other for other in inst.arrivals if other != waker], release)
        return release

    def handle_pe_death(self, dead_rank: int) -> None:
        """Called by the fault injector when ``dead_rank`` crashes.

        Any pending barrier the victim participated in may now be
        complete from the survivors' point of view: if every still-live
        participant has already arrived, perform the degraded release so
        the waiters are not stranded.  (Instances still missing live
        arrivals release normally when those PEs arrive.)
        """
        faults = self.machine.faults
        dead = faults.dead_pes if faults is not None else frozenset()
        for key, inst in list(self._pending.items()):
            if dead_rank not in key:
                continue
            live_missing = [r for r in key
                            if r not in inst.arrivals and r not in dead]
            if not live_missing:
                self.release(inst, waker=None)

    # -- the barrier itself -------------------------------------------------

    def barrier(self, rank: int, participants: tuple[int, ...] | None = None) -> None:
        """Synchronise ``rank`` with ``participants`` (default: all PEs).

        Raises :class:`PeerFailedError` on every live participant if any
        member of the set died before the instance released.
        """
        key = self.enter(rank, participants)
        if key is None:
            return
        engine = self.machine.engine
        inst = None
        try:
            engine.checkpoint()
            inst, last = self.arrive(rank, key)
            if last:
                engine.pes[rank].advance_to(self.release(inst, waker=rank))
            else:
                engine.suspend()  # released by the last live arriver
        finally:
            self.leave(rank, inst)
