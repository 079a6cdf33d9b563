"""The backend protocol: one contract, three ways to run PEs.

The paper's runtime executes on real concurrent processing elements (a
12-core Spike cluster bridged by MPICH).  This reproduction has three
interchangeable execution substrates:

* :class:`~repro.backends.sim.SimulatorBackend` — the deterministic
  cooperative simulator (:class:`~repro.runtime.context.Machine`); every
  PE is a greenlet-style thread time-sliced by the PDES engine, and all
  reported times are *modelled* nanoseconds.
* :class:`~repro.backends.mp.MultiprocessingBackend` — true parallel OS
  processes; the symmetric heap lives in ``multiprocessing.shared_memory``
  segments mapped at the same offset on every PE, remote put/get are
  direct cross-segment memcpys, and reported times are wall-clock.
* :class:`~repro.backends.vec.VecBackend` — the simulator's engine for
  control flow, but every compiled schedule is evaluated for all ranks
  at once as numpy batches and memory is costed in closed form;
  modelled nanoseconds that *track* the simulator.

All three run the *same* xbrtime programs: a program receives a per-PE
context object implementing the **PE context protocol** — the surface
of the one context core,
:class:`~repro.runtime.collective_api.CollectiveAPI`, of which the
collectives layer uses exactly:

=======================================  ====================================================
member                                   used for
=======================================  ====================================================
``rank``                                 this PE's world rank (attribute)
``config``                               :class:`~repro.params.MachineConfig` (layout, costs)
``world_group``                          the all-PEs tuple
``spans``                                span recorder (``.enabled`` may be ``False``)
``count_collective``                     stats accounting per collective call
``executing_rank()``                     misuse detection for shared non-blocking handles
``barrier/barrier_team``                 synchronisation (+ network quiescence)
``put/get/amo``                          one-sided data movement
``put_nb/get_nb/wait/quiet``             non-blocking transfers
``view``                                 numpy aliasing of local memory
``is_symmetric``                         address-segment classification
``malloc/free``                          collective symmetric heap
``scratch_alloc/scratch_free``           symmetric scratch stack (LIFO)
``private_malloc/private_free``          private segment
``compute/charge_access/charge_stream``  cost charging (free on wall-clock backends)
=======================================  ====================================================

**The seam contract.**  Every name above — and lifecycle, identity,
argument validation, supersteps and the typed Table-1 surface — is
implemented once, in the core.  What a backend's context may override,
and nothing else (``tests/backends/test_context_protocol.py`` reads the
table above and holds every context class to this list):

* **sim** — the span recorder (``spans``) and the two-sided mailbox
  calls (``msg_*``, ``schedule_transport``, and the halves of a receive
  a parked schedule step resumes: ``_msg_open`` traces and opens its
  span, ``_msg_take`` takes the message or leaves the PE waiting).  Its
  fault checkpoint runs inside the core's ``_require_active`` whenever
  an injector is armed.  A PE parked inside a schedule, or inside a
  step loop it hands to ``ctx.drive``, may have its steps run by
  another PE's thread (the engine's continuations); that is the
  engine's business, not a seam — the plan, the step interpreter, the
  step loop and the ``_transfer`` / barrier / mailbox calls are the
  same on every thread, traced or not, and tracing moves no clock
  (``tests/sim/test_scheduler_equivalence.py``).
* **mp** — the clock (``time_ns`` reads the host, ``compute`` and
  ``charge_*`` are free, ``executing_rank`` is constant), the barrier
  (``_sync``/``barrier_team`` over :class:`~repro.backends.shm.ShmBarrier`,
  team-scoped through ``default_group``) and data movement (the
  ``_transfer`` object: memcpy + ``bump_progress``, lock-serialised AMO).
* **vec** — the ``schedule_evaluator`` hook (the ranks meet in a
  rendezvous record, the last one evaluates the group); its
  memory-cost provider
  (:class:`~repro.collectives.schedule.evaluate.CostModel` behind
  ``hierarchy_of(pe)``) lives on the world, not the context.

``machine`` (the engine-driven world; ``None`` on mp) and ``_transfer``
are core attributes the executor reads directly: a clean run's steps go
straight to ``_transfer.put/get`` with arguments checked once per plan,
a fault-injection run's through ``put/get`` and their checkpoint.

Because ``execute_schedule`` and every collective front-end reach shared
state only through that protocol, each compiled
:class:`~repro.collectives.schedule.ir.Schedule` runs unmodified — and
produces byte-identical output buffers — on every backend (proved by
``tests/backends/test_conformance.py``).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Sequence

from ..errors import RuntimeStateError
from ..params import MachineConfig

__all__ = ["Backend", "BackendSession", "resolve_config"]


def resolve_config(config: MachineConfig | None,
                   n_pes: int | None) -> MachineConfig:
    """Build the effective configuration for a backend run.

    ``n_pes`` (when given) overrides the configuration's PE count; with
    neither argument the default :class:`MachineConfig` applies.
    """
    if config is None:
        config = MachineConfig() if n_pes is None else MachineConfig(n_pes=n_pes)
    elif n_pes is not None and n_pes != config.n_pes:
        config = config.with_(n_pes=n_pes)
    return config


class BackendSession(abc.ABC):
    """A reusable execution environment for one PE count.

    Sessions exist so repeated runs (conformance sweeps, benchmarks)
    amortise backend start-up — the multiprocessing backend keeps its
    worker processes and shared-memory segments alive between runs.
    ``close`` must be idempotent and is also triggered at interpreter
    exit; see the teardown guarantee on :class:`~repro.backends.mp.MPSession`.
    """

    config: MachineConfig
    _closed = False

    @property
    def n_pes(self) -> int:
        return self.config.n_pes

    def _require_open(self) -> None:
        """Every ``run``/``submit`` starts here: a closed session is done."""
        if self._closed:
            raise RuntimeStateError(
                f"{type(self).__name__} used after close()"
            )

    @abc.abstractmethod
    def run(self, fn: Callable[..., Any],
            args_per_pe: Sequence[tuple] | None = None) -> list[Any]:
        """Run ``fn(ctx, *extra)`` on every PE; returns per-rank results."""

    @abc.abstractmethod
    def close(self) -> None:
        """Tear the session down (idempotent)."""

    def __enter__(self) -> "BackendSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Backend(abc.ABC):
    """One execution substrate for xbrtime programs."""

    #: Registry key (``"sim"`` / ``"mp"`` / ``"vec"``).
    name: str

    @abc.abstractmethod
    def session(self, config: MachineConfig | None = None, *,
                n_pes: int | None = None, **opts: Any) -> BackendSession:
        """Open a reusable session (see :class:`BackendSession`)."""

    def run(self, fn: Callable[..., Any],
            args_per_pe: Sequence[tuple] | None = None, *,
            config: MachineConfig | None = None,
            n_pes: int | None = None, **opts: Any) -> list[Any]:
        """One-shot convenience: open a session, run once, close."""
        with self.session(config, n_pes=n_pes, **opts) as session:
            return session.run(fn, args_per_pe)
