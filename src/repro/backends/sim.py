"""The deterministic simulator, behind the backend protocol.

A thin adapter: each ``run`` builds a fresh
:class:`~repro.runtime.context.Machine` (machines are one-shot — heap
logs, caches and clocks are stateful) and drives it exactly as direct
``Machine(config).run(fn)`` would, so behaviour is bit-identical to
pre-backend code.  The machine of the most recent run stays reachable
via :attr:`SimulatorSession.last_machine` for stats/trace inspection.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..params import MachineConfig
from ..runtime.context import Machine
from .base import Backend, BackendSession, resolve_config

__all__ = ["SimulatorBackend", "SimulatorSession"]


class SimulatorSession(BackendSession):
    """Runs each program on a fresh simulated machine."""

    def __init__(self, config: MachineConfig, **machine_kw: Any):
        self.config = config
        self._machine_kw = machine_kw
        #: The machine of the most recent ``run`` (None before the first).
        self.last_machine: Machine | None = None

    def run(self, fn: Callable[..., Any],
            args_per_pe: Sequence[tuple] | None = None) -> list[Any]:
        self._require_open()
        machine = Machine(self.config, **self._machine_kw)
        self.last_machine = machine
        return machine.run(fn, args_per_pe)

    def close(self) -> None:
        self._closed = True  # nothing OS-level to release


class SimulatorBackend(Backend):
    """The cooperative deterministic simulator (``backend="sim"``).

    Extra session options are forwarded to :class:`Machine` —
    ``trace=True``, ``faults=...``, ``retry=...``, ``fast_paths=...``
    all work exactly as on a hand-built machine.
    """

    name = "sim"

    def session(self, config: MachineConfig | None = None, *,
                n_pes: int | None = None, **opts: Any) -> SimulatorSession:
        return SimulatorSession(resolve_config(config, n_pes), **opts)
