"""Execution backends: the same xbrtime programs, three substrates.

* ``"sim"`` — the deterministic cooperative simulator (modelled time).
* ``"mp"`` — true-parallel worker processes over shared memory
  (wall-clock time); alias ``"multiprocessing"``.
* ``"vec"`` — the vectorized batch evaluator: compiled schedules run as
  numpy fan-outs over all ranks at once (modelled time, closed-form
  costs); the large-PE substrate.

Select one by name::

    from repro.backends import get_backend

    results = get_backend("mp").run(program, n_pes=8)

or through the top-level convenience API
(:func:`repro.xbrtime.init` / :func:`repro.xbrtime.run`).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from .base import Backend, BackendSession, resolve_config
from .mp import MPContext, MPSession, MultiprocessingBackend
from .sim import SimulatorBackend, SimulatorSession
from .vec import VecBackend, VecContext, VecSession

__all__ = [
    "Backend",
    "BackendSession",
    "BACKENDS",
    "get_backend",
    "launch",
    "resolve_config",
    "SimulatorBackend",
    "SimulatorSession",
    "MultiprocessingBackend",
    "MPSession",
    "MPContext",
    "VecBackend",
    "VecSession",
    "VecContext",
]

#: Registry of selectable backends (aliases included).
BACKENDS: dict[str, type[Backend]] = {
    "sim": SimulatorBackend,
    "mp": MultiprocessingBackend,
    "multiprocessing": MultiprocessingBackend,
    "vec": VecBackend,
}


def get_backend(name: str) -> Backend:
    """Instantiate a backend by registry name (``"sim"`` / ``"mp"`` / ``"vec"``)."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from "
            f"{sorted(set(BACKENDS))}"
        ) from None
    return cls()


def launch(fn: Callable[..., Any], *, backend: str = "sim",
           n_pes: int | None = None, config=None,
           args_per_pe: Sequence[tuple] | None = None,
           **opts: Any) -> list[Any]:
    """One-shot: run ``fn(ctx, *extra)`` on every PE of ``backend``."""
    return get_backend(backend).run(fn, args_per_pe, config=config,
                                    n_pes=n_pes, **opts)
