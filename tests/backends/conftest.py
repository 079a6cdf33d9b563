"""Fixtures for the backend suites: cached worker pools + leak checks.

Spawning a worker pool per test would dominate the suite's runtime, so
one :class:`~repro.backends.mp.MPSession` per PE count is shared across
the whole session and torn down at the end — which is itself a test:
the session-level finalizer asserts that closing the pools leaves no
worker process and no ``/dev/shm`` segment behind.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import pytest

from repro.backends import MPSession, SimulatorBackend, VecBackend

from ..conftest import small_config

#: Where POSIX shared memory lives (segment leak checks).
SHM_DIR = "/dev/shm"


def xbgas_segments() -> list[str]:
    """All xbgas shared-memory segments currently in ``/dev/shm``."""
    try:
        return sorted(f for f in os.listdir(SHM_DIR) if f.startswith("xbgas-"))
    except FileNotFoundError:  # non-tmpfs platform: skip-only suites
        return []


def xbgas_children() -> list[mp.Process]:
    """Live PE worker processes spawned from this process."""
    return [p for p in mp.active_children()
            if (p.name or "").startswith("xbgas-pe")]


class _SessionCache:
    """Lazily built, session-shared MPSession per PE count."""

    def __init__(self):
        self._sessions: dict[tuple, MPSession] = {}

    def get(self, n_pes: int, **config) -> MPSession:
        """The session of ``n_pes`` PEs on ``small_config(n_pes,
        **config)``."""
        key = (n_pes, *sorted(config.items()))
        if key not in self._sessions:
            self._sessions[key] = MPSession(small_config(n_pes, **config),
                                            timeout=60.0)
        return self._sessions[key]

    def close_all(self) -> None:
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()


@pytest.fixture(scope="session")
def mp_sessions():
    """Shared MPSession cache; the teardown doubles as a leak test."""
    before_segments = xbgas_segments()
    cache = _SessionCache()
    yield cache
    cache.close_all()
    assert xbgas_children() == [], "worker processes leaked past close()"
    leaked = [s for s in xbgas_segments() if s not in before_segments]
    assert leaked == [], f"shared-memory segments leaked: {leaked}"


@pytest.fixture(scope="session")
def sim_backend() -> SimulatorBackend:
    return SimulatorBackend()


@pytest.fixture(scope="session")
def vec_backend() -> VecBackend:
    """Vectorized backend; worlds are per-run, so no cache is needed."""
    return VecBackend()
