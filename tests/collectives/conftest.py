"""Fixtures shared by the collectives tests."""

from __future__ import annotations

import pytest

from repro.collectives.schedule import registry


@pytest.fixture(scope="session")
def builtin_schedules():
    """:func:`~repro.collectives.schedule.registry.builtin_schedules`,
    compiled once per session: called with that function's arguments,
    it returns the ``(label, schedule)`` list, the same on every call."""
    compiled: dict = {}

    def schedules(pe_counts=tuple(range(1, 17)), nelems=12, itemsize=8,
                  pairs=None) -> list:
        key = (tuple(pe_counts), nelems, itemsize,
               None if pairs is None else frozenset(pairs))
        if key not in compiled:
            compiled[key] = list(registry.builtin_schedules(
                pe_counts, nelems, itemsize, pairs))
        return compiled[key]

    return schedules
