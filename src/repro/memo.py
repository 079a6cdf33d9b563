"""A dict that fills itself.

``Memo(fn)[key]`` calls ``fn(key)`` the first time and is a plain dict
hit — no Python frame — every time after.  The per-operation hot paths
(a remote element crosses the transfer engine, the memory model and the
network once each) keep their derived constants in one: the loop cost
per element count, a PE's node, a memory's word view.  Nothing is
stored when ``fn`` raises, so a bad key fails the same way every time.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

__all__ = ["Memo"]


class Memo(dict):
    """``memo[key]`` is ``fn(key)``, computed once per key."""

    def __init__(self, fn: Callable[[Any], Any]):
        super().__init__()
        self._fn = fn

    def __missing__(self, key: Hashable) -> Any:
        value = self[key] = self._fn(key)
        return value
