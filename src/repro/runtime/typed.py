"""The explicit per-type call surface of the xBGAS API (Table 1).

The paper deliberately exposes one call per element type —
``xbrtime_int_put``, ``xbrtime_double_broadcast``,
``xbrtime_ulong_reduce_max``, ... — arguing explicit naming is more
intuitive than OpenSHMEM's size-suffixed calls (section 4.7).  This
module generates the equivalent Python methods on the context core
(:class:`~repro.runtime.collective_api.CollectiveAPI`), so every
backend's context carries the same ones:

* ``ctx.<TYPENAME>_put / _get / _put_nb / _get_nb``
* ``ctx.<TYPENAME>_broadcast``
* ``ctx.<TYPENAME>_reduce_<OP>`` for OP in sum/prod/min/max (+ and/or/
  xor for non-floating-point types, per section 4.4)
* ``ctx.<TYPENAME>_scatter / _gather``

:data:`TYPED_METHOD_NAMES` lists every generated name so tests can
assert the full surface exists.
"""

from __future__ import annotations

from typing import Callable

from ..types import TYPE_TABLE, TypeInfo

__all__ = ["install_typed_api", "TYPED_METHOD_NAMES"]

#: Reduction operators available for every type.
_ALWAYS_OPS = ("sum", "prod", "min", "max")
#: Reduction operators restricted to non-floating-point types.
_BITWISE_OPS = ("and", "or", "xor")
#: Remote-atomic operators (64-bit integer types only, ``eamoOP.d``).
_AMO_OPS = ("add", "xor", "and", "or", "swap", "min", "max")

TYPED_METHOD_NAMES: list[str] = []


def _make_p2p(t: TypeInfo, base: str) -> Callable:
    dtype = t.dtype

    def method(self, dest, src, nelems, stride, pe):
        return getattr(self, base)(dest, src, nelems, stride, pe, dtype)

    method.__name__ = f"{t.typename}_{base}"
    method.__qualname__ = f"XBRTime.{method.__name__}"
    method.__doc__ = (
        f"``xbrtime_{t.typename}_{base}``: {base} of ``{t.ctype}`` elements."
    )
    return method


def _make_broadcast(t: TypeInfo) -> Callable:
    dtype = t.dtype

    def method(self, dest, src, nelems, stride, root):
        return self.broadcast(dest, src, nelems, stride, root, dtype)

    method.__name__ = f"{t.typename}_broadcast"
    method.__qualname__ = f"XBRTime.{method.__name__}"
    method.__doc__ = (
        f"``xbrtime_{t.typename}_broadcast``: binomial-tree broadcast of "
        f"``{t.ctype}`` elements (Algorithm 1)."
    )
    return method


def _make_reduce(t: TypeInfo, op: str) -> Callable:
    dtype = t.dtype

    def method(self, dest, src, nelems, stride, root):
        return self.reduce(dest, src, nelems, stride, root, op, dtype)

    method.__name__ = f"{t.typename}_reduce_{op}"
    method.__qualname__ = f"XBRTime.{method.__name__}"
    method.__doc__ = (
        f"``xbrtime_{t.typename}_reduce_{op}``: binomial-tree {op} "
        f"reduction of ``{t.ctype}`` elements (Algorithm 2)."
    )
    return method


def _make_vector(t: TypeInfo, base: str) -> Callable:
    dtype = t.dtype

    def method(self, dest, src, pe_msgs, pe_disp, nelems, root):
        return getattr(self, base)(dest, src, pe_msgs, pe_disp, nelems,
                                   root, dtype)

    method.__name__ = f"{t.typename}_{base}"
    method.__qualname__ = f"XBRTime.{method.__name__}"
    method.__doc__ = (
        f"``xbrtime_{t.typename}_{base}``: binomial-tree {base} of "
        f"``{t.ctype}`` elements (Algorithms 3-4)."
    )
    return method


def _make_amo(t: TypeInfo, op: str) -> Callable:
    dtype = t.dtype

    def method(self, addr, value, pe):
        return self.amo(addr, value, pe, op, dtype)

    method.__name__ = f"{t.typename}_atomic_{op}"
    method.__qualname__ = f"XBRTime.{method.__name__}"
    method.__doc__ = (
        f"Remote atomic {op} of a ``{t.ctype}`` (xBGAS ``eamo{op}.d``)."
    )
    return method


def install_typed_api(cls: type) -> None:
    """Attach every per-TYPENAME method to ``cls`` (idempotent)."""
    if getattr(cls, "_typed_api_installed", False):
        return
    for t in TYPE_TABLE:
        methods: list[Callable] = [
            _make_p2p(t, "put"),
            _make_p2p(t, "get"),
            _make_p2p(t, "put_nb"),
            _make_p2p(t, "get_nb"),
            _make_broadcast(t),
            _make_vector(t, "scatter"),
            _make_vector(t, "gather"),
        ]
        ops = _ALWAYS_OPS if t.is_float else _ALWAYS_OPS + _BITWISE_OPS
        for op in ops:
            methods.append(_make_reduce(t, op))
        if not t.is_float and t.nbytes == 8:
            for op in _AMO_OPS:
                methods.append(_make_amo(t, op))
        for m in methods:
            # Table 1 aliases distinct TYPENAMEs to the same C type
            # (e.g. ulong and ulonglong) — each still gets its own call.
            setattr(cls, m.__name__, m)
            if m.__name__ not in TYPED_METHOD_NAMES:
                TYPED_METHOD_NAMES.append(m.__name__)
    cls._typed_api_installed = True
