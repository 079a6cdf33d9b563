"""Reduction operators (paper section 4.4).

The reduction collective supports sum, product, min and max for every
Table 1 type, plus bitwise AND/OR/XOR for the non-floating-point types.
Requesting a bitwise reduction of a float type raises
:class:`~repro.errors.ReductionOpError`, mirroring the restriction.

Arithmetic follows C semantics for the modelled types: fixed-width
integer operations wrap modulo 2^width, which numpy provides natively.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ReductionOpError

__all__ = ["REDUCE_OPS", "BITWISE_OPS", "check_op", "apply_op", "identity_of"]

REDUCE_OPS: tuple[str, ...] = ("sum", "prod", "min", "max", "and", "or", "xor")
BITWISE_OPS: tuple[str, ...] = ("and", "or", "xor")

_FUNCS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
}


def check_op(op: str, dtype: np.dtype) -> None:
    """Validate ``op`` against ``dtype`` (floats reject bitwise ops)."""
    if op not in REDUCE_OPS:
        raise ReductionOpError(
            f"unknown reduction op {op!r}; expected one of {REDUCE_OPS}"
        )
    if op in BITWISE_OPS and np.dtype(dtype).kind == "f":
        raise ReductionOpError(
            f"bitwise reduction {op!r} is not defined for floating-point "
            f"type {np.dtype(dtype)} (paper section 4.4)"
        )


def apply_op(op: str, acc: np.ndarray, value: np.ndarray) -> None:
    """``acc = acc OP value`` elementwise, in place."""
    func = _FUNCS.get(op)
    dt = acc.dtype
    if func is not None and value.dtype == dt and dt.kind in "iu":
        # Integer array ufuncs wrap (C semantics) without a warning.
        func(acc, value, out=acc)
        return
    check_op(op, dt)
    with np.errstate(over="ignore"):  # C integer semantics: wraparound
        func(acc, value.astype(dt, copy=False), out=acc)


def identity_of(op: str, dtype: np.dtype) -> np.generic:
    """The identity element of ``op`` over ``dtype``."""
    dt = np.dtype(dtype)
    check_op(op, dt)
    if op == "sum":
        return dt.type(0)
    if op == "prod":
        return dt.type(1)
    if op == "min":
        if dt.kind == "f":
            return dt.type(np.inf)
        return np.iinfo(dt).max if dt.kind in "iu" else dt.type(0)
    if op == "max":
        if dt.kind == "f":
            return dt.type(-np.inf)
        return np.iinfo(dt).min if dt.kind in "iu" else dt.type(0)
    if op == "and":
        return dt.type(-1) if dt.kind == "i" else np.iinfo(dt).max
    # or / xor
    return dt.type(0)
