"""The evaluator's data kernels against a per-element reference loop.

``_window`` views every strided run of an arena row at once; ``_gather``
copies runs out of it and ``_scatter`` writes runs back, one lane per
``(row, start)``.  The reference below moves one element's bytes at a
time, the way the schedule's contract reads: element ``k`` of a lane
starting at byte ``a`` is ``itemsize`` bytes at ``a + k * stride *
itemsize``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.schedule.evaluate import _gather, _scatter, _window

#: One dtype per item size the arena can carry.
DTYPES = {1: np.dtype(np.uint8), 2: np.dtype(np.int16),
          4: np.dtype(np.float32), 8: np.dtype(np.int64),
          16: np.dtype(np.complex128)}


def _span(nelems: int, stride: int, itemsize: int) -> int:
    return (nelems - 1) * stride * itemsize + itemsize


def ref_gather(mem, rows, starts, nelems, stride, itemsize) -> np.ndarray:
    out = np.zeros((len(rows), nelems * itemsize), dtype=np.uint8)
    for i, (r, a) in enumerate(zip(rows, starts)):
        for k in range(nelems):
            at = a + k * stride * itemsize
            out[i, k * itemsize:(k + 1) * itemsize] = mem[r, at:at + itemsize]
    return out


def ref_scatter(mem, rows, starts, nelems, stride, itemsize, raw) -> None:
    for i, (r, a) in enumerate(zip(rows, starts)):
        for k in range(nelems):
            at = a + k * stride * itemsize
            mem[r, at:at + itemsize] = raw[i, k * itemsize:(k + 1) * itemsize]


@st.composite
def cases(draw):
    itemsize = draw(st.sampled_from(sorted(DTYPES)))
    stride = draw(st.integers(1, 4))
    nelems = draw(st.integers(1, 6))
    span = _span(nelems, stride, itemsize)
    n_rows = draw(st.integers(1, 4))
    width = span + draw(st.integers(0, 48))
    last = width - span
    aligned = draw(st.booleans())
    n_lanes = draw(st.integers(1, 6))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=n_lanes,
                         max_size=n_lanes))
    starts = draw(st.lists(st.integers(0, last), min_size=n_lanes,
                           max_size=n_lanes))
    if aligned:
        starts = [a - a % itemsize for a in starts]
    if draw(st.booleans()):
        # A run that ends on the arena's last byte.
        rows[0], starts[0] = n_rows - 1, last
    seed = draw(st.integers(0, 2**32 - 1))
    return itemsize, stride, nelems, n_rows, width, rows, starts, seed


def _arena(n_rows, width, seed):
    return np.random.default_rng(seed).integers(
        0, 256, size=(n_rows, width), dtype=np.uint8)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_gather_matches_the_element_loop(case):
    itemsize, stride, nelems, n_rows, width, rows, starts, seed = case
    mem = _arena(n_rows, width, seed)
    before = mem.copy()
    dtype = DTYPES[itemsize]
    got = _gather(_window(mem, nelems, stride, dtype),
                  np.array(rows), np.array(starts))
    assert got.dtype == dtype and got.shape == (len(rows), nelems)
    assert got.flags.c_contiguous
    want = ref_gather(mem, rows, starts, nelems, stride, itemsize)
    assert np.array_equal(got.view(np.uint8).reshape(len(rows), -1), want)
    got[...] = 0  # a copy, never a view of the arena
    assert np.array_equal(mem, before)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_scatter_matches_the_element_loop(case):
    itemsize, stride, nelems, n_rows, width, rows, starts, seed = case
    mem = _arena(n_rows, width, seed)
    want = mem.copy()
    raw = np.random.default_rng(seed + 1).integers(
        0, 256, size=(len(rows), nelems * itemsize), dtype=np.uint8)
    dtype = DTYPES[itemsize]
    _scatter(_window(mem, nelems, stride, dtype), np.array(rows),
             np.array(starts), raw.view(dtype))
    ref_scatter(want, rows, starts, nelems, stride, itemsize, raw)
    assert np.array_equal(mem, want)


@pytest.mark.parametrize("itemsize", sorted(DTYPES))
def test_repeated_lanes_last_write_wins(itemsize):
    dtype = DTYPES[itemsize]
    mem = np.zeros((2, 64), dtype=np.uint8)
    raw = np.arange(3 * 2 * itemsize, dtype=np.uint8).reshape(3, -1) + 1
    rows, starts = np.array([1, 1, 1]), np.array([3, 3, 3])
    _scatter(_window(mem, 2, 2, dtype), rows, starts, raw.view(dtype))
    want = np.zeros_like(mem)
    ref_scatter(want, rows, starts, 2, 2, itemsize, raw)
    assert np.array_equal(mem, want)
    assert np.array_equal(ref_gather(mem, [1], [3], 2, 2, itemsize), raw[2:])


@pytest.mark.parametrize("itemsize", sorted(DTYPES))
@pytest.mark.parametrize("stride", [1, 3])
def test_out_of_range_starts_raise(itemsize, stride):
    dtype, nelems, width = DTYPES[itemsize], 3, 160
    mem = _arena(2, width, itemsize)
    before = mem.copy()
    win = _window(mem, nelems, stride, dtype)
    last = width - _span(nelems, stride, itemsize)
    _gather(win, np.array([1]), np.array([last]))
    vals = np.zeros((1, nelems), dtype)
    for bad in (-1, -itemsize, -last - 1, last + 1, width):
        with pytest.raises(IndexError):
            _gather(win, np.array([0, 1]), np.array([0, bad]))
        with pytest.raises(IndexError):
            _scatter(win, np.array([1]), np.array([bad]), vals)
    assert np.array_equal(mem, before)


def test_a_run_longer_than_the_row_has_no_start():
    mem = np.zeros((1, 16), dtype=np.uint8)
    win = _window(mem, 3, 1, DTYPES[8])
    assert win.shape == (1, 0, 3)
    with pytest.raises(IndexError):
        _gather(win, np.array([0]), np.array([0]))
