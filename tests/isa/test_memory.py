"""Tests for the per-PE byte-addressable memory."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.isa.memory import Memory


class TestScalarAccess:
    def test_little_endian(self):
        m = Memory(64)
        m.store(0, 4, 0x12345678)
        assert m.load(0, 1) == 0x78
        assert m.load(3, 1) == 0x12

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_widths_roundtrip(self, width):
        m = Memory(64)
        value = (1 << (8 * width)) - 2
        m.store(8, width, value)
        assert m.load(8, width) == value

    def test_signed_load(self):
        m = Memory(16)
        m.store(0, 2, 0xFFFE)
        assert m.load(0, 2, signed=True) == -2
        assert m.load(0, 2, signed=False) == 0xFFFE

    def test_store_truncates(self):
        m = Memory(16)
        m.store(0, 1, 0x1FF)
        assert m.load(0, 1) == 0xFF

    def test_bad_width(self):
        m = Memory(16)
        with pytest.raises(AddressError):
            m.load(0, 3)

    @pytest.mark.parametrize("addr,nbytes", [(-1, 8), (60, 8), (64, 1)])
    def test_out_of_bounds(self, addr, nbytes):
        m = Memory(64)
        with pytest.raises(AddressError):
            m.load(addr, min(nbytes, 8))

    @given(st.integers(0, 56), st.integers(0, (1 << 64) - 1))
    def test_store_load_property(self, addr, value):
        m = Memory(64)
        m.store(addr, 8, value)
        assert m.load(addr, 8) == value


class TestViews:
    def test_view_aliases_memory(self):
        m = Memory(128)
        v = m.view(16, np.int32, 4)
        v[:] = [1, 2, 3, 4]
        assert m.load(16, 4) == 1
        assert m.load(28, 4) == 4

    def test_strided_view(self):
        m = Memory(256)
        v = m.view(0, np.int64, 4, stride=2)
        v[:] = [10, 20, 30, 40]
        assert m.load(0, 8) == 10
        assert m.load(16, 8) == 20
        assert m.load(8, 8) == 0  # the gap is untouched

    def test_misaligned_view_and_ragged_size(self):
        """Aligned views are slices of the whole memory seen as the
        dtype; an address off the element grid, or a memory whose size
        is not a whole number of elements, must alias the same bytes."""
        m = Memory(67)
        off_grid = m.view(3, np.int64, 3, stride=2)
        off_grid[:] = [7, 8, 9]
        assert [m.load(3 + 16 * i, 8) for i in range(3)] == [7, 8, 9]
        last = m.view(56, np.int64, 1)  # the last whole element
        last[0] = 11
        assert m.load(56, 8) == 11
        with pytest.raises(AddressError):
            m.view(64, np.int64, 1)
        assert m.view(64, np.uint8, 3).size == 3

    def test_view_bounds_checked(self):
        m = Memory(64)
        with pytest.raises(AddressError):
            m.view(0, np.int64, 9)
        with pytest.raises(AddressError):
            m.view(32, np.int64, 4, stride=2)

    def test_zero_count_view(self):
        m = Memory(64)
        assert m.view(0, np.int64, 0).size == 0

    def test_bad_stride(self):
        m = Memory(64)
        with pytest.raises(AddressError):
            m.view(0, np.int64, 2, stride=0)

    def test_read_bytes_is_readonly(self):
        m = Memory(64)
        v = m.read_bytes(0, 8)
        with pytest.raises(ValueError):
            v[0] = 1

    def test_write_bytes(self):
        m = Memory(64)
        m.write_bytes(4, b"\x01\x02\x03")
        assert m.load(4, 1) == 1
        assert m.load(6, 1) == 3

    def test_fill(self):
        m = Memory(64)
        m.fill(0, 64, 0xAB)
        assert m.load(10, 1) == 0xAB

    @given(st.integers(1, 16), st.integers(1, 4))
    def test_strided_view_property(self, count, stride):
        m = Memory(4096)
        v = m.view(64, np.int16, count, stride=stride)
        data = np.arange(count, dtype=np.int16)
        v[:] = data
        for i in range(count):
            assert m.load(64 + 2 * i * stride, 2) == i
