"""The benchmarks refuse a class that does not fit before any PE starts.

GUPs and NAS IS each check their live allocations against the machine's
segment layout (``check_config``) in ``run_gups``, ``run_gups_backend``
and ``run_is``: a table or key set too large for the symmetric heap, or
a staging buffer too large for the private segment, raises
``CollectiveArgumentError`` naming both sizes instead of failing inside
PE 0 part-way through the simulated run.
"""

from __future__ import annotations

import pytest

from repro import backends
from repro.bench import gups as gups_mod
from repro.bench import nas_is as is_mod
from repro.bench.gups import GupsParams, run_gups, run_gups_backend
from repro.bench.nas_is import IsParams, run_is
from repro.bench.paper import FIG4_PARAMS, FIG5_PARAMS, PE_COUNTS
from repro.errors import CollectiveArgumentError
from repro.params import MachineConfig
from repro.runtime.symmetric_heap import (
    CODE_REGION_BYTES,
    FreeListAllocator,
    segment_layout,
)


@pytest.fixture
def no_pe_starts(monkeypatch):
    """Fail the test if a machine or a backend is started."""
    def started(*args, **kwargs):
        raise AssertionError("a PE was started")

    monkeypatch.setattr(gups_mod, "Machine", started)
    monkeypatch.setattr(is_mod, "Machine", started)
    monkeypatch.setattr(is_mod, "generate_keys", started)
    monkeypatch.setattr(backends, "get_backend", started)


class TestRefusedBeforeAnyPe:
    def test_gups_table_larger_than_the_heap(self, no_pe_starts):
        params = GupsParams(log2_table_size=30, updates_per_pe=4)
        for run in (run_gups, run_gups_backend):
            with pytest.raises(CollectiveArgumentError,
                               match=r"needs 4294967328 B of symmetric heap "
                                     r"per PE but .* has 46137344 B"):
                run(MachineConfig(n_pes=2), params)

    def test_is_class_a_on_one_pe(self, no_pe_starts):
        with pytest.raises(CollectiveArgumentError,
                           match=r"class A on 1 PEs needs \d+ B of symmetric "
                                 r"heap per PE but .* has 46137344 B"):
            run_is(MachineConfig(n_pes=1),
                   IsParams(problem_class="A", max_iterations=1))

    def test_is_staging_larger_than_the_private_segment(self, no_pe_starts):
        # The heap is large enough; the private segment left below it
        # (64 KiB of code, then 4 KiB) is not for 2^14 keys' staging.
        config = MachineConfig(n_pes=1, memory_bytes_per_pe=(8 << 20)
                               + CODE_REGION_BYTES + 4096,
                               symmetric_heap_bytes=8 << 20,
                               collective_scratch_bytes=1 << 20)
        with pytest.raises(CollectiveArgumentError,
                           match=r"needs 65552 B of private segment per PE "
                                 r"but the configuration has 4096 B"):
            run_is(config, IsParams(problem_class="S-scaled",
                                    max_iterations=1))


@pytest.mark.parametrize("n_pes", PE_COUNTS)
def test_the_paper_records_still_fit(n_pes):
    """Every configuration Figures 4 and 5 run passes the check."""
    FIG4_PARAMS.check_config(MachineConfig(n_pes=n_pes))
    FIG5_PARAMS.check_config(MachineConfig(n_pes=n_pes))


def peaks(monkeypatch, run) -> dict[int, int]:
    """Most bytes each allocator (by base address) held during ``run``."""
    seen: dict[int, int] = {}
    real = FreeListAllocator.alloc

    def alloc(self, nbytes, align=16):
        addr = real(self, nbytes, align)
        seen[self.base] = max(seen.get(self.base, 0), self.bytes_allocated)
        return addr

    monkeypatch.setattr(FreeListAllocator, "alloc", alloc)
    run()
    monkeypatch.undo()
    return seen


def shrunk(config: MachineConfig, heap: int, private: int) -> MachineConfig:
    """``config`` with exactly ``heap`` bytes of symmetric heap and
    ``private`` bytes of private segment."""
    scratch = config.collective_scratch_bytes
    return MachineConfig(
        n_pes=config.n_pes, collective_scratch_bytes=scratch,
        symmetric_heap_bytes=scratch + heap,
        memory_bytes_per_pe=scratch + heap + CODE_REGION_BYTES + private)


@pytest.mark.parametrize("bench", ["gups", "is"])
def test_footprint_covers_what_a_small_run_allocates(monkeypatch, bench):
    """A configuration one byte short of a small run's peak, in either
    segment, is refused: the check never passes a run that would run out
    of memory.  It asks for no more than the last block's alignment pad
    beyond that peak."""
    config = MachineConfig(n_pes=4, memory_bytes_per_pe=8 << 20,
                           symmetric_heap_bytes=4 << 20,
                           collective_scratch_bytes=512 << 10)
    if bench == "gups":
        params = GupsParams(log2_table_size=12, updates_per_pe=64)
        seen = peaks(monkeypatch, lambda: run_gups(config, params))
    else:
        params = IsParams(problem_class="S-scaled", max_iterations=2,
                          log2_n_buckets=6)
        seen = peaks(monkeypatch, lambda: run_is(config, params))
    layout = segment_layout(config)
    heap = seen[layout.heap_base + layout.scratch_bytes]
    private = seen[CODE_REGION_BYTES]
    params.check_config(shrunk(config, heap + 15, private + 15))
    for short in (shrunk(config, heap - 1, private),
                  shrunk(config, heap, private - 1)):
        with pytest.raises(CollectiveArgumentError, match="needs"):
            params.check_config(short)
