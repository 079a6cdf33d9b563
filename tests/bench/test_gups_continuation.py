"""GUPs' update stream as a continuation: indistinguishable from a
thread per PE.

On the direct-handoff engine each PE's update loop
(:func:`~repro.bench.gups._update_stream`, a generator) parks as an
engine continuation before any get, put or amo that would yield, and whichever
thread would wake the PE runs its updates on.  ``Machine(fast_paths=False)``
runs the same loop to its end on each PE's own thread, every operation
yielding in place, and is the oracle: per-PE results, final clocks,
memory bytes (the table included), ``SimStats``, cache and network
state, the event trace and span tree, and under fault injection the
fired faults and the error, must agree bit for bit.  The other backends
run the same loop: vec drives it as a continuation on its own engine
and must read as before, mp runs it straight through.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bench.gups import GupsParams, _gups_pe, run_gups_backend
from repro.faults.plan import FaultPlan, crash, stall
from repro.params import MachineConfig
from repro.runtime import Machine
from repro.sim.spans import build_span_forest, walk

from ..conftest import small_config

PARAMS = GupsParams(log2_table_size=11, updates_per_pe=128, seed=2)


def _observe(config, params, **machine_kw) -> dict:
    """Everything a GUPs run leaves behind, its error included."""
    machine = Machine(config, **machine_kw)
    seen = {}
    try:
        seen["results"] = machine.run(_gups_pe,
                                      [(params,)] * config.n_pes)
    except Exception as exc:  # noqa: BLE001 - compared below
        cause = exc.__cause__
        seen["error"] = (type(exc), str(exc), type(cause), str(cause))
    if machine.faults is not None:
        seen["fired"] = machine.faults.fired
    trace = machine.engine.trace
    if trace.enabled:
        seen["events"] = [
            (e.time_ns, e.pe, e.kind, e.detail, e.span_id, e.parent_id,
             e.dur_ns, e.attrs) for e in trace]
        seen["spans"] = [
            (s.sid, s.parent_id, s.pe, s.kind, s.name, s.t0, s.t1,
             s.attrs, len(s.children))
            for s in walk(build_span_forest(trace))]
    net = machine.network
    return seen | {
        "clocks": [pe.clock for pe in machine.engine.pes],
        "memory": [hashlib.sha256(mem.buf).hexdigest()
                   for mem in machine.memories],
        "stats": machine.stats,
        "caches": [
            (hier.stat_tuple(), hier.l1.writebacks, hier.l2.writebacks)
            for hier in map(machine.hierarchy_of, range(config.n_pes))],
        "network": (net._link_free, net._bus_free, net._fabric_free,
                    net.max_delivery),
    }


def assert_stream_drivers_agree(config, params=PARAMS, **machine_kw):
    continued = _observe(config, params, **machine_kw)
    own_threads = _observe(config, params, fast_paths=False, **machine_kw)
    assert continued.keys() == own_threads.keys()
    for what in continued:
        assert continued[what] == own_threads[what], what
    return continued


@pytest.mark.parametrize("use_amo", [False, True], ids=["get-put", "amo"])
@pytest.mark.parametrize("n_pes", [1, 2, 4, 8])
def test_updates_agree(n_pes, use_amo):
    params = GupsParams(log2_table_size=11, updates_per_pe=128, seed=2,
                        use_amo=use_amo)
    seen = assert_stream_drivers_agree(small_config(n_pes), params)
    assert seen["results"][0]["updates"] == 128
    if use_amo:
        assert seen["results"][0]["errors"] == 0


def test_isa_fidelity_agrees():
    """Every remote element runs on the functional cores."""
    assert_stream_drivers_agree(small_config(4, fidelity="isa"),
                                GupsParams(log2_table_size=10,
                                           updates_per_pe=48, seed=1))


def test_a_traced_run_agrees():
    """The same events and span tree, ids included."""
    seen = assert_stream_drivers_agree(small_config(4), trace=True)
    kinds = {span[4] for span in seen["spans"]}
    assert {"get", "put"} <= kinds


def test_stalls_and_a_crash_mid_stream_agree():
    """Stalls fire at the checkpoint before a get or put, in whichever
    thread runs the stream; a crash there kills the PE with the same
    error and leaves every clock where a thread per PE leaves it."""
    n_pes = 4
    stalls = tuple(stall(pe, t, 70.0 + 30.0 * pe)
                   for pe in range(n_pes)
                   for t in np.arange(3_000.0 + 450.0 * pe, 60_000.0,
                                      2_900.0))
    plan = FaultPlan(seed=5, rules=stalls + (crash(2, 21_000.0),))
    seen = assert_stream_drivers_agree(small_config(n_pes), faults=plan)
    assert "error" in seen
    fired = [kind for _, kind, *_ in seen["fired"]]
    assert "crash" in fired and "stall" in fired


def _backend_config(n_pes: int) -> MachineConfig:
    return MachineConfig(n_pes=n_pes, memory_bytes_per_pe=4 * 1024 * 1024,
                         symmetric_heap_bytes=2 * 1024 * 1024,
                         collective_scratch_bytes=256 * 1024)


#: ``sim_seconds`` of vec runs at seed 3, 2^12 words and 256 updates per
#: PE, measured when every PE's updates ran on its own thread.
VEC_SECONDS = {
    (2, False): 5.4103720000000206e-05,
    (8, False): 0.00013316952000001466,
    (2, True): 4.584892000000017e-05,
    (8, True): 8.910720000000287e-05,
}


@pytest.mark.parametrize("n_pes, use_amo", sorted(VEC_SECONDS))
def test_vec_reads_as_before(n_pes, use_amo):
    params = GupsParams(log2_table_size=12, updates_per_pe=256, seed=3,
                        use_amo=use_amo)
    res = run_gups_backend(_backend_config(n_pes), params, backend="vec")
    assert res.sim_seconds == VEC_SECONDS[n_pes, use_amo]
    assert res.errors == 0 and res.total_updates == 256 * n_pes


@pytest.mark.parametrize("use_amo", [False, True], ids=["get-put", "amo"])
def test_mp_runs_the_stream_to_the_end(use_amo):
    params = GupsParams(log2_table_size=12, updates_per_pe=256, seed=3,
                        use_amo=use_amo)
    res = run_gups_backend(_backend_config(2), params, backend="mp")
    assert res.total_updates == 512 and res.passed
    if use_amo:  # atomics lose no update, whatever the interleaving
        assert res.errors == 0


def test_mp_amo_run_loses_no_update_of_its_own():
    """On mp the PEs run in parallel: a 16-word table makes a PE's own
    updates and its peer's ``eamoxor.d`` hit the same words all the
    time, and an amo run must still lose none of them (a plain xor for
    the local ones lost about every word)."""
    params = GupsParams(log2_table_size=4, updates_per_pe=4096, seed=3,
                        use_amo=True)
    res = run_gups_backend(_backend_config(2), params, backend="mp")
    assert res.total_updates == 8192 and res.errors == 0
