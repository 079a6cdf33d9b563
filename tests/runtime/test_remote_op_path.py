"""The one path every one-sided operation takes, pinned three ways.

*Equivalence.*  Random programs of one-sided operations run on
``Machine()`` and on ``Machine(fast_paths=False)`` — the direct-handoff
scheduler and batched memory costing against the scheduler-bounce engine
and the per-line oracle.  Per-PE clocks, every ``SimStats`` counter,
every cache's LRU state, TLB contents and all memory bytes must be
equal, and an operation that raises must leave all of that untouched.

*Frozen digests.*  Both arms share the transfer code, so the transfer
code itself is pinned against ``tests/runtime/remote_op_digests.json``:
sha256 over the same state for 200 fixed-seed programs of the same
generator, once plain, once traced (every event and span attribute in
the digest), under a seeded fault plan with and without ack/retry, and
at ``fidelity="isa"``.  The file was generated on commit 6be6e30 (the last
one whose ``TransferEngine`` built numpy views for every element and
charged through ``pe.advance``); operations that raise and misaligned
atomics are left out of those programs, because a later commit changed
exactly those on purpose (rejected transfers are no longer counted,
misaligned atomics are refused).

*Frame budget.*  A perf gate with no clock in it: the number of
Python-level ``call`` events one warm remote one-element operation
costs on its PE thread.

To regenerate the digests after an *intended* model change:
``PYTHONPATH=src python -m tests.runtime.test_remote_op_path``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, TransferTimeoutError
from repro.faults import (
    FaultPlan,
    RetryConfig,
    corrupt,
    degrade,
    delay,
    drop,
)
from repro.params import MachineConfig
from repro.runtime import Machine
from repro.types import TYPENAMES, typeinfo

from ..conftest import small_memory

GOLDEN_PATH = Path(__file__).with_name("remote_op_digests.json")
N_DIGEST_PROGRAMS = 200
#: Most Python frames a warm remote one-element get / put / amo may cost.
FRAME_BUDGET = 18

MEMORY_BYTES = 256 * 1024
#: Each PE has one symmetric and one private buffer of two pages, both
#: page-aligned, so "just short of a page end" is a real page crossing.
BUF_BYTES = 8192
LINE, PAGE = 64, 4096
KINDS = ("put", "get", "put_nb", "get_nb", "amo")
AMO_OPS = ("add", "xor", "and", "or", "swap", "min", "max")


def _config(n_pes: int, **kw) -> MachineConfig:
    # Two cores per node: both the node bus and the fabric price.
    return MachineConfig(
        n_pes=n_pes, cores_per_node=2, memory_bytes_per_pe=MEMORY_BYTES,
        symmetric_heap_bytes=128 * 1024, collective_scratch_bytes=32 * 1024,
        mem=small_memory(), **kw)


# -- programs -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Op:
    issuer: int
    kind: str
    typename: str
    nelems: int
    stride: int
    target: int
    #: (buffer, byte offset) operands: 0 = symmetric, 1 = private.
    dest: tuple[int, int]
    src: tuple[int, int]
    value: int = 0
    amo_op: str = "add"
    #: An absolute address replacing the target-side operand; it lies
    #: outside memory, so the operation must raise ``AddressError``.
    bad_addr: int | None = None

    @property
    def raises(self) -> bool:
        return self.bad_addr is not None or (
            self.kind == "amo" and self.dest[1] % 8 != 0)


class _HypothesisDraws:
    """The two draws the generator needs, from a hypothesis ``data``."""

    def __init__(self, data):
        self._draw = data.draw

    def randint(self, lo: int, hi: int) -> int:
        return self._draw(st.integers(lo, hi))

    def choice(self, seq):
        return self._draw(st.sampled_from(seq))


def _offset(rnd, span: int, width: int) -> int:
    """Where in a buffer an access of ``span`` bytes starts: aligned,
    at any byte, or so that an element straddles a line or the page."""
    room = BUF_BYTES - span
    mode = rnd.randint(0, 3)
    if mode == 0:
        off = rnd.randint(0, room // width) * width
    elif mode == 1:
        off = rnd.randint(0, room)
    elif mode == 2:
        off = LINE * rnd.randint(1, 16) - rnd.randint(1, width)
    else:
        off = PAGE - rnd.randint(1, width)
    return min(off, room)


def gen_program(rnd, *, with_errors: bool,
                typenames=TYPENAMES) -> tuple[int, list[Op]]:
    """``(n_pes, ops)`` from ``rnd`` (``randint``/``choice``): a
    ``random.Random`` for the frozen digests, hypothesis draws for the
    equivalence test."""
    n_pes = rnd.randint(2, 5)
    ops = []
    for _ in range(rnd.randint(1, 40)):
        issuer = rnd.randint(0, n_pes - 1)
        target = rnd.randint(0, n_pes - 1)
        kind = rnd.choice(KINDS)
        bad = with_errors and rnd.randint(0, 9) == 0
        if kind == "amo":
            off = 8 * rnd.randint(0, BUF_BYTES // 8 - 1)
            if with_errors and rnd.randint(0, 4) == 0:
                off = min(off + rnd.randint(1, 7), BUF_BYTES - 8)
            ops.append(Op(
                issuer, kind, rnd.choice(("uint64", "int64")), 1, 1, target,
                (rnd.randint(0, 1), off), (0, 0),
                value=rnd.randint(0, (1 << 64) - 1),
                amo_op=rnd.choice(AMO_OPS),
                bad_addr=_bad_address(rnd, 8) if bad else None))
            continue
        typename = rnd.choice(typenames)
        width = typeinfo(typename).nbytes
        nelems = rnd.randint(0, 9)
        stride = rnd.randint(1, 12)
        span = ((max(nelems, 1) - 1) * stride + 1) * width
        ops.append(Op(
            issuer, kind, typename, nelems, stride, target,
            (rnd.randint(0, 1), _offset(rnd, span, width)),
            (rnd.randint(0, 1), _offset(rnd, span, width)),
            bad_addr=_bad_address(rnd, span) if bad and nelems else None))
    return n_pes, ops


def _bad_address(rnd, span: int) -> int:
    """An address whose ``span`` bytes do not fit in memory."""
    return rnd.choice((MEMORY_BYTES - rnd.randint(0, span - 1),
                       1 << 40, -rnd.randint(1, 64)))


# -- running a program --------------------------------------------------------


def _state(machine: Machine) -> list:
    """Everything an operation may change, as plain comparable values."""
    stats = []
    for f in dataclasses.fields(machine.stats):
        v = getattr(machine.stats, f.name)
        if isinstance(v, Counter):
            stats.append((f.name, sorted(v.items())))
        elif isinstance(v, float):
            stats.append((f.name, v.hex()))
        else:
            stats.append((f.name, v))
    hiers = [machine.hierarchy_of(r) for r in range(machine.config.n_pes)]
    return [
        [float(pe.clock).hex() for pe in machine.engine.pes],
        stats,
        [(h.stat_tuple(), h.l1.writebacks, h.l2.writebacks,
          h.l1.lru_state(), h.l2.lru_state(), list(h.tlb._entries))
         for h in hiers],
        [hashlib.sha256(m.buf.tobytes()).hexdigest()
         for m in machine.memories],
        float(machine.network.max_delivery).hex(),
    ]


def _pe_program(ctx, ops, seed):
    ctx.init()
    me = ctx.my_pe()
    bufs = (ctx.malloc(BUF_BYTES, PAGE), ctx.private_malloc(BUF_BYTES, PAGE))
    fill = random.Random(seed * 31 + me)
    for base in bufs:
        ctx.view(base, "uint8", BUF_BYTES)[:] = list(
            fill.randbytes(BUF_BYTES))
    ctx.barrier()
    machine = ctx.machine
    out = []
    for op in ops:
        if op.issuer != me:
            continue
        dest = bufs[op.dest[0]] + op.dest[1]
        src = bufs[op.src[0]] + op.src[1]
        if op.bad_addr is not None:
            if op.kind in ("get", "get_nb"):
                src = op.bad_addr
            else:
                dest = op.bad_addr
        before = _state(machine) if op.raises else None
        args = (dest, src, op.nelems, op.stride, op.target, op.typename)
        try:
            if op.kind == "put":
                ctx.put(*args)
            elif op.kind == "get":
                ctx.get(*args)
            elif op.kind == "put_nb":
                ctx.wait(ctx.put_nb(*args))
            elif op.kind == "get_nb":
                ctx.get_nb(*args)
                ctx.quiet()
            else:
                out.append(ctx.amo(dest, op.value, op.target, op.amo_op,
                                   op.typename))
        except AddressError:
            assert op.raises, f"{op} raised AddressError"
            assert _state(machine) == before, f"{op} raised and left a mark"
            out.append("AddressError")
        except TransferTimeoutError:
            out.append("TransferTimeoutError")  # fault runs only
        else:
            assert not op.raises, f"{op} should have raised AddressError"
    ctx.barrier()
    ctx.close()
    return out


def run_program(n_pes: int, ops, seed: int = 0, *, fidelity: str = "model",
                **machine_kw):
    """Run ``ops``; returns ``(machine, per-PE results)``."""
    machine = Machine(_config(n_pes, fidelity=fidelity), **machine_kw)
    results = machine.run(_pe_program,
                          [(ops, seed) for _ in range(n_pes)])
    return machine, results


# -- equivalence: fast paths vs the reference engine and memsys ---------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fast_and_reference_paths_agree(data):
    n_pes, ops = gen_program(_HypothesisDraws(data), with_errors=True)
    fast, fast_out = run_program(n_pes, ops)
    ref, ref_out = run_program(n_pes, ops, fast_paths=False)
    assert fast_out == ref_out
    assert _state(fast) == _state(ref)


def test_generator_reaches_the_cases_it_is_for():
    """The fixed-seed programs contain what the docstring promises."""
    seen = set()
    for seed in range(N_DIGEST_PROGRAMS):
        n_pes, ops = gen_program(random.Random(seed), with_errors=True)
        for op in ops:
            width = typeinfo(op.typename).nbytes
            seen.add(("kind", op.kind))
            seen.add(("width", width))
            seen.add("local" if op.target == op.issuer else "remote")
            seen.add("private" if op.dest[0] else "symmetric")
            if op.kind == "amo":
                seen.add("amo-misaligned" if op.dest[1] % 8 else "amo-ok")
                continue
            if op.nelems == 1 and op.stride * width > LINE:
                seen.add("one element, stride beyond a line")
            if op.nelems == 0:
                seen.add("zero elements")
            if op.dest[1] % width:
                seen.add("misaligned")
            if op.dest[1] // LINE != (op.dest[1] + width - 1) // LINE:
                seen.add("straddles a line")
            if op.dest[1] < PAGE < op.dest[1] + width:
                seen.add("straddles a page")
            if op.bad_addr is not None:
                seen.add("out of range")
    want = {("kind", k) for k in KINDS} | {("width", w)
                                           for w in (1, 2, 4, 8, 16)}
    want |= {"local", "remote", "private", "symmetric", "amo-misaligned",
             "amo-ok", "one element, stride beyond a line", "zero elements",
             "misaligned", "straddles a line", "straddles a page",
             "out of range"}
    assert want <= seen, want - seen


# -- frozen digests of the transfer path --------------------------------------

#: Random loss, corruption, lateness and slow links everywhere, and a
#: black hole from PE 1 to PE 0 (every retry lost: the timeout path).
FAULTS = FaultPlan(seed=0xC0FFEE, rules=(
    drop(0.15), corrupt(0.1), delay(700.0, 0.2), degrade(3.0, 0.2),
    drop(src=1, dst=0)))
VARIANTS = {
    "plain": {},
    "trace": {"trace": True},
    "faults": {"faults": FAULTS,
               "retry": RetryConfig(max_retries=2, timeout_ns=3000.0)},
    # No ack/retry: losses are silent and corruption lands in memory.
    # Its digests were frozen when a corrupted ``long double`` left its
    # padding bytes undefined, so this variant moves none; the in-place
    # value-bit flip is pinned per dtype in tests/faults/test_injector.py
    # (test_corrupt_flips_exactly_one_deterministic_bit).
    "unreliable": {"faults": FAULTS},
    "isa": {"fidelity": "isa"},
}


def program_digest(seed: int, variant: str) -> str:
    typenames = TYPENAMES if variant != "unreliable" else tuple(
        t for t in TYPENAMES if t != "longdouble")
    n_pes, ops = gen_program(random.Random(seed), with_errors=False,
                             typenames=typenames)
    machine, results = run_program(n_pes, ops, seed, **VARIANTS[variant])
    h = hashlib.sha256(repr((_state(machine), results)).encode())
    if variant == "trace":
        h.update(repr([
            (float(e.time_ns).hex(), e.pe, e.kind, e.detail, e.span_id,
             e.parent_id, float(e.dur_ns).hex(),
             sorted(e.attrs.items()) if e.attrs else None)
            for e in machine.engine.trace]).encode())
    if machine.faults is not None:
        h.update(repr(machine.faults.fired).encode())
    return h.hexdigest()[:16]


def variant_digests(variant: str) -> list[str]:
    return [program_digest(seed, variant)
            for seed in range(N_DIGEST_PROGRAMS)]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_transfer_path_digests_unchanged(variant):
    golden = json.loads(GOLDEN_PATH.read_text())[variant]
    got = variant_digests(variant)
    wrong = [seed for seed, (a, b) in enumerate(zip(got, golden)) if a != b]
    assert len(golden) == N_DIGEST_PROGRAMS and not wrong, (
        f"{variant}: programs {wrong} no longer match the frozen digests")


# -- frame budget --------------------------------------------------------------


def _frame_counts(ctx):
    """Worst ``call``-event count of a warm remote one-element get, put
    and amo on this PE's thread (both PEs run it, so most operations
    also pay a thread switch)."""
    ctx.init()
    cell = ctx.malloc(64)
    scratch = ctx.private_malloc(8)
    other = 1 - ctx.my_pe()
    ctx.barrier()
    calls = [0]

    def on_event(frame, event, arg):
        if event == "call":
            calls[0] += 1

    ops = {
        "get": lambda: ctx.get(scratch, cell, 1, 1, other, "uint64"),
        "put": lambda: ctx.put(cell, scratch, 1, 1, other, "uint64"),
        "amo": lambda: ctx.amo(cell, 3, other, "xor", "uint64"),
    }
    worst = {}
    for name, op in ops.items():
        for _ in range(4):
            op()
        worst[name] = 0
        for _ in range(8):
            calls[0] = 0
            sys.setprofile(on_event)
            try:
                op()
            finally:
                sys.setprofile(None)
            # The lambda is one of the calls counted.
            worst[name] = max(worst[name], calls[0] - 1)
    ctx.barrier()
    ctx.close()
    return worst


def test_remote_element_frame_budget():
    for worst in Machine(MachineConfig(n_pes=2)).run(_frame_counts):
        assert max(worst.values()) <= FRAME_BUDGET, worst


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    table = {variant: variant_digests(variant) for variant in VARIANTS}
    GOLDEN_PATH.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} x {N_DIGEST_PROGRAMS} digests to {GOLDEN_PATH}")
