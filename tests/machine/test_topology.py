"""Tests for interconnect topologies."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.errors import NetworkError
from repro.machine.topology import TOPOLOGY_NAMES, build_topology


class TestShapes:
    def test_fully_connected_diameter_one(self):
        t = build_topology("fully-connected", 6)
        assert t.diameter == 1
        assert t.hops(0, 5) == 1

    def test_ring_hops(self):
        t = build_topology("ring", 8)
        assert t.hops(0, 1) == 1
        assert t.hops(0, 4) == 4
        assert t.hops(0, 7) == 1  # wraps

    def test_hypercube(self):
        t = build_topology("hypercube", 8)
        assert t.diameter == 3
        assert t.hops(0, 7) == 3  # 000 -> 111
        assert t.hops(0, 1) == 1

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(NetworkError):
            build_topology("hypercube", 6)

    def test_torus_wraps(self):
        t = build_topology("torus", 16)  # 4x4
        assert t.diameter == 4  # 2+2

    def test_torus_degenerate_prime(self):
        t = build_topology("torus", 7)  # falls back to a ring
        assert t.n_nodes == 7
        assert t.hops(0, 3) == 3

    def test_star(self):
        t = build_topology("star", 5)
        assert t.hops(0, 4) == 1     # hub to leaf
        assert t.hops(1, 4) == 2     # leaf to leaf
        assert t.degree(0) == 4

    def test_single_node(self):
        for name in TOPOLOGY_NAMES:
            if name == "hypercube":
                t = build_topology(name, 1)
            else:
                t = build_topology(name, 1)
            assert t.hops(0, 0) == 0

    def test_unknown_name(self):
        with pytest.raises(NetworkError):
            build_topology("moebius", 4)

    def test_out_of_range_hops(self):
        t = build_topology("ring", 4)
        with pytest.raises(NetworkError):
            t.hops(0, 9)


class TestMetricProperties:
    @given(st.sampled_from(["fully-connected", "ring", "star"]),
           st.integers(2, 12))
    def test_hops_symmetric_and_metric(self, name, n):
        t = build_topology(name, n)
        for a in range(n):
            assert t.hops(a, a) == 0
            for b in range(n):
                assert t.hops(a, b) == t.hops(b, a)
                assert 0 <= t.hops(a, b) <= t.diameter

    @given(st.integers(1, 4))
    def test_hypercube_hops_are_hamming(self, dim):
        n = 1 << dim
        t = build_topology("hypercube", n)
        for a in range(n):
            for b in range(n):
                assert t.hops(a, b) == bin(a ^ b).count("1")


def test_a_default_machine_never_imports_networkx():
    """networkx builds the non-fully-connected graphs only: a default
    machine running a collective, in a fresh interpreter, leaves it
    unimported (its import alone is about 0.17 s of every set-up)."""
    program = (
        "import sys\n"
        "from repro import Machine, MachineConfig\n"
        "def body(ctx):\n"
        "    ctx.init()\n"
        "    buf = ctx.malloc(64)\n"
        "    ctx.long_broadcast(buf, buf, 8, 1, 0)\n"
        "    ctx.close()\n"
        "Machine(MachineConfig(n_pes=4)).run(body)\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
