"""Tests for the network model (links, bus, fabric, transports)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.faults import FaultPlan, corrupt, degrade, delay, drop
from repro.machine.network import NODE_BUS_NS_PER_MSG, Network
from repro.params import MachineConfig, mpi_transport, xbgas_transport


def intra_net(n_pes=4):
    """All PEs on one node (the paper's default layout)."""
    return Network(MachineConfig(n_pes=n_pes, cores_per_node=12))


def delivered(net, *msg):
    """``t_delivered`` of ``net.send(*msg)``."""
    return net.send(*msg)[1]


def completed(net, *msg):
    """``t_complete`` of ``net.fetch(*msg)``."""
    return net.fetch(*msg)[0]


def inter_net(n_pes=4, topology="fully-connected"):
    """One PE per node."""
    return Network(MachineConfig(n_pes=n_pes, cores_per_node=1,
                                 topology=topology))


class TestIntraNode:
    def test_send_delivery_after_latency(self):
        net = intra_net()
        tp = net.tp
        assert delivered(net, 0.0, 0, 1, 8) >= tp.o_send + tp.intra_latency_ns

    def test_sender_freed_before_delivery(self):
        net = intra_net()
        t_source_free, t_delivered, fault = net.send(0.0, 0, 1, 1024)
        assert t_source_free <= t_delivered
        assert fault is None

    def test_bus_backpressure_builds(self):
        """Back-to-back messages at one instant queue on the node bus."""
        net = intra_net()
        first = delivered(net, 0.0, 0, 1, 8)
        second = delivered(net, 0.0, 2, 3, 8)
        assert second >= first
        assert net.stats.fabric_queued_ns > 0

    def test_fetch_round_trip_costs_two_crossings(self):
        net = intra_net()
        one_way = delivered(net, 0.0, 0, 1, 8)
        net2 = intra_net()
        round_trip = completed(net2, 0.0, 0, 1, 8)
        assert round_trip > one_way

    def test_quiescence_tracks_max_delivery(self):
        net = intra_net()
        t1 = delivered(net, 0.0, 0, 1, 64)
        assert net.quiescence_time() == pytest.approx(t1)
        net.note_delivery(t1 + 100)
        assert net.quiescence_time() == pytest.approx(t1 + 100)


class TestInterNode:
    def test_wire_latency_dominates(self):
        net = inter_net()
        assert delivered(net, 0.0, 0, 1, 8) >= net.tp.latency_ns

    def test_injection_link_serialises_per_source(self):
        net = inter_net()
        a = delivered(net, 0.0, 0, 1, 10_000)
        b = delivered(net, 0.0, 0, 2, 10_000)  # same source link
        assert b > a

    def test_hops_scale_latency(self):
        ring = inter_net(8, topology="ring")
        near = delivered(ring, 0.0, 0, 1, 8)
        far = delivered(ring, 0.0, 2, 6, 8)  # 4 hops
        assert far > near

    def test_fetch_completes_after_send(self):
        net = inter_net()
        s = delivered(net, 0.0, 0, 1, 8)
        net2 = inter_net()
        f = completed(net2, 0.0, 0, 1, 8)
        assert f > s

    def test_negative_bytes_rejected(self):
        net = inter_net()
        with pytest.raises(ValueError):
            net.send(0.0, 0, 1, -1)
        with pytest.raises(ValueError):
            net.fetch(0.0, 0, 1, -1)


class TestTransportComparison:
    """Section 3.1's overhead ordering must show up in message timing."""

    def _delivery(self, transport, nbytes, same_node=True):
        cfg = MachineConfig(
            n_pes=2,
            cores_per_node=12 if same_node else 1,
            transport=transport,
        )
        return delivered(Network(cfg), 0.0, 0, 1, nbytes)

    @pytest.mark.parametrize("nbytes", [8, 1024, 65536])
    def test_xbgas_beats_mpi(self, nbytes):
        assert (self._delivery(xbgas_transport(), nbytes)
                < self._delivery(mpi_transport(), nbytes))

    def test_mpi_rendezvous_kicks_in(self):
        mp = mpi_transport()
        small = self._delivery(mp, mp.eager_threshold)
        big = self._delivery(mp, mp.eager_threshold + 1)
        assert big - small > mp.handshake_ns  # handshake plus the byte

    def test_two_sided_charges_receive_side(self):
        one_sided = mpi_transport().with_(two_sided=False, o_recv=0.0)
        assert (self._delivery(one_sided, 64)
                < self._delivery(mpi_transport(), 64))

    def test_messages_counted(self):
        net = intra_net()
        net.send(0.0, 0, 1, 100)
        net.fetch(10.0, 1, 2, 50)
        assert net.stats.messages == 3  # 1 send + request & response
        assert net.stats.bytes_on_wire >= 150


class TestBusSaturation:
    def test_throughput_capped_by_bus(self):
        """Many simultaneous senders serialise at one message per
        NODE_BUS_NS_PER_MSG — the 8-PE contention mechanism."""
        net = intra_net(8)
        deliveries = [delivered(net, 0.0, i, (i + 1) % 8, 8)
                      for i in range(8)]
        span = max(deliveries) - min(deliveries)
        assert span >= (8 - 1) * NODE_BUS_NS_PER_MSG * 0.9


# -- golden message stream ---------------------------------------------------
#
# A seeded mix of send/fetch calls over every path of the model — within
# a node and across nodes, the analytic fully-connected fabric and a
# torus graph, one-sided xbgas and two-sided mpi costs, with and without
# a fault plan — digested bit for bit: every returned tuple, then the
# final link, bus and fabric state, the quiescence horizon and every
# SimStats counter.  The stream was recorded before the message
# arithmetic was inlined into ``send``/``fetch``; any change to an
# operand, its order or a mutation shows up here.  To regenerate after an
# *intended* model change:
# ``PYTHONPATH=src python tests/machine/test_network.py``.

STREAM_PATH = Path(__file__).with_name("network_stream.json")
STREAM_CASES = [
    (topology, transport, faulty)
    for topology in ("fully-connected", "torus")
    for transport in ("xbgas", "mpi")
    for faulty in (False, True)
]
STREAM_PLAN = FaultPlan(seed=7, rules=(
    drop(0.05), delay(250.0, 0.05), corrupt(0.05), degrade(3.0, 0.05),
))


class _PlanInjector:
    """The message side of a fault injector: one sequence number per
    remote message, sampled against the plan."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.seq = 0
        self.fired = [0] * len(plan.rules)

    def on_message(self, t_now, src_pe, dst_pe, nbytes):
        fault = self.plan.sample_message(self.seq, t_now, src_pe, dst_pe,
                                         self.fired)
        self.seq += 1
        if fault is not None:
            self.fired[fault.rule_index] += 1
        return fault


def _hex(x: float) -> str:
    return float(x).hex()


def _fault_key(fault):
    return None if fault is None else [fault.kind, fault.rule_index,
                                       fault.seq]


def record_stream(topology: str, transport: str, faulty: bool,
                  n_ops: int = 400) -> dict:
    """Run the seeded stream of one case; its digest and final state."""
    cfg = MachineConfig(n_pes=32, cores_per_node=4, topology=topology)
    net = Network(cfg.with_transport(transport))
    if faulty:
        net.injector = _PlanInjector(STREAM_PLAN)
    rng = random.Random(f"{topology}/{transport}/{faulty}")
    eager = net.tp.eager_threshold
    sizes = (0, 1, 8, 16, 24, 1000, eager, eager + 1, 1 << 16)
    stream = hashlib.sha256()
    t = 0.0
    for _ in range(n_ops):
        # Mostly forward in time, sometimes behind the busiest resource.
        t = max(0.0, t + rng.uniform(-400.0, 900.0))
        src = rng.randrange(cfg.n_pes)
        per = cfg.cores_per_node
        if rng.random() < 0.35:  # a PE of the sender's node
            dst = cfg.node_of(src) * per + rng.randrange(per)
        else:
            dst = rng.randrange(cfg.n_pes)
        nbytes = rng.choice(sizes)
        faultable = rng.random() < 0.9
        if rng.random() < 0.5:
            free, done, fault = net.send(t, src, dst, nbytes,
                                         faultable=faultable)
            out = ["send", _hex(free), _hex(done), _fault_key(fault)]
        else:
            done, fault = net.fetch(t, src, dst, nbytes, faultable=faultable)
            out = ["fetch", _hex(done), _fault_key(fault)]
        stream.update(json.dumps(out).encode())
    stats = {}
    for f in dataclasses.fields(net.stats):
        v = getattr(net.stats, f.name)
        if isinstance(v, Counter):
            stats[f.name] = sorted(v.items())
        elif isinstance(v, float):
            stats[f.name] = _hex(v)
        else:
            stats[f.name] = v
    return {
        "stream": stream.hexdigest(),
        "link_free": [_hex(x) for x in net._link_free],
        "bus_free": [_hex(x) for x in net._bus_free],
        "fabric_free": [_hex(x) for x in net._fabric_free],
        "max_delivery": _hex(net.max_delivery),
        "stats": stats,
    }


def _case_key(topology, transport, faulty):
    return f"{topology}/{transport}/{'faults' if faulty else 'clean'}"


@pytest.mark.parametrize("topology,transport,faulty", STREAM_CASES,
                         ids=[_case_key(*c) for c in STREAM_CASES])
def test_network_stream_is_frozen(topology, transport, faulty):
    golden = json.loads(STREAM_PATH.read_text())
    got = json.loads(json.dumps(record_stream(topology, transport, faulty)))
    assert got == golden[_case_key(topology, transport, faulty)]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    table = {_case_key(*case): record_stream(*case) for case in STREAM_CASES}
    STREAM_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} streams to {STREAM_PATH}")
