"""Tests for the network model (links, bus, fabric, transports)."""

from __future__ import annotations

import pytest

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
