"""LogGP-style network model with injection links and fabric contention.

The paper's simulation used MPICH 3.2 between Spike instances; here the
transport costs are explicit and swappable (:mod:`repro.params` presets
for xBGAS one-sided, RDMA-like and MPI-like two-sided behaviour).

Cost structure for a message of ``nbytes`` from PE *s* to PE *d*:

* **Same node** — no NIC or fabric involvement, but all cores of a node
  share one internal bus with a fixed per-message occupancy: as the
  aggregate message rate approaches bus capacity, queueing delay grows
  and backpressures senders.  The paper's testbed is a single 12-core
  host, so this bus is what saturates at 8 PEs in Figures 4-5.
* **Different nodes** — the sender pays ``o_send`` CPU overhead, the
  message serialises on the source node's injection link
  (``inj_ns_per_byte``), then crosses the shared fabric.  The fabric is
  modelled as a small number of parallel channels with a fixed per-message
  routing occupancy plus a per-byte cost — when the aggregate message rate
  approaches channel capacity, queueing delay grows and *backpressures the
  sender* (this is what degrades 8-PE GUPs/IS in Figures 4-5).  Wire
  latency scales mildly with topology hop count.

Two-sided transports additionally pay the handshake above the eager
threshold, per-message kernel crossings and staging copies at both ends.

All state updates happen at scheduler checkpoints, so the global order of
``send`` calls is deterministic.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..memo import Memo
from ..params import MachineConfig
from ..sim.trace import SimStats
from .topology import build_topology

__all__ = ["Network"]

#: Fixed fabric occupancy per message (routing/arbitration), ns.
FABRIC_NS_PER_MSG = 45.0
#: Number of independent fabric channels (bisection parallelism); the
#: earliest-free pick in ``send``/``fetch`` is written out for two.
FABRIC_CHANNELS = 2
#: Additional wire latency per extra hop, as a fraction of base latency.
HOP_LATENCY_FACTOR = 0.15
#: Per-message occupancy of a node's shared internal bus, ns.
NODE_BUS_NS_PER_MSG = 16.0
#: Largest node count for which a topology graph is built; the
#: fully-connected default is analytic and has no limit.
MAX_TOPOLOGY_NODES = 4096


class Network:
    """Shared interconnect state for one machine — the only network
    model: the simulator, the vec backend and the standalone schedule
    evaluator all price messages here."""

    def __init__(self, config: MachineConfig, stats: SimStats | None = None):
        self.cfg = config
        self.tp = config.transport
        self.stats = stats if stats is not None else SimStats()
        #: pe -> node, filled as PEs first send (``cfg.node_of`` raises
        #: for a PE outside the machine, every time).
        self._node = Memo(config.node_of)
        n_nodes = config.n_nodes
        if config.topology == "fully-connected":
            # Analytic: one hop between distinct nodes.  A 64k-node
            # complete graph must never be built.
            self._topology = None
        else:
            if n_nodes > MAX_TOPOLOGY_NODES:
                raise SimulationError(
                    f"topology {config.topology!r} with {n_nodes} nodes is too "
                    f"large to build (limit {MAX_TOPOLOGY_NODES}); use "
                    "topology='fully-connected' for large-PE evaluation"
                )
            self._topology = build_topology(config.topology, n_nodes)
        #: Wire latency between two nodes one hop apart — any two nodes
        #: of the fully-connected fabric.
        self._one_hop_ns = float(self.tp.latency_ns)
        tp = self.tp
        # Constant terms of the inter-node sums in ``send``/``fetch``,
        # each the left-associated prefix the sum would compute first, so
        # hoisting them keeps every operand and its order.
        #: Sender CPU ns before the per-byte copy (``o_send + kernel``).
        self._send_fixed_ns = tp.o_send + tp.kernel_ns
        #: Sender CPU ns of a 16-byte get request, handshake included.
        self._req_ns = self._send_fixed_ns + 16 * tp.copy_ns_per_byte
        if tp.handshake_ns and 16 > tp.eager_threshold:
            self._req_ns += tp.handshake_ns
        #: Node-bus, injection-link and fabric occupancy of a get request.
        self._req_bus_ns = (NODE_BUS_NS_PER_MSG
                            + 16 * tp.intra_gap_ns_per_byte)
        self._req_inj_ns = 16 * tp.inj_ns_per_byte
        self._fabric_gap_ns_per_byte = config.fabric_gap_ns_per_byte
        self._req_fabric_ns = (FABRIC_NS_PER_MSG
                               + 16 * self._fabric_gap_ns_per_byte)
        # Next instant each node's injection link is free.
        self._link_free = [0.0] * n_nodes
        # Next instant each node's shared internal bus is free.
        self._bus_free = [0.0] * n_nodes
        # Next instant each fabric channel is free.
        self._fabric_free = [0.0] * FABRIC_CHANNELS
        # Latest delivery time of any in-flight message (barrier quiescence).
        self.max_delivery = 0.0
        #: Optional :class:`~repro.faults.injector.FaultInjector` consulted
        #: for every remote message (set by the Machine; None = clean).
        self.injector = None

    # -- helpers -----------------------------------------------------------

    def node_of(self, pe: int) -> int:
        return self._node[pe]

    def route_hops(self, src_node: int, dst_node: int) -> int:
        """Hop count between two nodes (0 within a node)."""
        if src_node == dst_node:
            return 0
        if self._topology is None:
            return 1
        return self._topology.hops(src_node, dst_node)

    def _wire_latency(self, src_node: int, dst_node: int) -> float:
        if self._topology is None:
            return self._one_hop_ns
        hops = self.route_hops(src_node, dst_node)
        return self.tp.latency_ns * (1.0 + HOP_LATENCY_FACTOR * max(0, hops - 1))

    def _land_faulted(self, fault, t_del: float, nbytes: float,
                      gap_ns_per_byte: float) -> float:
        """Fold a fired fault's timing effect into a delivery instant and
        extend the quiescence horizon (the clean path does so inline).

        ``delay`` adds a fixed extra latency; ``degrade`` stretches the
        serialisation term by ``factor`` (the link ran slower).  Drops
        and corruption do not change *when* the bits land — only whether
        they are any good; a dropped payload never lands, so it cannot
        extend the horizon.
        """
        if fault.kind == "delay":
            t_del += fault.delay_ns
        elif fault.kind == "degrade":
            t_del += nbytes * gap_ns_per_byte * (fault.factor - 1.0)
        elif fault.kind == "drop":
            return t_del
        if t_del > self.max_delivery:
            self.max_delivery = t_del
        return t_del

    # -- one-way message (put) ------------------------------------------------

    def send(self, t_now: float, src_pe: int, dst_pe: int, nbytes: int,
             *, faultable: bool = True) -> tuple[float, float, object | None]:
        """Cost a one-way payload transfer of ``nbytes``.

        Returns ``(t_source_free, t_delivered, fault)`` — a plain tuple,
        this is the hottest call of the evaluator: when the sender may
        proceed (includes backpressure), when the payload is visible at
        the target, and the :class:`~repro.faults.plan.FiredFault` that
        struck the message (None on the clean path; for a ``drop`` the
        payload never lands and ``t_delivered`` is when it *would* have).

        For one-sided transports the target CPU is not involved; for
        two-sided ones the caller must additionally charge ``o_recv`` and
        the receive-side copy to the target PE.  ``faultable=False``
        exempts the message from injection (callers with no recovery
        protocol of their own).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        tp = self.tp
        self.stats.messages += 1
        self.stats.bytes_on_wire += nbytes
        fault = None
        if self.injector is not None and faultable and src_pe != dst_pe:
            fault = self.injector.on_message(t_now, src_pe, dst_pe, nbytes)
        node = self._node
        src_node, dst_node = node[src_pe], node[dst_pe]
        if src_node == dst_node:
            t_ready = (t_now + tp.o_send + tp.kernel_ns
                       + nbytes * tp.copy_ns_per_byte)
            if tp.handshake_ns and nbytes > tp.eager_threshold:
                t_ready += tp.handshake_ns
            # The node's shared bus serialises the message; the sender is
            # backpressured until it starts crossing.
            gap = tp.intra_gap_ns_per_byte
            bus = self._bus_free
            free = bus[src_node]
            t_enter = t_ready if t_ready > free else free
            bus[src_node] = t_enter + (NODE_BUS_NS_PER_MSG + nbytes * gap)
            if t_enter > t_ready:
                self.stats.fabric_queued_ns += t_enter - t_ready
            t_del = t_enter + tp.intra_latency_ns + nbytes * gap
        else:
            # Sender CPU, then the source node's injection link...
            ns = self._send_fixed_ns + nbytes * tp.copy_ns_per_byte
            if tp.handshake_ns and nbytes > tp.eager_threshold:
                ns += tp.handshake_ns
            t_ready = t_now + ns
            link = self._link_free
            free = link[src_node]
            t_inj = ((free if free > t_ready else t_ready)
                     + nbytes * tp.inj_ns_per_byte)
            link[src_node] = t_inj
            # ...then the earliest-free fabric channel, which
            # backpressures the sender until the message starts crossing.
            fabric = self._fabric_free
            ch = 0 if fabric[0] <= fabric[1] else 1
            free = fabric[ch]
            t_enter = t_inj if t_inj > free else free
            fabric[ch] = t_enter + (FABRIC_NS_PER_MSG
                                    + nbytes * self._fabric_gap_ns_per_byte)
            if t_enter > t_inj:
                self.stats.fabric_queued_ns += t_enter - t_inj
            gap = tp.gap_ns_per_byte
            wire = (self._one_hop_ns if self._topology is None
                    else self._wire_latency(src_node, dst_node))
            t_del = (t_enter + wire) + nbytes * gap
        if tp.two_sided:
            t_del += tp.o_recv + nbytes * tp.copy_ns_per_byte
        if fault is not None:
            t_del = self._land_faulted(fault, t_del, nbytes, gap)
        elif t_del > self.max_delivery:
            self.max_delivery = t_del
        # Backpressure: the sender stalls until the bus/fabric accepts.
        return (t_ready if t_ready > t_enter else t_enter, t_del, fault)

    # -- round trip (get) -------------------------------------------------------

    def fetch(self, t_now: float, src_pe: int, dst_pe: int, nbytes: int,
              *, faultable: bool = True) -> tuple[float, object | None]:
        """Cost a one-sided read of ``nbytes`` from ``dst_pe`` to ``src_pe``.

        Returns ``(t_complete, fault)``: when the data is local, and the
        fired fault as for :meth:`send` (a dropped get means the response
        was lost and no data arrived).

        The request is a small message; the response carries the payload.
        One-sided transports need no target-CPU participation (the xBGAS
        OLB answers directly).  ``faultable=False`` exempts the message
        from injection (remote atomics, which have no retry protocol).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        tp = self.tp
        node = self._node
        src_node, dst_node = node[src_pe], node[dst_pe]
        self.stats.messages += 2
        self.stats.bytes_on_wire += nbytes + 16
        # One sample covers the request/response pair: losing either
        # direction loses the read.
        fault = None
        if self.injector is not None and faultable and src_pe != dst_pe:
            fault = self.injector.on_message(t_now, src_pe, dst_pe, nbytes)
        if src_node == dst_node:
            # The request, then the response, crosses the node's bus.
            gap = tp.intra_gap_ns_per_byte
            bus = self._bus_free
            t_ready = t_now + tp.o_send + tp.kernel_ns
            free = bus[src_node]
            t_req = t_ready if t_ready > free else free
            free = bus[src_node] = t_req + self._req_bus_ns
            if t_req > t_ready:
                self.stats.fabric_queued_ns += t_req - t_ready
            t_arrive = t_req + tp.intra_latency_ns
            if tp.two_sided:
                t_arrive += tp.o_recv + tp.kernel_ns
            t_rsp = t_arrive if t_arrive > free else free
            bus[src_node] = t_rsp + (NODE_BUS_NS_PER_MSG + nbytes * gap)
            if t_rsp > t_arrive:
                self.stats.fabric_queued_ns += t_rsp - t_arrive
            t_done = t_rsp + tp.intra_latency_ns + nbytes * gap
        else:
            # The request crosses the source link and the fabric...
            t_ready = t_now + self._req_ns
            link, fabric = self._link_free, self._fabric_free
            free = link[src_node]
            t_req = (free if free > t_ready else t_ready) + self._req_inj_ns
            link[src_node] = t_req
            ch = 0 if fabric[0] <= fabric[1] else 1
            free = fabric[ch]
            t_enter = t_req if t_req > free else free
            fabric[ch] = t_enter + self._req_fabric_ns
            if t_enter > t_req:
                self.stats.fabric_queued_ns += t_enter - t_req
            wire = (self._one_hop_ns if self._topology is None
                    else self._wire_latency(src_node, dst_node))
            t_arrive = t_enter + wire
            if tp.two_sided:
                t_arrive += tp.o_recv + tp.kernel_ns
            # ...and the response comes back through the target's link.
            free = link[dst_node]
            t_rsp = ((free if free > t_arrive else t_arrive)
                     + nbytes * tp.inj_ns_per_byte)
            link[dst_node] = t_rsp
            ch = 0 if fabric[0] <= fabric[1] else 1
            free = fabric[ch]
            t_enter = t_rsp if t_rsp > free else free
            fabric[ch] = t_enter + (FABRIC_NS_PER_MSG
                                    + nbytes * self._fabric_gap_ns_per_byte)
            if t_enter > t_rsp:
                self.stats.fabric_queued_ns += t_enter - t_rsp
            gap = tp.gap_ns_per_byte
            if self._topology is not None:
                wire = self._wire_latency(dst_node, src_node)
            t_done = (t_enter + wire) + nbytes * gap
        if tp.two_sided:
            t_done += nbytes * tp.copy_ns_per_byte
        if fault is not None:
            t_done = self._land_faulted(fault, t_done, nbytes, gap)
        elif t_done > self.max_delivery:
            self.max_delivery = t_done
        return (t_done, fault)

    # -- barrier support ---------------------------------------------------------

    def quiescence_time(self) -> float:
        """Earliest instant at which no message is still in flight."""
        return self.max_delivery

    def note_delivery(self, t: float) -> None:
        """Extend the quiescence horizon (e.g. for target-side memory
        time the runtime folds into a put's delivery)."""
        if t > self.max_delivery:
            self.max_delivery = t
