"""Machine and cost-model parameters.

All simulated time is in **nanoseconds**.  The defaults mirror the paper's
evaluation platform (section 5.1): RISC-V RV64I cores at 1 GHz with a
256-entry TLB and 8-way set-associative L1 (16 KB) / L2 (8 MB) caches,
with MPICH-class inter-node links replaced by the xBGAS one-sided
transport.

Three transport presets model the overhead ordering the paper argues in
section 3.1:

* :func:`xbgas_transport` — remote load/store straight from user space;
  no kernel crossing, no handshake, no intermediate copies.
* :func:`rdma_transport` — one-sided but library-mediated: memory
  registration/doorbell costs per operation.
* :func:`mpi_transport` — two-sided: per-message handshake (rendezvous
  above the eager threshold), kernel crossings and an extra payload copy
  on each end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "CacheParams",
    "TlbParams",
    "MemoryParams",
    "TransportParams",
    "MailboxParams",
    "MachineConfig",
    "xbgas_transport",
    "rdma_transport",
    "mpi_transport",
    "paper_machine",
]


@dataclass(frozen=True)
class CacheParams:
    """Geometry and latency of one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_ns: float = 1.0

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return max(1, self.n_lines // self.ways)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % self.line_bytes:
            raise ValueError("cache size must be a multiple of the line size")


@dataclass(frozen=True)
class TlbParams:
    """TLB geometry: entries, page size and miss (page-walk) penalty.

    The walk penalty models a software-assisted page-table walk on the
    simulated in-order RISC-V core (~3 dependent memory accesses).
    """

    entries: int = 256
    page_bytes: int = 4096
    walk_ns: float = 120.0

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError("a TLB needs at least one entry")
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ValueError("TLB page size must be a positive power of two")
        if self.walk_ns < 0:
            raise ValueError("TLB walk time must be non-negative")


@dataclass(frozen=True)
class MemoryParams:
    """The full per-core memory hierarchy of the paper's testbed."""

    l1: CacheParams = field(
        default_factory=lambda: CacheParams(
            size_bytes=16 * 1024, ways=8, hit_ns=1.0
        )
    )
    l2: CacheParams = field(
        default_factory=lambda: CacheParams(
            size_bytes=8 * 1024 * 1024, ways=8, hit_ns=10.0
        )
    )
    tlb: TlbParams = field(default_factory=TlbParams)
    #: Random-access DRAM latency (one isolated cache-line fill).
    dram_ns: float = 90.0
    #: Per-line cost of *sequential* DRAM traffic, where row-buffer hits
    #: and memory-level parallelism pipeline the fills (~8 GB/s).
    dram_stream_ns: float = 8.0


@dataclass(frozen=True)
class TransportParams:
    """LogGP-style inter-PE transport costs (all ns unless stated).

    Attributes
    ----------
    name:
        Preset label shown in benchmark output.
    o_send / o_recv:
        CPU overhead paid by the initiator (and, for two-sided
        transports, the target) per message.
    latency_ns:
        Wire latency L between distinct nodes.
    gap_ns_per_byte:
        Inverse bandwidth G of the network path.
    inj_ns_per_byte:
        Inverse bandwidth of a node's injection (NIC) link; messages from
        one source serialise on it.
    intra_latency_ns / intra_gap_ns_per_byte:
        Cheaper path for PEs mapped to the same node.
    handshake_ns:
        Rendezvous handshake cost (two-sided only; 0 for one-sided).
    eager_threshold:
        Messages larger than this pay ``handshake_ns`` (bytes).
    copy_ns_per_byte:
        Extra per-byte copy cost at each end (two-sided staging copies;
        0 for true one-sided transports).
    kernel_ns:
        Kernel-crossing / syscall cost per message (0 when the transport
        operates from user space, as xBGAS does).
    two_sided:
        Whether the target CPU participates (pays ``o_recv``).
    """

    name: str
    o_send: float
    o_recv: float
    latency_ns: float
    gap_ns_per_byte: float
    inj_ns_per_byte: float
    intra_latency_ns: float
    intra_gap_ns_per_byte: float
    handshake_ns: float = 0.0
    eager_threshold: int = 0
    copy_ns_per_byte: float = 0.0
    kernel_ns: float = 0.0
    two_sided: bool = False

    def with_(self, **kw: object) -> "TransportParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)


def xbgas_transport() -> TransportParams:
    """Remote load/store issued directly by the core (paper section 3.1)."""
    return TransportParams(
        name="xbgas",
        o_send=20.0,
        o_recv=0.0,
        latency_ns=450.0,
        gap_ns_per_byte=0.10,
        inj_ns_per_byte=0.08,
        intra_latency_ns=12.0,
        intra_gap_ns_per_byte=0.02,
    )


def rdma_transport() -> TransportParams:
    """RDMA verbs: one-sided but with library/doorbell costs per op."""
    return TransportParams(
        name="rdma",
        o_send=250.0,
        o_recv=0.0,
        latency_ns=600.0,
        gap_ns_per_byte=0.10,
        inj_ns_per_byte=0.08,
        intra_latency_ns=150.0,
        intra_gap_ns_per_byte=0.03,
    )


def mpi_transport() -> TransportParams:
    """Two-sided MPI-class transport (socket setup, handshake, copies)."""
    return TransportParams(
        name="mpi",
        o_send=400.0,
        o_recv=400.0,
        latency_ns=900.0,
        gap_ns_per_byte=0.12,
        inj_ns_per_byte=0.08,
        intra_latency_ns=300.0,
        intra_gap_ns_per_byte=0.05,
        handshake_ns=1800.0,
        eager_threshold=8192,
        copy_ns_per_byte=0.05,
        kernel_ns=700.0,
        two_sided=True,
    )


_TRANSPORTS = {
    "xbgas": xbgas_transport,
    "rdma": rdma_transport,
    "mpi": mpi_transport,
}


@dataclass(frozen=True)
class MailboxParams:
    """Two-sided mailbox engine parameters (the Xctcmsg-style design).

    Every PE owns one bounded receive queue of ``recv_depth`` message
    slots.  A sender whose target queue is full stalls (backpressure)
    until the receiver drains a slot.  Messages travel through the
    postoffice: the regular fabric/topology path of ``network.py`` plus
    ``route_ns_per_hop`` of routing-table work per topology hop and a
    fixed ``header_bytes`` framing overhead per message.

    Attributes
    ----------
    recv_depth:
        Slots in each PE's receive queue.  Lowered schedules need the
        depth to cover a stage's worst fan-in (the linter warns on
        queues shallower than 1).
    route_ns_per_hop:
        Postoffice routing charge per topology hop between nodes
        (added on top of the fabric latency the network model charges).
    header_bytes:
        Wire framing per message: (src, dst, tag, length) descriptor.
    match_ns:
        Receive-side cost of matching one message against a pending
        receive (tag + source compare, queue bookkeeping).
    retry_ns:
        Sender backoff before re-attempting an enqueue that found the
        target queue full (the commit-safety retry loop).
    max_retries:
        Enqueue attempts before the sender gives up and the machine
        raises — a safety net against livelock on a stuck receiver.
    """

    recv_depth: int = 64
    route_ns_per_hop: float = 25.0
    header_bytes: int = 16
    match_ns: float = 12.0
    retry_ns: float = 200.0
    max_retries: int = 64

    def __post_init__(self) -> None:
        if self.recv_depth <= 0:
            raise ValueError("mailbox recv_depth must be positive")
        if self.max_retries <= 0:
            raise ValueError("mailbox max_retries must be positive")

    def with_(self, **kw: object) -> "MailboxParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)


@dataclass(frozen=True)
class MachineConfig:
    """Full configuration of the simulated machine.

    The paper's environment is a single host with 12 RISC-V cores whose
    Spike instances communicate through MPICH; the default therefore maps
    up to 12 PEs onto one node whose shared internal bus has finite
    message throughput (this is what produces the 8-PE per-PE drop of
    Figures 4-5).  Set ``cores_per_node=1`` for a cluster of single-core
    nodes joined by the topology/fabric model.
    """

    n_pes: int = 8
    memory_bytes_per_pe: int = 96 * 1024 * 1024
    symmetric_heap_bytes: int = 48 * 1024 * 1024
    #: Symmetric scratch reserved for collective work buffers (the SHMEM
    #: pWrk/pSync idea); carved out of the symmetric heap.
    collective_scratch_bytes: int = 4 * 1024 * 1024
    cores_per_node: int = 12
    #: Optional explicit PE→node placement overriding the sequential
    #: ``cores_per_node`` blocks — e.g. a round-robin placement for the
    #: locality experiments (section 7's "location aware communication
    #: optimization using the xBGAS OLB").  Node IDs must be contiguous
    #: from 0.
    pe_node_map: tuple[int, ...] | None = None
    #: The simulation host's physical core count (the paper's 12-core
    #: machine) and how many host cores one PE effectively consumes
    #: (its Spike instance plus the MPICH progress engine).  Once
    #: ``n_pes * host_cores_per_pe`` exceeds ``host_cores`` the host is
    #: oversubscribed and every PE slows down uniformly — the mechanism
    #: behind the paper's 8-PE per-PE throughput drop (Figures 4-5).
    host_cores: int = 12
    host_cores_per_pe: float = 2.25
    clock_ghz: float = 1.0
    mem: MemoryParams = field(default_factory=MemoryParams)
    transport: TransportParams = field(default_factory=xbgas_transport)
    #: Two-sided mailbox engine (used when ``Machine(transport="mailbox")``).
    mailbox: MailboxParams = field(default_factory=MailboxParams)
    topology: str = "fully-connected"
    #: Aggregate fabric bandwidth shared by all nodes, ns per byte of
    #: concurrently in-flight traffic (0 disables contention modelling).
    fabric_gap_ns_per_byte: float = 0.035
    #: Number of elements above which the generated transfer loop is
    #: unrolled (paper section 3.3).
    unroll_threshold: int = 8
    unroll_factor: int = 4
    #: "model" = analytic costing; "isa" = execute generated xBGAS
    #: assembly on the functional core for the transfer inner loops.
    fidelity: str = "model"
    #: In "isa" fidelity, layer the pipeline timing model (load-use
    #: stalls, branch flushes, I-cache) onto the functional cores.
    pipeline: bool = False
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.n_pes <= 0:
            raise ValueError("n_pes must be positive")
        if self.cores_per_node <= 0:
            raise ValueError("cores_per_node must be positive")
        if self.symmetric_heap_bytes > self.memory_bytes_per_pe:
            raise ValueError("symmetric heap cannot exceed PE memory")
        if self.collective_scratch_bytes >= self.symmetric_heap_bytes:
            raise ValueError("collective scratch must fit inside the heap")
        if self.fidelity not in ("model", "isa"):
            raise ValueError("fidelity must be 'model' or 'isa'")
        if self.pe_node_map is not None:
            m = self.pe_node_map
            if len(m) != self.n_pes:
                raise ValueError(
                    f"pe_node_map has {len(m)} entries for {self.n_pes} PEs"
                )
            if sorted(set(m)) != list(range(max(m) + 1)):
                raise ValueError("pe_node_map node IDs must be contiguous")

    @property
    def cycle_ns(self) -> float:
        """Duration of one core clock cycle in ns."""
        return 1.0 / self.clock_ghz

    @property
    def time_dilation(self) -> float:
        """Uniform slowdown from simulation-host oversubscription."""
        if self.host_cores <= 0:
            return 1.0
        return max(1.0, self.n_pes * self.host_cores_per_pe / self.host_cores)

    @property
    def n_nodes(self) -> int:
        if self.pe_node_map is not None:
            return max(self.pe_node_map) + 1
        return -(-self.n_pes // self.cores_per_node)

    def node_of(self, pe: int) -> int:
        """Node hosting ``pe`` — sequential ``cores_per_node`` blocks
        (the assumption behind the paper's recursive halving) unless a
        ``pe_node_map`` overrides the placement."""
        if not 0 <= pe < self.n_pes:
            raise ValueError(f"pe {pe} out of range [0, {self.n_pes})")
        if self.pe_node_map is not None:
            return self.pe_node_map[pe]
        return pe // self.cores_per_node

    def node_members(self, node: int) -> tuple[int, ...]:
        """All PEs placed on ``node``, in rank order."""
        return tuple(pe for pe in range(self.n_pes)
                     if self.node_of(pe) == node)

    def with_(self, **kw: object) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)

    def with_transport(self, name: str) -> "MachineConfig":
        """Return a copy using the named transport preset."""
        try:
            factory = _TRANSPORTS[name]
        except KeyError:
            raise ValueError(
                f"unknown transport {name!r}; expected one of "
                f"{sorted(_TRANSPORTS)}"
            ) from None
        return self.with_(transport=factory())


def paper_machine(n_pes: int = 8, **kw: object) -> MachineConfig:
    """The evaluation platform of section 5.1 with ``n_pes`` PEs."""
    return MachineConfig(n_pes=n_pes, **kw)
