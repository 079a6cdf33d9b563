"""repro — reproduction of "Collective Communication for the RISC-V
xBGAS ISA Extension" (Williams, Wang, Leidel, Chen — ICPP 2019).

The package simulates the paper's full stack in Python:

* :mod:`repro.isa` — a functional RV64I + xBGAS instruction-set
  simulator (extended registers, remote load/store, OLB);
* :mod:`repro.machine` — the evaluation platform's timing model
  (256-entry TLB, 8-way 16 KB L1 / 8 MB L2, interconnect);
* :mod:`repro.sim` — a deterministic PDES engine running one thread
  per PE;
* :mod:`repro.runtime` — the xbrtime PGAS runtime (symmetric heap,
  typed one-sided get/put, barrier);
* :mod:`repro.collectives` — the paper's binomial-tree broadcast,
  reduction, scatter and gather, plus the future-work extensions;
* :mod:`repro.baselines` — the OpenSHMEM-style comparator (MPI-style
  collectives are the compiled schedules on ``transport="mailbox"``
  under ``with_transport("mpi")`` costs);
* :mod:`repro.bench` — the GUPs and NAS Integer Sort workloads and the
  harness regenerating every table and figure.

Quickstart::

    from repro import Machine, MachineConfig

    def main(ctx):
        ctx.init()
        buf = ctx.malloc(8)
        v = ctx.view(buf, "long", 1)
        if ctx.my_pe() == 0:
            v[0] = 42
        ctx.long_broadcast(buf, buf, 1, 1, 0)
        assert v[0] == 42
        ctx.close()

    Machine(MachineConfig(n_pes=4)).run(main)
"""

from .params import (
    MachineConfig,
    MemoryParams,
    CacheParams,
    TlbParams,
    TransportParams,
    paper_machine,
    xbgas_transport,
    rdma_transport,
    mpi_transport,
)
from .runtime import Machine, XBRTime
from .types import TYPE_TABLE, TYPENAMES, typeinfo, dtype_of
from .errors import XbgasError

__version__ = "0.1.0"

__all__ = [
    "Machine",
    "XBRTime",
    "MachineConfig",
    "MemoryParams",
    "CacheParams",
    "TlbParams",
    "TransportParams",
    "paper_machine",
    "xbgas_transport",
    "rdma_transport",
    "mpi_transport",
    "TYPE_TABLE",
    "TYPENAMES",
    "typeinfo",
    "dtype_of",
    "XbgasError",
    "__version__",
]
