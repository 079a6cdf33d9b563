"""Timing substrate: caches, TLB, DRAM, nodes and the interconnect.

Models the paper's evaluation platform (section 5.1): RISC-V cores with a
256-entry TLB and 8-way set-associative L1 (16 KB) / L2 (8 MB) caches,
connected by a network whose role MPICH 3.2 played in the original
infrastructure.
"""

from .cache import Cache, CacheLevelResult
from .tlb import Tlb
from .memsys import MemoryHierarchy
from .topology import Topology, build_topology
from .network import Network
from .node import Node

__all__ = [
    "Cache",
    "CacheLevelResult",
    "Tlb",
    "MemoryHierarchy",
    "Topology",
    "build_topology",
    "Network",
    "Node",
]
