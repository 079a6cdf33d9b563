"""Interconnect topologies.

The binomial-tree collectives make no topology assumption (paper section
4.2) — they must work on a torus as well as a hypercube.  The topology
module supplies hop counts between nodes so the network model can scale
wire latency with distance, and the ablation benches can compare
collective performance across topologies.

Graphs are built with :mod:`networkx`; hop counts are precomputed with a
BFS per node (all edges have unit weight).  networkx is an optional
dependency (the ``topology`` extra), imported only here, when a graph is
built: the default fully-connected network has no graph and never
imports it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from ..errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["Topology", "build_topology", "TOPOLOGY_NAMES"]

TOPOLOGY_NAMES = ("fully-connected", "ring", "torus", "hypercube", "star")


class Topology:
    """A node interconnect graph with precomputed hop counts."""

    def __init__(self, name: str, graph: nx.Graph):
        import networkx as nx

        if graph.number_of_nodes() == 0:
            raise NetworkError("topology needs at least one node")
        if graph.number_of_nodes() > 1 and not nx.is_connected(graph):
            raise NetworkError(f"{name} topology is not connected")
        self.name = name
        self.graph = graph
        self.n_nodes = graph.number_of_nodes()
        self._hops: list[list[int]] = [
            [0] * self.n_nodes for _ in range(self.n_nodes)
        ]
        for src, dists in nx.all_pairs_shortest_path_length(graph):
            for dst, d in dists.items():
                self._hops[src][dst] = d
        self.diameter = max(
            (d for row in self._hops for d in row), default=0
        )

    def hops(self, src: int, dst: int) -> int:
        """Shortest-path hop count between nodes ``src`` and ``dst``."""
        try:
            return self._hops[src][dst]
        except IndexError:
            raise NetworkError(
                f"node out of range: {src}->{dst} (n_nodes={self.n_nodes})"
            ) from None

    def degree(self, node: int) -> int:
        return self.graph.degree[node]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.name!r}, n={self.n_nodes}, "
            f"diameter={self.diameter})"
        )


def _torus_dims(n: int) -> tuple[int, int]:
    """Pick the most square 2-D factorisation of ``n``."""
    best = (1, n)
    for a in range(1, int(math.isqrt(n)) + 1):
        if n % a == 0:
            best = (a, n // a)
    return best


@lru_cache(maxsize=64)
def build_topology(name: str, n_nodes: int) -> Topology:
    """Construct a named topology over ``n_nodes`` nodes.

    Supported names: ``fully-connected``, ``ring``, ``torus`` (2-D, most
    square factorisation), ``hypercube`` (requires a power-of-two node
    count) and ``star``.

    Results are memoized: a topology (graph + hop matrix) is logically
    immutable and pure in its arguments, and the all-pairs BFS dominates
    machine-construction time for sweeps that build many machines.
    """
    if n_nodes <= 0:
        raise NetworkError("n_nodes must be positive")
    import networkx as nx

    if name == "fully-connected":
        g = nx.complete_graph(n_nodes)
    elif name == "ring":
        g = nx.cycle_graph(n_nodes) if n_nodes > 2 else nx.path_graph(n_nodes)
    elif name == "torus":
        a, b = _torus_dims(n_nodes)
        if min(a, b) == 1:
            g = nx.cycle_graph(n_nodes) if n_nodes > 2 else nx.path_graph(n_nodes)
        else:
            grid = nx.grid_2d_graph(a, b, periodic=True)
            g = nx.convert_node_labels_to_integers(grid, ordering="sorted")
    elif name == "hypercube":
        dim = n_nodes.bit_length() - 1
        if (1 << dim) != n_nodes:
            raise NetworkError(
                f"hypercube needs a power-of-two node count, got {n_nodes}"
            )
        g = nx.hypercube_graph(dim) if dim > 0 else nx.complete_graph(1)
        g = nx.convert_node_labels_to_integers(g, ordering="sorted")
    elif name == "star":
        g = nx.star_graph(n_nodes - 1) if n_nodes > 1 else nx.complete_graph(1)
    else:
        raise NetworkError(
            f"unknown topology {name!r}; expected one of {TOPOLOGY_NAMES}"
        )
    return Topology(name, g)
