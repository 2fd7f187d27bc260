"""Synthetic graphs in CSR form for the Fig. 11 workloads."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class CSRGraph:
    """Compressed-sparse-row graph (undirected edges stored both ways).

    ``offsets`` has ``num_nodes + 1`` entries; node u's neighbors are
    ``edges[offsets[u]:offsets[u+1]]`` (sorted ascending, as GraphBIG's
    CSR loaders produce — TC's intersections rely on this).
    """

    num_nodes: int
    offsets: Tuple[int, ...]
    edges: Tuple[int, ...]

    def neighbors(self, u: int) -> Tuple[int, ...]:
        return self.edges[self.offsets[u]:self.offsets[u + 1]]

    def degree(self, u: int) -> int:
        return self.offsets[u + 1] - self.offsets[u]


def generate_graph(num_nodes: int, avg_degree: int = 8, seed: int = 0,
                   power_law: bool = True) -> CSRGraph:
    """A synthetic graph: preferential-attachment (power-law, the shape of
    GraphBIG's social/web inputs) or uniform-random.

    Deterministic under ``seed``; self-loops and duplicate edges are
    dropped.
    """
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2")
    if avg_degree < 1:
        raise ValueError("avg_degree must be >= 1")
    rng = random.Random(seed)
    target_edges = num_nodes * avg_degree // 2
    adjacency: List[set] = [set() for _ in range(num_nodes)]
    # Seed ring keeps the graph connected-ish.
    for u in range(num_nodes):
        v = (u + 1) % num_nodes
        adjacency[u].add(v)
        adjacency[v].add(u)
    endpoints: List[int] = list(range(num_nodes))  # degree-weighted pool
    added = num_nodes
    while added < target_edges:
        u = rng.randrange(num_nodes)
        if power_law:
            v = endpoints[rng.randrange(len(endpoints))]
        else:
            v = rng.randrange(num_nodes)
        if u == v or v in adjacency[u]:
            added += 1  # bounded work even on dense collisions
            continue
        adjacency[u].add(v)
        adjacency[v].add(u)
        endpoints.append(u)
        endpoints.append(v)
        added += 1
    offsets: List[int] = [0]
    edges: List[int] = []
    for u in range(num_nodes):
        neighbors = sorted(adjacency[u])
        edges.extend(neighbors)
        offsets.append(len(edges))
    return CSRGraph(num_nodes=num_nodes, offsets=tuple(offsets),
                    edges=tuple(edges))
