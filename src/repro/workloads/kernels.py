"""The five GraphBIG kernels as instrumented memory-reference generators.

Each kernel runs the real algorithm over a CSR graph and yields a
:class:`MemoryRef` for every data-structure touch: CSR offset/edge reads
(sequential), per-node property reads/writes (random for BFS/CC, streamed
for PR), etc.  Per-node record sizes follow each workload's property
struct so the working sets reproduce the paper's LLC MPKI ordering
(BC 0.57 < PR 1.86 < TC 5.08 < BFS 38.59 < CC 45.2) at simulation scale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.workloads.graphs import CSRGraph, generate_graph


@dataclass(frozen=True, slots=True)
class MemoryRef:
    """One memory touch: preceded by ``compute_cycles`` of non-memory work."""

    addr: int
    is_write: bool
    pc: int
    compute_cycles: int


@dataclass(frozen=True)
class Layout:
    """Address-space placement of a kernel's data structures."""

    offsets_base: int = 0x0400_0000
    edges_base: int = 0x0800_0000
    data_base: int = 0x1000_0000
    data2_base: int = 0x1800_0000
    offset_bytes: int = 8
    edge_bytes: int = 8
    node_bytes: int = 64

    def offset_addr(self, u: int) -> int:
        return self.offsets_base + u * self.offset_bytes

    def edge_addr(self, i: int) -> int:
        return self.edges_base + i * self.edge_bytes

    def data_addr(self, u: int) -> int:
        return self.data_base + u * self.node_bytes

    def data2_addr(self, u: int) -> int:
        return self.data2_base + u * self.node_bytes


# PC labels, one per access site, so the prefetchers see stable streams.
_PC = {name: 0x400000 + i * 16 for i, name in enumerate(
    ["offset", "edge", "node_r", "node_w", "aux_r", "aux_w"])}

KernelFn = Callable[..., Iterator[MemoryRef]]


def _ref(layout: Layout, site: str, addr: int, compute: int,
         is_write: bool = False) -> MemoryRef:
    return MemoryRef(addr=addr, is_write=is_write, pc=_PC[site],
                     compute_cycles=compute)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def bfs_kernel(graph: CSRGraph, layout: Layout, compute: int = 2,
               source: int = 0) -> Iterator[MemoryRef]:
    """Breadth-first search: sequential CSR scans + random visited checks."""
    visited = [False] * graph.num_nodes
    visited[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        yield _ref(layout, "offset", layout.offset_addr(u), compute)
        yield _ref(layout, "offset", layout.offset_addr(u + 1), compute)
        for i in range(graph.offsets[u], graph.offsets[u + 1]):
            yield _ref(layout, "edge", layout.edge_addr(i), compute)
            v = graph.edges[i]
            yield _ref(layout, "node_r", layout.data_addr(v), compute)
            if not visited[v]:
                visited[v] = True
                yield _ref(layout, "node_w", layout.data_addr(v), compute,
                           is_write=True)
                queue.append(v)


def pagerank_kernel(graph: CSRGraph, layout: Layout, compute: int = 6,
                    iterations: int = 1,
                    damping: float = 0.85) -> Iterator[MemoryRef]:
    """PageRank: streaming CSR traversal + rank gathers + rank writes."""
    rank = [1.0 / graph.num_nodes] * graph.num_nodes
    for _ in range(iterations):
        new_rank = [0.0] * graph.num_nodes
        for u in range(graph.num_nodes):
            yield _ref(layout, "offset", layout.offset_addr(u), compute)
            total = 0.0
            for i in range(graph.offsets[u], graph.offsets[u + 1]):
                yield _ref(layout, "edge", layout.edge_addr(i), compute)
                v = graph.edges[i]
                yield _ref(layout, "node_r", layout.data_addr(v), compute)
                degree = max(1, graph.degree(v))
                total += rank[v] / degree
            new_rank[u] = (1 - damping) / graph.num_nodes + damping * total
            yield _ref(layout, "aux_w", layout.data2_addr(u), compute,
                       is_write=True)
        rank = new_rank


def cc_kernel(graph: CSRGraph, layout: Layout,
              compute: int = 2) -> Iterator[MemoryRef]:
    """Connected components via union-find: random parent-chain walks."""
    parent = list(range(graph.num_nodes))

    def find(x: int):
        # Path halving: every hop is a random-looking parent read.
        while parent[x] != x:
            yield _ref(layout, "node_r", layout.data_addr(parent[x]), compute)
            parent[x] = parent[parent[x]]
            yield _ref(layout, "node_w", layout.data_addr(x), compute,
                       is_write=True)
            x = parent[x]
        return x

    for u in range(graph.num_nodes):
        for i in range(graph.offsets[u], graph.offsets[u + 1]):
            yield _ref(layout, "edge", layout.edge_addr(i), compute)
            v = graph.edges[i]
            if v < u:
                continue
            root_u = yield from find(u)
            root_v = yield from find(v)
            if root_u != root_v:
                parent[root_v] = root_u
                yield _ref(layout, "node_w", layout.data_addr(root_v),
                           compute, is_write=True)


def tc_kernel(graph: CSRGraph, layout: Layout,
              compute: int = 6) -> Iterator[MemoryRef]:
    """Triangle counting: sorted-adjacency intersections (merge scans)."""
    triangles = 0
    for u in range(graph.num_nodes):
        yield _ref(layout, "offset", layout.offset_addr(u), compute)
        for i in range(graph.offsets[u], graph.offsets[u + 1]):
            yield _ref(layout, "edge", layout.edge_addr(i), compute)
            v = graph.edges[i]
            if v <= u:
                continue
            # Merge-intersect adj(u) and adj(v): two sequential scans.
            pi, pj = graph.offsets[u], graph.offsets[v]
            end_i, end_j = graph.offsets[u + 1], graph.offsets[v + 1]
            while pi < end_i and pj < end_j:
                yield _ref(layout, "edge", layout.edge_addr(pi), compute)
                yield _ref(layout, "edge", layout.edge_addr(pj), compute)
                a, b = graph.edges[pi], graph.edges[pj]
                if a == b:
                    if a > v:
                        triangles += 1
                    pi += 1
                    pj += 1
                elif a < b:
                    pi += 1
                else:
                    pj += 1


def bc_kernel(graph: CSRGraph, layout: Layout, compute: int = 16,
              num_sources: int = 2) -> Iterator[MemoryRef]:
    """Betweenness centrality (Brandes): BFS + dependency accumulation
    from a few sources over a small, cache-resident working set."""
    for source in range(num_sources):
        sigma = [0] * graph.num_nodes
        dist = [-1] * graph.num_nodes
        sigma[source] = 1
        dist[source] = 0
        order: List[int] = []
        queue = deque([source])
        while queue:
            u = queue.popleft()
            order.append(u)
            yield _ref(layout, "offset", layout.offset_addr(u), compute)
            for i in range(graph.offsets[u], graph.offsets[u + 1]):
                yield _ref(layout, "edge", layout.edge_addr(i), compute)
                v = graph.edges[i]
                yield _ref(layout, "node_r", layout.data_addr(v), compute)
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    yield _ref(layout, "node_w", layout.data_addr(v),
                               compute, is_write=True)
        delta = [0.0] * graph.num_nodes
        for u in reversed(order):
            yield _ref(layout, "aux_r", layout.data2_addr(u), compute)
            for i in range(graph.offsets[u], graph.offsets[u + 1]):
                v = graph.edges[i]
                if dist[v] == dist[u] + 1 and sigma[v]:
                    delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
            yield _ref(layout, "aux_w", layout.data2_addr(u), compute,
                       is_write=True)


# ---------------------------------------------------------------------------
# Workload specifications (Fig. 11's five applications)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec:
    """One Fig. 11 workload: kernel + scaled input + memory layout.

    ``node_bytes``/``edge_bytes`` pad the per-element records so the
    random (node-property) and streaming (CSR-edge) footprints scale
    against the Fig. 11 experiment's cache hierarchy the way the paper's
    multi-GB inputs scale against Table 2's — the working-set-to-LLC
    ratios, not the absolute sizes, drive the defense overheads.
    """

    name: str
    kernel: KernelFn
    num_nodes: int
    avg_degree: int
    node_bytes: int
    edge_bytes: int
    compute_cycles: int
    paper_mpki: float
    seed: int = 0

    def build_graph(self) -> CSRGraph:
        return generate_graph(self.num_nodes, self.avg_degree, seed=self.seed)

    def layout(self) -> Layout:
        return Layout(node_bytes=self.node_bytes, edge_bytes=self.edge_bytes)

    def refs(self, graph: Optional[CSRGraph] = None,
             max_refs: Optional[int] = None) -> List[MemoryRef]:
        """Materialize the reference stream (optionally truncated)."""
        g = graph if graph is not None else self.build_graph()
        stream: List[MemoryRef] = []
        for ref in self.kernel(g, self.layout(), compute=self.compute_cycles):
            stream.append(ref)
            if max_refs is not None and len(stream) >= max_refs:
                break
        return stream


KERNELS: Dict[str, WorkloadSpec] = {
    # BC: tiny working set, compute-heavy -> cache-resident (MPKI 0.57).
    "BC": WorkloadSpec(name="BC", kernel=bc_kernel, num_nodes=1200,
                       avg_degree=8, node_bytes=32, edge_bytes=8,
                       compute_cycles=16, paper_mpki=0.57),
    # BFS: fat visited records + streamed CSR, little compute (38.59).
    "BFS": WorkloadSpec(name="BFS", kernel=bfs_kernel, num_nodes=4000,
                        avg_degree=8, node_bytes=320, edge_bytes=48,
                        compute_cycles=2, paper_mpki=38.59),
    # CC: union-find chains over fat parent records + edge stream (45.2).
    "CC": WorkloadSpec(name="CC", kernel=cc_kernel, num_nodes=4000,
                       avg_degree=8, node_bytes=1024, edge_bytes=64,
                       compute_cycles=2, paper_mpki=45.2),
    # TC: sequential intersections over a streamed edge array (5.08).
    "TC": WorkloadSpec(name="TC", kernel=tc_kernel, num_nodes=4000,
                       avg_degree=8, node_bytes=64, edge_bytes=96,
                       compute_cycles=6, paper_mpki=5.08),
    # PR: streaming edge array with cache-resident ranks (1.86).
    "PR": WorkloadSpec(name="PR", kernel=pagerank_kernel, num_nodes=3000,
                       avg_degree=10, node_bytes=32, edge_bytes=64,
                       compute_cycles=6, paper_mpki=1.86),
}


def workload_spec(name: str) -> WorkloadSpec:
    """Spec by name (``BC``/``BFS``/``CC``/``TC``/``PR``)."""
    try:
        return KERNELS[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(KERNELS)}"
        ) from None
