"""Simple undirected graphs with a deterministic vertex/edge order.

Vertices are the integers 0..p-1.  Edges are held as a lexicographically
sorted tuple of (i, j) pairs with i < j; that order is a contract, since
derived constructions (subdivision vertices, line-graph vertices) index
edges by their position in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

MAX_VERTICES = 4096


class EdgeListError(ValueError):
    """Malformed edge-list input."""


def _check_cap(p: int) -> None:
    """Reject a vertex count over MAX_VERTICES, before anything is built."""
    if p > MAX_VERTICES:
        raise ValueError(f"vertex count {p} exceeds cap {MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..p-1.

    Edge input is normalised: pairs are reordered to i < j, sorted, and
    deduplicated (set semantics).  p = 0 denotes the empty graph, which
    only arises as a line-graph image.
    """

    p: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.p}")
        _check_cap(self.p)
        seen: set[tuple[int, int]] = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if i > j:
                i, j = j, i
            if not 0 <= i < j < self.p:
                raise ValueError(f"edge ({i},{j}) out of range for p={self.p}")
            seen.add((i, j))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @property
    def q(self) -> int:
        return len(self.edges)


def neighbor_sets(g: Graph) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(g.p)]
    for i, j in g.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return nbrs


@dataclass(frozen=True)
class DegreeInfo:
    degrees: tuple[int, ...]
    regular: Optional[int]  # common degree r, or None


def degree_info(g: Graph) -> DegreeInfo:
    deg = [0] * g.p
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    regular = deg[0] if g.p > 0 and len(set(deg)) == 1 else None
    return DegreeInfo(degrees=tuple(deg), regular=regular)


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.p, g.p))
    for i, j in g.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def component_counts(g: Graph) -> tuple[int, int]:
    """Numbers of components and of bipartite ones, from one 2-colouring walk."""
    nbrs = neighbor_sets(g)
    colour: list[Optional[int]] = [None] * g.p
    components = bipartite = 0
    for start in range(g.p):
        if colour[start] is None:
            colour[start], stack, clash = 0, [start], False
            while stack:
                v = stack.pop()
                for w in nbrs[v]:
                    if colour[w] is None:
                        colour[w] = 1 - colour[v]
                        stack.append(w)
                    clash = clash or colour[w] == colour[v]
            components += 1
            bipartite += not clash
    return components, bipartite


def is_connected(g: Graph) -> bool:
    return component_counts(g)[0] <= 1


# ----------------------------------------------------------------------
# standard families

def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    _check_cap(n)
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    _check_cap(n)
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    _check_cap(n)
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"complete bipartite needs both parts >= 1, got {a},{b}")
    _check_cap(a + b)
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(outer + spokes + inner))


# ----------------------------------------------------------------------
# edge-list files: header "p q", then q lines "i j" with 0 <= i < j < p,
# '#' lines are comments

def read_edge_list(data: bytes | str) -> Graph:
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise EdgeListError("malformed header: empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError(f"malformed header: expected 'p q', got {lines[0]!r}")
    try:
        p, q = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListError(f"malformed header: expected 'p q', got {lines[0]!r}") from None
    if p < 0 or q < 0:
        raise EdgeListError(f"malformed header: negative count in {lines[0]!r}")
    if p > MAX_VERTICES:
        raise EdgeListError(f"vertex count {p} exceeds cap {MAX_VERTICES}")
    body = lines[1:]
    if len(body) != q:
        raise EdgeListError(f"expected {q} edge lines, found {len(body)}")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeListError(f"malformed edge line {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"malformed edge line {ln!r}") from None
        if i == j:
            raise EdgeListError(f"self-loop at vertex {i}")
        if i > j:
            raise EdgeListError(f"edge endpoints out of order in {ln!r}")
        if not 0 <= i < j < p:
            raise EdgeListError(f"vertex index out of range in {ln!r} (p={p})")
        if (i, j) in seen:
            raise EdgeListError(f"duplicate edge ({i},{j})")
        seen.add((i, j))
        edges.append((i, j))
    return Graph(p, tuple(edges))


def write_edge_list(g: Graph) -> bytes:
    out = [f"{g.p} {g.q}"]
    out.extend(f"{i} {j}" for i, j in g.edges)
    return ("\n".join(out) + "\n").encode("ascii")
