"""Simple undirected graphs with a deterministic vertex/edge order.

Vertices are the integers 0..p-1.  Edges are held as a lexicographically
sorted tuple of (i, j) pairs with i < j; that order is a contract, since
derived constructions (subdivision vertices, line-graph vertices) index
edges by their position in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

MAX_VERTICES = 4096
# Building a graph takes up to about 320 bytes per edge, so 2**19 edges keep
# any accepted ``gen`` or ``op`` request under a 200 MB peak (30 MB interpreter).
MAX_EDGES = 1 << 19


class EdgeListError(ValueError):
    """Malformed edge-list input."""


def check_size(p: int, q: int, result: Optional[str] = None) -> None:
    """Reject p vertices or q edges over MAX_VERTICES or MAX_EDGES.  Every
    source and operation predicts its (p, q) and calls this before it builds
    an edge; ``result`` names an operation's result in the message."""
    for n, cap, one, many in ((p, MAX_VERTICES, "vertex", "vertices"),
                              (q, MAX_EDGES, "edge", "edges")):
        if n > cap:
            raise ValueError(f"{result} would exceed {cap} {many}" if result
                             else f"{one} count {n} exceeds cap {cap}")


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
        seen: set[tuple[int, int]] = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if i > j:
                i, j = j, i
            if not 0 <= i < j < self.p:
                raise ValueError(f"edge ({i},{j}) out of range for p={self.p}")
            seen.add((i, j))
        check_size(self.p, len(seen))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @property
    def q(self) -> int:
        return len(self.edges)


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
    nbrs: list[set[int]] = [set() for _ in range(g.p)]
    for i, j in g.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
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


# ----------------------------------------------------------------------
# standard families

def family_size(kind: str, *args: int) -> tuple[int, int, int]:
    """(p, q, s) of C_n, P_n or K_n (kind "C", "P" or "K" and n), of K_{a,b}
    ("K", a, b) or of "petersen", where s is the sum of C(d, 2) over the
    degrees.  It checks the parameters and the caps, so that a family member,
    and an operation on one, is sized before anything is built."""
    if kind == "petersen":
        return 10, 15, 30
    n = args[0]
    if len(args) == 2:
        b = args[1]
        if n < 1 or b < 1:
            raise ValueError(f"complete bipartite needs both parts >= 1, got {n},{b}")
        p, q, s = n + b, n * b, n * comb(b, 2) + b * comb(n, 2)
    elif kind == "C":
        if n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n}")
        p, q, s = n, n, n
    elif kind == "P":
        if n < 1:
            raise ValueError(f"path needs n >= 1, got {n}")
        p, q, s = n, n - 1, max(n - 2, 0)
    else:
        if n < 1:
            raise ValueError(f"complete graph needs n >= 1, got {n}")
        p, q, s = n, comb(n, 2), n * comb(n - 1, 2)
    check_size(p, q)
    return p, q, s


def cycle(n: int) -> Graph:
    family_size("C", n)
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    family_size("P", n)
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete(n: int) -> Graph:
    family_size("K", n)
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(a: int, b: int) -> Graph:
    family_size("K", a, b)
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(outer + spokes + inner))


# ----------------------------------------------------------------------
# edge-list files: header "p q", then q lines "i j" with 0 <= i < j < p,
# '#' lines are comments; bytes are UTF-8, with or without a byte-order mark

def read_edge_list(data: bytes | str) -> Graph:
    text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise EdgeListError("malformed header: empty input")
    try:
        p, q = map(int, lines[0].split())
    except ValueError:
        raise EdgeListError(f"malformed header: expected 'p q', got {lines[0]!r}") from None
    if p < 0 or q < 0:
        raise EdgeListError(f"malformed header: negative count in {lines[0]!r}")
    check_size(p, q)
    body = lines[1:]
    if len(body) != q:
        raise EdgeListError(f"expected {q} edge lines, found {len(body)}")
    seen: set[tuple[int, int]] = set()
    for ln in body:
        try:
            i, j = map(int, ln.split())
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
    return Graph(p, tuple(seen))


def write_edge_list(g: Graph) -> bytes:
    return "".join([f"{g.p} {g.q}\n", *(f"{i} {j}\n" for i, j in g.edges)]).encode("ascii")
