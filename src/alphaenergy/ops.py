"""Unary graph operations.

Every operation fixes a deterministic labelling of the result so that
spectra, edge lists and tests are reproducible:

* middle/central: vertices 0..p-1 are the originals, p+e is the vertex
  for edge e (in lexicographic edge order).
* splitting/shadow: copy i of vertex v is i*p + v (copy 0 = originals).
* closed splitting, closed shadow, extended bipartite double, duplicate:
  the partner of vertex v is p + v.
* line: vertex e of the result is edge e of the argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .graphs import MAX_VERTICES, Graph


def _norm(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def middle_graph(g: Graph) -> Graph:
    """Subdivide every edge and join subdivision vertices of adjacent edges."""
    p = g.p
    if p + g.q > MAX_VERTICES:
        raise ValueError(f"middle graph would exceed {MAX_VERTICES} vertices")
    edges: list[tuple[int, int]] = []
    for e, (u, v) in enumerate(g.edges):
        edges.append((u, p + e))
        edges.append((v, p + e))
    incident: list[list[int]] = [[] for _ in range(p)]
    for e, (u, v) in enumerate(g.edges):
        incident[u].append(e)
        incident[v].append(e)
    for lst in incident:
        for e, f in itertools.combinations(lst, 2):
            edges.append((p + e, p + f))
    return Graph(p + g.q, tuple(edges))


def central_graph(g: Graph) -> Graph:
    """Subdivide every edge and join every pair of non-adjacent originals."""
    p = g.p
    if p + g.q > MAX_VERTICES:
        raise ValueError(f"central graph would exceed {MAX_VERTICES} vertices")
    edges: list[tuple[int, int]] = []
    for e, (u, v) in enumerate(g.edges):
        edges.append((u, p + e))
        edges.append((v, p + e))
    present = set(g.edges)
    for u in range(p):
        for v in range(u + 1, p):
            if (u, v) not in present:
                edges.append((u, v))
    return Graph(p + g.q, tuple(edges))


def splitting_graph(g: Graph, m: int) -> Graph:
    """Add m twin copies of every vertex, each joined to the original's neighbors."""
    if m < 1:
        raise ValueError(f"splitting needs m >= 1, got {m}")
    p = g.p
    if p * (m + 1) > MAX_VERTICES:
        raise ValueError(f"splitting result would exceed {MAX_VERTICES} vertices")
    edges = list(g.edges)
    for i in range(1, m + 1):
        for u, v in g.edges:
            edges.append(_norm(u, i * p + v))
            edges.append(_norm(v, i * p + u))
    return Graph(p * (m + 1), tuple(edges))


def closed_splitting_graph(g: Graph) -> Graph:
    """Splitting with one copy, plus an edge from each vertex to its copy."""
    p = g.p
    if 2 * p > MAX_VERTICES:
        raise ValueError(f"closed splitting result would exceed {MAX_VERTICES} vertices")
    edges = list(g.edges)
    edges.extend((v, p + v) for v in range(p))
    for u, v in g.edges:
        edges.append(_norm(u, p + v))
        edges.append(_norm(v, p + u))
    return Graph(2 * p, tuple(edges))


def shadow_graph(g: Graph, m: int) -> Graph:
    """m copies of g with copy_i(u) ~ copy_j(v) for every edge uv and all i, j."""
    if m < 2:
        raise ValueError(f"shadow needs m >= 2, got {m}")
    p = g.p
    if p * m > MAX_VERTICES:
        raise ValueError(f"shadow result would exceed {MAX_VERTICES} vertices")
    edges = []
    for u, v in g.edges:
        for i in range(m):
            for j in range(m):
                edges.append(_norm(i * p + u, j * p + v))
    return Graph(p * m, tuple(set(edges)))


def closed_shadow_graph(g: Graph) -> Graph:
    """Two copies joined across every edge both ways, plus a perfect matching."""
    p = g.p
    if 2 * p > MAX_VERTICES:
        raise ValueError(f"closed shadow result would exceed {MAX_VERTICES} vertices")
    edges = list(g.edges)
    edges.extend((p + u, p + v) for u, v in g.edges)
    for u, v in g.edges:
        edges.append(_norm(u, p + v))
        edges.append(_norm(v, p + u))
    edges.extend((v, p + v) for v in range(p))
    return Graph(2 * p, tuple(edges))


def ebd_graph(g: Graph) -> Graph:
    """Extended bipartite double: u_i ~ w_j iff i = j or ij is an edge."""
    p = g.p
    if 2 * p > MAX_VERTICES:
        raise ValueError(f"extended bipartite double would exceed {MAX_VERTICES} vertices")
    edges = [(v, p + v) for v in range(p)]
    for u, v in g.edges:
        edges.append((u, p + v))
        edges.append((v, p + u))
    return Graph(2 * p, tuple(edges))


def line_graph(g: Graph) -> Graph:
    """Vertices are the edges of g; adjacency is sharing an endpoint."""
    if g.q > MAX_VERTICES:
        raise ValueError(f"line graph would exceed {MAX_VERTICES} vertices")
    incident: list[list[int]] = [[] for _ in range(g.p)]
    for e, (u, v) in enumerate(g.edges):
        incident[u].append(e)
        incident[v].append(e)
    edges = []
    for lst in incident:
        for e, f in itertools.combinations(lst, 2):
            edges.append((e, f))
    return Graph(g.q, tuple(set(edges)))


def iterated_line_graph(g: Graph, k: int) -> Graph:
    if k < 0:
        raise ValueError(f"line iteration needs k >= 0, got {k}")
    out = g
    for _ in range(k):
        out = line_graph(out)
    return out


def duplicate_graph(g: Graph, m: int) -> Graph:
    """m rounds of duplication; one round joins u' ~ v and v' ~ u per edge uv."""
    if m < 1:
        raise ValueError(f"duplication needs m >= 1, got {m}")
    if g.p * 2 ** m > MAX_VERTICES:
        raise ValueError(f"duplication result would exceed {MAX_VERTICES} vertices")
    out = g
    for _ in range(m):
        p = out.p
        edges = []
        for u, v in out.edges:
            edges.append(_norm(u, p + v))
            edges.append(_norm(v, p + u))
        out = Graph(2 * p, tuple(edges))
    return out


class _Op(NamedTuple):
    param: Optional[str]            # parameter letter, or None for a plain operation
    build: Callable[..., Graph]     # build(g) or build(g, param)


# The one list of operations: name -> parameter letter and builder.
OPS: dict[str, _Op] = {
    "middle": _Op(None, middle_graph),
    "central": _Op(None, central_graph),
    "splitting": _Op("m", splitting_graph),
    "closed-splitting": _Op(None, closed_splitting_graph),
    "shadow": _Op("m", shadow_graph),
    "closed-shadow": _Op(None, closed_shadow_graph),
    "ebd": _Op(None, ebd_graph),
    "line": _Op("k", iterated_line_graph),
    "duplicate": _Op("m", duplicate_graph),
}


@dataclass(frozen=True)
class OpDescriptor:
    name: str
    param: Optional[int] = None

    def __post_init__(self) -> None:
        if self.name not in OPS:
            raise ValueError(f"unknown operation {self.name!r}")
        if (OPS[self.name].param is None) != (self.param is None):
            raise ValueError(f"operation {self.name!r} takes the form '{_usage(self.name)}'")


def _usage(name: str) -> str:
    letter = OPS[name].param
    return name if letter is None else f"{name}:<{letter}>"


def split_op(text: str) -> tuple[OpDescriptor, Optional[str]]:
    """Split '<name>[:<param>]' off the front of ``text``.

    Returns the operation and the text after the ':' that follows it, or
    None when nothing follows.
    """
    name, sep, rest = text.partition(":")
    if name not in OPS:
        raise ValueError(f"unknown operation {name!r}")
    if OPS[name].param is None:
        return OpDescriptor(name), rest if sep else None
    param, sep, rest = rest.partition(":")
    try:
        value = int(param)
    except ValueError:
        raise ValueError(f"expected '{_usage(name)}', got {text!r}") from None
    return OpDescriptor(name, value), rest if sep else None


def parse_op(text: str) -> OpDescriptor:
    """Parse 'middle', 'splitting:2', 'line:3', ... into an OpDescriptor."""
    op, rest = split_op(text)
    if rest is not None:
        raise ValueError(f"expected '{_usage(op.name)}', got {text!r}")
    return op


def op_label(op: OpDescriptor) -> str:
    return op.name if op.param is None else f"{op.name}:{op.param}"


def apply_op(op: OpDescriptor, g: Graph) -> Graph:
    build = OPS[op.name].build
    return build(g) if op.param is None else build(g, op.param)
