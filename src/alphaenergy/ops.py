"""Unary graph operations, built from two shared constructions.

* Joined copies: splitting, closed splitting, shadow, closed shadow,
  extended bipartite double and duplicate take k copies of g, copy i of
  vertex v labelled i*p + v (copy 0 = originals), and join chosen pairs of
  copies along every edge of g or vertex to vertex.
* Subdivision: middle and central keep the originals as 0..p-1 and add
  vertex p+e (edge e in lexicographic order) joined to both ends of e.

Line: vertex e of the result is edge e of the argument.  These labellings
are fixed so that spectra, edge lists and tests are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .graphs import MAX_VERTICES, Graph


def _joined_copies(g: Graph, k: int, joined: Iterable[tuple[int, int]],
                   matched: Iterable[tuple[int, int]], result: str) -> Graph:
    """k copies of g, with copies joined along edges and vertex to vertex.

    A pair (i, j) in ``joined`` adds i*p+u ~ j*p+v and i*p+v ~ j*p+u for
    every edge uv ((i, i) keeps copy i's own edges), one in ``matched``
    i*p+v ~ j*p+v for every vertex v.  Pairs may be lazy: none is read
    before the vertex cap passes, and ``joined`` not if g has no edge.
    """
    p = g.p
    if p * k > MAX_VERTICES:
        raise ValueError(f"{result} would exceed {MAX_VERTICES} vertices")
    edges = [(i * p + x, j * p + y) for i, j in (joined if g.edges else ())
             for u, v in g.edges for x, y in ((u, v), (v, u))]
    edges += [(i * p + v, j * p + v) for i, j in matched for v in range(p)]
    return Graph(p * k, tuple(edges))


def _adjacent_edges(g: Graph) -> Iterator[tuple[int, int]]:
    """Yield each pair e < f of edge indices of g whose edges share an endpoint."""
    incident: list[list[int]] = [[] for _ in range(g.p)]
    for e, (u, v) in enumerate(g.edges):
        incident[u].append(e)
        incident[v].append(e)
    for lst in incident:
        yield from itertools.combinations(lst, 2)


def _subdivision(g: Graph, extra: Iterable[tuple[int, int]], result: str) -> Graph:
    """Each edge e = uv of g becomes the path u ~ p+e ~ v; ``extra`` edges
    are added, and may be lazy: they are read after the vertex cap passes."""
    p = g.p
    if p + g.q > MAX_VERTICES:
        raise ValueError(f"{result} would exceed {MAX_VERTICES} vertices")
    edges = [(w, p + e) for e, uv in enumerate(g.edges) for w in uv]
    edges += extra
    return Graph(p + g.q, tuple(edges))


def middle_graph(g: Graph) -> Graph:
    """Subdivide every edge and join subdivision vertices of adjacent edges."""
    return _subdivision(g, ((g.p + e, g.p + f) for e, f in _adjacent_edges(g)),
                        "middle graph")


def central_graph(g: Graph) -> Graph:
    """Subdivide every edge and join every pair of non-adjacent originals."""
    present = set(g.edges)
    return _subdivision(g, (uv for uv in itertools.combinations(range(g.p), 2)
                            if uv not in present), "central graph")


def splitting_graph(g: Graph, m: int) -> Graph:
    """Add m twin copies of every vertex, each joined to the original's neighbors."""
    if m < 1:
        raise ValueError(f"splitting needs m >= 1, got {m}")
    return _joined_copies(g, m + 1, ((0, i) for i in range(m + 1)), (),
                          "splitting result")


def closed_splitting_graph(g: Graph) -> Graph:
    """Splitting with one copy, plus an edge from each vertex to its copy."""
    return _joined_copies(g, 2, ((0, 0), (0, 1)), ((0, 1),), "closed splitting result")


def shadow_graph(g: Graph, m: int) -> Graph:
    """m copies of g with copy_i(u) ~ copy_j(v) for every edge uv and all i, j."""
    if m < 2:
        raise ValueError(f"shadow needs m >= 2, got {m}")
    return _joined_copies(g, m, ((i, j) for i in range(m) for j in range(i, m)), (),
                          "shadow result")


def closed_shadow_graph(g: Graph) -> Graph:
    """Two copies joined across every edge both ways, plus a perfect matching."""
    return _joined_copies(g, 2, ((0, 0), (1, 1), (0, 1)), ((0, 1),), "closed shadow result")


def ebd_graph(g: Graph) -> Graph:
    """Extended bipartite double: u_i ~ w_j iff i = j or ij is an edge."""
    return _joined_copies(g, 2, ((0, 1),), ((0, 1),), "extended bipartite double")


def line_graph(g: Graph) -> Graph:
    """Vertices are the edges of g; adjacency is sharing an endpoint."""
    if g.q > MAX_VERTICES:
        raise ValueError(f"line graph would exceed {MAX_VERTICES} vertices")
    return Graph(g.q, tuple(_adjacent_edges(g)))


def iterated_line_graph(g: Graph, k: int) -> Graph:
    if k < 0:
        raise ValueError(f"line iteration needs k >= 0, got {k}")
    if k > MAX_VERTICES:
        raise ValueError(f"line iteration needs k <= {MAX_VERTICES}, got {k}")
    out = g
    for _ in range(k):
        out = line_graph(out)
    return out


def duplicate_graph(g: Graph, m: int) -> Graph:
    """m rounds of u' ~ v, v' ~ u per edge uv: 2**m copies, each joined to
    the copy whose index is its bitwise complement."""
    if m < 1:
        raise ValueError(f"duplication needs m >= 1, got {m}")
    if m >= MAX_VERTICES.bit_length():     # 2**m copies alone exceed the cap
        raise ValueError(f"duplication result would exceed {MAX_VERTICES} vertices")
    k = 1 << m
    return _joined_copies(g, k, ((i, k - 1 - i) for i in range(k // 2)), (),
                          "duplication result")


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
