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

from .graphs import MAX_VERTICES, Graph, check_size, degree_info, natural


def _joined_copies(g: Graph, k: int, joined: Iterable[tuple[int, int]],
                   matched: Iterable[tuple[int, int]]) -> Graph:
    """k copies of g, with copies joined along edges and vertex to vertex.

    A pair (i, j) in ``joined`` adds i*p+u ~ j*p+v and i*p+v ~ j*p+u for
    every edge uv ((i, i) keeps copy i's own edges, each once), one in
    ``matched`` i*p+v ~ j*p+v for every vertex v.  ``joined`` may be lazy,
    and is not read if g has no edge.
    """
    p = g.p
    edges = [(i * p + x, j * p + y) for i, j in (joined if g.edges else ())
             for u, v in g.edges for x, y in ((u, v), (v, u))[:1 + (i != j)]]
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


def _subdivision(g: Graph, extra: Iterable[tuple[int, int]]) -> Graph:
    """Each edge e = uv of g becomes the path u ~ p+e ~ v; ``extra`` edges are added."""
    edges = [(w, g.p + e) for e, uv in enumerate(g.edges) for w in uv]
    return Graph(g.p + g.q, (*edges, *extra))


def _param(*rules: tuple[bool, str]) -> None:
    """Reject a parameter out of range, before any size is formed from it."""
    for ok, text in rules:
        if not ok:
            raise ValueError(text)


def middle_graph(g: Graph) -> Graph:
    """Subdivide every edge and join subdivision vertices of adjacent edges."""
    OPS["middle"].check(g)
    return _subdivision(g, ((g.p + e, g.p + f) for e, f in _adjacent_edges(g)))


def central_graph(g: Graph) -> Graph:
    """Subdivide every edge and join every pair of non-adjacent originals."""
    OPS["central"].check(g)
    present = set(g.edges)
    return _subdivision(g, (uv for uv in itertools.combinations(range(g.p), 2)
                            if uv not in present))


def splitting_graph(g: Graph, m: int) -> Graph:
    """Add m twin copies of every vertex, each joined to the original's neighbors."""
    OPS["splitting"].check(g, m)
    return _joined_copies(g, m + 1, ((0, i) for i in range(m + 1)), ())


def closed_splitting_graph(g: Graph) -> Graph:
    """Splitting with one copy, plus an edge from each vertex to its copy."""
    OPS["closed-splitting"].check(g)
    return _joined_copies(g, 2, ((0, 0), (0, 1)), ((0, 1),))


def shadow_graph(g: Graph, m: int) -> Graph:
    """m copies of g with copy_i(u) ~ copy_j(v) for every edge uv and all i, j."""
    OPS["shadow"].check(g, m)
    return _joined_copies(g, m, ((i, j) for i in range(m) for j in range(i, m)), ())


def closed_shadow_graph(g: Graph) -> Graph:
    """Two copies joined across every edge both ways, plus a perfect matching."""
    OPS["closed-shadow"].check(g)
    return _joined_copies(g, 2, ((0, 0), (1, 1), (0, 1)), ((0, 1),))


def ebd_graph(g: Graph) -> Graph:
    """Extended bipartite double: u_i ~ w_j iff i = j or ij is an edge."""
    OPS["ebd"].check(g)
    return _joined_copies(g, 2, ((0, 1),), ((0, 1),))


def line_graph(g: Graph) -> Graph:
    """Vertices are the edges of g; adjacency is sharing an endpoint."""
    OPS["line"].check(g)
    return Graph(g.q, tuple(_adjacent_edges(g)))


def iterated_line_graph(g: Graph, k: int) -> Graph:
    """L^k(g), each level sized before it is built."""
    OPS["line"].valid(k)
    for _ in range(k):
        g = line_graph(g)
    return g


def duplicate_graph(g: Graph, m: int) -> Graph:
    """m rounds of u' ~ v, v' ~ u per edge uv: 2**m copies, each joined to
    the copy whose index is its bitwise complement."""
    OPS["duplicate"].check(g, m)
    k = 1 << m
    return _joined_copies(g, k, ((i, k - 1 - i) for i in range(k // 2)), ())


class _Op(NamedTuple):
    param: Optional[str]                  # parameter letter, or None for a plain operation
    result: str                           # what a size error calls the result
    size: Callable[..., tuple[int, int]]  # size(p, q, s[, param]) -> the result's (p, q)
    build: Callable[..., Graph]           # build(g) or build(g, param)
    valid: Optional[Callable[[int], None]] = None  # valid(param) rejects one out of range

    def check(self, g: Graph, *param: int) -> tuple[int, int]:
        """Check the parameter, then the result's size, before it is built;
        return that (p, q).  It is one application's: for line:k, k >= 2,
        the first level's, since line is checked level by level."""
        return self.check_counts(g.p, g.q, sum(d * (d - 1) // 2 for d in degree_info(g).degrees),
                                 *param)

    def check_counts(self, p: int, q: int, s: int, *param: int) -> tuple[int, int]:
        """The same check from the argument's p, q and s, the number of pairs
        of its edges that share an end: the sum of C(d, 2) over its degrees."""
        if param:
            self.valid(*param)
        size = self.size(p, q, s, *param)
        check_size(*size, self.result)
        return size


# The one list of operations: name -> parameter letter, size, builder and the
# parameter's range.  Each builder checks its size first; line's is one level's,
# checked at each level, and line:0 is its argument.
OPS: dict[str, _Op] = {
    "middle": _Op(None, "middle graph", lambda p, q, s: (p + q, 2 * q + s), middle_graph),
    "central": _Op(None, "central graph",
                   lambda p, q, s: (p + q, q + p * (p - 1) // 2), central_graph),
    "splitting": _Op("m", "splitting result",
                     lambda p, q, s, m: ((m + 1) * p, (2 * m + 1) * q), splitting_graph,
                     lambda m: _param((m >= 1, f"splitting needs m >= 1, got {m}"))),
    "closed-splitting": _Op(None, "closed splitting result",
                            lambda p, q, s: (2 * p, 3 * q + p), closed_splitting_graph),
    "shadow": _Op("m", "shadow result", lambda p, q, s, m: (m * p, m * m * q), shadow_graph,
                  lambda m: _param((m >= 2, f"shadow needs m >= 2, got {m}"))),
    "closed-shadow": _Op(None, "closed shadow result",
                         lambda p, q, s: (2 * p, 4 * q + p), closed_shadow_graph),
    "ebd": _Op(None, "extended bipartite double", lambda p, q, s: (2 * p, 2 * q + p), ebd_graph),
    # k is capped as L(C_n) = C_n
    "line": _Op("k", "line graph", lambda p, q, s, k=1: (q, s) if k else (p, q),
                iterated_line_graph,
                lambda k: _param((k >= 0, f"line iteration needs k >= 0, got {k}"),
                                 (k <= MAX_VERTICES,
                                  f"line iteration needs k <= {MAX_VERTICES}, got {k}"))),
    # from m = 13 on, 2**m copies alone exceed the cap; 2**m is never formed
    "duplicate": _Op("m", "duplication result",
                     lambda p, q, s, m: (p << m, q << m), duplicate_graph,
                     lambda m: _param((m >= 1, f"duplication needs m >= 1, got {m}"),
                                      (m < MAX_VERTICES.bit_length(),
                                       f"duplication result would exceed {MAX_VERTICES} vertices"))),
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

    @property
    def args(self) -> tuple[int, ...]:
        """The parameter as the builders and checks take it: () or (param,)."""
        return () if self.param is None else (self.param,)


def _usage(name: str) -> str:
    return name if OPS[name].param is None else f"{name}:<{OPS[name].param}>"


def split_op(text: str) -> tuple[OpDescriptor, Optional[str]]:
    """Split '<name>[:<param>]' off the front of ``text``: the operation, and
    the text after the ':' that follows it, or None when nothing follows."""
    name, sep, rest = text.partition(":")
    if name not in OPS:
        raise ValueError(f"unknown operation {name!r}")
    if OPS[name].param is None:
        return OpDescriptor(name), rest if sep else None
    param, sep, rest = rest.partition(":")
    try:
        value = natural(param)
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
    return OPS[op.name].build(g, *op.args)
