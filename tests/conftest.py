"""Shared fixtures and graph sampling helpers."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import strategies as st

from alphaenergy import (AlphaValue, Graph, RegularBase, complete,
                         complete_bipartite, cycle, petersen)


def random_graph(rng: random.Random, max_p: int = 30) -> Graph:
    """One seeded Erdos-Renyi-style graph with uniformly drawn density."""
    p = rng.randint(1, max_p)
    density = rng.random()
    edges = tuple((i, j) for i in range(p) for j in range(i + 1, p)
                  if rng.random() < density)
    return Graph(p, edges)


@st.composite
def graphs(draw, min_p: int = 1, max_p: int = 10):
    p = draw(st.integers(min_value=min_p, max_value=max_p))
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    if not pairs:
        return Graph(p)
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph(p, tuple(edges))


def regular_bases() -> list[tuple[str, Graph]]:
    """The standard regular test menagerie."""
    rows: list[tuple[str, Graph]] = []
    rows.extend((f"C{n}", cycle(n)) for n in range(3, 11))
    rows.extend((f"K{n}", complete(n)) for n in range(2, 9))
    rows.extend((f"K{a},{a}", complete_bipartite(a, a)) for a in range(2, 5))
    rows.append(("petersen", petersen()))
    return rows


@pytest.fixture(scope="session")
def bases() -> list[tuple[str, Graph]]:
    return regular_bases()


def printed_splitting_spectrum(g: Graph, m: int, a: AlphaValue) -> list[float]:
    """Spectrum of M_a(splitting_m(g)) from the discriminant as printed.

    Each base eigenvalue lambda gives the roots (total +- sqrt(disc))/2 of
    the paper's quadratic, whose discriminant leads with (a*r*(m+2))^2
    where the algebra gives (a*r*m)^2.  The two agree only at a = 0.
    """
    b = RegularBase.from_graph(g)
    al, w, r = a.numeric, 1.0 - a.numeric, b.r
    vals = [al * r] * (b.p * (m - 1))
    for lam in b.base_spectrum:
        total = al * r * (m + 2) + w * lam
        disc = ((al * r * (m + 2)) ** 2 + 2.0 * al * m * r * w * lam
                + (1.0 + 4.0 * m) * (w * lam) ** 2)
        root = math.sqrt(disc)
        vals.extend(((total + root) / 2.0, (total - root) / 2.0))
    return sorted(vals, reverse=True)
