"""Graph container, generators, and edge-list serialization."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from alphaenergy import (EdgeListError, Graph, adjacency_matrix, complete,
                         complete_bipartite, cycle, degree_info,
                         line_graph, path, petersen,
                         read_edge_list, write_edge_list)
from alphaenergy import graphs as graphs_module
from alphaenergy.graphs import component_counts, family_size, parse_family
from conftest import graphs


class TestGraphContainer:
    def test_normalizes_edge_order(self):
        g = Graph(3, ((2, 1), (1, 2), (1, 0)))
        assert g.edges == ((0, 1), (1, 2))
        assert g.q == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 3),))
        with pytest.raises(ValueError):
            Graph(2, ((-1, 0),))
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            Graph(-1)

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            Graph(5000)

    def test_empty_graph_allowed(self):
        assert Graph(0).q == 0
        assert Graph(4).q == 0

    def test_frozen(self):
        g = cycle(4)
        with pytest.raises(AttributeError):
            g.p = 5


class TestGenerators:
    def test_cycle(self):
        g = cycle(4)
        assert g.p == 4
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    @pytest.mark.parametrize("family", [cycle, path])
    def test_cap_checked_before_building(self, family):
        # a million edges would take about 160 MB; the check comes first
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds cap"):
                family(10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_dense_families_check_the_cap(self, monkeypatch):
        monkeypatch.setattr(graphs_module, "MAX_VERTICES", 8)
        assert complete(8).p == complete_bipartite(4, 4).p == 8
        with pytest.raises(ValueError, match="vertex count 9 exceeds cap 8"):
            complete(9)
        with pytest.raises(ValueError, match="vertex count 9 exceeds cap 8"):
            complete_bipartite(4, 5)

    def test_families_check_the_edge_cap(self, monkeypatch):
        monkeypatch.setattr(graphs_module, "MAX_EDGES", 6)
        assert complete(4).q == complete_bipartite(2, 3).q == cycle(6).q == path(7).q == 6
        for build, q in [(lambda: complete(5), 10), (lambda: complete_bipartite(2, 4), 8),
                         (lambda: cycle(7), 7), (lambda: path(8), 7),
                         (lambda: Graph(8, complete(4).edges + ((5, 6),)), 7),
                         (lambda: read_edge_list("8 7\n"), 7)]:   # from the header alone
            with pytest.raises(ValueError, match=f"^edge count {q} exceeds cap 6$"):
                build()

    @pytest.mark.parametrize("build, args", [
        (cycle, (3,)), (cycle, (9,)), (path, (1,)), (path, (7,)), (complete, (1,)),
        (complete, (6,)), (complete_bipartite, (1, 1)), (complete_bipartite, (3, 4))],
        ids=["C3", "C9", "P1", "P7", "K1", "K6", "K1,1", "K3,4"])
    def test_families_predict_their_size(self, monkeypatch, build, args):
        predicted = []
        check = graphs_module.check_size
        monkeypatch.setattr(graphs_module, "check_size",
                            lambda p, q, result=None: predicted.append((p, q)) or check(p, q))
        g = build(*args)
        assert predicted[0] == (g.p, g.q)     # the family's own call, then Graph's

    @pytest.mark.parametrize("kind, args, build", [
        ("C", (3,), cycle), ("C", (9,), cycle), ("P", (1,), path), ("P", (2,), path),
        ("P", (7,), path), ("K", (1,), complete), ("K", (6,), complete),
        ("K", (1, 1), complete_bipartite), ("K", (3, 4), complete_bipartite),
        ("petersen", (), petersen)])
    def test_family_size_counts_degree_pairs(self, kind, args, build):
        g = build(*args)
        s = sum(math.comb(d, 2) for d in degree_info(g).degrees)
        assert family_size(kind, *args) == (g.p, g.q, s)
        parsed, counts = parse_family(kind + ",".join(map(str, args)))   # "K3,4", "petersen"
        assert counts == (g.p, g.q, s)
        assert parsed() == g

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_path(self):
        assert path(1).q == 0
        assert path(4).edges == ((0, 1), (1, 2), (2, 3))
        with pytest.raises(ValueError):
            path(0)

    def test_complete(self):
        g = complete(8)
        assert (g.p, g.q) == (8, 28)
        assert degree_info(g).regular == 7
        with pytest.raises(ValueError):
            complete(0)

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 3)
        assert (g.p, g.q) == (6, 9)
        assert degree_info(g).regular == 3
        assert degree_info(complete_bipartite(2, 3)).regular is None
        with pytest.raises(ValueError):
            complete_bipartite(0, 2)

    def test_petersen(self):
        g = petersen()
        assert (g.p, g.q) == (10, 15)
        assert degree_info(g).regular == 3
        assert component_counts(g)[0] <= 1


class TestDegreesAndMatrices:
    def test_degree_info_path(self):
        info = degree_info(path(3))
        assert info.degrees == (1, 2, 1)
        assert info.regular is None

    def test_adjacency_symmetric(self):
        a = adjacency_matrix(petersen())
        assert np.array_equal(a, a.T)
        assert a.trace() == 0
        assert a.sum() == 30

    def test_incidence_gram_identities(self):
        # R R^T = A + D and R^T R = 2I + (line-graph adjacency), where R is
        # the p x q vertex-edge incidence matrix with columns in edge order
        for g in (cycle(6), petersen(), complete_bipartite(2, 3), path(5)):
            r = np.zeros((g.p, g.q))
            r[np.array(g.edges).T, np.arange(g.q)] = 1.0
            a = adjacency_matrix(g)
            d = np.diag(degree_info(g).degrees)
            assert np.array_equal(r @ r.T, a + d)
            b = adjacency_matrix(line_graph(g))
            assert np.array_equal(r.T @ r, b + 2 * np.eye(g.q))

    def test_connectivity(self):
        assert component_counts(path(6))[0] <= 1
        assert component_counts(Graph(4, ((0, 1), (2, 3))))[0] > 1
        assert component_counts(Graph(2))[0] > 1
        assert component_counts(Graph(1))[0] <= 1

    @pytest.mark.parametrize("g, counts", [
        (Graph(0), (0, 0)), (Graph(1), (1, 1)), (Graph(3), (3, 3)),
        (path(6), (1, 1)), (cycle(6), (1, 1)), (cycle(5), (1, 0)),
        (petersen(), (1, 0)), (complete_bipartite(2, 3), (1, 1)),
        (Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6))),
         (2, 1))])
    def test_component_counts(self, g, counts):
        assert component_counts(g) == counts


class TestEdgeListFormat:
    DOC = b"3 3\n0 1\n0 2\n1 2\n"

    def test_round_trip_doc_example(self):
        g = read_edge_list(self.DOC)
        assert (g.p, g.q) == (3, 3)
        assert write_edge_list(g) == self.DOC

    def test_accepts_str(self):
        assert read_edge_list("2 1\n0 1\n").q == 1

    def test_comments_and_blank_lines(self):
        text = "# triangle\n\n3 3\n0 1\n# middle\n0 2\n1 2\n\n"
        assert read_edge_list(text).q == 3

    @pytest.mark.parametrize("text,msg", [
        ("", "malformed header"),
        ("3\n", "malformed header"),
        ("a b\n", "malformed header"),
        ("-1 0\n", "malformed header: expected 'p q'"),   # no sign, as no count has one
        ("+3 0\n", "malformed header: expected 'p q'"),
        ("1_0 0\n", "malformed header: expected 'p q'"),
        ("\u0663 0\n", "malformed header: expected 'p q'"),   # Arabic-Indic three
        ("3 \uff10\n", "malformed header: expected 'p q'"),   # fullwidth zero
        ("11 1\n0 1_0\n", "malformed edge line"),
        ("3 1\n+0 2\n", "malformed edge line"),
        ("3 1\n0 \u0662\n", "malformed edge line"),
        ("3 2\n0 1\n", "expected 2 edge lines, found 1"),
        ("3 1\n0 1\n1 2\n", "expected 1 edge lines, found 2"),
        ("3 1\n0 1 2\n", "malformed edge line"),
        ("3 1\nx y\n", "malformed edge line"),
        ("3 1\n1 1\n", "self-loop at vertex"),
        ("3 1\n2 1\n", "edge endpoints out of order"),
        ("3 1\n0 5\n", "vertex index out of range"),
        ("3 2\n0 1\n0 1\n", "duplicate edge"),
    ])
    def test_parse_errors(self, text, msg):
        with pytest.raises(EdgeListError, match=msg):
            read_edge_list(text)

    @given(graphs())
    @settings(max_examples=50)
    def test_round_trip_any(self, g):
        assert read_edge_list(write_edge_list(g)) == g


@given(graphs())
@settings(max_examples=50)
def test_handshake(g):
    assert sum(degree_info(g).degrees) == 2 * g.q
