"""Unary operation constructions: labelling, counts, structure."""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from alphaenergy import (Graph, OpDescriptor, adjacency_matrix, apply_op,
                         central_graph,
                         closed_shadow_graph, closed_splitting_graph,
                         complete, complete_bipartite, cycle, degree_info,
                         duplicate_graph, ebd_graph, iterated_line_graph,
                         line_graph, middle_graph, multiset_deviation,
                         is_connected, op_label, parse_op, path, petersen,
                         shadow_graph, splitting_graph, sym_eigenvalues)
from conftest import graphs, random_graph


class TestOpDescriptor:
    def test_parse_plain(self):
        assert parse_op("middle") == OpDescriptor("middle")
        assert parse_op("closed-shadow") == OpDescriptor("closed-shadow")

    def test_parse_param(self):
        assert parse_op("splitting:2") == OpDescriptor("splitting", 2)
        assert parse_op("line:3") == OpDescriptor("line", 3)

    @pytest.mark.parametrize("text", [
        "middle:2", "splitting", "splitting:", "splitting:x", "frobnicate",
        "ebd:1", "line",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_op(text)

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            OpDescriptor("splitting")
        with pytest.raises(ValueError):
            OpDescriptor("middle", 2)
        with pytest.raises(ValueError):
            OpDescriptor("nope")

    def test_label_round_trip(self):
        for text in ("middle", "splitting:3", "duplicate:1", "ebd"):
            assert op_label(parse_op(text)) == text


class TestMiddleCentral:
    def test_middle_p3(self):
        m = middle_graph(path(3))
        assert (m.p, m.q) == (5, 5)
        # edge vertices 3=(0,1), 4=(1,2); they share vertex 1
        assert m.edges == ((0, 3), (1, 3), (1, 4), (2, 4), (3, 4))

    def test_middle_counts_c4(self):
        m = middle_graph(cycle(4))
        assert (m.p, m.q) == (8, 12)
        assert sorted(degree_info(m).degrees) == [2, 2, 2, 2, 4, 4, 4, 4]

    def test_central_k3_is_c6(self):
        c = central_graph(complete(3))
        assert (c.p, c.q) == (6, 6)
        assert degree_info(c).regular == 2
        assert is_connected(c)
        assert c.edges == ((0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5))

    def test_central_counts(self):
        c = central_graph(cycle(4))
        assert (c.p, c.q) == (8, 10)
        # non-adjacent original pairs get joined
        assert (0, 2) in c.edges and (1, 3) in c.edges


class TestSplittingFamily:
    def test_splitting_k2(self):
        s = splitting_graph(complete(2), 1)
        assert (s.p, s.q) == (4, 3)
        assert s.edges == ((0, 1), (0, 3), (1, 2))
        assert sorted(degree_info(s).degrees) == [1, 1, 2, 2]

    def test_splitting_rejects_m0(self):
        with pytest.raises(ValueError):
            splitting_graph(cycle(3), 0)

    def test_closed_splitting_k2(self):
        s = closed_splitting_graph(complete(2))
        assert (s.p, s.q) == (4, 5)
        assert (0, 2) in s.edges and (1, 3) in s.edges

    @given(graphs(max_p=8))
    @settings(max_examples=30, deadline=None)
    def test_splitting_counts(self, g):
        for m in (1, 2, 3):
            s = splitting_graph(g, m)
            assert s.p == g.p * (m + 1)
            assert s.q == g.q * (2 * m + 1)

    @given(graphs(max_p=8))
    @settings(max_examples=30, deadline=None)
    def test_closed_splitting_counts(self, g):
        s = closed_splitting_graph(g)
        assert (s.p, s.q) == (2 * g.p, 3 * g.q + g.p)


class TestShadowFamily:
    def test_shadow_k2_is_c4(self):
        s = shadow_graph(complete(2), 2)
        assert (s.p, s.q) == (4, 4)
        assert degree_info(s).regular == 2
        assert is_connected(s)

    def test_shadow_rejects_m1(self):
        with pytest.raises(ValueError):
            shadow_graph(cycle(3), 1)

    def test_closed_shadow_k2_is_k4(self):
        s = closed_shadow_graph(complete(2))
        assert s == complete(4)

    def test_ebd_k2_is_c4(self):
        s = ebd_graph(complete(2))
        assert (s.p, s.q) == (4, 4)
        assert degree_info(s).regular == 2
        assert is_connected(s)

    @given(graphs(max_p=8))
    @settings(max_examples=30, deadline=None)
    def test_shadow_counts(self, g):
        for m in (2, 3):
            s = shadow_graph(g, m)
            assert (s.p, s.q) == (m * g.p, m * m * g.q)

    @given(graphs(max_p=8))
    @settings(max_examples=30, deadline=None)
    def test_closed_shadow_and_ebd_counts(self, g):
        cs = closed_shadow_graph(g)
        assert (cs.p, cs.q) == (2 * g.p, 4 * g.q + g.p)
        eb = ebd_graph(g)
        assert (eb.p, eb.q) == (2 * g.p, 2 * g.q + g.p)

    def test_shadow_spectrum_scales(self):
        # D_m spectrum is {m*lambda} plus zeros
        g = petersen()
        base = sym_eigenvalues(adjacency_matrix(g)).values
        for m in (2, 3):
            got = sym_eigenvalues(adjacency_matrix(shadow_graph(g, m))).values
            want = sorted([m * x for x in base] + [0.0] * (g.p * (m - 1)),
                          reverse=True)
            assert multiset_deviation(got, want) < 1e-9


class TestLineAndDuplicate:
    def test_line_p4_is_p3(self):
        assert line_graph(path(4)) == path(3)

    def test_line_of_cycle(self):
        lg = line_graph(cycle(5))
        assert (lg.p, lg.q) == (5, 5)
        assert degree_info(lg).regular == 2
        assert is_connected(lg)

    def test_line_counts(self):
        # q(L) = sum of C(d, 2)
        g = petersen()
        lg = line_graph(g)
        assert lg.p == g.q
        assert lg.q == sum(math.comb(d, 2) for d in degree_info(g).degrees)

    def test_iterated_line_shrinks_path(self):
        assert iterated_line_graph(path(4), 0) == path(4)
        assert iterated_line_graph(path(4), 2) == complete(2)
        assert iterated_line_graph(path(4), 3) == Graph(1)
        assert iterated_line_graph(path(4), 4) == Graph(0)
        with pytest.raises(ValueError):
            iterated_line_graph(path(4), -1)

    def test_duplicate_c4(self):
        d = duplicate_graph(cycle(4), 1)
        assert (d.p, d.q) == (8, 8)
        assert degree_info(d).regular == 2
        assert not is_connected(d)
        assert (0, 5) in d.edges and (1, 4) in d.edges

    def test_duplicate_rounds(self):
        d = duplicate_graph(cycle(4), 2)
        assert (d.p, d.q) == (16, 16)
        assert d == duplicate_graph(duplicate_graph(cycle(4), 1), 1)

    def test_duplicate_spectrum_symmetry(self):
        rng = random.Random(7)
        for _ in range(6):
            g = random_graph(rng, max_p=9)
            d = duplicate_graph(g, 1)
            base = sym_eigenvalues(adjacency_matrix(g)).values
            got = sym_eigenvalues(adjacency_matrix(d)).values
            want = sorted([x for x in base] + [-x for x in base], reverse=True)
            assert multiset_deviation(got, want) < 1e-9


class TestRegularityTransfer:
    def test_degrees_of_regular_images(self, bases):
        for _, g in bases:
            r = degree_info(g).regular
            assert degree_info(shadow_graph(g, 3)).regular == 3 * r
            assert degree_info(closed_shadow_graph(g)).regular == 2 * r + 1
            assert degree_info(ebd_graph(g)).regular == r + 1
            assert degree_info(duplicate_graph(g, 1)).regular == r
            assert degree_info(line_graph(g)).regular == 2 * r - 2


class TestSizeGuards:
    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            duplicate_graph(petersen(), 9)
        with pytest.raises(ValueError):
            splitting_graph(complete(100), 50)
        with pytest.raises(ValueError):
            shadow_graph(complete(100), 45)

    @pytest.mark.parametrize("build, base, name", [
        (middle_graph, complete(91), "middle"),     # 91 + 4095 vertices
        (central_graph, complete(91), "central"),
        (line_graph, complete(120), "line"),        # 7140 vertices
    ])
    def test_cap_checked_before_building(self, build, base, name):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{name} graph would exceed"):
                build(base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_line_cap_checked_on_each_iteration(self):
        # L(K30) has 435 vertices and 12180 edges, so L^2(K30) is over the cap
        assert iterated_line_graph(complete(30), 1).q == 12180
        with pytest.raises(ValueError, match="line graph would exceed"):
            iterated_line_graph(complete(30), 2)


class TestDispatch:
    def test_apply_op_matches_direct(self):
        g = cycle(5)
        cases = {
            "middle": middle_graph(g),
            "central": central_graph(g),
            "splitting:2": splitting_graph(g, 2),
            "closed-splitting": closed_splitting_graph(g),
            "shadow:2": shadow_graph(g, 2),
            "closed-shadow": closed_shadow_graph(g),
            "ebd": ebd_graph(g),
            "line:1": line_graph(g),
            "duplicate:1": duplicate_graph(g, 1),
        }
        for text, want in cases.items():
            assert apply_op(parse_op(text), g) == want
