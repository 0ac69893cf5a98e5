"""Unary operation constructions: labelling, counts, structure."""

from __future__ import annotations

import functools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaenergy import ops
from alphaenergy import (MAX_EDGES, MAX_VERTICES, Graph, OpDescriptor, adjacency_matrix,
                         apply_op, central_graph,
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
        (functools.partial(duplicate_graph, m=10**9), cycle(4), "duplication"),
    ])
    def test_cap_checked_before_building(self, build, base, name):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{name} (graph|result) would exceed"):
                build(base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_empty_graph_takes_any_copy_count(self):
        # the copy pairs are read only when g has an edge, so none is built
        tracemalloc.start()
        try:
            assert shadow_graph(Graph(0), 10**9) == Graph(0)
            assert splitting_graph(Graph(0), 10**9) == Graph(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_line_cap_checked_on_each_iteration(self):
        # L(K30) has 435 vertices and 12180 edges, so L^2(K30) is over the cap
        assert iterated_line_graph(complete(30), 1).q == 12180
        with pytest.raises(ValueError, match="line graph would exceed"):
            iterated_line_graph(complete(30), 2)

    def test_line_iteration_count_bounded(self, monkeypatch):
        # L(C5) is again a 5-cycle, so only the bound on k stops the loop
        assert iterated_line_graph(cycle(5), MAX_VERTICES).p == 5

        def no_work(g):
            raise AssertionError("line graph built")
        monkeypatch.setattr(ops, "line_graph", no_work)
        with pytest.raises(ValueError, match=f"k <= {MAX_VERTICES}, got 4097"):
            iterated_line_graph(cycle(5), MAX_VERTICES + 1)


class TestEdgeCap:
    """Requests under the vertex cap whose edges are over MAX_EDGES."""

    @pytest.mark.parametrize("build, base, message", [
        (complete, 3000, "edge count 4498500 exceeds cap"),
        (complete, MAX_VERTICES, "edge count 8386560 exceeds cap"),
        (functools.partial(shadow_graph, m=64), complete(64),    # 4096 vertices
         f"shadow result would exceed {MAX_EDGES} edges"),
        (central_graph, path(2001),                              # 4001 vertices
         f"central graph would exceed {MAX_EDGES} edges"),
        (middle_graph, complete_bipartite(1, 2000),              # 4001 vertices
         f"middle graph would exceed {MAX_EDGES} edges"),
        (line_graph, complete_bipartite(1, 2000),                # 2000 vertices
         f"line graph would exceed {MAX_EDGES} edges"),
    ], ids=["K3000", "K4096", "shadow64-K64", "central-P2001", "middle-star", "line-star"])
    def test_rejected_before_building(self, build, base, message):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                build(base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_shadow_of_k64_is_predicted(self):
        # shadow:m of K64 has 64m vertices and 2016 m^2 edges: m = 16 fits
        assert ops.OPS["shadow"].size(64, 2016, 0, 16) == (1024, 516096)
        assert ops.OPS["shadow"].size(64, 2016, 0, 17)[1] > MAX_EDGES


# (label, maximal parameter) of every operation; the parameter runs from its
# least value up to this one
_SIZED_OPS = [("middle", None), ("central", None), ("splitting", 3),
              ("closed-splitting", None), ("shadow", 3), ("closed-shadow", None),
              ("ebd", None), ("line", 2), ("duplicate", 2)]
_LEAST = {"splitting": 1, "shadow": 2, "line": 1, "duplicate": 1}


@st.composite
def _op_chains(draw):
    """Up to three operations with their parameters, innermost first."""
    chain = []
    for name, most in draw(st.lists(st.sampled_from(_SIZED_OPS), max_size=3)):
        param = None if most is None else draw(st.integers(_LEAST[name], most))
        chain.append(OpDescriptor(name, param))
    return chain


def _table_size(name: str, g: Graph, *param: int) -> tuple[int, int]:
    s = sum(math.comb(d, 2) for d in degree_info(g).degrees)
    return ops.OPS[name].size(g.p, g.q, s, *param)


class TestSizeTable:
    @given(base=st.one_of(graphs(max_p=7), st.sampled_from(
               [cycle(5), path(6), complete(5), complete_bipartite(2, 3), petersen()])),
           chain=_op_chains())
    @settings(max_examples=120, deadline=None)
    def test_predicted_size_is_built_size(self, base, chain):
        # nested sources: each level is predicted from the built level below
        # it, and line:k one line graph at a time
        g = base
        for op in chain:
            for level in [OpDescriptor("line", 1)] * op.param if op.name == "line" else [op]:
                param = () if level.param is None or level.name == "line" else (level.param,)
                p, q = _table_size(level.name, g, *param)
                if p > MAX_VERTICES or q > MAX_EDGES:
                    with pytest.raises(ValueError, match="would exceed"):
                        apply_op(level, g)
                    return
                if q > 20000:       # valid, but slow to build here
                    return
                g = apply_op(level, g)
                assert (g.p, g.q) == (p, q)

    def test_every_operation_is_sized(self):
        assert {name for name, _ in _SIZED_OPS} == set(ops.OPS)

    def test_each_line_level_is_checked_before_it_is_built(self, monkeypatch):
        # L(K45) has 990 vertices and 42570 edges; L^2(K45) would have
        # 42570 vertices, so the second level is refused unbuilt
        sized = []
        check = ops._Op.check

        def traced_check(self, g, *param):
            sized.append((g.p, g.q))
            return check(self, g, *param)

        monkeypatch.setattr(ops._Op, "check", traced_check)
        with pytest.raises(ValueError, match="line graph would exceed"):
            iterated_line_graph(complete(45), 3)
        assert sized == [(45, 990), (990, 42570)]


def _incidence(g: Graph) -> np.ndarray:
    """The p x q vertex-edge incidence matrix, columns in edge order."""
    r = np.zeros((g.p, g.q))
    for e, (u, v) in enumerate(g.edges):
        r[u, e] = r[v, e] = 1.0
    return r


def _copy_blocks() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Label -> (B, C) with A(op(g)) = kron(B, A(g)) + kron(C, I)."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = {"closed-splitting": (np.array([[1.0, 1.0], [1.0, 0.0]]), swap),
           "closed-shadow": (np.ones((2, 2)), swap),
           "ebd": (swap, swap)}
    for m in (1, 2, 3):
        star = np.zeros((m + 1, m + 1))
        star[0, :] = star[:, 0] = 1.0
        out[f"splitting:{m}"] = (star, np.zeros_like(star))
        out[f"duplicate:{m}"] = (np.fliplr(np.eye(2 ** m)), np.zeros((2 ** m, 2 ** m)))
    for m in (2, 3, 4):
        out[f"shadow:{m}"] = (np.ones((m, m)), np.zeros((m, m)))
    return out


COPY_BLOCKS = _copy_blocks()


class TestStructure:
    """Adjacency matrices of all nine operations against numpy references."""

    @pytest.mark.parametrize("label", list(COPY_BLOCKS))
    @given(g=graphs(max_p=8))
    @settings(max_examples=20, deadline=None)
    def test_copy_operations(self, label, g):
        b, c = COPY_BLOCKS[label]
        want = np.kron(b, adjacency_matrix(g)) + np.kron(c, np.eye(g.p))
        got = adjacency_matrix(apply_op(parse_op(label), g))
        assert np.array_equal(got, want)

    @given(graphs(max_p=8))
    @settings(max_examples=40, deadline=None)
    def test_incidence_operations(self, g):
        a, r = adjacency_matrix(g), _incidence(g)
        p, q = r.shape
        gram = r.T @ r - 2.0 * np.eye(q)
        middle = np.block([[np.zeros((p, p)), r], [r.T, gram]])
        central = np.block([[np.ones((p, p)) - np.eye(p) - a, r],
                            [r.T, np.zeros((q, q))]])
        assert np.array_equal(adjacency_matrix(middle_graph(g)), middle)
        assert np.array_equal(adjacency_matrix(central_graph(g)), central)
        assert np.array_equal(adjacency_matrix(line_graph(g)), gram)


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
