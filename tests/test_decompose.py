"""Vertex decomposability and shellability deciders with certificates."""

import random

import pytest
from conftest import brute_force_shellable, random_pure_complex

from vdwcomplex.complexes import SimplicialComplex
from vdwcomplex.decompose import (
    SheddingTree,
    is_shellable,
    is_vertex_decomposable,
    verify_shedding_tree,
    verify_shelling,
)
from vdwcomplex.vdw import vdw_complex


class TestVertexDecomposable:
    def test_vdw52_with_certificate(self):
        cx = vdw_complex(5, 2)
        res = is_vertex_decomposable(cx)
        assert res.value
        assert res.tree.shedding_vertices() == (5, 4)
        assert verify_shedding_tree(cx, res.tree)

    def test_vdw62_with_certificate(self):
        cx = vdw_complex(6, 2)
        res = is_vertex_decomposable(cx)
        assert res.value
        assert res.tree.vertex == 6
        assert verify_shedding_tree(cx, res.tree)

    def test_vdw72_is_not(self):
        res = is_vertex_decomposable(vdw_complex(7, 2))
        assert not res.value
        assert res.tree is None

    def test_simplices(self):
        for m in range(1, 11):
            assert is_vertex_decomposable(SimplicialComplex.simplex(m)).value

    def test_void_and_empty(self):
        assert is_vertex_decomposable(SimplicialComplex.from_facets(3, [])).value
        assert is_vertex_decomposable(SimplicialComplex.from_facets(3, [[]])).value

    def test_nonpure_rejected(self):
        with pytest.raises(ValueError):
            is_vertex_decomposable(SimplicialComplex.from_facets(3, [[1, 2], [3]]))

    def test_disconnected_graph_is_not(self):
        cx = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
        assert not is_vertex_decomposable(cx).value

    def test_certificates_replay(self):
        rng = random.Random(97)
        for _ in range(80):
            cx = random_pure_complex(rng, 6)
            res = is_vertex_decomposable(cx)
            if res.value:
                assert verify_shedding_tree(cx, res.tree)

    def test_certificate_serialization_round_trip(self):
        tree = is_vertex_decomposable(vdw_complex(6, 2)).tree
        assert SheddingTree.from_dict(tree.to_dict()) == tree

    def test_tampered_certificate_rejected(self):
        cx = vdw_complex(5, 2)
        tree = is_vertex_decomposable(cx).tree
        wrong = SheddingTree("shed", 1, tree.link, tree.deletion)
        assert not verify_shedding_tree(cx, wrong)


class TestShellable:
    def test_vdw62(self):
        cx = vdw_complex(6, 2)
        res = is_shellable(cx)
        assert res.value is True
        assert verify_shelling(cx, res.order)

    def test_vdw72_is_not(self):
        res = is_shellable(vdw_complex(7, 2))
        assert res.value is False
        assert res.order is None

    def test_disconnected_graph_is_not(self):
        assert is_shellable(SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])).value is False

    def test_single_facet(self):
        assert is_shellable(SimplicialComplex.simplex(4)).value is True
        assert is_shellable(SimplicialComplex.from_facets(2, [[]])).value is True

    def test_void_raises(self):
        with pytest.raises(ValueError):
            is_shellable(SimplicialComplex.from_facets(3, []))

    def test_nonpure_raises(self):
        with pytest.raises(ValueError):
            is_shellable(SimplicialComplex.from_facets(3, [[1, 2], [3]]))

    def test_budget_exhaustion_is_distinct(self):
        res = is_shellable(vdw_complex(6, 2), budget=1)
        assert res.status == "undecided"
        assert res.value is None

    def test_more_facets_than_the_recursion_limit(self):
        cx = vdw_complex(50, 1)  # 1225 facets
        res = is_shellable(cx)
        assert res.value is True
        assert verify_shelling(cx, res.order)

    def test_matches_permutation_search(self):
        rng = random.Random(41)
        checked = 0
        while checked < 40:
            cx = random_pure_complex(rng, 6)
            if len(cx.facets) > 6:
                continue
            checked += 1
            assert is_shellable(cx).value is brute_force_shellable(cx)

    def test_found_orders_verify(self):
        rng = random.Random(43)
        for _ in range(60):
            cx = random_pure_complex(rng, 7)
            res = is_shellable(cx)
            if res.value:
                assert verify_shelling(cx, res.order)


class TestVerifyShelling:
    def test_frozen_example_order(self):
        cx = vdw_complex(5, 2)
        assert verify_shelling(cx, [(3, 4, 5), (2, 3, 4), (1, 2, 3), (1, 3, 5)])

    def test_single_facet_trivial(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2, 3]])
        assert verify_shelling(cx, [(1, 2, 3)])

    def test_disconnected_both_orders_fail(self):
        cx = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
        assert not verify_shelling(cx, [(1, 2), (3, 4)])
        assert not verify_shelling(cx, [(3, 4), (1, 2)])

    def test_not_a_permutation(self):
        cx = vdw_complex(5, 2)
        with pytest.raises(ValueError):
            verify_shelling(cx, [(1, 2, 3)])
        with pytest.raises(ValueError):
            verify_shelling(cx, [(1, 2, 3)] * 4)
