"""Vertex decomposability and shellability deciders with certificates."""

import dataclasses
import json
import random
import time
from collections import Counter
from itertools import combinations

import pytest
from conftest import (
    RP2,
    brute_force_shellable,
    complex_from_masks,
    enumerate_antichains,
    naive_shedding_tree,
    random_pure_complex,
    ridge_recount,
)

from vdwcomplex import _kernels, decompose
from vdwcomplex.certify import (
    SheddingTree,
    _tree_order,
    verify_cohen_macaulay_witness,
    verify_shedding_tree,
    verify_shelling,
)
from vdwcomplex.complexes import SimplicialComplex, _canonical, _check_antichain, pack, unpack
from vdwcomplex.decompose import (
    DecompositionResult,
    ShellingResult,
    _shellable,
    _candidates,
    _Column,
    _ends,
    _vertex_decomposable,
    is_shellable,
    is_vertex_decomposable,
)
from vdwcomplex.homology import CohenMacaulayResult, _first_failures, is_cohen_macaulay
from vdwcomplex.cli import compute_record
from vdwcomplex.vdw import classify_closed_form, vdw_complex


def _s2_failure(facets, dim: int):
    """The (S2) walk: the Reisner walk capped below degree 1, over F2 as over every field."""
    return _first_failures(facets, dim, [2], below=1)[2]


def _mirrored(tree: SheddingTree, n: int) -> SheddingTree:
    """The tree with every vertex v renamed n + 1 - v."""
    if tree.kind != "shed":
        return tree
    return SheddingTree(
        "shed", n + 1 - tree.vertex, _mirrored(tree.link, n), _mirrored(tree.deletion, n)
    )


def _refutation_replays(cx, refutation) -> bool:
    """An F2 Reisner witness that replays on its literal link, with no decider."""
    return refutation.field == "Fp:2" and verify_cohen_macaulay_witness(cx, refutation)


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

    def test_certificate_json_is_pinned(self):
        cx = vdw_complex(6, 2)
        text = is_vertex_decomposable(cx).tree.to_json()
        assert text == (
            '{"kind":"shed","vertex":6,'
            '"link":{"kind":"shed","vertex":5,'
            '"link":{"kind":"simplex"},"deletion":{"kind":"simplex"}},'
            '"deletion":{"kind":"shed","vertex":5,'
            '"link":{"kind":"shed","vertex":4,'
            '"link":{"kind":"simplex"},"deletion":{"kind":"simplex"}},'
            '"deletion":{"kind":"shed","vertex":4,'
            '"link":{"kind":"simplex"},"deletion":{"kind":"simplex"}}}}'
        )
        assert verify_shedding_tree(cx, SheddingTree.from_dict(json.loads(text)))

    def test_every_vdw_certificate_to_n64_replays(self):
        replayed = 0
        for k in range(1, 64):
            memo = {}  # one memo down each column, as in the sweep
            for n in range(k + 1, 65):
                cx = vdw_complex(n, k)
                vd = is_vertex_decomposable(cx, memo)
                assert vd.value is classify_closed_form(n, k).vertex_decomposable
                if vd.value:
                    assert verify_shedding_tree(cx, vd.tree)
                    replayed += 1
        assert replayed == 1088

    def test_nested_cones_replay_in_linear_time(self):
        # no apex sheds, so the tree is the path's, with 2 * 3 - 1 nodes
        # whatever the number of apexes
        def cone(apexes):
            top = 4 + apexes
            return SimplicialComplex.from_facets(
                top, [[a, a + 1, *range(5, top + 1)] for a in (1, 2, 3)]
            )

        cx = cone(40)
        vd = is_vertex_decomposable(cx)
        top = vd.tree.vertex  # a failing assert would print the whole tree
        assert top == 4
        assert verify_shedding_tree(cx, vd.tree)
        assert verify_shelling(cx, is_shellable(cx, vd=vd).order)
        cx = cone(15)
        text = is_vertex_decomposable(cx).tree.to_json()
        assert len(text) < 1000
        assert verify_shedding_tree(cx, SheddingTree.from_dict(json.loads(text)))

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"kind": "shed"},
            {"kind": "shed", "vertex": 2, "link": {"kind": "simplex"}},
            [],
            None,
        ],
        ids=["no-kind", "shed-only", "no-deletion", "list", "none"],
    )
    def test_malformed_json_tree_raises_value_error(self, data):
        with pytest.raises(ValueError):
            SheddingTree.from_dict(data)

    def test_tampered_certificate_rejected(self):
        cx = vdw_complex(5, 2)
        tree = is_vertex_decomposable(cx).tree
        wrong = SheddingTree("shed", 1, tree.link, tree.deletion)
        assert not verify_shedding_tree(cx, wrong)

    def test_forged_leaves_rejected(self):
        cx = vdw_complex(5, 2)
        assert not verify_shedding_tree(cx, SheddingTree("void"))
        assert not verify_shedding_tree(cx, SheddingTree("bogus"))

    def test_nonpure_deletion_rejected(self):
        # the path 1-2-3-4: lk 2 = {1}, {3} is pure, del 2 = {1}, {3, 4} is not;
        # each gets a tree that fits it in every step but purity
        path = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4]])
        points = SheddingTree("shed", 3, SheddingTree("empty"), SheddingTree("simplex"))
        nonpure = SheddingTree("shed", 1, SheddingTree("empty"), SheddingTree("simplex"))
        assert not verify_shedding_tree(path, SheddingTree("shed", 2, points, nonpure))

    def test_nonpure_complex_rejected(self):
        # lk 3 = <()> and del 3 = <{1, 2}> fit the tree, but the complex is not pure
        cx = SimplicialComplex.from_facets(3, [[1, 2], [3]])
        tree = SheddingTree("shed", 3, SheddingTree("empty"), SheddingTree("simplex"))
        assert not verify_shedding_tree(cx, tree)
        with pytest.raises(ValueError):
            is_vertex_decomposable(cx)


class TestSheddingSearchMatchesNaive:
    """Shared-ridge shedding tests and memo keys change speed, never the tree."""

    @staticmethod
    def _matches(cx):
        res = is_vertex_decomposable(cx)
        expected = naive_shedding_tree(cx)
        assert res.value is (expected is not None)
        assert (res.tree.to_dict() if res.tree else None) == expected
        return res

    @staticmethod
    def _pure_small():
        for n in range(1, 6):
            for masks in enumerate_antichains(n):
                if len({m.bit_count() for m in masks}) <= 1:
                    yield complex_from_masks(n, masks)

    @staticmethod
    def _random_pure():
        rng = random.Random(53)
        return [random_pure_complex(rng, 9, min_vertices=6) for _ in range(300)]

    @staticmethod
    def _vdw_grid():
        return [vdw_complex(n, k) for n in range(2, 21) for k in range(1, n)]

    def test_every_pure_complex_on_5_vertices(self):
        decomposable = sum(bool(self._matches(cx)) for cx in self._pure_small())
        assert decomposable > 1000

    def test_random_pure_on_6_to_9_vertices(self):
        decomposable = sum(bool(self._matches(cx)) for cx in self._random_pure())
        assert 50 < decomposable < 250

    def test_vdw_to_n20(self):
        for cx in self._vdw_grid():
            self._matches(cx)

    def test_shared_memo_matches_fresh(self):
        memo = {}
        for cx in [*self._pure_small(), *self._random_pure(), *self._vdw_grid()]:
            assert is_vertex_decomposable(cx, memo) == is_vertex_decomposable(cx)
        # shifted up one vertex, a complex is decided afresh on its own labels
        for k in (3, 5):  # vdW(9, 3) is not vertex decomposable, vdW(9, 5) is
            cx = vdw_complex(9, k)
            shifted = SimplicialComplex.from_facets(10, [[v + 1 for v in f] for f in cx.facets])
            is_vertex_decomposable(cx, memo)
            res = is_vertex_decomposable(shifted, memo)
            assert res == is_vertex_decomposable(shifted)
            assert res.tree is None or verify_shedding_tree(shifted, res.tree)

    # the link of the top vertex of vdW(48, 20) or vdW(64, 30) is two facets, a
    # cone over two disjoint simplices: neither facet shares a ridge, so the
    # link is not strongly connected, hence not shellable, and the search ends there
    @pytest.mark.parametrize("n, k, subproblems", [(30, 1, 59), (48, 20, 2), (64, 30, 2)])
    def test_subproblem_count(self, n, k, subproblems):
        memo = {}
        is_vertex_decomposable(vdw_complex(n, k), memo)
        assert len(memo) == subproblems

    def test_facet_sharing_no_ridge_refutes(self):
        # the boundary of the tetrahedron on 1..4, and the triangle 567 beside it
        cx = SimplicialComplex.from_facets(7, [*combinations(range(1, 5), 3), (5, 6, 7)])
        memo = {}
        assert is_vertex_decomposable(cx, memo).value is False
        assert len(memo) == 1  # 18 when the search looks for shedding vertices
        assert naive_shedding_tree(cx) is None

    def test_ridge_map_reads_what_a_recount_reads(self, monkeypatch):
        calls = []
        search = decompose._search

        def recording(masks, memo, ends, face=0, gone=0, candidates=None):
            calls.append((masks, ends, face, gone))
            return search(masks, memo, ends, face, gone, candidates)

        monkeypatch.setattr(decompose, "_search", recording)
        read = Counter()
        for cx in [*self._pure_small(), *self._random_pure()]:
            memo = {}
            calls.clear()
            is_vertex_decomposable(cx, memo)
            assert sorted(masks for masks, *_ in calls) == sorted(memo)  # one call per subproblem
            for masks, ends, face, gone in calls:
                # the subproblem is lk_face(del_gone cx), read off the top complex's map
                assert ends == _ends(cx.facet_masks) and not face & gone
                assert masks == tuple(f ^ face for f in cx.facet_masks if f & face == face and not f & gone)
                if len(masks) > 1:
                    candidates, isolated = ridge_recount(masks)
                    assert _candidates(masks, ends, face, gone) == (None if isolated else candidates)
                    read[isolated] += 1
        assert read[True] > 500 and read[False] > 8000

    @pytest.mark.parametrize("m", range(4, 13))
    def test_first_failing_link_ends_the_search(self, m):
        # the boundary of the simplex on 5..m + 5, joined to the two disjoint
        # edges 12, 34: only the boundary's vertices are candidates, and the
        # link of each is the boundary of a smaller simplex joined to the edges
        sphere = range(5, m + 6)
        cx = SimplicialComplex.from_facets(
            m + 5, [[*e, *(v for v in sphere if v != u)] for e in ([1, 2], [3, 4]) for u in sphere]
        )
        memo = {}
        assert is_vertex_decomposable(cx, memo).value is False
        assert len(memo) == m + 1  # one link per boundary; 2^(m + 1) - m - 1 without the early stop
        if m <= 6:
            assert naive_shedding_tree(cx) is None

    @pytest.mark.parametrize("n, k", [(9, 3), (9, 5)])  # not VD, VD
    def test_memo_maps_facet_masks_to_tree(self, n, k):
        cx = vdw_complex(n, k)
        memo = {}
        res = is_vertex_decomposable(cx, memo)
        assert memo[cx.facet_masks] is res.tree


def _tree_json(res):
    return res.tree.to_json() if res.tree is not None else None


def _verdict(res):
    return res.value, _tree_json(res)


class TestVDColumn:
    """Counts carried down a column equal a fresh count, and the trees a fresh search."""

    def test_every_vdw_column_to_n64(self):
        decomposable = 0
        for k in range(1, 64):
            column = _Column(k)
            for n in range(k + 1, 65):
                cx = column.grow(n)
                res = _vertex_decomposable(column)
                assert column.ends == _ends(cx.facet_masks), (n, k)
                assert column.support & ~column.lonely == ridge_recount(cx.facet_masks)[0], (n, k)
                fresh = is_vertex_decomposable(cx)
                assert res.value is fresh.value and _tree_json(res) == _tree_json(fresh), (n, k)
                assert _vertex_decomposable(column) is res  # decided once per record
                assert column.memo[cx.facet_masks] is res.tree, (n, k)
                decomposable += res.value
        grid = [(n, k) for n in range(2, 65) for k in range(1, n)]
        assert decomposable == sum(classify_closed_form(n, k).vertex_decomposable for n, k in grid)

    def test_random_facet_lists_grown_one_facet_at_a_time(self):
        # new facets land anywhere in canonical order, and ridges go from one holder to two
        rng = random.Random(2917)
        verdicts = Counter()
        for _ in range(60):
            n = rng.randint(5, 8)
            dim = rng.randint(1, 3)
            pool = [pack(f) for f in combinations(range(1, n + 1), dim + 1)]
            rng.shuffle(pool)
            column = _Column(dim)
            for grown in range(1, min(len(pool), 14) + 1):
                masks = _canonical(pool[:grown])
                cx = SimplicialComplex.from_facets(n, map(unpack, masks))
                column._extend(cx, [pool[grown - 1]])
                res = _vertex_decomposable(column)
                assert column.support & ~column.lonely == ridge_recount(masks)[0], masks
                assert column.ends == _ends(masks), masks
                assert _tree_json(res) == _tree_json(is_vertex_decomposable(cx)), masks
                verdicts[res.value] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_new_vertex_with_a_failing_deletion_is_passed_over(self):
        # two disjoint edges are not VD; joined through vertex 5 they form a path,
        # which is: 5 sheds with a VD link, and the search moves on to vertex 4
        column = _Column(1)
        edges = complex_from_masks(4, (0b0011, 0b1100))
        column._extend(edges, edges.facet_masks)
        assert _vertex_decomposable(column).value is False
        path = complex_from_masks(5, (0b00011, 0b10010, 0b01100, 0b10100))
        column._extend(path, [0b10010, 0b10100])
        assert column.memo[edges.facet_masks] is None  # 5's deletion, the last record
        res = _vertex_decomposable(column)
        assert res.value and _tree_json(res) == _tree_json(is_vertex_decomposable(path))

    # the column's two carried states, each named for the column class that once held it alone
    @pytest.mark.parametrize(
        "carried, fresh",
        [
            pytest.param(
                lambda column: _verdict(_vertex_decomposable(column)),
                lambda cx: _verdict(is_vertex_decomposable(cx)),
                id="_VDColumn",
            ),
            pytest.param(
                lambda column: column.s2_witness(),
                lambda cx: _s2_failure(cx.facet_masks, cx.dim),
                id="_S2Column",
            ),
        ],
    )
    def test_facet_lists_must_only_grow(self, carried, fresh):
        column = _Column(2)
        column.grow(9)
        before = carried(column)  # folds the state in
        for n in (9, 8, 11):  # the same, fewer, a vertex skipped
            with pytest.raises(ValueError, match="grows by one vertex"):
                column.grow(n)
        assert carried(column) == before == fresh(vdw_complex(9, 2))  # refused growths change nothing
        cx = column.grow(10)
        assert cx.facet_masks == vdw_complex(10, 2).facet_masks
        assert carried(column) == fresh(cx)

    def test_growth_checked_on_the_sweep_entry(self):
        column = _Column(2)
        compute_record(9, 2, ["vd"], [2], column=column)
        for n, k in ((8, 2), (9, 3), (10, 3)):  # fewer vertices, the same n, another k
            with pytest.raises(ValueError, match="grows by one vertex"):
                compute_record(n, k, ["vd"], [2], column=column)
        assert compute_record(10, 2, ["vd"], [2], column=column)["agreement"]


class TestGrownColumn:
    """The column's complexes are vdW(n, k), built from the last one's facets."""

    def test_every_column_to_n64(self):
        for k in range(1, 64):
            column = _Column(k)
            for n in range(k + 1, 65):
                cx = column.grow(n)
                assert cx.facet_masks == vdw_complex(n, k).facet_masks, (n, k)
                assert sorted(column.added) == sorted(cx.facet_masks), (n, k)

    @pytest.mark.parametrize(
        "masks, fresh",
        [
            ((0b0111, 0b1101, 0b1011), [2]),  # 124 after 134, which it precedes
            ((0b0111, 0b1011, 0b1011), [2]),  # a kept facet again
            ((0b0111, 0b0111, 0b1011), [0]),  # a kept facet again, first
            ((0b0111, 0b1011, 0b1100), [2]),  # two vertices, not three
            ((0b0111, 0b1011, 0b11010), [2]),  # vertex 5 beyond n = 4
        ],
    )
    def test_added_facets_validated(self, masks, fresh):
        with pytest.raises(ValueError):
            _check_antichain(4, masks, "facet", fresh)
        _check_antichain(4, (0b0111, 0b1011, 0b1101), "facet", [2])  # 123, 124, 134


def _sweep_shellable(column, n, k):
    """The sweep's shellable check on vdW(n, k): VD in ``column``, then the carried replay."""
    cx = column.grow(n)
    vd = _vertex_decomposable(column)
    return cx, vd, _shellable(cx, None, vd, lambda: _s2_failure(cx.facet_masks, k), column)


class TestCarriedReplay:
    """Down a sweep column the replay reuses the previous record's verified order."""

    def test_every_sweep_column_to_n40(self):
        reused = 0
        for k in range(1, 40):
            column = _Column(k)
            for n in range(k + 1, 41):
                carried = column.replay
                cx, vd, res = _sweep_shellable(column, n, k)
                assert res.value is vd.value, (n, k)
                if vd.value:
                    assert res.order_masks == tuple(_tree_order(cx.facet_masks, vd.tree)), (n, k)
                    assert "order" not in vars(res)  # no vertex tuples until read
                    assert column.replay[0] is vd.tree and column.replay[1] == cx.facet_masks
                    reused += carried is not None and vd.tree.deletion is carried[0]
        # every VD record after a VD one: its deletion is the previous record's tree
        after_vd = [
            (n, k) for n in range(3, 41) for k in range(1, n - 1)
            if classify_closed_form(n - 1, k).vertex_decomposable
            and classify_closed_form(n, k).vertex_decomposable
        ]
        assert reused == len(after_vd) == 401

    def test_carried_order_taken_without_a_walk(self):
        masks = vdw_complex(7, 1).facet_masks
        tree = is_vertex_decomposable(vdw_complex(7, 1)).tree
        stand_in = [-1]  # no walk returns this
        assert _tree_order(masks, tree, (tree, masks, stand_in)) is stand_in
        copy = SheddingTree.from_dict(tree.to_dict())  # equal, but another object
        assert copy == tree and copy is not tree
        assert _tree_order(masks, copy, (tree, masks, stand_in)) == _tree_order(masks, tree)

    @staticmethod
    def _column_at(n, k):
        """A column that has verified vdW(n, k)'s replay."""
        column = _Column(k)
        for m in range(k + 1, n + 1):
            _, vd, _ = _sweep_shellable(column, m, k)
        assert vd.value and column.replay[0] is vd.tree
        return column

    def test_forged_top_node_rejected(self):
        column = self._column_at(6, 1)
        previous = column.replay[0]
        cx = column.grow(7)
        vd = _vertex_decomposable(column)
        assert vd.tree.deletion is previous
        forged = [
            SheddingTree("shed", 7, SheddingTree("simplex"), previous),  # the link is six points
            SheddingTree("shed", 6, vd.tree.link, previous),  # 6 is not the new vertex
            SheddingTree("shed", 7, previous, previous),
        ]
        for tree in forged:
            with pytest.raises(ValueError):
                _shellable(cx, None, DecompositionResult(True, tree), lambda: None, column)
            assert column.replay[0] is previous  # a failed replay leaves the carried one
        assert _shellable(cx, None, vd, lambda: None, column).value is True

    def test_equal_looking_subtree_walked_in_full(self):
        column = self._column_at(6, 1)
        previous = column.replay[0]
        cx = column.grow(7)
        vd = _vertex_decomposable(column)
        # the same root as the previous tree, a forged leaf at the end of its deletion spine
        data = node = previous.to_dict()
        while node["deletion"]["kind"] == "shed":
            node = node["deletion"]
        node["deletion"] = {"kind": "void"}
        copy = SheddingTree.from_dict(data)
        assert copy.vertex == previous.vertex and copy.link == previous.link
        tree = SheddingTree("shed", 7, vd.tree.link, copy)
        with pytest.raises(ValueError):
            _shellable(cx, None, DecompositionResult(True, tree), lambda: None, column)

    def test_previous_tree_on_other_facets_rejected(self):
        column = self._column_at(6, 1)
        previous, facets, order = column.replay
        for other in (vdw_complex(7, 1), vdw_complex(6, 2), vdw_complex(5, 1)):
            with pytest.raises(ValueError):
                _tree_order(other.facet_masks, previous, column.replay)
        with pytest.raises(ValueError):
            _shellable(vdw_complex(7, 1), None, DecompositionResult(True, previous), None, column)
        assert column.replay == (previous, facets, order)

    def test_reused_only_with_nothing_joined(self):
        # the point 2 is a simplex; lk 2 in the two points 1, 2 holds the same
        # facet, but with 2 joined it is the empty complex, not a simplex
        simplex = SheddingTree("simplex")
        verified = (simplex, (0b10,), _tree_order((0b10,), simplex))
        tree = SheddingTree("shed", 2, simplex, SheddingTree("simplex"))
        with pytest.raises(ValueError):
            _tree_order((0b1, 0b10), tree, verified)
        tree = SheddingTree("shed", 2, SheddingTree("empty"), simplex)
        assert _tree_order((0b1, 0b10), tree, verified) == [0b1, 0b10]


class TestShellingResultOrder:
    """The order is kept as masks; the vertex tuples are built on first read."""

    def test_tuples_built_on_first_read(self):
        cx = vdw_complex(6, 2)
        res = is_shellable(cx, vd=is_vertex_decomposable(cx))
        assert "order" not in vars(res)
        assert res.order == tuple(map(unpack, res.order_masks))
        assert verify_shelling(cx, res.order)

    def test_positional_tuple_constructor(self):
        order = ((1, 2, 3), (2, 3, 4))
        res = ShellingResult("shellable", order, 2)
        assert res.order is order and res.order_masks == (0b111, 0b1110)
        assert res.refutation is None and res.value is True
        assert res == ShellingResult._from_masks("shellable", [0b111, 0b1110], 2)
        assert ShellingResult("undecided", None, 5).to_json() == (
            '{"status":"undecided","order":null,"nodes":5,"refutation":null}'
        )


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
        assert res.to_dict()["refutation"] is None  # vdW(6, 2) is Cohen-Macaulay

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            is_shellable(vdw_complex(6, 2), budget=-1)
        for bad in (True, 2.5, float("nan")):
            with pytest.raises(ValueError):
                is_shellable(vdw_complex(6, 2), budget=bad)
        assert is_shellable(vdw_complex(6, 2), budget=0).status == "undecided"

    def test_no_budget_is_the_default_result(self):
        cx = vdw_complex(6, 2)
        assert is_shellable(cx, None) == is_shellable(cx)
        assert is_shellable(cx, None).status == "shellable"

    def test_shellable_but_not_vertex_decomposable(self):
        # 7 vertices, 15 triangles, listed in a shelling order: the search
        # finds an order where no shedding tree exists
        facets = [
            (1, 3, 6), (1, 2, 6), (2, 5, 6), (4, 5, 6), (1, 2, 3), (3, 4, 6), (2, 5, 7), (1, 2, 7),
            (3, 4, 5), (2, 6, 7), (4, 5, 7), (2, 4, 5), (1, 5, 7), (1, 3, 7), (1, 3, 4),
        ]
        cx = SimplicialComplex.from_facets(7, facets)
        assert not is_vertex_decomposable(cx).value
        assert naive_shedding_tree(cx) is None
        res = is_shellable(cx)
        assert res.value is True and res.nodes == 15
        assert verify_shelling(cx, res.order)
        assert verify_shelling(cx, facets)
        assert all(is_cohen_macaulay(cx, field).value for field in ("Q", "F2", "Fp:3"))

    def test_tree_orders_of_vdw_to_n30(self):
        for k in range(1, 30):
            memo = {}  # one memo down each column, as in the sweep
            for n in range(k + 1, 31):
                cx = vdw_complex(n, k)
                vd = is_vertex_decomposable(cx, memo)
                assert vd.value is classify_closed_form(n, k).vertex_decomposable
                if vd.value:
                    res = is_shellable(cx, vd=vd)
                    assert res.status == "shellable" and res.nodes == 0
                    assert verify_shelling(cx, res.order)

    def test_tree_of_another_complex_rejected(self):
        with pytest.raises(ValueError):
            is_shellable(vdw_complex(5, 2), vd=is_vertex_decomposable(vdw_complex(6, 2)))
        # the path 1-2-3 sheds 3 into the edge 1-2 and the point 2; read on
        # two disjoint edges, the same tree would order both edges, but the
        # deletion at 3 is not pure there, and the complex is not shellable
        path = SimplicialComplex.from_facets(4, [[1, 2], [2, 3]])
        vd = is_vertex_decomposable(path)
        assert vd.tree.vertex == 3
        assert verify_shelling(path, is_shellable(path, vd=vd).order)
        two_edges = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
        assert not verify_shedding_tree(two_edges, vd.tree)
        with pytest.raises(ValueError):
            is_shellable(two_edges, vd=vd)
        for leaf in ("void", "empty", "simplex"):
            with pytest.raises(ValueError):
                is_shellable(two_edges, vd=DecompositionResult(True, SheddingTree(leaf)))

    def test_cone_apex_does_not_shed(self):
        # the cone over two points with apex 3: del 3 is lk 3, the two points,
        # one dimension lower, so 3 is no shedding vertex (Provan-Billera)
        cone = SimplicialComplex.from_facets(3, [[1, 3], [2, 3]])
        points = is_vertex_decomposable(SimplicialComplex.from_facets(3, [[1], [2]])).tree
        apex = SheddingTree("shed", 3, points, points)
        assert not verify_shedding_tree(cone, apex)
        with pytest.raises(ValueError):
            is_shellable(cone, vd=DecompositionResult(True, apex))
        vd = is_vertex_decomposable(cone)
        assert vd.tree.vertex == 2
        assert verify_shedding_tree(cone, vd.tree)
        result = is_shellable(cone, vd=vd)
        assert result.nodes == 0 and verify_shelling(cone, result.order)

    @pytest.mark.parametrize(
        "forge",
        [
            lambda t: SheddingTree("shed", 6, None, None),
            lambda t: t.to_dict(),
            lambda t: None,
            # vdW(6, 2) is symmetric, and vertex 1 sheds it in the mirrored tree
            lambda t: dataclasses.replace(_mirrored(t, 6), vertex=True),
            lambda t: SheddingTree("shed", "6", t.link, t.deletion),
            lambda t: SheddingTree("shed", 10**9, t.link, t.deletion),
            # lk 6 does not hold 6, though every facet of that subproblem holds it
            lambda t: SheddingTree("shed", 6, SheddingTree("shed", 6, t.link, t.link), t.deletion),
            # 7 lies in no facet: the void link would be a leaf holding no facet
            lambda t: SheddingTree("shed", 7, SheddingTree("void"), t),
        ],
        ids=[
            "no-subtrees", "dict", "none", "bool-vertex", "str-vertex", "huge-vertex", "shed-twice",
            "outside-support",
        ],
    )
    def test_malformed_certificate_fails(self, forge):
        cx = vdw_complex(6, 2)
        forged = forge(is_vertex_decomposable(cx).tree)
        assert verify_shedding_tree(cx, forged) is False
        with pytest.raises(ValueError):
            is_shellable(cx, vd=DecompositionResult(True, forged))

    def test_result_records_are_pinned(self):
        cx = vdw_complex(6, 2)
        res = is_shellable(cx, vd=is_vertex_decomposable(cx))
        assert bool(res) is True
        assert res.to_json() == (
            '{"status":"shellable","order":[[1,2,3],[2,3,4],[1,3,5],[3,4,5],[2,4,6],[4,5,6]],'
            '"nodes":0,"refutation":null}'
        )
        res = is_shellable(vdw_complex(7, 2))
        assert bool(res) is False
        assert res.to_json() == (
            '{"status":"not-shellable","order":null,"nodes":10,"refutation":'
            '{"cohen_macaulay":false,"field":"Fp:2","witness_face":[1],"witness_degree":0}}'
        )

    def test_not_vertex_decomposable_skips_the_probe(self, monkeypatch):
        probes = []
        greedy = _kernels.greedy_shelling

        def recording(masks):
            probes.append(len(masks))
            return greedy(masks)

        monkeypatch.setattr(_kernels, "greedy_shelling", recording)
        cx = vdw_complex(7, 2)
        res = is_shellable(cx, vd=is_vertex_decomposable(cx))
        assert probes == [] and res.nodes == 0  # refuted by (S2), no search
        assert res.refutation.witness_degree == 0
        assert is_shellable(cx).nodes == 10 and probes == [len(cx.facets)]  # the probe
        # RP^2 passes (S2) and fails the F2 walk, which repeats no greedy pass
        probes.clear()
        assert is_shellable(RP2).refutation.witness_degree == 1 and probes == [10]
        # shellable but not vertex decomposable: the search alone, no probe
        facets = [
            (1, 3, 6), (1, 2, 6), (2, 5, 6), (4, 5, 6), (1, 2, 3), (3, 4, 6), (2, 5, 7), (1, 2, 7),
            (3, 4, 5), (2, 6, 7), (4, 5, 7), (2, 4, 5), (1, 5, 7), (1, 3, 7), (1, 3, 4),
        ]
        cx = SimplicialComplex.from_facets(7, facets)
        probes.clear()
        res = is_shellable(cx, vd=is_vertex_decomposable(cx))
        assert probes == []
        assert res == is_shellable(cx)

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


class TestReisnerRefutation:
    """The shedding tree, the probe, (S2) and the F2 Reisner test change
    speed, never the answer."""

    @staticmethod
    def _refutation_checks(cx, refutation):
        # in degree 0, an (S2) witness: the replay finds a disconnected link of dimension >= 1
        assert _refutation_replays(cx, refutation)
        if refutation.witness_degree != 0:  # only a complex passing (S2) reaches the F2 walk
            assert _s2_failure(cx.facet_masks, cx.dim) is None

    @classmethod
    def _cross_check(cls, cx):
        vd = is_vertex_decomposable(cx)
        res = is_shellable(cx)
        treed = is_shellable(cx, vd=vd)
        status, order, nodes = _kernels.search_shelling(list(cx.facet_masks), 1 << 62)
        assert res.value is treed.value is (status == _kernels.FOUND)
        searched = (res,) if vd.value else (res, treed)
        if status == _kernels.FOUND:
            for found in searched:  # the order and nodes of the search itself
                assert found.status == "shellable"
                assert found.order == tuple(cx.facets[i] for i in order)
                assert found.nodes == nodes
                assert found.refutation is None
        if vd.value:
            assert treed.status == "shellable" and treed.nodes == 0
            assert verify_shelling(cx, treed.order)
        for decided in (res, treed):
            if decided.refutation is not None:
                assert decided.status == "not-shellable" and not decided.refutation.value
                cls._refutation_checks(cx, decided.refutation)
        for budget in (0, 1, 10):
            for bounded in (is_shellable(cx, budget), is_shellable(cx, budget, vd)):
                if bounded.status == "undecided":
                    assert is_cohen_macaulay(cx, 2).value
                else:
                    assert bounded.value is res.value
        return res

    def test_matches_search_exhaustively(self):
        degrees = []
        for n in range(1, 6):
            for masks in enumerate_antichains(n):
                if masks and len({m.bit_count() for m in masks}) == 1:
                    res = self._cross_check(complex_from_masks(n, masks))
                    if res.refutation is not None:
                        degrees.append(res.refutation.witness_degree)
        assert degrees.count(0) > 100  # (S2) witnesses
        assert len(degrees) > degrees.count(0)  # F2 witnesses of complexes passing (S2)

    def test_matches_search_random(self):
        rng = random.Random(47)
        refuted = 0
        for _ in range(300):
            refuted += self._cross_check(random_pure_complex(rng, 7)).refutation is not None
        assert refuted > 30

    def test_negative_refuted_within_budget(self):
        # the plain search exhausts this budget after 11 nodes
        cx = vdw_complex(9, 2)
        res = is_shellable(cx, budget=10)
        assert res.status == "not-shellable"
        assert res.nodes == 11
        assert _refutation_replays(cx, res.refutation)
        assert res.to_dict()["refutation"] == res.refutation.to_dict()

    def test_backtracking_input_searched_in_full(self):
        # shellable, but the search must backtrack: the probe runs out
        cx = SimplicialComplex.from_facets(
            6,
            [(1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 6), (2, 3, 4),
             (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (4, 5, 6)],
        )
        masks = list(cx.facet_masks)
        assert _kernels.search_shelling(masks, len(masks))[0] == _kernels.EXHAUSTED
        res = self._cross_check(cx)
        assert (res.status, res.nodes) == ("shellable", 12)
        assert verify_shelling(cx, res.order)
        assert is_shellable(cx, budget=11).status == "undecided"


def _is_shellable_by_search_probe(cx, budget, vd):
    """``is_shellable`` with ``search_shelling(masks, min(budget, s))`` as its probe."""
    if budget is None:
        budget = 1 << 62
    if vd is not None and vd.value:
        return is_shellable(cx, budget, vd)
    masks = list(cx.facet_masks)
    status, idx_order, nodes = _kernels.EXHAUSTED, None, 0
    if vd is None:
        status, idx_order, nodes = _kernels.search_shelling(masks, min(budget, len(masks)))
    if status == _kernels.EXHAUSTED:
        failure = _s2_failure(masks, cx.dim)
        if failure is not None:
            s2 = CohenMacaulayResult(False, "Fp:2", unpack(failure[0]), 0)
            return ShellingResult("not-shellable", None, nodes, s2)
        cm = is_cohen_macaulay(cx, 2)
        if not cm:
            return ShellingResult("not-shellable", None, nodes, cm)
        if vd is not None or budget > len(masks):
            status, idx_order, nodes = _kernels.search_shelling(masks, budget)
    order = tuple(cx.facets[i] for i in idx_order) if idx_order is not None else None
    status = {_kernels.FOUND: "shellable", _kernels.NOT_SHELLABLE: "not-shellable"}.get(status, "undecided")
    return ShellingResult(status, order, nodes)


class TestGreedyProbe:
    """The greedy pass gives every result the search run as a probe gave."""

    @staticmethod
    def _same_as_search_probe(cx):
        s = len(cx.facets)
        vd = is_vertex_decomposable(cx)
        for budget in (0, 1, 2, s - 1, s, s + 1, None):
            for given in (None, vd):
                got = is_shellable(cx, budget, given).to_json()
                assert got == _is_shellable_by_search_probe(cx, budget, given).to_json(), (
                    cx.facets, budget, given is not None,
                )

    def test_every_pure_antichain_on_5_vertices(self):
        for masks in enumerate_antichains(5):
            if masks and len({m.bit_count() for m in masks}) == 1:
                self._same_as_search_probe(complex_from_masks(5, masks))

    def test_random_pure_complexes_and_vdw_to_n12(self):
        rng = random.Random(167)
        cxs = [random_pure_complex(rng, 8) for _ in range(200)]
        cxs += [vdw_complex(n, k) for n in range(2, 13) for k in range(1, n)]
        for cx in cxs:
            self._same_as_search_probe(cx)

    def test_vdw_64_2_refuted_at_once(self):
        # the search run as the probe backtracked for about 30 s (Python 3.11,
        # 2 vCPUs) before (S2) refuted it; the greedy pass stops at its dead end
        cx = vdw_complex(64, 2)
        t0 = time.perf_counter()
        res = is_shellable(cx)
        elapsed = time.perf_counter() - t0
        assert len(cx.facets) == 992 and (res.status, res.nodes) == ("not-shellable", 993)
        assert res.refutation == is_shellable(cx, vd=is_vertex_decomposable(cx)).refutation
        assert res.refutation.witness_degree == 0
        assert elapsed < 2.0


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

    @pytest.mark.parametrize("bad", [(1, "a", 3), (1.0, 2, 3), (True, 2, 3)])
    def test_malformed_vertices_rejected(self, bad):
        cx = vdw_complex(5, 2)
        with pytest.raises(ValueError):
            verify_shelling(cx, [bad, (1, 3, 5), (2, 3, 4), (3, 4, 5)])

    def test_facet_vertex_order_ignored(self):
        assert verify_shelling(vdw_complex(5, 2), [(5, 4, 3), (4, 3, 2), (3, 2, 1), (5, 3, 1)])
