"""Dual ideals, Taylor syzygies and the linear-presentation criterion."""

import random
from itertools import combinations

import pytest
from conftest import (
    RP2,
    _linearly_joined,
    _linearly_presented_by_pairs,
    benchmark_random_pure,
    complex_from_masks,
    enumerate_antichains,
    graph_connected,
    linear_presentation_oracle,
)

from vdwcomplex import _kernels, ideals
from vdwcomplex.certify import _chain_complex
from vdwcomplex.complexes import SimplicialComplex, _canonical, _check_antichain, _face_order, pack
from vdwcomplex.decompose import _Column
from vdwcomplex.ideals import (
    LinearPresentationResult,
    MonomialIdeal,
    _S2Walk,
    _s2_witness,
    dual_ideal,
    is_linearly_presented,
    nonlinear_obstruction_vdw,
    taylor_syzygies,
)
from vdwcomplex.vdw import progression_facets, vdw_complex


class TestMonomialIdeal:
    def test_minimalization(self):
        ideal = MonomialIdeal.from_supports(4, [(1, 2), (1, 2, 3), (3, 4), (3, 4)])
        assert ideal.generators == ((1, 2), (3, 4))

    def test_non_dividing_enforced(self):
        with pytest.raises(ValueError):
            MonomialIdeal(3, ((1,), (1, 2)))

    def test_variables_in_range(self):
        with pytest.raises(ValueError):
            MonomialIdeal(3, ((1, 4),))

    def test_serialization(self):
        ideal = MonomialIdeal.from_supports(5, [(4, 5), (1, 5)])
        assert ideal.to_json() == '{"n":5,"generators":[[1,5],[4,5]]}'

    def test_from_supports_matches_minimal_elements(self):
        # oracle: the supports with no proper subset among the supports
        rng = random.Random(23)
        for trial in range(300):
            n = rng.randint(1, 7)
            used = rng.randint(1, n)  # variables above `used` never occur
            supports = [
                rng.sample(range(1, used + 1), rng.randint(0 if trial % 10 == 0 else 1, used))
                for _ in range(rng.randint(1, 8))
            ]
            supports += rng.sample(supports, rng.randint(0, len(supports)))  # duplicates
            sets = {frozenset(s) for s in supports}
            minimal = sorted(tuple(sorted(s)) for s in sets if not any(t < s for t in sets))
            ideal = MonomialIdeal.from_supports(n, supports)
            assert ideal.generators == tuple(minimal)
            assert ideal.generator_masks == tuple(pack(g) for g in minimal)

    def test_from_supports_edge_cases(self):
        assert MonomialIdeal.from_supports(3, [(1, 2), (), (3,)]).generators == ((),)
        assert MonomialIdeal.from_supports(3, []).generators == ()
        assert MonomialIdeal.from_supports(6, [(2, 1), (1, 2), (2,)]).generators == ((2,),)
        with pytest.raises(ValueError):
            MonomialIdeal.from_supports(3, [(1, 2), (3, 4)])
        with pytest.raises(ValueError):
            MonomialIdeal.from_supports(3, [(0,)])
        with pytest.raises(ValueError):
            MonomialIdeal.from_supports(3, [(False, 2)])


class TestDualIdeal:
    def test_vdw52(self):
        ideal = dual_ideal(vdw_complex(5, 2))
        assert ideal.generators == ((1, 2), (1, 5), (2, 4), (4, 5))

    def test_cross_check_against_alexander_dual(self):
        # generators = minimal non-faces of the dual complex
        for n, k in [(5, 2), (6, 2), (7, 2), (7, 3)]:
            cx = vdw_complex(n, k)
            ideal = dual_ideal(cx)
            dual_nonfaces = cx.alexander_dual().minimal_nonfaces()
            assert ideal.generators == dual_nonfaces

    def test_single_complement(self):
        for n in range(2, 8):
            cx = SimplicialComplex.from_facets(n, [range(1, n)])
            assert dual_ideal(cx).generators == ((n,),)

    def test_vdw72_count_and_degree(self):
        ideal = dual_ideal(vdw_complex(7, 2))
        assert len(ideal.generators) == 9
        assert set(ideal.degrees) == {4}

    def test_equigenerated_degree(self):
        for n in range(2, 11):
            for k in range(1, n - 1):
                ideal = dual_ideal(vdw_complex(n, k))
                assert set(ideal.degrees) == {n - k - 1}

    def test_full_simplex_flagged_as_empty(self):
        ideal = dual_ideal(SimplicialComplex.simplex(4))
        assert ideal.generators == ()
        assert is_linearly_presented(ideal).value

    def test_void_raises(self):
        with pytest.raises(ValueError):
            dual_ideal(SimplicialComplex.from_facets(3, []))


class TestTaylorSyzygies:
    def test_pair_example(self):
        ideal = MonomialIdeal.from_supports(5, [(4, 5), (1, 5)])
        (syz,) = taylor_syzygies(ideal)
        # canonical generator order: m_0 = x1 x5, m_1 = x4 x5
        assert ideal.generators == ((1, 5), (4, 5))
        assert syz.sigma_ij == (1,)  # m_0 / gcd
        assert syz.sigma_ji == (4,)  # m_1 / gcd
        assert syz.multidegree == (1, 4, 5)
        assert syz.linear

    def test_coprime_degree_one(self):
        ideal = MonomialIdeal.from_supports(2, [(1,), (2,)])
        (syz,) = taylor_syzygies(ideal)
        assert syz.sigma_ji == (2,) and syz.sigma_ij == (1,)
        assert syz.linear

    def test_disjoint_supports_nonlinear(self):
        ideal = MonomialIdeal.from_supports(4, [(1, 2), (3, 4)])
        (syz,) = taylor_syzygies(ideal)
        assert len(syz.sigma_ij) == 2 and len(syz.sigma_ji) == 2
        assert not syz.linear

    def test_count_and_invariants(self):
        rng = random.Random(71)
        for _ in range(30):
            n = rng.randint(3, 8)
            d = rng.randint(1, n - 1)
            from itertools import combinations

            pool = list(combinations(range(1, n + 1), d))
            supports = rng.sample(pool, min(len(pool), rng.randint(1, 6)))
            ideal = MonomialIdeal.from_supports(n, supports)
            syz = taylor_syzygies(ideal)
            s = len(ideal.generators)
            assert len(syz) == s * (s - 1) // 2
            for t in syz:
                mi = pack(ideal.generators[t.i])
                mj = pack(ideal.generators[t.j])
                lcm = mi | mj
                # sigma_ji * m_i = sigma_ij * m_j = lcm
                assert pack(t.sigma_ji) | mi == lcm
                assert pack(t.sigma_ij) | mj == lcm
                assert pack(t.multidegree) == lcm
                assert len(t.sigma_ij) == lcm.bit_count() - mj.bit_count()


class TestLinearPresentation:
    def test_vdw72_false_with_extreme_increment_witness(self):
        ideal = dual_ideal(vdw_complex(7, 2))
        res = is_linearly_presented(ideal)
        assert not res.value
        witnesses = {ideal.generators[i] for i in res.witness}
        assert (2, 3, 5, 6) in witnesses  # complement of the increment-3 facet {1,4,7}

    def test_vdw62_true(self):
        assert is_linearly_presented(dual_ideal(vdw_complex(6, 2))).value

    def test_result_record_is_pinned(self):
        res = is_linearly_presented(dual_ideal(vdw_complex(7, 2)))
        assert bool(res) is False
        assert res.to_dict() == {"linearly_presented": False, "witness": [6, 7]}
        res = is_linearly_presented(dual_ideal(vdw_complex(6, 2)))
        assert bool(res) is True
        assert res.to_dict() == {"linearly_presented": True, "witness": None}

    def test_chain_true(self):
        ideal = MonomialIdeal.from_supports(4, [(1, 2), (2, 3), (3, 4)])
        assert is_linearly_presented(ideal).value

    def test_disjoint_false(self):
        ideal = MonomialIdeal.from_supports(4, [(1, 2), (3, 4)])
        res = is_linearly_presented(ideal)
        assert not res.value
        assert res.witness == (0, 1)

    def test_not_equigenerated_rejected(self):
        with pytest.raises(ValueError):
            is_linearly_presented(MonomialIdeal.from_supports(3, [(1,), (2, 3)]))

    def test_matches_linear_system_oracle(self):
        rng = random.Random(73)
        from itertools import combinations

        for _ in range(60):
            n = rng.randint(4, 8)
            d = rng.randint(2, min(4, n - 1))
            pool = list(combinations(range(1, n + 1), d))
            supports = rng.sample(pool, min(len(pool), rng.randint(2, 6)))
            ideal = MonomialIdeal.from_supports(n, supports)
            got = is_linearly_presented(ideal).value
            assert got == linear_presentation_oracle(ideal, 0)[0]
            assert got == linear_presentation_oracle(ideal, 2)[0]
            assert got == _linearly_presented_by_pairs(ideal).value


def _shelled(cx) -> bool:
    """Does the greedy pass decide linear presentation of ``cx``'s dual ideal?"""
    return cx.dim >= 2 and _kernels.greedy_shelling(list(cx.facet_masks)) is not None


def _s2_walk(ideal) -> dict:
    """``is_linearly_presented(ideal).to_dict()`` as the (S2) walk alone finds it."""
    masks = ideal.generator_masks
    if len(masks) <= 1:
        return LinearPresentationResult(True).to_dict()
    full = (1 << ideal.n) - 1
    witness = _s2_witness([full & ~m for m in masks], ideal.n - masks[0].bit_count() - 1)
    return LinearPresentationResult(witness is None, witness).to_dict()


def assert_fast_matches_graph_search(ideal):
    """The decider gives the (S2) walk's result, greedy pass or not, and agrees with
    the pair-by-pair graph search; its witness replays."""
    fast = is_linearly_presented(ideal)
    assert fast.to_dict() == _s2_walk(ideal)
    assert fast.value == _linearly_presented_by_pairs(ideal).value
    if fast.value:
        assert fast.witness is None
        return
    i, j = fast.witness
    masks = ideal.generator_masks
    assert i < j
    assert (masks[i] | masks[j]).bit_count() != masks[0].bit_count() + 1  # not linear
    assert not _linearly_joined(masks, i, j)


class TestSerreFastPath:
    def test_every_pure_complex_on_up_to_5_vertices(self):
        negatives = shelled = 0
        for n in range(1, 6):
            for masks in enumerate_antichains(n):
                if masks and len({m.bit_count() for m in masks}) == 1:
                    cx = complex_from_masks(n, masks)
                    ideal = dual_ideal(cx)
                    assert_fast_matches_graph_search(ideal)
                    negatives += not is_linearly_presented(ideal).value
                    shelled += _shelled(cx)
        assert negatives > 100 and shelled > 100

    def test_random_pure_complexes_on_6_to_9_vertices(self):
        rng = random.Random(6029)
        negatives = with_unused_vertex = 0
        for _ in range(320):
            n = rng.randint(6, 9)
            dim = rng.randint(1, 3)
            used = rng.sample(range(1, n + 1), rng.randint(dim + 2, n))
            pool = list(combinations(sorted(used), dim + 1))
            facets = rng.sample(pool, rng.randint(2, min(14, len(pool))))
            cx = SimplicialComplex.from_facets(n, facets)
            with_unused_vertex += len(cx.support) < n
            ideal = dual_ideal(cx)
            assert_fast_matches_graph_search(ideal)
            negatives += not is_linearly_presented(ideal).value
        assert negatives > 50 and with_unused_vertex > 50

    def test_every_vdw_to_n18(self):
        for n in range(2, 19):
            for k in range(1, n):
                assert_fast_matches_graph_search(dual_ideal(vdw_complex(n, k)))

    def test_disconnected_complex_fails_at_the_empty_face(self):
        # two triangles sharing no vertex: i and j lie in different components
        ideal = dual_ideal(SimplicialComplex.from_facets(6, [[1, 2, 3], [4, 5, 6]]))
        assert is_linearly_presented(ideal).witness == (0, 1)
        assert not _linearly_presented_by_pairs(ideal).value

    def test_pairwise_walk_matches_every_face(self):
        # the first face, over all faces in _face_order, whose link has
        # dimension >= 1 and is disconnected, against the pairwise walk
        def first_disconnected(facets, dim):
            faces = sorted((m for level in _chain_complex(facets)[0] for m in level), key=_face_order)
            for face in faces:
                link = [g ^ face for g in facets if g & face == face]
                if dim - face.bit_count() >= 1 and not graph_connected(link):
                    return face
            return None

        complexes = [
            complex_from_masks(n, masks)
            for n in range(1, 6)
            for masks in enumerate_antichains(n)
            if masks and len({m.bit_count() for m in masks}) == 1
        ]
        complexes += [vdw_complex(n, k) for n in range(2, 13) for k in range(1, n)]
        # lk {1, 2} and lk {3} are disconnected; plain mask order visits {1, 2} first
        tetrahedra = [[1, 2, 4, 5], [1, 2, 6, 7], [3, 4, 6, 8], [3, 5, 7, 9]]
        complexes.append(SimplicialComplex.from_facets(9, tetrahedra))
        failures = 0
        for cx in complexes:
            facets = cx.facet_masks
            witness = _s2_witness(facets, cx.dim)
            walked = None if witness is None else facets[witness[0]] & facets[witness[1]]
            assert walked == first_disconnected(facets, cx.dim), cx.facets
            failures += witness is not None
        assert failures > 100

    def test_graph_link_witness(self):
        # two tetrahedra sharing the edge {1, 2}: every vertex link is
        # connected, but lk {1, 2} is the two disjoint edges {3, 4}, {5, 6}
        cx = SimplicialComplex.from_facets(6, [[1, 2, 3, 4], [1, 2, 5, 6]])
        ideal = dual_ideal(cx)
        assert is_linearly_presented(ideal).witness == (0, 1)
        assert_fast_matches_graph_search(ideal)


class TestShellingFastPath:
    """A greedy shelling order of D decides linear presentation as the (S2) walk does."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_pure_benchmark_complexes(self, seed):
        shelled = checked = 0
        for cx in benchmark_random_pure(seed):
            assert_fast_matches_graph_search(dual_ideal(cx))
            shelled += _shelled(cx)
            checked += 1
        assert checked == 1920 and 1000 < shelled < checked

    def test_random_pure_dual_generators_pass_the_full_validator(self):
        # dual_ideal validates no generator: its complements must be a canonical antichain
        for cx in benchmark_random_pure(1):
            _check_antichain(cx.n, dual_ideal(cx).generator_masks, "generator")

    def test_walk_skipped_only_for_a_shelled_dual_of_dimension_2_or_more(self, monkeypatch):
        walked = []
        walk = ideals._s2_witness

        def recording(facets, dim):
            walked.append(dim)
            return walk(facets, dim)

        monkeypatch.setattr(ideals, "_s2_witness", recording)
        # D is vdW(6, 2), which the greedy pass shells, and vdW(8, 4), of dimension 4
        for cx in (vdw_complex(6, 2), vdw_complex(8, 4)):
            assert is_linearly_presented(dual_ideal(cx)).value
        assert walked == []
        # RP^2 is not shellable but satisfies (S2): the pass fails and the walk decides
        assert is_linearly_presented(dual_ideal(RP2)).value and walked == [2]

        def no_pass(masks):
            raise AssertionError("the greedy pass ran on a graph")

        # a graph gets the walk, one connectivity test, and no pass
        monkeypatch.setattr(_kernels, "greedy_shelling", no_pass)
        square = SimplicialComplex.from_facets(4, [[1, 2], [1, 4], [2, 3], [3, 4]])
        assert is_linearly_presented(dual_ideal(square)).value and walked == [2, 1]
        edges = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
        assert is_linearly_presented(dual_ideal(edges)).witness == (0, 1) and walked == [2, 1, 1]


def _link_vertices(facets, face: int) -> int:
    union = 0
    for g in facets:
        if g & face == face:
            union |= g ^ face
    return union


def _grown_by(walk, facets):
    """``walk`` over the complex ``facets``: its last one's facets and the rest, appended."""
    old = set(walk.facets)
    walk.facets += [m for m in facets if m not in old]


def _assert_index(walk, facets):
    """Every walked face is indexed by its lowest vertex and held by every facet containing it."""
    for face, held in walk.holders.items():
        assert face in walk.walked[face & -face], (facets, face)
        assert sorted(held) == sorted(g for g in facets if g & face == face), (facets, face)


class TestS2Column:
    """The (S2) walk carried down a growing complex gives the per-complex witness, pair for pair."""

    def test_every_vdw_column_to_n40(self):
        witnesses = 0
        for k in range(1, 40):
            column = _Column(k)
            for n in range(k + 1, 41):
                cx = column.grow(n)
                witness = column.s2_witness()
                assert witness == _s2_witness(cx.facet_masks, cx.dim), (n, k)
                witnesses += witness is not None
        assert witnesses == 340

    def test_random_growing_facet_lists(self):
        # new facets land anywhere in canonical order, so positions shift
        rng = random.Random(4421)
        witnesses = 0
        for _ in range(60):
            n = rng.randint(6, 9)
            dim = rng.randint(1, 3)
            pool = [pack(f) for f in combinations(range(1, n + 1), dim + 1)]
            rng.shuffle(pool)
            walk = _S2Walk(dim, [])
            grown = 0
            while grown < min(len(pool), 16):
                grown += rng.randint(1, 3)
                facets = _canonical(pool[:grown])
                _grown_by(walk, facets)
                witness = walk.witness(facets)
                assert witness == _s2_witness(facets, dim), facets
                _assert_index(walk, facets)
                witnesses += witness is not None
        assert witnesses > 100

    def test_every_step_of_random_growth(self):
        # one facet at a time; a new holder may miss a connected link, and
        # a link found disconnected may be joined up again later
        rng = random.Random(9133)
        missed = rejoined = witnesses = 0
        for _ in range(80):
            n = rng.randint(6, 9)
            dim = rng.randint(1, 3)
            pool = [pack(f) for f in combinations(range(1, n + 1), dim + 1)]
            rng.shuffle(pool)
            walk = _S2Walk(dim, [])
            failed = set()
            for grown in range(1, min(len(pool), 18) + 1):
                h = pool[grown - 1]
                before = dict(walk.connected)
                facets = _canonical(pool[:grown])
                _grown_by(walk, facets)
                witness = walk.witness(facets)
                assert witness == _s2_witness(facets, dim), facets
                missed += sum(h & face == face and not h & union for face, union in before.items())
                rejoined += len(failed & walk.connected.keys())
                failed -= walk.connected.keys()
                if witness is not None:
                    witnesses += 1
                    failed.add(facets[witness[0]] & facets[witness[1]])
                for face, union in walk.connected.items():  # the union is the link's vertices
                    assert union == _link_vertices(facets, face), (facets, face)
                _assert_index(walk, facets)
        assert missed >= 10 and rejoined > 100 and witnesses > 500

    def test_holder_missing_the_union_disconnects_and_a_bridge_joins(self):
        walk = _S2Walk(2, [])
        star = [pack(f) for f in ((1, 2, 3), (1, 3, 4), (1, 4, 5))]  # lk 1: the path 2-3-4-5
        _grown_by(walk, _canonical(star))
        assert walk.witness(_canonical(star)) is None
        assert walk.connected == {0b1: pack((2, 3, 4, 5))}
        grown = _canonical(star + [pack((1, 6, 7))])  # lk 1 gains the edge 6-7, apart
        _grown_by(walk, grown)
        assert walk.witness(grown) == _s2_witness(grown, 2) == (0, 3)
        assert 0b1 not in walk.connected
        bridged = _canonical(star + [pack((1, 6, 7)), pack((1, 5, 6))])  # 5-6 joins the two
        _grown_by(walk, bridged)
        assert walk.witness(bridged) is _s2_witness(bridged, 2) is None
        assert walk.connected[0b1] == pack((2, 3, 4, 5, 6, 7))

    def test_lists_must_only_grow(self):
        column = _Column(2)
        facets = column.grow(9).facet_masks
        assert column.s2_witness() == _s2_witness(facets, 2)
        assert column.s2_witness() == _s2_witness(facets, 2)  # folding nothing new
        assert column.s2.folded == len(column.added) == len(facets)
        for n in (9, 8, 11):
            with pytest.raises(ValueError, match="grows by one vertex"):
                column.grow(n)
        facets = column.grow(10).facet_masks
        assert column.s2_witness() == _s2_witness(facets, 2)
        assert column.s2.folded == len(column.added) == len(facets)


class TestObstruction:
    def test_witness_record_is_pinned(self):
        assert nonlinear_obstruction_vdw(7, 2).to_dict() == {
            "n": 7,
            "k": 2,
            "f": {"start": 1, "increment": 3, "vertices": [1, 4, 7]},
            "g": {"start": 1, "increment": 1, "vertices": [1, 2, 3]},
            "generator_degree": 4,
            "gcd_degree": 2,
            "sigma_degrees": [2, 2],
        }

    def test_vdw72_witness(self):
        w = nonlinear_obstruction_vdw(7, 2)
        assert w.f.vertices == (1, 4, 7) and w.f.increment == 3
        assert w.g.increment != 3
        assert all(s >= 2 for s in w.sigma_degrees)

    def test_vdw83_witness(self):
        w = nonlinear_obstruction_vdw(8, 3)
        assert w.f.increment == 2  # (8-1)//3
        assert w.g.increment == 1
        assert all(s >= 2 for s in w.sigma_degrees)

    def test_vdw94_witness_exists(self):
        w = nonlinear_obstruction_vdw(9, 4)
        assert all(s >= 2 for s in w.sigma_degrees)

    def test_degree_data_consistent(self):
        for n in range(7, 13):
            for k in range(2, n):
                if 2 * k >= n:
                    continue
                w = nonlinear_obstruction_vdw(n, k)
                union = set(w.f.vertices) | set(w.g.vertices)
                assert w.gcd_degree == n - len(union)
                assert w.generator_degree == n - k - 1
                assert w.sigma_degrees[0] == w.generator_degree - w.gcd_degree

    def test_preconditions(self):
        for n, k in [(6, 2), (7, 1), (8, 4), (10, 5), (9.0, 2), ("9", 2), (9, None)]:
            with pytest.raises(ValueError):
                nonlinear_obstruction_vdw(n, k)


class TestObstructionConsistency:
    def test_obstruction_forces_non_cm_and_cm_forces_linear(self):
        from vdwcomplex.homology import is_cohen_macaulay

        for n in range(2, 11):
            for k in range(1, n):
                cx = vdw_complex(n, k)
                presented = is_linearly_presented(dual_ideal(cx)).value
                cm = is_cohen_macaulay(cx, "Q").value
                if n > 6 and 2 <= k and 2 * k < n:
                    w = nonlinear_obstruction_vdw(n, k)
                    assert all(s >= 2 for s in w.sigma_degrees)
                    assert not presented and not cm, (n, k)
                if cm:
                    assert presented, (n, k)


class TestDegreeIdentity:
    def test_gcd_degree_equals_complement_of_union(self):
        # deg gcd(m_Fc, m_Gc) = n - |F union G| over all facet pairs, n <= 12
        for n in range(2, 13):
            for k in range(1, n):
                facets = [set(f.vertices) for f in progression_facets(n, k)]
                full = set(range(1, n + 1))
                for a in range(len(facets)):
                    for b in range(a + 1, len(facets)):
                        gcd_sz = len((full - facets[a]) & (full - facets[b]))
                        assert gcd_sz == n - len(facets[a] | facets[b])
