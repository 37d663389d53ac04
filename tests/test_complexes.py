"""Facet-list complex operations against worked examples and brute force."""

import json
import random
import time

import pytest
from conftest import (
    brute_force_minimal_nonfaces,
    complex_from_masks,
    enumerate_antichains,
    graph_connected,
)

from vdwcomplex import complexes
from vdwcomplex.complexes import (
    SimplicialComplex,
    _check_antichain,
    _face_order,
    _in_face_order,
    _is_connected,
    pack,
    unpack,
)
from vdwcomplex.decompose import is_vertex_decomposable
from vdwcomplex.homology import _facet_intersections
from vdwcomplex.ideals import MonomialIdeal, dual_ideal, is_linearly_presented
from vdwcomplex.vdw import classify_closed_form, progression_facets, vdw_complex

VDW52_FACETS = ((1, 2, 3), (1, 3, 5), (2, 3, 4), (3, 4, 5))


class TestConstruction:
    def test_vdw52_facets(self):
        cx = SimplicialComplex.from_facets(5, [{1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {1, 3, 5}])
        assert cx.facets == VDW52_FACETS

    def test_containment_absorption(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2], [1, 2, 3]])
        assert cx.facets == ((1, 2, 3),)

    def test_absorb_against_brute_force(self):
        # families with few sizes, many duplicates and many contained members
        rng = random.Random(173)
        for _ in range(400):
            n = rng.randint(1, 9)
            family = [rng.getrandbits(n) for _ in range(rng.randint(0, 12))]
            family += [rng.choice(family) & rng.getrandbits(n) for _ in family]
            family += rng.choices(family, k=len(family))
            by_size = sorted(set(family), key=int.bit_count, reverse=True)
            maximal = [m for m in by_size if not any(m != g and m & g == m for g in family)]
            assert complexes._absorb(family) == maximal, family

    def test_equal_size_facets_absorb_quickly(self):
        # the 12-fold join of S^0 with two disjoint edges: 8,192 facets of 14 vertices
        facets = [()]
        for i in range(12):
            facets = [f + (v,) for f in facets for v in (2 * i + 1, 2 * i + 2)]
        facets = [f + edge for f in facets for edge in ((25, 26), (27, 28))]
        start = time.perf_counter()
        cx = SimplicialComplex.from_facets(28, facets)
        assert time.perf_counter() - start < 1.0
        assert len(cx.facet_masks) == 8192 and set(cx.facets) == set(facets)

    def test_void_complex(self):
        cx = SimplicialComplex.from_facets(4, [])
        assert cx.is_void
        assert cx.dim is None

    def test_empty_complex_distinct_from_void(self):
        empty = SimplicialComplex.from_facets(4, [[]])
        void = SimplicialComplex.from_facets(4, [])
        assert empty != void
        assert empty.is_empty and not empty.is_void
        assert empty.dim == -1

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets(3, [[1, 4]])
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets(3, [[0, 1]])

    def test_iterator_member_named_whole(self):
        with pytest.raises(ValueError, match=r"face \(1, 5\): vertices must be integers in 1\.\.3"):
            SimplicialComplex.from_facets(3, [iter([1, 5])])
        cx = SimplicialComplex.from_facets(3, [iter([3, 1]), iter([2])])
        assert cx.facets == ((1, 3), (2,))

    def test_bad_universe(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets(0, [])
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets(65, [])

    @pytest.mark.parametrize("cls", [SimplicialComplex, MonomialIdeal])
    @pytest.mark.parametrize(
        "members",
        [
            ((1, 4),),  # vertex out of range
            ((0, 1),),  # vertex out of range
            ((2, 1),),  # not increasing
            ((1, 1),),  # repeated vertex
            ((1,), (1, 2)),  # comparable
            ((1, 2), (1, 2)),  # repeated member
            ((2, 3), (1, 2)),  # not sorted
            ((True, 2),),  # bool vertex
        ],
    )
    def test_canonical_antichain_enforced(self, cls, members):
        with pytest.raises(ValueError):
            cls(3, members)

    @pytest.mark.parametrize(
        "data",
        [
            {"facets": [[1, 2]]},
            {"n": 3},
            [[1, 2]],
            {"n": 3, "facets": [1, 2]},
            {"n": True, "facets": [[1]]},
            {"n": 3, "facets": [[True, 2]]},
            {"n": 3, "facets": [[1, "2"]]},
        ],
    )
    def test_malformed_dict_rejected(self, data):
        with pytest.raises(ValueError):
            SimplicialComplex.from_dict(data)

    def test_idempotent_rebuild(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 8)
            faces = [
                rng.sample(range(1, n + 1), rng.randint(0, n))
                for _ in range(rng.randint(0, 6))
            ]
            cx = SimplicialComplex.from_facets(n, faces)
            assert SimplicialComplex.from_facets(n, cx.facets) == cx


class TestDimensionPurity:
    def test_vdw52_dimension(self):
        assert vdw_complex(5, 2).dim == 2

    def test_simplex_dimension(self):
        for n in range(1, 8):
            assert SimplicialComplex.simplex(n).dim == n - 1

    def test_vdw62_pure(self):
        assert vdw_complex(6, 2).is_pure

    def test_mixed_not_pure(self):
        assert not SimplicialComplex.from_facets(3, [[1, 2], [3]]).is_pure

    def test_degenerate_pure(self):
        assert SimplicialComplex.from_facets(2, []).is_pure
        assert SimplicialComplex.from_facets(2, [[]]).is_pure

    def test_read_once_and_kept_out_of_equality(self):
        cx = SimplicialComplex.from_facets(4, [[1, 2], [3]])
        assert (cx.dim, cx.is_pure) == (1, False)
        assert vars(cx)["dim"] == 1 and vars(cx)["is_pure"] is False  # cached
        fresh = SimplicialComplex.from_facets(4, [[1, 2], [3]])
        assert cx == fresh and hash(cx) == hash(fresh) and "dim" not in vars(fresh)


class TestLinkDeletion:
    def test_link_examples(self):
        assert vdw_complex(5, 2).link(5).facets == ((1, 3), (3, 4))
        assert vdw_complex(6, 2).link(6).facets == ((2, 4), (4, 5))

    def test_link_of_simplex_vertex(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2, 3]])
        assert cx.link(2).facets == ((1, 3),)

    def test_link_outside_support_is_void(self):
        cx = SimplicialComplex.from_facets(4, [[1, 2]])
        assert cx.link(4).is_void

    def test_deletion_examples(self):
        assert vdw_complex(5, 2).deletion(5).facets == ((1, 2, 3), (2, 3, 4))
        assert vdw_complex(6, 2).deletion(6).facets == vdw_complex(5, 2).facets

    def test_deletion_of_only_vertex(self):
        cx = SimplicialComplex.from_facets(1, [[1]])
        assert cx.deletion(1).is_empty

    def test_vertex_out_of_range(self):
        cx = vdw_complex(5, 2)
        with pytest.raises(ValueError):
            cx.link(6)
        with pytest.raises(ValueError):
            cx.deletion(0)
        with pytest.raises(ValueError):
            cx.link(True)

    def test_link_deletion_are_subcomplexes(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 7)
            faces = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(5)]
            cx = SimplicialComplex.from_facets(n, faces)
            facet_masks = cx.facet_masks
            for x in cx.support:
                bit = 1 << (x - 1)
                for f in cx.link(x).facet_masks:
                    assert any((f | bit) & g == (f | bit) for g in facet_masks)
                for f in cx.deletion(x).facet_masks:
                    assert any(f & g == f for g in facet_masks)

    def test_link_drops_dimension_for_pure(self):
        for n, k in [(5, 2), (6, 2), (7, 2), (8, 3)]:
            cx = vdw_complex(n, k)
            for x in cx.support:
                lk = cx.link(x)
                if not lk.is_void:
                    assert all(len(f) - 1 <= cx.dim - 1 for f in lk.facets)


class TestConnectivity:
    def test_complete_graph_connected(self):
        assert vdw_complex(5, 1).is_connected()

    def test_two_components(self):
        assert not SimplicialComplex.from_facets(4, [[1, 2], [3, 4]]).is_connected()

    def test_simplex_connected(self):
        assert SimplicialComplex.from_facets(3, [[1, 2, 3]]).is_connected()

    def test_void_raises(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets(3, []).is_connected()

    def test_empty_complex_and_points(self):
        assert SimplicialComplex.from_facets(3, [[]]).is_connected()
        assert SimplicialComplex.from_facets(3, [[2]]).is_connected()
        assert not SimplicialComplex.from_facets(3, [[1], [3]]).is_connected()

    def test_agrees_with_graph_search(self):
        rng = random.Random(79)
        for _ in range(200):
            n = rng.randint(1, 8)
            faces = [
                rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
                for _ in range(rng.randint(1, 6))
            ]
            cx = SimplicialComplex.from_facets(n, faces)
            seen = {cx.support[0]}
            frontier = [cx.support[0]]
            while frontier:
                v = frontier.pop()
                for f in cx.facets:
                    if v in f:
                        new = set(f) - seen
                        seen |= new
                        frontier.extend(new)
            assert cx.is_connected() == (len(seen) == len(cx.support)), cx.facets

    def test_every_link_of_every_small_complex_matches_graph_search(self):
        assert _is_connected([]) and _is_connected([0]) and _is_connected(iter([0, 0b1]))
        assert not _is_connected([0b01, 0, 0b10]) and _is_connected([0b01, 0, 0b11])
        checked = disconnected = 0
        for n in range(1, 6):
            for masks in enumerate_antichains(n):
                faces = {m for g in masks for m in range(g + 1) if m & g == m}
                families = [list(masks), list(masks) + [0], [0, *masks]]
                families += [[g ^ f for g in masks if g & f == f] for f in faces]
                for family in families:
                    assert _is_connected(family) == graph_connected(family), (n, family)
                    checked += 1
                    disconnected += not graph_connected(family)
        assert checked > 100_000 and disconnected > 10_000


class TestMinimalNonfaces:
    def test_vdw52(self):
        assert vdw_complex(5, 2).minimal_nonfaces() == ((1, 4), (2, 5))

    def test_simplex_has_none(self):
        for n in range(1, 7):
            assert SimplicialComplex.simplex(n).minimal_nonfaces() == ()

    def test_two_points(self):
        cx = SimplicialComplex.from_facets(2, [[1], [2]])
        assert cx.minimal_nonfaces() == ((1, 2),)

    def test_against_brute_force(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 7)
            faces = [rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(4)]
            cx = SimplicialComplex.from_facets(n, faces)
            if cx.is_void:
                continue
            assert cx.minimal_nonfaces() == brute_force_minimal_nonfaces(cx)
        checked = 0
        for n in range(1, 6):  # every complex on at most 5 vertices
            for masks in enumerate_antichains(n)[1:]:  # the void complex comes first
                cx = complex_from_masks(n, masks)
                assert cx.minimal_nonfaces() == brute_force_minimal_nonfaces(cx), cx.facets
                checked += 1
        assert checked == 7773

    def test_antichain_and_disjoint_from_faces(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 7)
            faces = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(4)]
            cx = SimplicialComplex.from_facets(n, faces)
            nonfaces = cx.minimal_nonfaces()
            masks = [sum(1 << (v - 1) for v in nf) for nf in nonfaces]
            for i, a in enumerate(masks):
                assert not any(a & f == a for f in cx.facet_masks)
                for b in masks[i + 1 :]:
                    assert a & b != a and a & b != b
            assert all(len(nf) <= cx.dim + 2 for nf in nonfaces)


class TestAlexanderDual:
    def test_vdw52(self):
        assert vdw_complex(5, 2).alexander_dual().facets == ((1, 3, 4), (2, 3, 5))

    def test_two_points(self):
        cx = SimplicialComplex.from_facets(2, [[1], [2]])
        assert cx.alexander_dual().is_empty

    def test_full_simplex_flagged(self):
        with pytest.warns(RuntimeWarning):
            dual = SimplicialComplex.simplex(4).alexander_dual()
        assert dual.is_void

    def test_void_raises(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets(3, []).alexander_dual()

    def test_involution_exhaustive_small(self):
        # all complexes on <= 5 vertices = all facet antichains
        counts = {}
        for n in range(1, 6):
            antichains = enumerate_antichains(n)
            counts[n] = len(antichains)
            full = (1 << n) - 1
            for masks in antichains:
                if not masks or masks == (full,):
                    continue  # void and full simplex are excluded
                cx = complex_from_masks(n, masks)
                assert cx.alexander_dual().alexander_dual() == cx
        # the enumeration really is exhaustive (antichain counts)
        assert counts[4] == 168
        assert counts[5] == 7581

    def test_involution_on_vdw(self):
        # k <= n - 2 leaves out the simplex vdW(n, n - 1), whose dual is void
        for n in range(3, 19):
            for k in range(1, n - 1):
                cx = vdw_complex(n, k)
                assert cx.alexander_dual().alexander_dual() == cx, (n, k)


def _assert_same(built, expected_tuples, cls=SimplicialComplex):
    """``built`` is the object the tuple constructor makes of ``expected_tuples``."""
    expected = cls(built.n, tuple(expected_tuples))
    if cls is SimplicialComplex:
        views, masks = (built.facets, expected.facets), (built.facet_masks, expected.facet_masks)
    else:
        views = (built.generators, expected.generators)
        masks = (built.generator_masks, expected.generator_masks)
    assert type(built) is cls
    assert views[0] == views[1] == tuple(expected_tuples)
    assert masks[0] == masks[1] == tuple(pack(t) for t in expected_tuples)
    assert built == expected and hash(built) == hash(expected)
    assert repr(built) == repr(expected)
    assert built.to_json() == expected.to_json()


def _maximal(sets):
    return sorted(tuple(sorted(s)) for s in sets if not any(s < t for t in sets))


class TestCanonicalForm:
    """Masks are the stored form: every constructor builds the object the
    tuple constructor makes of the same facets, and no decider reads tuples."""

    def test_vdw_complexes(self):
        for n in range(2, 65):
            for k in range(1, n):
                masks = [pack(f.vertices) for f in progression_facets(n, k)]
                canonical = tuple(sorted(masks, key=_face_order))
                assert vdw_complex(n, k).facet_masks == canonical, (n, k)

    def test_all_complexes_on_five_vertices(self):
        checked = not_face_ordered = 0
        for n in range(1, 6):
            full = (1 << n) - 1
            for masks in enumerate_antichains(n):
                facets = sorted(unpack(m) for m in masks)
                cx = complex_from_masks(n, masks)
                _assert_same(cx, facets)
                # on a nonpure complex, face order (size first) is not the canonical order
                not_face_ordered += tuple(sorted(cx.facet_masks, key=_face_order)) != cx.facet_masks
                for x in range(1, n + 1):
                    link = sorted(tuple(v for v in f if v != x) for f in facets if x in f)
                    _assert_same(cx.link(x), link)
                    _assert_same(cx.deletion(x), _maximal({frozenset(f) - {x} for f in facets}))
                # adding supersets of the facets leaves the minimal supports alone
                supports = facets + [unpack(m | 1 << (n - 1)) for m in masks]
                _assert_same(MonomialIdeal.from_supports(n, supports), facets, MonomialIdeal)
                if not masks:
                    continue
                if masks != (full,):
                    nonfaces = brute_force_minimal_nonfaces(cx)
                    dual = sorted(unpack(full & ~pack(nf)) for nf in nonfaces)
                    _assert_same(cx.alexander_dual(), dual)
                complements = [] if masks == (full,) else sorted(unpack(full & ~m) for m in masks)
                _assert_same(dual_ideal(cx), complements, MonomialIdeal)
                # dual_ideal validates no generator: its complements pass the full validator
                _check_antichain(n, dual_ideal(cx).generator_masks, "generator")
                checked += 1
        assert checked == 7773
        assert not_face_ordered > 0

    @pytest.mark.parametrize("cls", [SimplicialComplex, MonomialIdeal])
    @pytest.mark.parametrize(
        "masks",
        [
            (0b1001,),  # vertex 4 beyond n = 3
            (0b001, 0b011),  # comparable
            (0b011, 0b011),  # repeated
            (0b110, 0b011),  # not in canonical order
        ],
    )
    def test_mask_validator_rejects(self, cls, masks):
        with pytest.raises(ValueError):
            cls._from_masks(3, masks)

    @pytest.mark.parametrize("cls", [SimplicialComplex, MonomialIdeal])
    def test_mask_validator_range_checks_a_lone_fresh_member(self, cls):
        # a fresh member with no neighbour is still checked for vertices beyond n = 3
        with pytest.raises(ValueError):
            cls._from_masks(3, (0b11111,), [0])
        assert cls._from_masks(3, (0b111,), [0]).n == 3

    def test_walk_order_sorts_one_size_at_a_time(self):
        closures = [
            _facet_intersections(masks)
            for n in range(1, 6)
            for masks in enumerate_antichains(n)
        ]
        closures += [
            _facet_intersections(vdw_complex(n, k).facet_masks)
            for n in range(2, 17)
            for k in range(1, n)
        ]
        for closure in closures:
            for below in range(max(map(int.bit_count, closure)) + 2):
                expected = sorted((m for m in closure if m.bit_count() < below), key=_face_order)
                assert list(_in_face_order(closure, below)) == expected, (closure, below)

    def test_deciders_build_no_tuples(self, monkeypatch):
        def tuple_view(self):
            raise AssertionError("the vertex tuples were built")

        monkeypatch.setattr(SimplicialComplex, "facets", property(tuple_view))
        monkeypatch.setattr(MonomialIdeal, "generators", property(tuple_view))
        for n in range(2, 15):
            for k in range(1, n):
                pred = classify_closed_form(n, k)
                assert is_vertex_decomposable(vdw_complex(n, k)).value == pred.vertex_decomposable
                presented = is_linearly_presented(dual_ideal(vdw_complex(n, k)))
                assert presented.value == pred.cohen_macaulay

    def test_masks_not_compared(self):
        cx = vdw_complex(6, 2)
        assert "facet_masks" not in repr(cx)
        rebuilt = SimplicialComplex(6, cx.facets)
        assert rebuilt == cx and hash(rebuilt) == hash(cx)
        with pytest.raises(TypeError):
            SimplicialComplex(6, cx.facets, cx.facet_masks)


def _unpack_by_position(mask: int) -> tuple[int, ...]:
    """The vertex tuple of a mask, one step per bit position."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


class TestUnpack:
    """``unpack`` steps over set bits only and gives the tuples of the position loop."""

    def test_every_mask_below_2_to_12(self):
        for mask in range(1 << 12):
            assert unpack(mask) == _unpack_by_position(mask), mask

    def test_random_64_bit_masks(self):
        rng = random.Random(6113)
        for _ in range(3000):
            mask = rng.getrandbits(64)
            if rng.random() < 0.5:  # sparser masks, as facets are
                mask &= rng.getrandbits(64) & rng.getrandbits(64)
            assert unpack(mask) == _unpack_by_position(mask), mask
        assert unpack(1 << 63) == (64,) and unpack((1 << 64) - 1) == tuple(range(1, 65))


class TestSerialization:
    def test_canonical_json(self):
        assert vdw_complex(5, 2).to_json() == '{"n":5,"facets":[[1,2,3],[1,3,5],[2,3,4],[3,4,5]]}'

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 8)
            faces = [rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(4)]
            cx = SimplicialComplex.from_facets(n, faces)
            assert SimplicialComplex.from_json(cx.to_json()) == cx

    def test_dict_shape(self):
        data = json.loads(vdw_complex(5, 2).to_json())
        assert set(data) == {"n", "facets"}
        assert data["n"] == 5
