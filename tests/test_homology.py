"""Exact reduced homology and the Reisner Cohen-Macaulay criterion."""

import copy
import random
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import (
    RP2,
    _cohen_macaulay_naive,
    benchmark_random_pure,
    complex_from_masks,
    enumerate_antichains,
    random_pure_complex,
    reduced_euler_characteristic,
)

from vdwcomplex import _kernels, complexes, homology, ideals
from vdwcomplex.certify import (
    _assert_chain_complex,
    _chain_complex,
    _reduced_betti,
    verify_cohen_macaulay_witness,
    verify_s2_witness,
)
from vdwcomplex.complexes import SimplicialComplex, pack, unpack
from vdwcomplex.decompose import is_vertex_decomposable
from vdwcomplex.homology import field_label, is_cohen_macaulay, parse_field, reduced_homology
from vdwcomplex.vdw import classify_closed_form, vdw_complex

# its suspension, with apexes 7 and 8: F2 homology in degrees 2 and 3
SUSPENDED_RP2 = SimplicialComplex.from_facets(
    8, [f + (apex,) for f in RP2.facets for apex in (7, 8)]
)


class TestFieldParsing:
    def test_descriptors(self):
        assert parse_field("Q") == 0
        assert parse_field(None) == 0
        assert parse_field(0) == parse_field("0") == parse_field("QQ") == 0
        assert parse_field("F2") == 2
        assert parse_field("Fp:7") == 7
        assert parse_field(13) == 13

    def test_non_prime_rejected(self):
        for bad in (1, 4, 9, "Fp:15"):
            with pytest.raises(ValueError):
                parse_field(bad)

    def test_large_prime_accepted(self):
        assert parse_field("Fp:1000000000000000003") == 1000000000000000003
        assert parse_field(2**64 - 59) == 2**64 - 59  # the largest prime below 2**64

    def test_carmichael_rejected(self):
        for bad in (561, 1105, 3215031751, "Fp:3825123056546413051"):
            with pytest.raises(ValueError):
                parse_field(bad)

    def test_prime_beyond_exact_range_rejected(self):
        with pytest.raises(ValueError):
            parse_field(2**64 + 13)

    def test_either_case(self):
        assert parse_field("f2") == parse_field(" F2 ") == 2
        for spelling in ("fp:3", "FP:3", "fP:3", "Fp:3", "F3", "f03"):
            assert parse_field(spelling) == 3

    def test_garbage_rejected(self):
        for bad in ("GF(2)", False, True, 0.0, 0j, Fraction(0), "F0", "Fp:0", "F00"):
            with pytest.raises(ValueError):
                parse_field(bad)
        # only F<p> and Fp:<p>: no other run of p's and colons
        for bad in ("F:3", "Fpp3", "Fp::3", "FpP:3", "Fp3", "p:3", "Fp:", "F", "q"):
            with pytest.raises(ValueError, match="unrecognized field descriptor"):
                parse_field(bad)


class TestReducedHomology:
    def test_simplex_acyclic(self):
        betti = reduced_homology(SimplicialComplex.simplex(3), "Q").betti
        assert all(b == 0 for b in betti.values())

    def test_two_points(self):
        cx = SimplicialComplex.from_facets(2, [[1], [2]])
        assert reduced_homology(cx, "Q").betti == {-1: 0, 0: 1}

    def test_sphere(self):
        boundary = SimplicialComplex.from_facets(4, combinations(range(1, 5), 3))
        assert reduced_homology(boundary, "Q").betti == {-1: 0, 0: 0, 1: 0, 2: 1}

    def test_empty_complex(self):
        cx = SimplicialComplex.from_facets(2, [[]])
        assert reduced_homology(cx, "Q").betti == {-1: 1}

    def test_void_raises(self):
        with pytest.raises(ValueError):
            reduced_homology(SimplicialComplex.from_facets(2, []), "Q")

    def test_circle(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
        assert reduced_homology(cx, "Q").betti == {-1: 0, 0: 0, 1: 1}

    def test_projective_plane_field_dependence(self):
        assert reduced_homology(RP2, "Q").betti == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert reduced_homology(RP2, "F2").betti == {-1: 0, 0: 0, 1: 1, 2: 1}
        assert reduced_homology(RP2, "Fp:3").betti == {-1: 0, 0: 0, 1: 0, 2: 0}

    def test_euler_poincare(self):
        rng = random.Random(59)
        for _ in range(40):
            cx = random_pure_complex(rng, 7)
            chi = reduced_euler_characteristic(cx)
            for field in ("Q", "F2", "Fp:3"):
                betti = reduced_homology(cx, field).betti
                assert sum((-1) ** i * b for i, b in betti.items()) == chi

    def test_betti_nonnegative_and_bounded(self):
        rng = random.Random(61)
        for _ in range(30):
            cx = random_pure_complex(rng, 6)
            betti = reduced_homology(cx, "F2").betti
            assert all(b >= 0 for b in betti.values())
            assert max(betti) == cx.dim and min(betti) == -1

    @pytest.mark.parametrize("k", [11, 10])
    def test_cones_measured_on_one_vertex(self, monkeypatch, k):
        # vdW(12, 11) is the 12-vertex simplex and vdW(12, 10) two facets
        # sharing ten vertices: both are cones, whose core is one vertex
        seen = []
        original = homology._betti_per_field

        def recording(facet_masks, chars):
            seen.append((_support(facet_masks).bit_count(), list(chars)))
            return original(facet_masks, chars)

        monkeypatch.setattr(homology, "_betti_per_field", recording)
        cx = vdw_complex(12, k)
        for field in ("Q", "F2", "Fp:3"):
            assert reduced_homology(cx, field).betti == {i: 0 for i in range(-1, cx.dim + 1)}
        assert seen == [(1, [0]), (1, [2]), (1, [3])]

    def test_matches_the_literal_complex(self):
        # every degree from -1 to dim, whether the core is smaller or the complex itself
        rng = random.Random(89)
        cxs = [SimplicialComplex.from_facets(3, [[]]), RP2, SUSPENDED_RP2]
        for _ in range(150):
            n = rng.randint(1, 7)
            faces = [
                rng.sample(range(1, n + 1), rng.randint(0, min(4, n)))
                for _ in range(rng.randint(1, 7))
            ]
            cxs.append(SimplicialComplex.from_facets(n, faces))
        smaller = 0
        for cx in cxs:
            masks = list(cx.facet_masks)
            smaller += _support(homology._core(masks)) != _support(masks)
            for char in (0, 2, 3):
                literal = _reduced_betti(masks, char)
                assert reduced_homology(cx, char).betti == literal, (cx.facets, char)
        assert smaller > 100

    def test_vdw_25_6_over_q_needs_no_bareiss(self, monkeypatch):
        # unit pivots leave no block on the core of vdW(25, 6)
        def refusing(rows, ncols):
            raise AssertionError("rank_bareiss called")

        monkeypatch.setattr(_kernels, "rank_bareiss", refusing)
        cx = vdw_complex(25, 6)
        assert reduced_homology(cx, "Q").betti == {i: 0 for i in range(-1, cx.dim + 1)}

    def test_fields_agree_on_the_vdw_grid(self):
        # every vdW(n, k) with n <= 30: one Euler characteristic over every
        # field, and b_i(Q) <= b_i(F_p) in each degree (universal coefficients)
        with_homology = 0
        for n in range(2, 31):
            for k in range(1, n):
                cx = vdw_complex(n, k)
                q, f2, f3 = (reduced_homology(cx, field).betti for field in ("Q", "F2", "Fp:3"))
                chis = {sum((-1) ** i * b for i, b in betti.items()) for betti in (q, f2, f3)}
                assert len(chis) == 1, (n, k)
                assert all(q[i] <= f2[i] and q[i] <= f3[i] for i in q), (n, k)
                with_homology += any(q.values())
        assert with_homology > 0

    def test_profile_serialization(self):
        profile = reduced_homology(RP2, "F2")
        data = profile.to_dict()
        assert data["field"] == "Fp:2"
        assert data["betti"] == {"-1": 0, "0": 0, "1": 1, "2": 1}


class TestChainComplex:
    def test_levels_columns_and_masks_agree(self):
        rng = random.Random(67)
        for _ in range(60):
            n = rng.randint(1, 7)
            faces = [
                rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
                for _ in range(rng.randint(1, 6))
            ]
            masks = list(SimplicialComplex.from_facets(n, faces).facet_masks)
            levels, boundaries, column_masks = _chain_complex(masks)
            closure = {sub for f in masks for sub in range(f + 1) if sub & f == sub}
            assert sorted(m for level in levels for m in level) == sorted(closure)
            assert all(m.bit_count() == c for c, level in enumerate(levels) for m in level)
            for j, columns in enumerate(boundaries):
                for face, column, mask in zip(levels[j + 1], columns, column_masks[j]):
                    ridges = {face ^ 1 << v for v in range(n) if face >> v & 1}
                    assert {levels[j][r] for r, _ in column} == ridges
                    assert [s for _, s in column] == [(-1) ** i for i in range(len(column))]
                    assert mask == sum(1 << r for r, _ in column)

    @pytest.mark.parametrize(
        "cx", [SimplicialComplex.simplex(3), RP2], ids=["2-simplex", "RP2"]
    )
    def test_boundary_guard_fires(self, cx):
        levels, boundaries, _ = _chain_complex(list(cx.facet_masks))
        _assert_chain_complex(boundaries)
        # the map from edges to vertices, with a map on each side
        r, sign = boundaries[-2][0][0]
        flipped = copy.deepcopy(boundaries)
        flipped[-2][0][0] = (r, -sign)
        moved = copy.deepcopy(boundaries)
        rows = {row for row, _ in boundaries[-2][0]}
        moved[-2][0][0] = (next(row for row in range(len(levels[-3])) if row not in rows), sign)
        for broken in (flipped, moved):
            with pytest.raises(AssertionError):
                _assert_chain_complex(broken)
        _assert_chain_complex(boundaries)


class TestFaceOrder:
    """The traversal key orders faces by size, then by vertex tuple."""

    @staticmethod
    def _same_order(masks):
        by_tuple = sorted(masks, key=lambda m: (m.bit_count(), unpack(m)))
        assert sorted(masks, key=complexes._face_order) == by_tuple

    def test_every_mask_on_8_vertices(self):
        self._same_order(range(1 << 8))

    def test_random_64_bit_masks(self):
        rng = random.Random(61)
        masks = [rng.getrandbits(64) for _ in range(1000)]
        # same-size faces too, where only the vertex tuples decide
        masks += [pack(rng.sample(range(1, 65), 32)) for _ in range(1000)]
        self._same_order(masks)


class TestCohenMacaulay:
    def test_vdw62_true(self):
        assert is_cohen_macaulay(vdw_complex(6, 2), "Q").value

    def test_vdw72_false(self):
        res = is_cohen_macaulay(vdw_complex(7, 2), "Q")
        assert not res.value
        assert res.witness_face is not None
        assert res.witness_degree is not None

    def test_disconnected_false_with_empty_witness(self):
        res = is_cohen_macaulay(SimplicialComplex.from_facets(4, [[1, 2], [3, 4]]), "Q")
        assert not res.value
        assert res.witness_face == ()
        assert res.witness_degree == 0

    def test_zero_dimensional_always(self):
        assert is_cohen_macaulay(SimplicialComplex.from_facets(3, [[1], [2], [3]]), "Q").value

    def test_empty_complex(self):
        assert is_cohen_macaulay(SimplicialComplex.from_facets(2, [[]]), "Q").value

    def test_nonpure_false(self):
        assert not is_cohen_macaulay(SimplicialComplex.from_facets(3, [[1, 2], [3]]), "Q").value

    def test_void_raises(self):
        with pytest.raises(ValueError):
            is_cohen_macaulay(SimplicialComplex.from_facets(2, []), "Q")

    def test_projective_plane_characteristic_two(self):
        assert is_cohen_macaulay(RP2, "Q").value
        res = is_cohen_macaulay(RP2, "F2")
        assert not res.value
        assert res.witness_face == ()
        assert res.witness_degree == 1

    def test_witness_is_a_real_failure(self):
        cx = vdw_complex(8, 2)
        res = is_cohen_macaulay(cx, "Q")
        assert not res.value
        assert verify_cohen_macaulay_witness(cx, res)

    def test_pruned_agrees_with_naive_exhaustively(self):
        # every complex on <= 4 vertices, both fields
        for n in range(1, 5):
            for masks in enumerate_antichains(n):
                if not masks:
                    continue
                cx = complex_from_masks(n, masks)
                for field in ("Q", "F2"):
                    fast = is_cohen_macaulay(cx, field)
                    slow = _cohen_macaulay_naive(cx, field)
                    assert fast.value == slow.value

    def test_pruned_agrees_with_naive_random(self):
        rng = random.Random(67)
        for _ in range(60):
            cx = random_pure_complex(rng, 6)
            for field in ("Q", "F2"):
                assert (
                    is_cohen_macaulay(cx, field).value
                    == _cohen_macaulay_naive(cx, field).value
                )

    def test_fast_and_naive_identical_exhaustively(self):
        # value and witness, every complex on <= 4 vertices
        for n in range(1, 5):
            for masks in enumerate_antichains(n):
                if not masks:
                    continue
                cx = complex_from_masks(n, masks)
                for field in ("Q", "F2", "Fp:3"):
                    fast = is_cohen_macaulay(cx, field).to_dict()
                    slow = _cohen_macaulay_naive(cx, field).to_dict()
                    assert fast == slow, (cx.facets, field)

    def test_fast_and_naive_identical_random(self):
        rng = random.Random(71)
        for cx in [random_pure_complex(rng, 6) for _ in range(60)] + [RP2, SUSPENDED_RP2]:
            for field in ("Q", "F2", "Fp:3"):
                fast = is_cohen_macaulay(cx, field).to_dict()
                slow = _cohen_macaulay_naive(cx, field).to_dict()
                assert fast == slow, (cx.facets, field)

    @pytest.mark.parametrize("k", [11, 10])
    def test_near_simplex_measures_only_tiny_complexes(self, monkeypatch, k):
        # vdW(12, k) has one or two facets.  Only the empty face's link
        # can fail, and its core is one vertex, so no link is measured
        seen = _record_chain_complexes(monkeypatch)
        for field in ("Q", "F2"):
            assert is_cohen_macaulay(vdw_complex(12, k), field).value
        assert seen == []

    def test_no_rational_elimination_on_cm_vdw(self, monkeypatch):
        calls = _record_rational_eliminations(monkeypatch)
        positives = 0
        for n in range(2, 11):
            for k in range(1, n):
                if classify_closed_form(n, k).cohen_macaulay:
                    assert is_cohen_macaulay(vdw_complex(n, k), "Q").value
                    positives += 1
        assert positives == 35 and calls == []

    @pytest.mark.parametrize("cx", [RP2, SUSPENDED_RP2], ids=["RP2", "suspended-RP2"])
    def test_rational_elimination_only_where_mod_2_fails(self, monkeypatch, cx):
        calls = _record_rational_eliminations(monkeypatch)
        assert is_cohen_macaulay(cx, "Q").value
        assert calls  # torsion: mod 2 cannot pass these links, and unit pivots leave a block
        for facet_masks in calls:
            betti = _reduced_betti(facet_masks, 2)
            # homology mod 2 in two adjacent degrees, so the link fails mod 2
            assert any(betti[i] and betti[i - 1] for i in betti if i >= 0), facet_masks

    def test_rational_ranks_pinned_by_mod_2(self):
        rng = random.Random(83)
        cxs = [random_pure_complex(rng, 7) for _ in range(80)] + [RP2, SUSPENDED_RP2]
        for cx in cxs:
            masks = list(cx.facet_masks)
            fast = homology._betti_per_field(masks, (0,))[0]
            assert fast == _reduced_betti(masks, 0), cx.facets

    def test_disconnected_graph_link_by_connectivity(self, monkeypatch):
        # two triangles sharing vertex 1: lk {1} is two disjoint edges
        cx = SimplicialComplex.from_facets(5, [[1, 2, 3], [1, 4, 5]])
        for field in ("Q", "F2", "Fp:3"):
            slow = _cohen_macaulay_naive(cx, field).to_dict()
            assert slow["witness_face"] == [1] and slow["witness_degree"] == 0
            measured = _record_chain_complexes(monkeypatch)
            assert is_cohen_macaulay(cx, field).to_dict() == slow
            monkeypatch.undo()
            # the empty face's link collapses to a vertex; lk {1} goes by connectivity
            assert measured == []


def _record_chain_complexes(monkeypatch):
    """Record the facet list of every chain complex built."""
    built = []
    build = homology._chain_complex

    def recording(facet_masks):
        built.append(list(facet_masks))
        return build(facet_masks)

    monkeypatch.setattr(homology, "_chain_complex", recording)
    return built


def _record_euler_rule(monkeypatch):
    """Record each verdict of the Euler rule: True where it decided a link."""
    verdicts = []
    rule = homology._euler_fails

    def recording(core):
        verdicts.append(rule(core))
        return verdicts[-1]

    monkeypatch.setattr(homology, "_euler_fails", recording)
    return verdicts


def _record_rational_eliminations(monkeypatch):
    """Record, per rational elimination, the complex whose homology it serves."""
    measured = []
    calls = []
    measure = homology._betti_per_field

    def measuring(facet_masks, chars):
        measured.append(list(facet_masks))
        return measure(facet_masks, chars)

    bareiss = _kernels.rank_bareiss

    def counting(rows, ncols):
        calls.append(measured[-1])
        return bareiss(rows, ncols)

    monkeypatch.setattr(homology, "_betti_per_field", measuring)
    monkeypatch.setattr(_kernels, "rank_bareiss", counting)
    return calls


def _nonzero(betti):
    return {i: b for i, b in betti.items() if b}


def _support(facet_masks):
    """The vertices of a facet list, as a mask."""
    support = 0
    for m in facet_masks:
        support |= m
    return support


def _dominated(facet_masks):
    """The vertices v whose facets share a vertex other than v, as a mask."""
    support = _support(facet_masks)
    out = 0
    for v in range(support.bit_length()):
        common = -1
        for m in facet_masks:
            if m >> v & 1:
                common &= m
        if support >> v & 1 and common != 1 << v:
            out |= 1 << v
    return out


def _pure_facet_lists(max_vertices):
    """Every pure facet list on 1..n for n <= max_vertices, as masks."""
    for n in range(1, max_vertices + 1):
        for size in range(n + 1):
            faces = [pack(f) for f in combinations(range(1, n + 1), size)]
            for count in range(1, len(faces) + 1):
                yield from (list(chosen) for chosen in combinations(faces, count))


class TestCore:
    """The core against the literal complex: every pruning rule, cross-checked."""

    @staticmethod
    def _same_homology(masks):
        """Check the core of ``masks`` and return it."""
        core = homology._core(masks)
        support = _support(core)
        # the rounds only delete vertices: what is left is the induced subcomplex
        assert sorted(core) == sorted(complexes._absorb(m & support for m in masks))
        assert _dominated(core) == 0, (masks, core)
        assert all(a & b != a for a in core for b in core if a != b), core  # an antichain
        top = max(m.bit_count() for m in masks)
        bettis = homology._betti_per_field(core, (0, 2, 3))
        for char, betti in bettis.items():
            literal = _reduced_betti(masks, char)
            assert _nonzero(betti) == _nonzero(literal), (masks, core, char)
            assert max(betti) <= top - 1
        return core

    def test_every_complex_on_5_vertices(self):
        # every nonvoid antichain on 1..5, nonpure ones too, as reduced_homology takes them
        shrunk = checked = 0
        for masks in enumerate_antichains(5):
            if not masks:
                continue
            core = self._same_homology(list(masks))
            shrunk += _support(core) != _support(masks)
            checked += 1
        assert checked == 7580 and shrunk > 1000

    def test_projective_planes_and_random_complexes(self):
        rng = random.Random(97)
        cxs = [RP2, SUSPENDED_RP2] + [random_pure_complex(rng, 8) for _ in range(150)]
        for _ in range(150):
            n = rng.randint(2, 9)
            faces = [
                rng.sample(range(1, n + 1), rng.randint(1, min(5, n)))
                for _ in range(rng.randint(1, 9))
            ]
            cxs.append(SimplicialComplex.from_facets(n, faces))
        for cx in cxs:
            self._same_homology(list(cx.facet_masks))
        # no vertex of RP^2 is dominated
        assert sorted(homology._core(list(RP2.facet_masks))) == sorted(RP2.facet_masks)

    def test_cones_end_as_one_vertex(self):
        for cx in (SimplicialComplex.simplex(5), vdw_complex(12, 10), vdw_complex(9, 4)):
            cone = [m | 1 << cx.n for m in cx.facet_masks]  # apex n + 1
            core = homology._core(cone)
            assert len(core) == 1 and core[0].bit_count() == 1

    def test_empty_complex_kept(self):
        # <()> has no vertex to strip
        assert homology._core([0]) == [0]

    @pytest.mark.parametrize("j", range(1, 8))
    def test_simplex_boundary_read_off_without_a_chain_complex(self, monkeypatch, j):
        # the boundary of the j-simplex is its own core, with H~_(j-1) = 1 over every field
        sphere = [pack(f) for f in combinations(range(1, j + 2), j)]
        assert sorted(homology._core(sphere)) == sorted(sphere)
        assert homology._sphere_degree(sphere) == j - 1
        for char in (0, 2, 3):
            assert _nonzero(_reduced_betti(sphere, char)) == {j - 1: 1}
        # a new apex on each facet: the empty face's link strips to the
        # sphere, which fails Reisner's test in degree j - 1 < j
        thick = [m | 1 << (j + 1 + i) for i, m in enumerate(sphere)]
        cxs = [complex_from_masks(j + 1, sphere), complex_from_masks(2 * j + 2, thick)]
        built = _record_chain_complexes(monkeypatch)
        results = [
            [is_cohen_macaulay(cx, field).to_dict() for field in ("Q", "F2", "Fp:3")]
            for cx in cxs
        ]
        assert built == []
        monkeypatch.undo()
        assert all(r["cohen_macaulay"] for r in results[0])
        if j >= 2:  # with j = 1 the link is a graph, decided by connectivity
            witnesses = [(r["witness_face"], r["witness_degree"]) for r in results[1]]
            assert witnesses == [([], j - 1)] * 3
        if j <= 5:
            for cx, fast in zip(cxs, results):
                fields = ("Q", "F2", "Fp:3")
                slow = [_cohen_macaulay_naive(cx, f).to_dict() for f in fields]
                assert fast == slow


class TestGraphWalk:
    """A graph's Reisner walk visits the empty face alone and builds no intersections."""

    FIELDS = ("Q", "F2", "Fp:3")

    def _assert_naive(self, monkeypatch, cx):
        def no_closure(facet_masks):
            raise AssertionError("a graph's walk built the facet intersections")

        monkeypatch.setattr(homology, "_facet_intersections", no_closure)
        fast = [r.to_dict() for r in homology.cohen_macaulay_by_field(cx, self.FIELDS)]
        monkeypatch.undo()
        assert fast == [_cohen_macaulay_naive(cx, f).to_dict() for f in self.FIELDS], cx.facets
        return fast[0]["cohen_macaulay"]

    def test_every_graph_on_5_vertices(self, monkeypatch):
        connected = checked = 0
        for n in range(2, 6):
            edges = list(combinations(range(1, n + 1), 2))
            for chosen in range(1, 1 << len(edges)):
                graph = [e for i, e in enumerate(edges) if chosen >> i & 1]
                connected += self._assert_naive(monkeypatch, SimplicialComplex(n, sorted(graph)))
                checked += 1
        assert checked == 1 + 7 + 63 + 1023 and 0 < connected < checked

    def test_vdw_graphs_to_n20(self, monkeypatch):
        for n in range(3, 21):
            assert self._assert_naive(monkeypatch, vdw_complex(n, 1))


class TestShellingFastPath:
    """A greedy shelling order decides Cohen-Macaulayness over every field."""

    FIELDS = ("Q", "F2", "Fp:3")

    def test_every_pure_antichain_of_dimension_2_on_5_vertices(self, monkeypatch):
        fired = _record_euler_rule(monkeypatch)
        shelled = checked = 0
        for masks in enumerate_antichains(5):
            if not masks or len({m.bit_count() for m in masks}) != 1 or masks[0].bit_count() < 3:
                continue
            cx = complex_from_masks(5, masks)
            fast = [r.to_dict() for r in homology.cohen_macaulay_by_field(cx, self.FIELDS)]
            assert fast == [_cohen_macaulay_naive(cx, f).to_dict() for f in self.FIELDS], masks
            if _kernels.greedy_shelling(list(masks)) is not None:
                # the walk, which the pass skipped, finds no failing link either
                assert homology._first_failures(masks, cx.dim, (0, 2, 3)) == dict.fromkeys((0, 2, 3))
                shelled += 1
            checked += 1
        assert shelled > 100 and checked - shelled > 50
        assert any(fired)  # the Euler rule's witnesses are held against the naive ones too

    def test_octahedron_builds_no_chain_complex(self, monkeypatch):
        # the boundary of the cross-polytope: a 2-sphere with no dominated vertex
        octahedron = SimplicialComplex.from_facets(
            6, [(a, b, c) for a in (1, 4) for b in (2, 5) for c in (3, 6)]
        )
        assert sorted(homology._core(list(octahedron.facet_masks))) == sorted(octahedron.facet_masks)
        built = _record_chain_complexes(monkeypatch)
        assert all(homology.cohen_macaulay_by_field(octahedron, self.FIELDS))
        assert built == []


class TestEulerRule:
    """A connected 2-dimensional core with reduced Euler characteristic < 0 fails in degree 1."""

    FIELDS = ("Q", "F2", "Fp:3")

    # the 5-vertex Moebius band: its own core, connected, with 5 - 10 + 5 - 1 = -1
    MOEBIUS = SimplicialComplex.from_facets(5, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 5), (1, 2, 5)])

    def _walk(self, monkeypatch, cx):
        fired = _record_euler_rule(monkeypatch)
        built = _record_chain_complexes(monkeypatch)
        fast = [r.to_dict() for r in homology.cohen_macaulay_by_field(cx, self.FIELDS)]
        monkeypatch.undo()
        assert fast == [_cohen_macaulay_naive(cx, f).to_dict() for f in self.FIELDS], cx.facets
        return fast, fired, built

    def test_projective_plane_is_left_to_the_ranks(self, monkeypatch):
        # chi~(RP^2) = 6 - 15 + 10 - 1 = 0: the rule decides nothing, and
        # only the ranks see its F2 homology in degree 1
        (q, f2, f3), fired, built = self._walk(monkeypatch, RP2)
        assert fired == [False] and built
        assert q["cohen_macaulay"] and f3["cohen_macaulay"]
        assert (f2["witness_face"], f2["witness_degree"]) == ([], 1)

    def test_moebius_band_fails_at_the_empty_face(self, monkeypatch):
        def no_closure(facet_masks):
            raise AssertionError("the walk went past the empty face")

        monkeypatch.setattr(homology, "_facet_intersections", no_closure)
        fast, fired, built = self._walk(monkeypatch, self.MOEBIUS)
        assert fired == [True] and built == []
        assert [(r["witness_face"], r["witness_degree"]) for r in fast] == [([], 1)] * 3

    def test_cone_over_the_moebius_band_fails_at_its_apex(self, monkeypatch):
        # the empty face's link and lk v for v in the band are cones; lk 6 is the band
        cone = SimplicialComplex.from_facets(6, [f + (6,) for f in self.MOEBIUS.facets])
        fast, fired, built = self._walk(monkeypatch, cone)
        assert fired == [True] and built == []
        assert [(r["witness_face"], r["witness_degree"]) for r in fast] == [([6], 1)] * 3


class TestFieldsInOneWalk:
    """The multi-field walk against one-field calls of the same decider."""

    FIELDS = ("Q", "F2", "Fp:3")

    def _agrees(self, cx):
        one_by_one = [is_cohen_macaulay(cx, field).to_dict() for field in self.FIELDS]
        together = [r.to_dict() for r in homology.cohen_macaulay_by_field(cx, self.FIELDS)]
        assert together == one_by_one, cx.facets
        reordered = [r.to_dict() for r in homology.cohen_macaulay_by_field(cx, ["Fp:3", "F2"])]
        assert reordered == one_by_one[:0:-1], cx.facets
        return one_by_one

    def test_every_pure_complex_on_5_vertices(self):
        failing = checked = 0
        for masks in _pure_facet_lists(5):
            results = self._agrees(complex_from_masks(5, masks))
            failing += not results[0]["cohen_macaulay"]
            checked += 1
        assert checked == 2228 and failing > 100

    def test_projective_plane_fails_over_f2_only(self):
        q, f2, f3 = self._agrees(RP2)
        assert q["cohen_macaulay"] and f3["cohen_macaulay"]
        assert not f2["cohen_macaulay"] and f2["witness_face"] == []
        self._agrees(SUSPENDED_RP2)

    def test_vdw_complexes_to_n12(self):
        for n in range(2, 13):
            for k in range(1, n):
                results = self._agrees(vdw_complex(n, k))
                predicted = classify_closed_form(n, k).cohen_macaulay
                assert [r["cohen_macaulay"] for r in results] == [predicted] * 3

    def test_witnesses_of_vdw_k6_and_k7(self):
        # every vdW complex up to n = 41 with a link whose stripped core has
        # a facet nerve of fewer faces; each fails at lk (7,) in degree 2
        cases = [(n, 6) for n in range(19, 27)] + [(n, 7) for n in range(22, 36)]
        for n, k in cases:
            results = homology.cohen_macaulay_by_field(vdw_complex(n, k), self.FIELDS)
            witnesses = [(r.value, r.witness_face, r.witness_degree) for r in results]
            assert witnesses == [(False, (7,), 2)] * 3, (n, k)

    def test_nonpure_and_void(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2], [3]])
        assert [r.value for r in homology.cohen_macaulay_by_field(cx, self.FIELDS)] == [False] * 3
        with pytest.raises(ValueError):
            homology.cohen_macaulay_by_field(SimplicialComplex.from_facets(2, []), self.FIELDS)
        with pytest.raises(ValueError):
            homology.cohen_macaulay_by_field(RP2, ["Q", "F4"])

    @pytest.mark.parametrize("fields", ["F2", "Q"])
    def test_a_string_of_fields_refused(self, fields):
        # iterated, "F2" would be the descriptors "F" and "2", and "Q" one field
        with pytest.raises(ValueError, match="list of field descriptors"):
            homology.cohen_macaulay_by_field(RP2, fields)
        assert homology.cohen_macaulay_by_field(RP2, [fields])[0].field == field_label(
            parse_field(fields)
        )


class TestCohenMacaulayFromCertificates:
    """``_cohen_macaulay``, the sweep's cm rule, against the Reisner walk over Q, F2 and F3.

    The certificates are the ones a sweep record carries: the VD decision
    and the (S2) walk, the Reisner walk capped below degree 1.
    """

    CHARS = [0, 2, 3]

    def _decide(self, cx, chars=CHARS):
        """The rule's results, checked against the walk's values, and whether it fell back."""
        vd = is_vertex_decomposable(cx)
        failures = []

        def s2_witness():
            failures.append(homology._first_failures(cx.facet_masks, cx.dim, [2], below=1)[2])
            return failures[-1]

        ruled = homology._cohen_macaulay(cx, chars, vd, s2_witness)
        walked = homology.cohen_macaulay_by_field(cx, chars)
        assert [r.value for r in ruled] == [r.value for r in walked], cx.facets
        assert len(failures) == (not vd.value)  # (S2) only without a shedding tree, once
        return ruled, failures == [None]

    @staticmethod
    def _replays(cx, ruled):
        """Every field fails at one (S2) face in degree 0, which replays both ways."""
        face = ruled[0].witness_face
        for result in ruled:
            assert (result.witness_face, result.witness_degree) == (face, 0)
            assert verify_cohen_macaulay_witness(cx, result), (cx.facets, result)
        assert verify_s2_witness(cx, ideals._witness_pair(cx.facet_masks, pack(face)))

    def test_vdw_complexes_to_n24(self):
        for n in range(2, 25):
            for k in range(1, n):
                cx = vdw_complex(n, k)
                ruled, fell_back = self._decide(cx)
                assert not fell_back, (n, k)  # by the paper, VD or (S2) decides vdW
                if n <= 16 and not ruled[0].value:
                    self._replays(cx, ruled)

    def test_benchmark_random_pure(self):
        fallbacks = 0
        for seed in (1, 2):
            for cx in benchmark_random_pure(seed):
                ruled, fell_back = self._decide(cx)
                fallbacks += fell_back
                if not ruled[0].value and not fell_back:
                    self._replays(cx, ruled)
        assert fallbacks > 0  # the Reisner walk is reached, not only the certificates

    def test_projective_plane_falls_back_to_the_walk(self):
        # not VD, and every link of dimension >= 1 is connected
        ruled, fell_back = self._decide(RP2, [0, 2])
        assert fell_back
        assert [(r.value, r.witness_face, r.witness_degree) for r in ruled] == [
            (True, None, None),
            (False, (), 1),
        ]
