"""Acceptance suite: the classification engine at its documented scales.

Each test is one acceptance criterion, checked exactly (no tolerances:
every assertion is on integers or booleans) and prints a single PASS
line when it completes.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the PASS lines as they happen).
"""

import json
import random
from collections import Counter

from conftest import (
    CONNECTED_GRAPH_CLASS_COUNTS,
    _linearly_presented_by_pairs,
    connected_graph_classes,
    linear_presentation_oracle,
    random_pure_complex,
)

from vdwcomplex.certify import verify_shedding_tree, verify_shelling
from vdwcomplex.complexes import SimplicialComplex
from vdwcomplex.decompose import is_shellable, is_vertex_decomposable
from vdwcomplex.homology import is_cohen_macaulay
from vdwcomplex.ideals import (
    MonomialIdeal,
    dual_ideal,
    is_linearly_presented,
    nonlinear_obstruction_vdw,
)
from vdwcomplex.vdw import (
    check_max_increment_overlap,
    check_odd_increment_overlap,
    classify_closed_form,
    progression_facets,
    vdw_complex,
)


def all_pairs(n_max):
    return [(n, k) for n in range(2, n_max + 1) for k in range(1, n)]


def test_1_vertex_decomposability_matches_closed_form_to_n9():
    expected_negative = [(7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 3), (9, 4)]
    memo = {}
    negative = []
    for n, k in all_pairs(9):
        res = is_vertex_decomposable(vdw_complex(n, k), memo=memo)
        assert res.value == classify_closed_form(n, k).vertex_decomposable, (n, k)
        if not res.value:
            negative.append((n, k))
        else:
            assert verify_shedding_tree(vdw_complex(n, k), res.tree), (n, k)
    assert negative == expected_negative
    print("acceptance[1] PASS: vertex decomposability matches the closed form "
          "on all 36 pairs with n <= 9; exactly 7 negative pairs")


def test_2_shellability_matches_closed_form_to_n8():
    for n, k in all_pairs(8):
        cx = vdw_complex(n, k)
        res = is_shellable(cx)
        assert res.value is not None, f"budget exhausted on ({n},{k})"
        assert res.value == classify_closed_form(n, k).shellable, (n, k)
        if res.value:
            assert verify_shelling(cx, res.order), (n, k)
    print("acceptance[2] PASS: shellability matches the closed form on all 28 "
          "pairs with n <= 8; every positive order verifies")


def test_3_cohen_macaulay_matches_closed_form_to_n10():
    for n, k in all_pairs(10):
        expected = not (n > 6 and 2 <= k and 2 * k < n)
        for field in ("Q", "F2"):
            got = is_cohen_macaulay(vdw_complex(n, k), field).value
            assert got == expected, (n, k, field)
    print("acceptance[3] PASS: Cohen-Macaulayness over Q and F2 matches the "
          "closed form on all 45 pairs with n <= 10")


def test_3_cohen_macaulay_matches_closed_form_n11_to_n12():
    pairs = [(n, k) for n in (11, 12) for k in range(1, n)]
    for n, k in pairs:
        expected = classify_closed_form(n, k).cohen_macaulay
        for field in ("Q", "F2"):
            got = is_cohen_macaulay(vdw_complex(n, k), field).value
            assert got == expected, (n, k, field)
    print("acceptance[3] PASS: Cohen-Macaulayness over Q and F2 matches the "
          f"closed form on all {len(pairs)} pairs with 10 < n <= 12")


def test_4_obstruction_and_linear_presentation_to_n10():
    obstructed = 0
    for n, k in all_pairs(10):
        ideal = dual_ideal(vdw_complex(n, k))
        presented = is_linearly_presented(ideal).value
        if n > 6 and 2 <= k and 2 * k < n:
            witness = nonlinear_obstruction_vdw(n, k)
            assert all(s >= 2 for s in witness.sigma_degrees), (n, k)
            assert witness.f.increment != witness.g.increment
            assert presented is False, (n, k)
            obstructed += 1
        else:
            assert presented is True, (n, k)
    assert obstructed == 10
    print("acceptance[4] PASS: every obstructed pair with n <= 10 has a "
          "sigma-degree >= 2 witness and a non-linearly-presented dual ideal; "
          "all other pairs are linearly presented")


def test_4_linear_presentation_matches_closed_form_to_n24():
    negatives = 0
    for n, k in all_pairs(24):
        presented = is_linearly_presented(dual_ideal(vdw_complex(n, k))).value
        assert presented == classify_closed_form(n, k).cohen_macaulay, (n, k)
        negatives += not presented
    assert negatives == sum(1 for n, k in all_pairs(24) if n > 6 and 2 <= k and 2 * k < n)
    print(f"acceptance[4] PASS: linear presentation matches the closed-form "
          f"Cohen-Macaulay flag on all {len(all_pairs(24))} pairs with n <= 24; "
          f"{negatives} negative")


def test_5_odd_increment_overlap_bound_to_n30():
    for n in range(7, 31):
        res = check_odd_increment_overlap(n)
        assert res.holds, n
        assert res.max_overlap == 1, n  # the bound is attained somewhere
    print("acceptance[5] PASS: odd-increment overlap bound holds and is tight "
          "for all 7 <= n <= 30")


def test_6_max_increment_overlap_bound_to_n20():
    checked = 0
    for n in range(7, 21):
        for k in range(3, n):
            if 2 * k >= n:
                continue
            assert check_max_increment_overlap(n, k).holds, (n, k)
            checked += 1
    assert checked > 0
    print(f"acceptance[6] PASS: max-increment overlap bound holds on all "
          f"{checked} pairs with 7 <= n <= 20 and 2 < k < n/2")


def test_7_worked_example_golden_fixtures():
    c52, c62 = vdw_complex(5, 2), vdw_complex(6, 2)
    assert c52.to_json() == '{"n":5,"facets":[[1,2,3],[1,3,5],[2,3,4],[3,4,5]]}'
    assert c62.to_json() == (
        '{"n":6,"facets":[[1,2,3],[1,3,5],[2,3,4],[2,4,6],[3,4,5],[4,5,6]]}'
    )
    deletion = c62.deletion(6)
    assert json.dumps(deletion.to_dict()["facets"]) == json.dumps(c52.to_dict()["facets"])
    assert json.dumps(c52.link(5).to_dict()["facets"]) == "[[1, 3], [3, 4]]"
    assert json.dumps(c62.link(6).to_dict()["facets"]) == "[[2, 4], [4, 5]]"
    res52 = is_vertex_decomposable(c52)
    assert res52.tree.shedding_vertices() == (5, 4)
    assert verify_shedding_tree(c52, res52.tree)
    res62 = is_vertex_decomposable(c62)
    assert res62.tree.vertex == 6
    assert res62.tree.shedding_vertices() == (6, 5, 4)
    assert verify_shedding_tree(c62, res62.tree)
    print("acceptance[7] PASS: worked-example fixtures are byte-exact and the "
          "shedding sequences (5 then 4; 6 then recurse) replay")


def test_8_dual_ideal_degree_identities_to_n12():
    for n, k in all_pairs(12):
        facets = [set(f.vertices) for f in progression_facets(n, k)]
        ideal = dual_ideal(vdw_complex(n, k))
        assert all(d == n - k - 1 for d in ideal.degrees), (n, k)
        full = set(range(1, n + 1))
        for a in range(len(facets)):
            comp_a = full - facets[a]
            for b in range(a + 1, len(facets)):
                gcd_deg = len(comp_a & (full - facets[b]))
                assert gcd_deg == n - len(facets[a] | facets[b]), (n, k, a, b)
    print("acceptance[8] PASS: dual-ideal generator degrees are n-k-1 and "
          "gcd degrees equal n - |F union G| on all facet pairs, n <= 12")


def _implication_chain_holds(cx, memo):
    vd = is_vertex_decomposable(cx, memo=memo).value
    shell = is_shellable(cx)
    assert shell.value is not None, "shellability search exhausted its budget"
    if vd:
        assert shell.value, cx.facets
    if shell.value:
        assert is_cohen_macaulay(cx, "Q").value, cx.facets
        assert is_cohen_macaulay(cx, "F2").value, cx.facets


def test_9_implication_chain_property_suite():
    rng = random.Random(20210724)
    memo = {}
    for _ in range(500):
        _implication_chain_holds(random_pure_complex(rng, 7), memo)
    for n, k in all_pairs(8):
        _implication_chain_holds(vdw_complex(n, k), memo)
    # every connected pure 1-dimensional complex on <= 8 vertices is
    # vertex decomposable; checked per isomorphism class (the property
    # is invariant under relabelling) with class counts pinned to the
    # known census of connected graphs
    counts = Counter()
    for m, edges in connected_graph_classes(8):
        counts[m] += 1
        cx = SimplicialComplex.from_facets(m, edges)
        assert cx.is_pure and cx.dim == 1 and cx.is_connected()
        assert is_vertex_decomposable(cx, memo=memo).value, (m, edges)
    assert dict(counts) == CONNECTED_GRAPH_CLASS_COUNTS
    print("acceptance[9] PASS: no implication-chain violation on 500 random "
          "pure complexes and all vdW pairs with n <= 8; all 12112 connected "
          "pure 1-dimensional complexes on <= 8 vertices (per iso class) are "
          "vertex decomposable")


def test_10_linear_presentation_graph_criterion_vs_oracle():
    from itertools import combinations

    checked = 0
    for n, k in all_pairs(8):
        ideal = dual_ideal(vdw_complex(n, k))
        got = is_linearly_presented(ideal).value
        assert got == linear_presentation_oracle(ideal, 0)[0], (n, k, "Q")
        assert got == linear_presentation_oracle(ideal, 2)[0], (n, k, "F2")
        assert got == _linearly_presented_by_pairs(ideal).value, (n, k)
        checked += 1
    rng = random.Random(17072024)
    for _ in range(200):
        nvars = rng.randint(4, 8)
        d = rng.randint(2, min(4, nvars - 1))
        pool = list(combinations(range(1, nvars + 1), d))
        supports = rng.sample(pool, min(len(pool), rng.randint(2, 6)))
        ideal = MonomialIdeal.from_supports(nvars, supports)
        got = is_linearly_presented(ideal).value
        assert got == linear_presentation_oracle(ideal, 0)[0], supports
        assert got == linear_presentation_oracle(ideal, 2)[0], supports
        assert got == _linearly_presented_by_pairs(ideal).value, supports
        checked += 1
    print(f"acceptance[10] PASS: the (S2) test and the graph criterion equal "
          f"exact linear-system membership over Q and F2 on {checked} ideals")
