"""The kernels against correctness oracles and pinned search records."""

import random

import pytest
from conftest import RP2, enumerate_antichains, fraction_rank, modp_rank, random_pure_complex

from vdwcomplex import _kernels, homology
from vdwcomplex.certify import _chain_complex, _reduced_betti
from vdwcomplex.complexes import SimplicialComplex


def random_matrix(rng, nrows, ncols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def rank_deficient_matrix(rng, nrows, ncols, rank):
    left = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(rank)]
    return [
        [sum(left[i][t] * right[t][j] for t in range(rank)) for j in range(ncols)]
        for i in range(nrows)
    ]


class TestRanks:
    def test_bareiss_against_fraction_gauss(self):
        rng = random.Random(101)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            m = random_matrix(rng, nrows, ncols)
            assert _kernels.rank_bareiss(m, ncols) == fraction_rank(m)

    def test_bareiss_rank_deficient(self):
        rng = random.Random(103)
        for _ in range(30):
            nrows, ncols = rng.randint(2, 9), rng.randint(2, 9)
            r = rng.randint(0, min(nrows, ncols))
            m = rank_deficient_matrix(rng, nrows, ncols, r)
            got = _kernels.rank_bareiss(m, ncols)
            assert got == fraction_rank(m)
            assert got <= r

    def test_bareiss_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(107)
        for _ in range(15):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            m = random_matrix(rng, nrows, ncols, -5, 5)
            assert _kernels.rank_bareiss(m, ncols) == sympy.Matrix(m).rank()

    def test_mod_p_against_oracle(self):
        rng = random.Random(109)
        for p in (2, 3, 5, 101):
            for _ in range(20):
                nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
                m = random_matrix(rng, nrows, ncols, -6, 6)
                assert _kernels.rank_mod_p(m, ncols, p) == modp_rank(m, p)

    def test_empty_matrices(self):
        assert _kernels.rank_bareiss([], 0) == 0
        assert _kernels.rank_bareiss([], 5) == 0
        assert _kernels.rank_mod_p([], 0, 2) == 0

    def test_rank_can_differ_between_fields(self):
        m = [[2]]
        assert _kernels.rank_bareiss(m, 1) == 1
        assert _kernels.rank_mod_p(m, 1, 2) == 0


def random_sparse_columns(rng, nrows, ncols, values):
    """Columns as (row, value) pairs, each entry drawn from ``values`` or left out."""
    return [
        [(r, x) for r in range(nrows) if rng.random() < 0.4 and (x := rng.choice(values))]
        for _ in range(ncols)
    ]


def _dense(columns, nrows):
    rows = [[0] * len(columns) for _ in range(nrows)]
    for c, column in enumerate(columns):
        for r, x in column:
            rows[r][c] = x
    return rows


class TestUnitPivots:
    @pytest.mark.parametrize(
        "values", [(1, -1), (1, -1, 2), (1, -1, 2, -3, 4), (2, -2, 3)], ids=str
    )
    def test_rank_matches_dense_elimination(self, values):
        rng = random.Random(151)
        left = 0
        for _ in range(150):
            nrows, ncols = rng.randint(0, 12), rng.randint(0, 12)
            columns = random_sparse_columns(rng, nrows, ncols, values)
            rows = _dense(columns, nrows)
            pivots, rest = _kernels.rank_unit_pivots(columns)
            assert all(x not in (0, 1, -1) for column in rest for x in column.values())
            assert pivots + len(rest) <= ncols
            left += bool(rest)
            assert homology._rank(columns, 0) == _kernels.rank_bareiss(rows, ncols)
            assert homology._rank(columns, 3) == _kernels.rank_mod_p(rows, ncols, 3)
            if not rest:  # unimodular: one rank for every field
                assert pivots == _kernels.rank_mod_p(rows, ncols, 2)
        assert left > 0  # the leftover block is exercised, even from +-1 entries

    def test_boundary_maps_match_dense_elimination(self):
        rng = random.Random(157)
        for _ in range(40):
            n = rng.randint(2, 8)
            faces = [
                rng.sample(range(1, n + 1), rng.randint(1, min(5, n)))
                for _ in range(rng.randint(1, 8))
            ]
            masks = list(SimplicialComplex.from_facets(n, faces).facet_masks)
            levels, boundaries, _ = _chain_complex(masks)
            for j, columns in enumerate(boundaries):
                rows = _dense(columns, len(levels[j]))
                pivots, rest = _kernels.rank_unit_pivots(columns)
                assert pivots + len(rest) <= len(columns)
                assert homology._rank(columns, 0) == _kernels.rank_bareiss(rows, len(columns))

    def test_torsion_leaves_a_block(self):
        # RP^2's 10 triangles have independent boundaries over Q and F3 but
        # not over F2 (Z/2 torsion), which no unimodular step can hide
        _, boundaries, masks = _chain_complex(list(RP2.facet_masks))
        pivots, rest = _kernels.rank_unit_pivots(boundaries[-1])
        assert rest and pivots + len(rest) == 10
        assert homology._rank(boundaries[-1], 0) == 10
        assert homology._rank(boundaries[-1], 3) == 10
        assert _kernels.rank_mod_2_masks(masks[-1]) == 9


def _row_masks(rows):
    return [sum(1 << j for j, x in enumerate(row) if x & 1) for row in rows]


class TestMaskElimination:
    def test_against_oracle(self):
        rng = random.Random(137)
        for _ in range(200):
            nrows, ncols = rng.randint(0, 12), rng.randint(1, 12)
            m = random_matrix(rng, nrows, ncols, -3, 3)
            expected = modp_rank(m, 2)
            assert _kernels.rank_mod_2_masks(_row_masks(m)) == expected
            columns = [list(col) for col in zip(*m)]  # the rank of the transpose
            assert _kernels.rank_mod_2_masks(_row_masks(columns)) == expected

    def test_rank_deficient(self):
        rng = random.Random(139)
        for _ in range(60):
            nrows, ncols = rng.randint(2, 10), rng.randint(2, 10)
            m = rank_deficient_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
            assert _kernels.rank_mod_2_masks(_row_masks(m)) == modp_rank(m, 2)

    def test_zero_and_duplicate_rows(self):
        assert _kernels.rank_mod_2_masks([]) == 0
        assert _kernels.rank_mod_2_masks([0, 0]) == 0
        assert _kernels.rank_mod_2_masks([0b101, 0b101, 0b011, 0b110]) == 2

    def test_reduced_betti_matches_dense_ranks(self):
        # Betti numbers mod 2 from dense incidence matrices ranked by rank_mod_p
        rng = random.Random(149)
        for _ in range(80):
            n = rng.randint(1, 7)
            faces = [
                rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
                for _ in range(rng.randint(1, 6))
            ]
            masks = list(SimplicialComplex.from_facets(n, faces).facet_masks)
            levels = {}
            for f in masks:
                sub = f
                while True:  # every submask of f, down to the empty face
                    levels.setdefault(sub.bit_count(), set()).add(sub)
                    if sub == 0:
                        break
                    sub = (sub - 1) & f
            counts = [len(levels[c]) for c in range(len(levels))]
            ranks = [0]
            for c in range(1, len(levels)):
                lower, upper = sorted(levels[c - 1]), sorted(levels[c])
                rows = [[1 if low & up == low else 0 for up in upper] for low in lower]
                ranks.append(_kernels.rank_mod_p(rows, len(upper), 2))
            ranks.append(0)
            expected = {c - 1: counts[c] - ranks[c] - ranks[c + 1] for c in range(len(counts))}
            assert _reduced_betti(masks, 2) == expected, faces


class TestSearchShelling:
    def test_empty_input(self):
        assert _kernels.search_shelling([], 100) == (_kernels.FOUND, [], 0)

    def test_budget_semantics(self):
        masks = [0b0111, 0b1110, 0b1011, 0b1101]
        status, order, nodes = _kernels.search_shelling(masks, 1)
        assert status == _kernels.EXHAUSTED and order is None
        status, order, nodes = _kernels.search_shelling(masks, 10**6)
        assert status == _kernels.FOUND
        assert sorted(order) == [0, 1, 2, 3]


# (masks, budget) -> (status, order, nodes), recorded from the recursive
# search that the explicit-stack one replaced; the vdw102 and nonpure
# records were recorded from the ridge-by-ridge step test that the
# pairwise one replaced.
PINNED_SEARCHES = {
    "tetrahedron-boundary": (([7, 14, 11, 13], 10**6), (_kernels.FOUND, [0, 1, 2, 3], 4)),
    "found-after-backtrack": (
        ([56, 25, 21, 14, 35, 37, 50, 7, 44, 11], 10**6),
        (_kernels.FOUND, [0, 1, 2, 7, 9, 3, 8, 5, 4, 6], 11),
    ),
    "disjoint-edges": (([3, 12], 10**6), (_kernels.NOT_SHELLABLE, None, 3)),
    "vdw72-exhausted": (
        ([7, 21, 73, 14, 42, 28, 84, 56, 112], 10**6),
        (_kernels.NOT_SHELLABLE, None, 116),
    ),
    "vdw92-exhausted": (
        ([7, 21, 73, 273, 14, 42, 146, 28, 84, 292, 56, 168, 112, 336, 224, 448], 10**6),
        (_kernels.NOT_SHELLABLE, None, 1459),
    ),
    "vdw102-exhausted": (
        (
            [7, 21, 73, 273, 14, 42, 146, 546, 28, 84, 292, 56, 168, 584, 112, 336, 224, 672, 448, 896],
            10**6,
        ),
        (_kernels.NOT_SHELLABLE, None, 5551),
    ),
    "nonpure-found-after-backtrack": (
        ([6, 49, 21, 19, 35, 84, 114, 67], 10**6),
        (_kernels.FOUND, [6, 1, 2, 0, 3, 4, 5, 7], 89),
    ),
    "vdw83-exhausted": (
        ([15, 85, 30, 170, 60, 120, 240], 10**6),
        (_kernels.NOT_SHELLABLE, None, 18),
    ),
    "tetrahedron-budget-1": (([7, 14, 11, 13], 1), (_kernels.EXHAUSTED, None, 2)),
    "vdw72-budget-50": (
        ([7, 21, 73, 14, 42, 28, 84, 56, 112], 50),
        (_kernels.EXHAUSTED, None, 51),
    ),
    "budget-0": (([7, 14, 11, 13], 0), (_kernels.EXHAUSTED, None, 1)),
}


@pytest.mark.parametrize("case", sorted(PINNED_SEARCHES))
def test_pure_search_pinned(case):
    (masks, budget), expected = PINNED_SEARCHES[case]
    assert _kernels.search_shelling(masks, budget) == expected



def _search_probe(masks):
    """The order ``search_shelling`` finds with one node per facet, or None."""
    status, order, _ = _kernels.search_shelling(masks, len(masks))
    return order if status == _kernels.FOUND else None


class TestGreedyShelling:
    """The greedy pass against the search's first descent."""

    def test_every_pure_antichain_on_5_vertices(self):
        found = checked = 0
        for masks in enumerate_antichains(5):
            if masks and len({m.bit_count() for m in masks}) == 1:
                order = _kernels.greedy_shelling(list(masks))
                assert order == _search_probe(list(masks)), masks
                found += order is not None
                checked += 1
        assert found > 100 and checked - found > 100

    def test_pinned_pure_searches(self):
        # "found-after-backtrack" among them: the first descent dead-ends
        for case, ((masks, _), _) in sorted(PINNED_SEARCHES.items()):
            if len({m.bit_count() for m in masks}) == 1:
                assert _kernels.greedy_shelling(masks) == _search_probe(masks), case

    def test_random_pure_complexes(self):
        rng = random.Random(163)
        found = 0
        for _ in range(200):
            masks = list(random_pure_complex(rng, 8).facet_masks)
            order = _kernels.greedy_shelling(masks)
            assert order == _search_probe(masks), masks
            found += order is not None
        assert 0 < found < 200

    def test_empty_input(self):
        assert _kernels.greedy_shelling([]) == []
