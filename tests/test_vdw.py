"""Construction and closed-form classification of vdW(n, k)."""

import pytest

from vdwcomplex.vdw import (
    Classification,
    check_max_increment_overlap,
    check_odd_increment_overlap,
    classify_closed_form,
    facet_count,
    max_increment,
    max_odd_increment,
    progression_facets,
    vdw_complex,
)


class TestFacets:
    def test_vdw52_facet_list(self):
        faces = [f.vertices for f in progression_facets(5, 2)]
        assert faces == [(1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 3, 5)]

    def test_vdw62_contains_246(self):
        faces = [f.vertices for f in progression_facets(6, 2)]
        assert len(faces) == 6
        assert (2, 4, 6) in faces

    def test_full_progression_is_simplex(self):
        for n in range(2, 10):
            faces = progression_facets(n, n - 1)
            assert len(faces) == 1
            assert faces[0].vertices == tuple(range(1, n + 1))

    def test_invalid_params(self):
        for n, k in [(2, 2), (5, 0), (3, 5), (1, 1), (5, True), (2, True)]:
            with pytest.raises(ValueError):
                progression_facets(n, k)
        with pytest.raises(ValueError):
            vdw_complex(5, True)
        with pytest.raises(ValueError):
            classify_closed_form(7, True)

    def test_count_identity(self):
        # |facets| equals the increment-summation formula for all 0 < k < n <= 30
        for n in range(2, 31):
            for k in range(1, n):
                facets = progression_facets(n, k)
                assert len(facets) == facet_count(n, k)
                assert len({f.vertices for f in facets}) == len(facets)

    def test_progression_structure(self):
        for n in range(2, 20):
            for k in range(1, n):
                for f in progression_facets(n, k):
                    diffs = {b - a for a, b in zip(f.vertices, f.vertices[1:])}
                    assert diffs == {f.increment}
                    assert len(f.vertices) == k + 1
                    assert 1 <= f.vertices[0] and f.vertices[-1] <= n

    def test_purity(self):
        for n in range(2, 15):
            for k in range(1, n):
                cx = vdw_complex(n, k)
                assert cx.is_pure
                assert cx.dim == k

    def test_deletion_recursion_large_k(self):
        # for n/2 <= k < n-1 deleting the last vertex yields vdW(n-1, k)
        for n in range(4, 12):
            for k in range((n + 1) // 2, n - 1):
                assert vdw_complex(n, k).deletion(n).facets == vdw_complex(n - 1, k).facets


class TestIncrements:
    def test_max_increment(self):
        assert max_increment(7, 2) == 3
        assert max_increment(9, 2) == 4
        for n in range(2, 12):
            assert max_increment(n, n - 1) == 1

    def test_max_increment_brute_force(self):
        for n in range(2, 20):
            for k in range(1, n):
                best = max(f.increment for f in progression_facets(n, k))
                assert max_increment(n, k) == best

    def test_max_odd_increment(self):
        assert max_odd_increment(7, 2) == 3
        assert max_odd_increment(9, 2) == 3

    def test_max_odd_increment_brute_force(self):
        for n in range(2, 20):
            for k in range(1, n):
                odd = [f.increment for f in progression_facets(n, k) if f.increment % 2]
                assert max_odd_increment(n, k) == max(odd)


class TestClassification:
    def test_examples(self):
        c = classify_closed_form(6, 2)
        assert (c.vertex_decomposable, c.shellable, c.cohen_macaulay) == (True, True, True)
        c = classify_closed_form(7, 2)
        assert (c.vertex_decomposable, c.shellable, c.cohen_macaulay) == (False, False, False)
        assert c.pure
        c = classify_closed_form(8, 4)
        assert (c.vertex_decomposable, c.shellable, c.cohen_macaulay) == (True, True, True)

    def test_boundary_cases(self):
        # k >= n/2 is evaluated as 2k >= n
        assert classify_closed_form(7, 3).vertex_decomposable is False  # 6 < 7
        assert classify_closed_form(7, 4).vertex_decomposable is True  # 8 >= 7
        assert classify_closed_form(100, 1).vertex_decomposable is True

    def test_implication_chain_everywhere(self):
        for n in range(2, 40):
            for k in range(1, n):
                c = classify_closed_form(n, k)
                assert not c.vertex_decomposable or c.shellable
                assert not c.shellable or c.cohen_macaulay
                assert c.pure

    def test_record_is_pinned(self):
        assert classify_closed_form(7, 2).to_dict() == {
            "n": 7,
            "k": 2,
            "vertex_decomposable": False,
            "shellable": False,
            "cohen_macaulay": False,
            "pure": True,
        }

    def test_inconsistent_flags_rejected(self):
        with pytest.raises(ValueError):
            Classification(7, 2, vertex_decomposable=True, shellable=False, cohen_macaulay=False)


class TestOverlapBounds:
    def test_odd_increment_bound_small(self):
        assert check_odd_increment_overlap(7).holds
        assert check_odd_increment_overlap(8).holds

    def test_odd_increment_bound_wide(self):
        res = check_odd_increment_overlap(30)
        assert res.holds
        assert res.bound == 1

    def test_odd_increment_requires_n7(self):
        with pytest.raises(ValueError):
            check_odd_increment_overlap(6)

    def test_max_increment_bound(self):
        assert check_max_increment_overlap(7, 3).holds
        assert check_max_increment_overlap(20, 4).holds
        assert check_max_increment_overlap(9, 3).holds

    def test_max_increment_preconditions(self):
        with pytest.raises(ValueError):
            check_max_increment_overlap(6, 3)
        with pytest.raises(ValueError):
            check_max_increment_overlap(9, 2)
        with pytest.raises(ValueError):
            check_max_increment_overlap(8, 4)  # 2k = n

    def test_witness_fields(self):
        res = check_odd_increment_overlap(7)
        assert res.chosen_increment == 3
        assert res.max_overlap == 1
        f, g = res.max_overlap_pair
        assert len(set(f) & set(g)) == 1
        assert res.violation is None
