"""Van der Waerden complexes vdW(n, k) and their closed-form classification.

The facets of vdW(n, k) are the arithmetic progressions
{i, i+d, ..., i+kd} with i >= 1, d >= 1 and i + kd <= n: a pure
k-dimensional complex on {1, ..., n}.  This module builds those facets,
provides the increment utilities the classification arguments use, the
closed-form predicate for vertex decomposability / shellability /
Cohen-Macaulayness, and brute-force checkers for the two facet-overlap
bounds that drive the non-Cohen-Macaulay cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from vdwcomplex.complexes import SimplicialComplex, _check_universe


def _validate_params(n: int, k: int) -> None:
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (n, k)):
        raise ValueError(f"n and k must be integers, got n={n!r}, k={k!r}")
    if not 0 < k < n:
        raise ValueError(f"parameters must satisfy 0 < k < n, got n={n}, k={k}")


@dataclass(frozen=True)
class ProgressionFacet:
    """A facet {start, start+increment, ..., start+k*increment}."""

    start: int
    increment: int
    vertices: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "increment": self.increment,
            "vertices": list(self.vertices),
        }


@dataclass(frozen=True)
class Classification:
    """Predicted property flags for one vdW(n, k)."""

    n: int
    k: int
    vertex_decomposable: bool
    shellable: bool
    cohen_macaulay: bool
    pure: bool = True

    def __post_init__(self) -> None:
        # vertex decomposable => shellable => Cohen-Macaulay
        if self.vertex_decomposable and not self.shellable:
            raise ValueError("inconsistent flags: vertex decomposable but not shellable")
        if self.shellable and not self.cohen_macaulay:
            raise ValueError("inconsistent flags: shellable but not Cohen-Macaulay")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "vertex_decomposable": self.vertex_decomposable,
            "shellable": self.shellable,
            "cohen_macaulay": self.cohen_macaulay,
            "pure": self.pure,
        }


def progression_facets(n: int, k: int) -> tuple[ProgressionFacet, ...]:
    """All progression facets of vdW(n, k), increment-major order."""
    _validate_params(n, k)
    out = []
    for d in range(1, (n - 1) // k + 1):
        for i in range(1, n - k * d + 1):
            out.append(ProgressionFacet(i, d, tuple(range(i, i + k * d + 1, d))))
    return tuple(out)


def facet_count(n: int, k: int) -> int:
    """Number of facets of vdW(n, k): sum over d of (n - k*d)."""
    _validate_params(n, k)
    return sum(n - k * d for d in range(1, (n - 1) // k + 1))


def vdw_complex(n: int, k: int) -> SimplicialComplex:
    """vdW(n, k) as a facet-list complex on {1, ..., n}.

    The progression of start i and increment d is the mask base_d << (i - 1),
    where base_d has the bits 0, d, ..., kd.  Two progressions first differ
    in their start or in their second vertex, so by start, then increment,
    they come in canonical (lexicographic) order; and progressions of equal
    length are never nested.
    """
    _validate_params(n, k)
    _check_universe(n)  # before the masks of a universe too large are built
    bases = [sum(1 << j * d for j in range(k + 1)) for d in range(1, (n - 1) // k + 1)]
    masks = tuple(base << i for i in range(n - k) for base in bases[: (n - 1 - i) // k])
    return SimplicialComplex._from_masks(n, masks)


def _grown(cx: SimplicialComplex, k: int) -> tuple[SimplicialComplex, list[int]]:
    """vdW(n, k) from ``cx`` = vdW(n - 1, k), and its facets through n, in canonical order.

    The facet through n of increment d, base_d = (2^(d(k+1)) - 1) / (2^d - 1)
    shifted, follows ``cx``'s starting at n - kd and precedes the
    (d - 1)(kd - 2)/2 starting later.  Only the added facets are validated.
    """
    n = cx.n + 1
    kept = cx.facet_masks
    parts, new, fresh, at = [], [], [], 0
    for d in range((n - 1) // k, 0, -1):  # by start, n - kd
        p = len(kept) - (d - 1) * (k * d - 2) // 2
        h = ((1 << d * (k + 1)) - 1) // ((1 << d) - 1) << (n - 1 - k * d)
        parts += (kept[at:p], (h,))
        fresh.append(p + len(new))
        new.append(h)
        at = p
    parts.append(kept[at:])
    return SimplicialComplex._from_masks(n, tuple(chain.from_iterable(parts)), fresh), new


def max_increment(n: int, k: int) -> int:
    """Largest d with 1 + k*d <= n."""
    _validate_params(n, k)
    return (n - 1) // k


def max_odd_increment(n: int, k: int) -> int:
    """Largest odd d realized by some facet of vdW(n, k)."""
    d = max_increment(n, k)
    return d if d % 2 == 1 else d - 1


def classify_closed_form(n: int, k: int) -> Classification:
    """Closed-form property flags for vdW(n, k).

    Vertex decomposability (equivalently shellability) holds iff n <= 6,
    or k = 1, or 2k >= n; Cohen-Macaulayness fails exactly when n > 6
    and 2 <= k < n/2.  All comparisons are integer-exact.
    """
    _validate_params(n, k)
    vd = n <= 6 or k == 1 or 2 * k >= n
    cm = not (n > 6 and 2 <= k and 2 * k < n)
    return Classification(n, k, vertex_decomposable=vd, shellable=vd, cohen_macaulay=cm)


@dataclass(frozen=True)
class OverlapCheck:
    """Result of a facet-overlap bound check.

    ``holds`` is the verdict; on failure ``violation`` carries the
    offending facet pair.  ``max_overlap`` / ``max_overlap_pair`` report
    the largest intersection attained among the checked pairs, so
    tightness of the bound can be asserted.
    """

    n: int
    k: int
    kind: str
    chosen_increment: int
    bound: int
    holds: bool
    max_overlap: int
    max_overlap_pair: tuple[tuple[int, ...], tuple[int, ...]] | None
    violation: tuple[tuple[int, ...], tuple[int, ...]] | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "kind": self.kind,
            "chosen_increment": self.chosen_increment,
            "bound": self.bound,
            "holds": self.holds,
            "max_overlap": self.max_overlap,
            "max_overlap_pair": [list(f) for f in self.max_overlap_pair]
            if self.max_overlap_pair
            else None,
            "violation": [list(f) for f in self.violation] if self.violation else None,
        }


def _overlap_check(n: int, k: int, chosen: int, bound: int, kind: str) -> OverlapCheck:
    facets = progression_facets(n, k)
    fs = [f for f in facets if f.increment == chosen]
    gs = [g for g in facets if g.increment != chosen]
    best = -1
    best_pair = None
    violation = None
    for f in fs:
        fset = set(f.vertices)
        for g in gs:
            overlap = len(fset.intersection(g.vertices))
            if overlap > best:
                best = overlap
                best_pair = (f.vertices, g.vertices)
            if overlap > bound and violation is None:
                violation = (f.vertices, g.vertices)
    return OverlapCheck(
        n=n,
        k=k,
        kind=kind,
        chosen_increment=chosen,
        bound=bound,
        holds=violation is None,
        max_overlap=best,
        max_overlap_pair=best_pair,
        violation=violation,
    )


def check_odd_increment_overlap(n: int) -> OverlapCheck:
    """For vdW(n, 2), n >= 7: facets with the largest odd increment meet
    every facet of a different increment in at most one vertex.
    Checked by brute force over all such facet pairs."""
    if n < 7:
        raise ValueError(f"the odd-increment overlap bound needs n >= 7, got n={n}")
    return _overlap_check(n, 2, max_odd_increment(n, 2), 1, "odd-increment-overlap")


def check_max_increment_overlap(n: int, k: int) -> OverlapCheck:
    """For vdW(n, k), n >= 7 and 2 < k < n/2: facets with the largest
    increment meet every facet of a different increment in at most k-1
    vertices.  Checked by brute force over all such facet pairs."""
    if n < 7:
        raise ValueError(f"the max-increment overlap bound needs n >= 7, got n={n}")
    if not (2 < k and 2 * k < n):
        raise ValueError(f"the max-increment overlap bound needs 2 < k < n/2, got n={n}, k={k}")
    return _overlap_check(n, k, max_increment(n, k), k - 1, "max-increment-overlap")
