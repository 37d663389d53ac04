"""Squarefree monomial ideals, Taylor first syzygies, linear presentation.

Monomials are represented by their support sets (all ideals here are
squarefree), so divisibility is subset testing, lcm is union and gcd is
intersection.  The Alexander-dual Stanley-Reisner ideal of a facet-list
complex is generated by the facet complements.  For equigenerated
ideals, membership of a Taylor syzygy in the submodule generated by the
linear Taylor syzygies reduces, multidegree by multidegree, to graph
connectivity: the free module's component in the multidegree
lcm(m_i, m_j) has one coordinate per generator dividing it, so the
syzygy of the pair (i, j) is a difference of unit coordinates and lies
in the linear-syzygy span iff i and j are joined by a path of linear
pairs among the dividing generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from vdwcomplex.complexes import SimplicialComplex, Vertices, _check_antichain, pack, unpack
from vdwcomplex.vdw import ProgressionFacet, max_increment, max_odd_increment, progression_facets


@dataclass(frozen=True)
class MonomialIdeal:
    """A squarefree monomial ideal given by its minimal generating supports.

    Generators are canonically sorted and pairwise non-dividing; use
    :meth:`from_supports` to minimalize an arbitrary generating set.
    """

    n: int
    generators: tuple[Vertices, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"variable count must be a positive integer, got {self.n!r}")
        _check_antichain(self.n, self.generators, "generator")

    @classmethod
    def from_supports(cls, n: int, supports) -> "MonomialIdeal":
        masks = sorted({pack(s) for s in supports}, key=lambda m: m.bit_count())
        kept: list[int] = []
        for m in masks:
            if not any(k & m == k for k in kept):
                kept.append(m)
        return cls(n, tuple(sorted(unpack(m) for m in kept)))

    @cached_property
    def generator_masks(self) -> tuple[int, ...]:
        return tuple(pack(g) for g in self.generators)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.generators)

    @property
    def is_equigenerated(self) -> bool:
        return len(set(self.degrees)) <= 1

    def to_dict(self) -> dict:
        return {"n": self.n, "generators": [list(g) for g in self.generators]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


@dataclass(frozen=True)
class TaylorSyzygy:
    """The pair relation sigma_ji e_i - sigma_ij e_j of generators i < j.

    Indices are 0-based positions into the ideal's generator tuple;
    sigma_ij is the support of m_i / gcd(m_i, m_j) (the coefficient on
    e_j), sigma_ji that of m_j / gcd(m_i, m_j) (on e_i).
    """

    i: int
    j: int
    sigma_ji: Vertices
    sigma_ij: Vertices
    multidegree: Vertices

    @property
    def linear(self) -> bool:
        return len(self.sigma_ij) == 1 and len(self.sigma_ji) == 1

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "sigma_ji": list(self.sigma_ji),
            "sigma_ij": list(self.sigma_ij),
            "multidegree": list(self.multidegree),
            "linear": self.linear,
        }


def dual_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    """Stanley-Reisner ideal of the Alexander dual: facet complements.

    For a pure complex of dimension k on n vertices every generator has
    degree n - k - 1.  The full simplex has empty complement; its dual
    ideal is returned with no generators.
    """
    if cx.is_void:
        raise ValueError("the void complex has no dual ideal")
    full = (1 << cx.n) - 1
    masks = [full & ~m for m in cx.facet_masks]
    if any(m == 0 for m in masks):
        # only the full simplex complements to nothing
        return MonomialIdeal(cx.n, ())
    # complements of an antichain form an antichain
    return MonomialIdeal(cx.n, tuple(sorted(unpack(m) for m in masks)))


def taylor_syzygies(ideal: MonomialIdeal) -> tuple[TaylorSyzygy, ...]:
    """All s(s-1)/2 Taylor pair syzygies of the minimal generators."""
    masks = ideal.generator_masks
    out = []
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            gcd = masks[i] & masks[j]
            out.append(
                TaylorSyzygy(
                    i,
                    j,
                    sigma_ji=unpack(masks[j] & ~gcd),
                    sigma_ij=unpack(masks[i] & ~gcd),
                    multidegree=unpack(masks[i] | masks[j]),
                )
            )
    return tuple(out)


@dataclass(frozen=True)
class LinearPresentationResult:
    value: bool
    witness: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.value

    def to_dict(self) -> dict:
        return {
            "linearly_presented": self.value,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def is_linearly_presented(ideal: MonomialIdeal) -> LinearPresentationResult:
    """Is the first syzygy module generated by the linear Taylor syzygies?

    Requires an equigenerated ideal.  Each pair syzygy is homogeneous of
    multidegree a = lcm(m_i, m_j); it lies in the linear-syzygy
    submodule iff i and j are connected in the graph on the generators
    dividing x^a whose edges are the pairs of lcm-degree d + 1.  The
    first pair failing this test is returned as a witness.
    """
    if not ideal.is_equigenerated:
        raise ValueError("linear presentation is defined for equigenerated ideals")
    masks = ideal.generator_masks
    s = len(masks)
    if s <= 1:
        return LinearPresentationResult(True)
    d = masks[0].bit_count()
    union = [[0] * s for _ in range(s)]
    for i in range(s):
        for j in range(i + 1, s):
            union[i][j] = union[j][i] = (masks[i] | masks[j]).bit_count()
    for i in range(s):
        for j in range(i + 1, s):
            if union[i][j] == d + 1:
                continue  # linear syzygies generate themselves
            a = masks[i] | masks[j]
            members = [p for p in range(s) if masks[p] & ~a == 0]
            reached = {i}
            frontier = [i]
            while frontier and j not in reached:
                p = frontier.pop()
                for q in members:
                    if q not in reached and union[p][q] == d + 1:
                        reached.add(q)
                        frontier.append(q)
            if j not in reached:
                return LinearPresentationResult(False, (i, j))
    return LinearPresentationResult(True)


@dataclass(frozen=True)
class ObstructionWitness:
    """A facet pair certifying a non-linear, non-generated first syzygy."""

    n: int
    k: int
    f: ProgressionFacet
    g: ProgressionFacet
    generator_degree: int
    gcd_degree: int
    sigma_degrees: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "f": self.f.to_dict(),
            "g": self.g.to_dict(),
            "generator_degree": self.generator_degree,
            "gcd_degree": self.gcd_degree,
            "sigma_degrees": list(self.sigma_degrees),
        }


def nonlinear_obstruction_vdw(n: int, k: int) -> ObstructionWitness:
    """Witness pair behind the failure of linear presentation for vdW(n, k).

    Defined for n > 6 and 2 <= k < n/2.  F is the first facet with the
    largest increment (largest odd increment when k = 2); G is the first
    facet with any other increment.  The overlap bounds force both
    sigma-coefficients of the (F, G) syzygy to have degree >= 2.
    """
    if not (isinstance(n, int) and isinstance(k, int)):
        raise ValueError(f"n and k must be integers, got n={n!r}, k={k!r}")
    if not (n > 6 and 2 <= k and 2 * k < n):
        raise ValueError(f"the obstruction needs n > 6 and 2 <= k < n/2, got n={n}, k={k}")
    facets = progression_facets(n, k)
    chosen = max_odd_increment(n, k) if k == 2 else max_increment(n, k)
    f = next(pf for pf in facets if pf.increment == chosen)
    g = next(pf for pf in facets if pf.increment != chosen)
    union_size = len(set(f.vertices) | set(g.vertices))
    generator_degree = n - k - 1
    gcd_degree = n - union_size
    sigma = generator_degree - gcd_degree
    assert sigma >= 2, "overlap bound violated: sigma-coefficient unexpectedly linear"
    return ObstructionWitness(n, k, f, g, generator_degree, gcd_degree, (sigma, sigma))
