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

Linear presentation is decided without that graph search.  An
equigenerated ideal of degree d in n variables is the dual ideal of the
pure complex D whose facets are the generator complements, of
dimension n - d - 1.  The ideal is linearly presented iff k[D] satisfies
Serre's (S2) (Yanagawa, J. Algebra 225 (2000); Terai's (S_r) form of
Eagon-Reiner), which holds iff every face link of dimension >= 1 is
connected, over every field: Reisner's test below degree 1, which
``homology._first_failures`` capped there runs.  Only the pairwise
intersections of facets with fewer than dim D vertices need a visit:
if lk F has dimension >= 1 and is disconnected, facets g1, g2 through F
in two of its components meet exactly in F, since a further common
vertex would join the components (for F empty, lk F is D and g1, g2
are disjoint).  So the capped walk visits those faces in
``_face_order``, sorted one size at a time, only as far as it goes, and
finds the first failing face of the full traversal.

Most (S2) complexes need no walk.  A shellable complex is
Cohen-Macaulay over every field (Bjorner; Stanley), so it satisfies
(S2) and its dual ideal is linearly presented.  When dim D >= 2,
``is_linearly_presented`` first runs the greedy shelling pass
(``_kernels.greedy_shelling``) on D in canonical order, as
``homology.cohen_macaulay_by_field`` runs it on a complex, and an order
it finds decides the ideal with no face visited.  A pass that stops at
a dead end decides nothing, and the walk runs on the complements in
generator order, so a witness is the one the walk alone finds.  A graph
(dim D = 1) gets no pass: its walk is one connectivity test.

``vdw sweep`` decides linear presentation with no pass, and keeps the
faces of the walk in an ``_S2Walk`` per column k: the facets of vdW(n, k) that avoid n are
those of vdW(n - 1, k), so the intersections and the facets holding
each face only grow, by the facets through n.

Every (S2) walk reports its first failing face F as ``(F, 0)``, a
Reisner failure in degree 0; only ``is_linearly_presented`` maps F to a
witness pair (i, j): i is the first facet containing F and j the first
facet containing F in another component of lk F, so i < j.  The two
facets meet exactly in F, so lcm(m_i, m_j) has degree n - |F| > d + 1
and the pair is not linear.  The generators dividing that lcm are the
facets containing F, and a linear pair among them is two facets sharing
a ridge, which lie in one component of lk F; so no path of linear pairs
joins i to j.
The reference the tests compare with, ``_linearly_presented_by_pairs``
in ``tests/conftest.py``, runs the graph search on every pair, in order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from heapq import heappop, heappush
from operator import or_
from typing import Iterable

from vdwcomplex import _kernels
from vdwcomplex.complexes import (
    SimplicialComplex,
    Vertices,
    _absorb,
    _canonical,
    _check_antichain,
    _check_universe,
    _component,
    _face_order,
    _pack_checked,
    unpack,
)
from vdwcomplex.homology import _first_failures
from vdwcomplex.vdw import (
    ProgressionFacet,
    _validate_params,
    max_increment,
    max_odd_increment,
    progression_facets,
)


@dataclass(frozen=True, init=False, repr=False)
class MonomialIdeal:
    """A squarefree monomial ideal given by its minimal generating supports.

    ``generator_masks`` holds the generators: pairwise non-dividing masks
    in canonical (lexicographic) order.  ``generators`` is the same list
    as strictly increasing vertex tuples, built on first read.
    ``MonomialIdeal(n, generators)`` takes that tuple form and rejects
    anything not canonical; use :meth:`from_supports` to minimalize an
    arbitrary generating set.
    """

    n: int
    generator_masks: tuple[int, ...]

    def __init__(self, n: int, generators: Iterable[Iterable[int]]) -> None:
        _check_universe(n)
        self._hold(n, tuple(_pack_checked(n, generators, "generator", increasing=True)))

    @classmethod
    def _from_masks(cls, n: int, masks: tuple[int, ...], fresh=None) -> "MonomialIdeal":
        """The ideal whose generator masks are ``masks``, validated as they are, or at ``fresh``."""
        ideal = cls.__new__(cls)
        ideal._hold(n, masks, fresh)
        return ideal

    def _hold(self, n: int, masks: tuple[int, ...], fresh=None) -> None:
        _check_antichain(n, masks, "generator", fresh)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generator_masks", masks)

    @cached_property
    def generators(self) -> tuple[Vertices, ...]:
        """The generator supports as vertex tuples, in canonical order."""
        return tuple(map(unpack, self.generator_masks))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n!r}, generators={self.generators!r})"

    @classmethod
    def from_supports(cls, n: int, supports) -> "MonomialIdeal":
        """Ideal generated by the monomials with these supports, minimalized."""
        _check_universe(n)
        full = (1 << n) - 1
        # the minimal supports are the complements of the maximal complements
        complements = _absorb(full ^ m for m in _pack_checked(n, supports, "support"))
        return cls._from_masks(n, _canonical(full ^ m for m in complements))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.generator_masks)

    @property
    def is_equigenerated(self) -> bool:
        return len({m.bit_count() for m in self.generator_masks}) <= 1

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

    No generator is validated again (``fresh=()``): the facets are a
    validated canonical antichain on 1..n, and their complements, taken
    in reverse, are one on the same universe.  Complementing reverses
    inclusion, and of two complements the earlier in the reversed list
    holds the lowest vertex where the facets differ.
    """
    if cx.is_void:
        raise ValueError("the void complex has no dual ideal")
    full = (1 << cx.n) - 1
    if cx.facet_masks == (full,):
        # only the full simplex complements to nothing
        return MonomialIdeal._from_masks(cx.n, ())
    return MonomialIdeal._from_masks(
        cx.n, tuple(full ^ m for m in reversed(cx.facet_masks)), fresh=()
    )


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

    Requires an equigenerated ideal.  This is Serre's (S2) on the
    complex D whose facets are the generator complements.  When
    dim D >= 2 and the greedy shelling pass finds an order of D, D is
    shellable, so Cohen-Macaulay, so (S2), and the ideal is linearly
    presented with no face visited.  Otherwise the first face, by
    dimension and then lexicographically, whose link has dimension >= 1
    and is disconnected is mapped to a witness pair (see the module
    docstring).
    """
    if not ideal.is_equigenerated:
        raise ValueError("linear presentation is defined for equigenerated ideals")
    masks = ideal.generator_masks
    if len(masks) <= 1:
        return LinearPresentationResult(True)
    full = (1 << ideal.n) - 1
    facets = [full & ~m for m in masks]  # D, in reverse canonical order
    dim = ideal.n - masks[0].bit_count() - 1
    if dim >= 2 and _kernels.greedy_shelling(facets[::-1]) is not None:
        return LinearPresentationResult(True)
    failure = _first_failures(facets, dim, [2], below=1)[2]  # (S2): over every field
    witness = None if failure is None else _witness_pair(facets, failure[0])
    return LinearPresentationResult(witness is None, witness)


def _witness_pair(facets, face: int) -> tuple[int, int]:
    """(i, j): the first facet through ``face``, and the first in another component of its link."""
    holders = [p for p, g in enumerate(facets) if g & face == face]
    link = [facets[p] ^ face for p in holders]
    reach = _component(link, link[0])
    return holders[0], next(p for p, m in zip(holders, link) if not m & reach)


class _S2Walk:
    """The (S2) walk, ``_first_failures`` below degree 1, over a complex gaining facets.

    ``facets`` is the list its owner appends the complex's facets to, in
    any order; a walk first folds in, once each, those past the first
    ``folded``.  ``unsure`` is a heap, in ``_face_order``, of the pairwise
    intersections with fewer than ``dim`` vertices whose links are not
    known to be connected; ``connected`` maps the others to their links'
    vertices.  A face gets its ``holders``, the folded facets containing
    it, when a walk first tests it, and ``walked`` indexes it under its
    lowest vertex bit (0 for the empty face), so a new facet h visits only
    walked faces it can hold.  An h that meets a connected link outside F
    keeps it connected; one that misses it sends F back to ``unsure``.  So
    the walk sees the faces, links and verdicts of the capped walk, and
    fails at the same face.  ``decompose._Column`` keeps one per sweep column.
    """

    def __init__(self, dim: int, facets: list[int]) -> None:
        self.dim, self.facets, self.folded = dim, facets, 0
        self.kept, self.unsure, self.connected, self.holders, self.walked = set(), [], {}, {}, {}

    def witness(self) -> tuple[int, int] | None:
        """The capped walk's failure ``(face, 0)`` on the facets folded, or None."""
        self._fold()
        unsure = self.unsure
        while unsure:
            face = unsure[0][1]
            held = self.holders.get(face)
            if held is None:
                held = self.holders[face] = [g for g in self.facets if g & face == face]
                self.walked.setdefault(face & -face, []).append(face)
            link = [g ^ face for g in held]
            union = reduce(or_, link, 0)
            if _component(link, union & -union) != union:
                return face, 0  # the face stays first
            self.connected[face] = union
            heappop(unsure)
        return None

    def _fold(self) -> None:
        facets, connected, kept = self.facets, self.connected, self.kept
        for i in range(self.folded, len(facets)):
            h = facets[i]
            rest, bits = h, [0]  # the empty face's index, then h's vertices
            while rest:
                bits.append(rest & -rest)
                rest ^= bits[-1]
            for bit in bits:
                for face in self.walked.get(bit, ()):
                    if h & face == face:
                        self.holders[face].append(h)
                        union = connected.get(face)
                        if union is not None and h & union:  # h - F meets the connected link
                            connected[face] = union | (h ^ face)
                        elif union is not None:
                            del connected[face]
                            heappush(self.unsure, (_face_order(face), face))
            for face in {h & g for g in facets[:i]}.difference(kept):
                if face.bit_count() < self.dim:
                    kept.add(face)
                    heappush(self.unsure, (_face_order(face), face))
        self.folded = len(facets)


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
    _validate_params(n, k)
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
