"""Facet-list simplicial complexes on the vertex universe {1, ..., n}.

Faces are sets of vertex indices, stored internally as bitmasks (bit v-1
set iff vertex v belongs to the face), so containment tests are single
machine-word operations.  A complex is represented by its facets: the
inclusion-maximal faces, kept as a canonically sorted antichain.

This module owns that face format for the whole package: it packs vertex
input into masks after checking it (:func:`_pack_checked`), keeps the
maximal members of a family (:func:`_absorb`), puts masks in canonical
order (:func:`_canonical`), orders faces for the link walks
(:func:`_face_order`) and validates canonical antichains
(:func:`_check_antichain`), whose masks the constructors keep.

Two degenerate complexes are distinct values: the *void* complex (no
facets, not even the empty face) and the *empty* complex ``<()>`` whose
single facet is the empty face.

Minimal non-faces are the minimal transversals of the facet complements, by
Berge's recurrence: an extension t | v of a transversal can only contain a kept
h with h - t == {v}, and two extensions never contain one another.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

MAX_VERTICES = 64

Vertices = tuple[int, ...]


def pack(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex set (bit v-1 <-> vertex v)."""
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def unpack(mask: int) -> Vertices:
    """Sorted vertex tuple of a bitmask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _pack_checked(n: int, members: Iterable[Iterable[int]], noun: str) -> list[int]:
    """Masks of ``members``; reject a vertex that is not an integer in 1..n, naming the ``noun``."""
    masks = []
    for m in members:
        mask = 0
        for v in m:
            if isinstance(v, bool) or not isinstance(v, int) or not 0 < v <= n:
                raise ValueError(f"{noun} {tuple(m)}: vertices must be integers in 1..{n}")
            mask |= 1 << (v - 1)
        masks.append(mask)
    return masks


def _canonical(masks: Iterable[int]) -> tuple[Vertices, ...]:
    """The faces ``masks`` as vertex tuples, in canonical (lexicographic) order."""
    return tuple(sorted(unpack(m) for m in masks))


# each byte's complement with its bit order reversed
_REVERSED_COMPLEMENT = bytes(int(format(b ^ 0xFF, "08b")[::-1], 2) for b in range(256))


def _face_order(mask: int) -> int:
    """Sort key of a face: by size, then lexicographically by vertex tuple.

    Of two faces of one size, the one holding the lowest vertex where
    they differ comes first.  Reversing the bit order of the complement
    (bytes in reverse order, bits within each byte by table) turns that
    vertex into the highest differing bit, held by the smaller key.
    """
    word = mask.to_bytes(MAX_VERTICES // 8, "little").translate(_REVERSED_COMPLEMENT)
    return mask.bit_count() << MAX_VERTICES | int.from_bytes(word, "big")


def _absorb(masks: Iterable[int]) -> list[int]:
    """Inclusion-maximal members of a family of face masks."""
    uniq = sorted(set(masks), key=lambda m: m.bit_count(), reverse=True)
    kept: list[int] = []
    for m in uniq:
        if not any(m & k == m for k in kept):
            kept.append(m)
    return kept


def _component(masks: Iterable[int], seed: int) -> int:
    """Union of ``seed`` and the faces in ``masks`` joined to it through shared vertices."""
    reach = seed
    rest = [m for m in masks if m]
    grew = True
    while grew:
        grew = False
        apart = []
        for m in rest:
            if m & reach:
                reach |= m
                grew = True
            else:
                apart.append(m)
        rest = apart
    return reach


def _is_connected(masks: Iterable[int]) -> bool:
    """True iff the union of the faces ``masks`` is connected through shared vertices."""
    masks = list(masks)
    union = 0
    for m in masks:
        union |= m
    return _component(masks, union & -union) == union


def _check_universe(n: int) -> None:
    """Reject a vertex universe size outside 1..MAX_VERTICES."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"vertex universe size must be a positive integer, got {n!r}")
    if n > MAX_VERTICES:
        raise ValueError(f"at most {MAX_VERTICES} vertices are supported, got n={n}")


def _check_antichain(n: int, members: tuple[Vertices, ...], noun: str) -> tuple[int, ...]:
    """Masks of ``members``; reject it unless it is a canonical antichain on 1..n.

    Canonical means: vertices in range, each member strictly increasing,
    members pairwise inclusion-incomparable and sorted lexicographically.
    ``noun`` ("facet", "generator") names a member in the messages.
    """
    masks = tuple(_pack_checked(n, members, noun))
    for m in members:
        if any(a >= b for a, b in zip(m, m[1:])):
            raise ValueError(f"{noun} {m} is not strictly increasing")
    # distinct members of one size are incomparable: a pure complex needs no pairwise test
    if len({len(m) for m in members}) > 1 or len(set(masks)) < len(masks):
        if len(_absorb(masks)) < len(masks):
            raise ValueError(f"{noun}s must be pairwise inclusion-incomparable")
    if list(members) != sorted(members):
        raise ValueError(f"{noun}s must be sorted lexicographically")
    return masks


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex given by its facet list.

    ``facets`` is a tuple of strictly increasing vertex tuples, pairwise
    inclusion-incomparable, sorted lexicographically.  Use
    :meth:`from_facets` to build one from arbitrary generating faces.
    ``facet_masks`` holds the facets as the masks that validated them.
    """

    n: int
    facets: tuple[Vertices, ...]
    facet_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_universe(self.n)
        object.__setattr__(self, "facet_masks", _check_antichain(self.n, self.facets, "facet"))

    # -- construction ------------------------------------------------

    @classmethod
    def from_facets(cls, n: int, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Complex generated by ``faces``; non-maximal faces are discarded."""
        _check_universe(n)
        return cls(n, _canonical(_absorb(_pack_checked(n, faces, "face"))))

    @classmethod
    def simplex(cls, n: int) -> "SimplicialComplex":
        """The full simplex on vertices 1..n."""
        return cls.from_facets(n, [range(1, n + 1)])

    # -- basic structure ---------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_empty(self) -> bool:
        """True for the empty complex ``<()>`` (single empty facet)."""
        return self.facets == ((),)

    @property
    def dim(self) -> int | None:
        """Max facet dimension; None for the void complex; -1 for ``<()>``."""
        return max((len(f) - 1 for f in self.facets), default=None)

    @property
    def is_pure(self) -> bool:
        """True iff all facets share one dimension (void and ``<()>`` are pure)."""
        return len({len(f) for f in self.facets}) <= 1

    @cached_property
    def support(self) -> Vertices:
        """Vertices appearing in some facet, sorted."""
        mask = 0
        for m in self.facet_masks:
            mask |= m
        return unpack(mask)

    def _check_vertex(self, x: int) -> int:
        return _pack_checked(self.n, [(x,)], "vertex")[0]

    # -- local structure ---------------------------------------------

    def link(self, x: int) -> "SimplicialComplex":
        """Faces H avoiding x with H + {x} still a face, on the same universe.

        The void complex is returned when x lies in no face.
        """
        bit = self._check_vertex(x)
        # Facets containing x stay incomparable after removing x.
        return SimplicialComplex(self.n, _canonical(m ^ bit for m in self.facet_masks if m & bit))

    def deletion(self, x: int) -> "SimplicialComplex":
        """All faces avoiding x, on the same universe."""
        bit = self._check_vertex(x)
        return SimplicialComplex(self.n, _canonical(_absorb(m & ~bit for m in self.facet_masks)))

    def is_connected(self) -> bool:
        """True iff any two support vertices are joined through shared facets."""
        if self.is_void:
            raise ValueError("connectivity is undefined for the void complex")
        return _is_connected(self.facet_masks)

    # -- global structure --------------------------------------------

    def minimal_nonfaces(self) -> tuple[Vertices, ...]:
        """Inclusion-minimal subsets of 1..n contained in no facet.

        These are the minimal sets meeting every facet's complement, built one
        complement at a time (Berge).  A transversal t meeting the next one is
        kept; one missing it grows to t | v for each v in it, unless t | v holds
        a kept h.  As t is minimal so far, no kept h lies inside t, so that means
        h - t == {v}.  No extension contains another: no other check is needed.
        """
        if self.is_void:
            raise ValueError("the void complex has no non-face lattice")
        transversals = [0]
        for f in self.facet_masks:
            gap = [1 << i for i in range(self.n) if not f >> i & 1]  # the complement, by vertex
            kept = [t for t in transversals if t & ~f]
            missed = ((t, {h & ~t for h in kept}) for t in transversals if not t & ~f)
            transversals = kept + [t | v for t, outside in missed for v in gap if v not in outside]
        return _canonical(transversals)

    def alexander_dual(self) -> "SimplicialComplex":
        """Complex whose facets are complements of the minimal non-faces.

        The dual of the full simplex has no facets; the void complex is
        returned (with a warning) in that case.
        """
        if self.is_void:
            raise ValueError("the void complex has no Alexander dual")
        nonfaces = self.minimal_nonfaces()
        if not nonfaces:
            warnings.warn(
                "Alexander dual of the full simplex is the void complex",
                RuntimeWarning,
                stacklevel=2,
            )
            return SimplicialComplex(self.n, ())
        full = (1 << self.n) - 1
        # complements of an antichain form an antichain
        return SimplicialComplex(self.n, _canonical(full & ~pack(nf) for nf in nonfaces))

    # -- serialization -----------------------------------------------

    def to_dict(self) -> dict:
        return {"n": self.n, "facets": [list(f) for f in self.facets]}

    def to_json(self) -> str:
        """Canonical compact JSON; facet order is the canonical one."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "SimplicialComplex":
        """Complex from ``{"n": int, "facets": [[int, ...], ...]}``."""
        if not isinstance(data, dict) or "n" not in data or "facets" not in data:
            raise ValueError('a complex must be an object with keys "n" and "facets"')
        facets = data["facets"]
        if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
            raise ValueError('"facets" must be a list of vertex lists')
        return cls.from_facets(data["n"], facets)

    @classmethod
    def from_json(cls, text: str) -> "SimplicialComplex":
        return cls.from_dict(json.loads(text))
