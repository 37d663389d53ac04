"""Facet-list simplicial complexes on the vertex universe {1, ..., n}.

Faces are sets of vertex indices, stored as bitmasks (bit v-1 set iff
vertex v belongs to the face), so containment tests are single
machine-word operations.  A complex is represented by its facets: the
inclusion-maximal faces, kept as a canonical antichain of masks.  The
masks are the stored form; the vertex tuples of ``facets`` are a view
built from them on first read.

This module owns that face format for the whole package: it packs and
checks vertex input from callers (:func:`_pack_checked`, the one
tuple-checking path), keeps the maximal members of a family
(:func:`_absorb`), puts masks in canonical order (:func:`_canonical`),
orders faces for the link walks (:func:`_face_order`, and
:func:`_in_face_order`, which sorts one size at a time) and validates
canonical antichains of masks (:func:`_check_antichain`), which every
complex and ideal passes, however it was built.

Canonical order is the lexicographic order of the vertex tuples.  In an
antichain no member is a prefix of another, so of two members the one
holding the lowest vertex where they differ comes first.  Removing a
vertex from members that all hold it keeps that order, and complementing
every member of an antichain reverses it.

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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

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
    while mask:  # one step per set bit, lowest first
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _pack_checked(
    n: int, members: Iterable[Iterable[int]], noun: str, increasing: bool = False
) -> list[int]:
    """Masks of ``members``; reject a vertex that is not an integer in 1..n, naming the ``noun``.

    With ``increasing``, also reject a member that is not strictly increasing.
    """
    masks = []
    for m in members:
        m = tuple(m)
        mask = 0
        for v in m:
            if isinstance(v, bool) or not isinstance(v, int) or not 0 < v <= n:
                raise ValueError(f"{noun} {m}: vertices must be integers in 1..{n}")
            mask |= 1 << (v - 1)
        if increasing and any(a >= b for a, b in zip(m, m[1:])):
            raise ValueError(f"{noun} {m} is not strictly increasing")
        masks.append(mask)
    return masks


# each byte's complement with its bit order reversed
_REVERSED_COMPLEMENT = bytes(int(format(b ^ 0xFF, "08b")[::-1], 2) for b in range(256))


def _lex_order(mask: int) -> bytes:
    """Sort key of a member of an antichain: lexicographic by vertex tuple.

    The member holding the lowest vertex where two differ comes first.
    Reversing the bit order of the complement (bytes in reverse order,
    bits within each byte by table) turns that vertex into the first
    differing bit, clear in the smaller key.
    """
    return mask.to_bytes(MAX_VERTICES // 8, "little").translate(_REVERSED_COMPLEMENT)


def _canonical(masks: Iterable[int]) -> tuple[int, ...]:
    """The members of an antichain ``masks`` in canonical (lexicographic) order."""
    return tuple(sorted(masks, key=_lex_order))


def _face_order(mask: int) -> int:
    """Sort key of a face: by size, then lexicographically (see :func:`_lex_order`)."""
    word = mask.to_bytes(MAX_VERTICES // 8, "little").translate(_REVERSED_COMPLEMENT)
    return mask.bit_count() << MAX_VERTICES | int.from_bytes(word, "big")


def _in_face_order(faces: Iterable[int], below: int) -> Iterator[int]:
    """The faces with fewer than ``below`` vertices, in ``_face_order``.

    They are bucketed by size, and a bucket is sorted only when the
    caller reads that far, so a walk that stops early sorts no larger
    face.  Single vertices sort as ints, which is their lexicographic
    order.
    """
    buckets: list[list[int]] = [[] for _ in range(below)]
    for m in faces:
        size = m.bit_count()
        if size < below:
            buckets[size].append(m)
    for size, bucket in enumerate(buckets):
        yield from sorted(bucket) if size < 2 else sorted(bucket, key=_lex_order)


def _absorb(masks: Iterable[int]) -> list[int]:
    """Inclusion-maximal members of a family of face masks.

    After ``set()``, a face can lie only in a strictly larger one, and faces
    come by decreasing size: only those kept before m's size can hold m.
    """
    uniq = sorted(set(masks), key=int.bit_count, reverse=True)
    if len(uniq) < 2:  # the most common family in the link walks: nothing to compare
        return uniq
    kept: list[int] = []
    larger: tuple[int, ...] = ()
    size = -1
    for m in uniq:
        if m.bit_count() != size:
            size = m.bit_count()
            larger = tuple(kept)
        if not any(m & k == m for k in larger):
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
    """True iff the union of the faces ``masks`` is connected through shared vertices.

    One pass: ``parts`` holds the vertex masks of the components of the
    faces seen so far, and each nonempty face merges every part it meets.
    """
    parts: list[int] = []
    for m in masks:
        if m:
            apart = []
            for p in parts:
                if p & m:
                    m |= p
                else:
                    apart.append(p)
            apart.append(m)
            parts = apart
    return len(parts) <= 1


def _check_universe(n: int) -> None:
    """Reject a vertex universe size outside 1..MAX_VERTICES."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"vertex universe size must be a positive integer, got {n!r}")
    if n > MAX_VERTICES:
        raise ValueError(f"at most {MAX_VERTICES} vertices are supported, got n={n}")


def _check_antichain(n: int, masks: tuple[int, ...], noun: str, fresh=None) -> None:
    """Reject ``masks`` unless it is a canonical antichain on 1..n.

    Canonical means: vertices in range, members pairwise
    inclusion-incomparable and in lexicographic order.  ``noun``
    ("facet", "generator") names a member in the messages.

    ``fresh`` lists the increasing positions of members added to a pure
    canonical antichain: only they are checked, for range, and for size and
    strict order against both neighbours, which keeps the whole list so.
    An empty ``fresh`` checks no member: the caller holds the list to be a
    canonical antichain already, pure or not.
    """
    _check_universe(n)
    if fresh is not None:
        if any(masks[p] >> n for p in fresh):
            raise ValueError(f"added {noun}s must have their vertices in 1..{n}")
        for p in fresh:
            near = masks[max(p - 1, 0) : p + 2]
            for a, b in zip(near, near[1:]):
                if a.bit_count() != b.bit_count() or not (a ^ b) & -(a ^ b) & a:
                    raise ValueError(f"added {noun}s must be of one size and in order")
        return
    if any(m >> n for m in masks):
        raise ValueError(f"{noun}s must have their vertices in 1..{n}")
    # distinct members of one size are incomparable: a pure complex needs no pairwise test
    if len({m.bit_count() for m in masks}) > 1 or len(set(masks)) < len(masks):
        if len(_absorb(masks)) < len(masks):
            raise ValueError(f"{noun}s must be pairwise inclusion-incomparable")
    # of two members of an antichain, the earlier holds the lowest vertex where they differ
    if not all((a ^ b) & -(a ^ b) & a for a, b in zip(masks, masks[1:])):
        raise ValueError(f"{noun}s must be sorted lexicographically")


@dataclass(frozen=True, init=False, repr=False)
class SimplicialComplex:
    """A simplicial complex given by its facet list.

    ``facet_masks`` holds the facets: pairwise inclusion-incomparable
    masks in canonical (lexicographic) order.  ``facets`` is the same
    list as strictly increasing vertex tuples, built on first read.
    ``SimplicialComplex(n, facets)`` takes that tuple form and rejects
    anything not canonical; use :meth:`from_facets` to build one from
    arbitrary generating faces.
    """

    n: int
    facet_masks: tuple[int, ...]

    def __init__(self, n: int, facets: Iterable[Iterable[int]]) -> None:
        _check_universe(n)
        self._hold(n, tuple(_pack_checked(n, facets, "facet", increasing=True)))

    @classmethod
    def _from_masks(cls, n: int, masks: tuple[int, ...], fresh=None) -> "SimplicialComplex":
        """The complex whose facet masks are ``masks``, validated as they are, or at ``fresh``."""
        cx = cls.__new__(cls)
        cx._hold(n, masks, fresh)
        return cx

    def _hold(self, n: int, masks: tuple[int, ...], fresh=None) -> None:
        _check_antichain(n, masks, "facet", fresh)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facet_masks", masks)

    @cached_property
    def facets(self) -> tuple[Vertices, ...]:
        """The facets as vertex tuples, in canonical order."""
        return tuple(map(unpack, self.facet_masks))

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n!r}, facets={self.facets!r})"

    # -- construction ------------------------------------------------

    @classmethod
    def from_facets(cls, n: int, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Complex generated by ``faces``; non-maximal faces are discarded."""
        _check_universe(n)
        return cls._from_masks(n, _canonical(_absorb(_pack_checked(n, faces, "face"))))

    @classmethod
    def simplex(cls, n: int) -> "SimplicialComplex":
        """The full simplex on vertices 1..n."""
        return cls.from_facets(n, [range(1, n + 1)])

    # -- basic structure ---------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facet_masks

    @property
    def is_empty(self) -> bool:
        """True for the empty complex ``<()>`` (single empty facet)."""
        return self.facet_masks == (0,)

    @cached_property
    def dim(self) -> int | None:
        """Max facet dimension; None for the void complex; -1 for ``<()>``."""
        return max(m.bit_count() for m in self.facet_masks) - 1 if self.facet_masks else None

    @cached_property
    def is_pure(self) -> bool:
        """True iff all facets share one dimension (void and ``<()>`` are pure)."""
        return len({m.bit_count() for m in self.facet_masks}) <= 1

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
        # facets containing x stay incomparable, and in order, after removing x
        return SimplicialComplex._from_masks(
            self.n, tuple(m ^ bit for m in self.facet_masks if m & bit)
        )

    def deletion(self, x: int) -> "SimplicialComplex":
        """All faces avoiding x, on the same universe."""
        bit = self._check_vertex(x)
        return SimplicialComplex._from_masks(
            self.n, _canonical(_absorb(m & ~bit for m in self.facet_masks))
        )

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
        return tuple(map(unpack, _canonical(self._minimal_nonface_masks())))

    def _minimal_nonface_masks(self) -> list[int]:
        """The masks of :meth:`minimal_nonfaces`, in no particular order."""
        if self.is_void:
            raise ValueError("the void complex has no non-face lattice")
        transversals = [0]
        for f in self.facet_masks:
            gap = [1 << i for i in range(self.n) if not f >> i & 1]  # the complement, by vertex
            kept = [t for t in transversals if t & ~f]
            missed = ((t, {h & ~t for h in kept}) for t in transversals if not t & ~f)
            transversals = kept + [t | v for t, outside in missed for v in gap if v not in outside]
        return transversals

    def alexander_dual(self) -> "SimplicialComplex":
        """Complex whose facets are complements of the minimal non-faces.

        The dual of the full simplex has no facets; the void complex is
        returned (with a warning) in that case.
        """
        if self.is_void:
            raise ValueError("the void complex has no Alexander dual")
        nonfaces = self._minimal_nonface_masks()
        if not nonfaces:
            warnings.warn(
                "Alexander dual of the full simplex is the void complex",
                RuntimeWarning,
                stacklevel=2,
            )
            return SimplicialComplex._from_masks(self.n, ())
        full = (1 << self.n) - 1
        # complements of an antichain form an antichain
        return SimplicialComplex._from_masks(self.n, _canonical(full ^ t for t in nonfaces))

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
