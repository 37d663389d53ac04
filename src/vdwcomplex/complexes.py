"""Facet-list simplicial complexes on the vertex universe {1, ..., n}.

Faces are sets of vertex indices, stored internally as bitmasks (bit v-1
set iff vertex v belongs to the face), so containment tests are single
machine-word operations.  A complex is represented by its facets: the
inclusion-maximal faces, kept as a canonically sorted antichain.

Two degenerate complexes are distinct values: the *void* complex (no
facets, not even the empty face) and the *empty* complex ``<()>`` whose
single facet is the empty face.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
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
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"vertex universe size must be a positive integer, got {n!r}")
    if n > MAX_VERTICES:
        raise ValueError(f"at most {MAX_VERTICES} vertices are supported, got n={n}")


def _check_antichain(n: int, members: tuple[Vertices, ...], noun: str) -> None:
    """Reject ``members`` unless it is a canonical antichain on 1..n.

    Canonical means: vertices in range, each member strictly increasing,
    members pairwise inclusion-incomparable and sorted lexicographically.
    ``noun`` ("facet", "generator") names a member in the messages.
    """
    masks = []
    for m in members:
        if any(not isinstance(v, int) or v < 1 or v > n for v in m):
            raise ValueError(f"{noun} {m} has vertices outside 1..{n}")
        if any(a >= b for a, b in zip(m, m[1:])):
            raise ValueError(f"{noun} {m} is not strictly increasing")
        masks.append(pack(m))
    # distinct members of one size are incomparable: a pure complex needs no pairwise test
    if len({len(m) for m in members}) > 1 or len(set(masks)) < len(masks):
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                if a & b == a or a & b == b:
                    raise ValueError(f"{noun}s must be pairwise inclusion-incomparable")
    if list(members) != sorted(members):
        raise ValueError(f"{noun}s must be sorted lexicographically")


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex given by its facet list.

    ``facets`` is a tuple of strictly increasing vertex tuples, pairwise
    inclusion-incomparable, sorted lexicographically.  Use
    :meth:`from_facets` to build one from arbitrary generating faces.
    """

    n: int
    facets: tuple[Vertices, ...]

    def __post_init__(self) -> None:
        _check_universe(self.n)
        _check_antichain(self.n, self.facets, "facet")

    # -- construction ------------------------------------------------

    @classmethod
    def from_facets(cls, n: int, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Complex generated by ``faces``; non-maximal faces are discarded."""
        _check_universe(n)
        masks = []
        for face in faces:
            fs = tuple(face)
            if any(not isinstance(v, int) or v < 1 or v > n for v in fs):
                raise ValueError(f"face {tuple(fs)} has vertices outside 1..{n}")
            masks.append(pack(fs))
        return cls._from_masks(n, masks)

    @classmethod
    def _from_masks(cls, n: int, masks: Iterable[int], antichain: bool = False) -> "SimplicialComplex":
        kept = list(masks) if antichain else _absorb(masks)
        return cls(n, tuple(sorted(unpack(m) for m in kept)))

    @classmethod
    def simplex(cls, n: int) -> "SimplicialComplex":
        """The full simplex on vertices 1..n."""
        return cls.from_facets(n, [range(1, n + 1)])

    # -- basic structure ---------------------------------------------

    @cached_property
    def facet_masks(self) -> tuple[int, ...]:
        return tuple(pack(f) for f in self.facets)

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
        if self.is_void:
            return None
        return max(len(f) for f in self.facets) - 1

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
        if not isinstance(x, int) or x < 1 or x > self.n:
            raise ValueError(f"vertex {x!r} out of range 1..{self.n}")
        return 1 << (x - 1)

    # -- local structure ---------------------------------------------

    def link(self, x: int) -> "SimplicialComplex":
        """Faces H avoiding x with H + {x} still a face, on the same universe.

        The void complex is returned when x lies in no face.
        """
        bit = self._check_vertex(x)
        masks = [m ^ bit for m in self.facet_masks if m & bit]
        # Facets containing x stay incomparable after removing x.
        return SimplicialComplex._from_masks(self.n, masks, antichain=True)

    def deletion(self, x: int) -> "SimplicialComplex":
        """All faces avoiding x, on the same universe."""
        bit = self._check_vertex(x)
        masks = [m & ~bit for m in self.facet_masks]
        return SimplicialComplex._from_masks(self.n, masks)

    def is_connected(self) -> bool:
        """True iff any two support vertices are joined through shared facets."""
        if self.is_void:
            raise ValueError("connectivity is undefined for the void complex")
        return _is_connected(self.facet_masks)

    # -- global structure --------------------------------------------

    def minimal_nonfaces(self) -> tuple[Vertices, ...]:
        """Inclusion-minimal subsets of 1..n contained in no facet.

        Candidates are enumerated by increasing cardinality up to
        dim + 2 (no minimal non-face can be larger), pruning supersets
        of non-faces already found.
        """
        if self.is_void:
            raise ValueError("the void complex has no non-face lattice")
        found: list[int] = []
        out: list[Vertices] = []
        max_size = min(self.n, (self.dim if self.dim is not None else -1) + 2)
        for size in range(1, max_size + 1):
            for combo in combinations(range(1, self.n + 1), size):
                cand = pack(combo)
                if any(nf & cand == nf for nf in found):
                    continue
                if not any(cand & fm == cand for fm in self.facet_masks):
                    found.append(cand)
                    out.append(combo)
        return tuple(sorted(out))

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
        masks = [full & ~pack(nf) for nf in nonfaces]
        return SimplicialComplex._from_masks(self.n, masks, antichain=True)

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
