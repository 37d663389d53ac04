"""Exact reduced simplicial homology and the Reisner Cohen-Macaulay test.

Homology is computed from integer boundary matrices of the augmented
chain complex (the empty face is a (-1)-chain, so Betti numbers are
reduced).  The chain complex and its check, boundary composed with
boundary vanishing, are ``certify``'s reference ones (``_chain_complex``,
``_assert_chain_complex``): one top-down pass yields the faces, the
signed sparse boundary columns and their mod-2 bitmasks.  Ranks are exact.
Cohen-Macaulayness is decided by Reisner's criterion: every face link
must have vanishing reduced homology below its dimension.

A pure complex of dimension >= 2 first gets one greedy shelling pass
(``_kernels.greedy_shelling``).  A shellable complex is Cohen-Macaulay
over every field (Bjorner; Stanley, *Combinatorics and Commutative
Algebra*, III.2), so an order the pass finds decides every field at
once, with no link measured.  The pass is exact only one way: a pass
that stops at a dead end decides nothing, and the walk below runs.  A
graph gets no pass, since its walk is one connectivity test, cheaper
than the pass.

Only links that can fail are measured.  A nonempty face F that is not an
intersection of facets has a vertex v in the intersection of the facets
containing F but not in F; every facet of lk F contains v, so lk F is a
cone and acyclic.

Each measured complex is first shrunk to its core (``_core``): one strip
of the dominated vertices, which keeps the reduced Betti numbers over
every field (Barmak-Minian, *Strong homotopy types, nerves and
collapses*, DCG 47, 2012).  A vertex v is dominated when the facets
holding v share some other vertex w; then lk v is a cone and deleting v
is a strong collapse.  Dominated vertices are deleted in rounds: each
round deletes every vertex still dominated by a vertex it keeps, since
v stays dominated while w is kept, and only the vertices of the facets
it cut are checked again, until no vertex is dominated.  A cone ends
as one vertex, so a link whose core is one simplex passes unmeasured.
A core of s facets with s - 1 vertices each on s vertices is the
boundary of a simplex, an (s - 2)-sphere, whose only reduced homology
is H~_(s-2) = 1 over every field, so it gets no chain complex either.
``reduced_homology`` ranks the core the same way, with no sphere rule;
``<()>``, which has no vertex, is kept as it is.

The Reisner walk (``_first_failures``) takes every requested field at
once.  Each link's core, chain complex, boundary check and mod-2 ranks
are computed once for all fields still passing, and a field drops out
at its first failing link.  The empty face comes first in the walk's
order, and its link is the complex itself, so it is tested before the
intersections of facets are built; a walk that ends there builds none,
and one that goes on sorts them one size at a time, as it reaches each.

Four more rules spare most links their elimination.  A 1-dimensional
link is a nonempty graph, so H~_-1 vanishes and H~_0 vanishes iff the
graph is connected, over every field; a connectivity test on masks
decides it.  A 2-dimensional link whose core is connected has
H~_-1 = H~_0 = 0 over every field, so its reduced Euler characteristic,
read off the core's face counts, is b~_2 - b~_1; a negative one forces
b~_1 > 0, and the link fails in degree 1 over every field with no chain
complex built (the Euler rule, ``_euler_fails``).  A characteristic of
0 or more decides nothing: RP^2's is 0, with H~_1 = F2 over F2 alone.
Over Q, each link is first measured mod 2 (the mod-2
filter): by universal coefficients dim H~_i(K; Q) <= dim H~_i(K; F2),
so a link with no mod-2 homology below its dimension passes.  More
precisely, a rational rank is at least the mod-2 rank, and the ranks of
the two boundary maps around a degree sum to at most its face count, so
a degree with no mod-2 homology pins both neighbouring rational ranks to
their mod-2 values.  A rational rank is needed only for a boundary map
whose two neighbouring degrees both have mod-2 homology, which happens
only in links that fail mod 2 (torsion such as RP^2's, or a witness
with homology in two adjacent degrees).  Odd p gets no mod-2 filter,
since mod-2 and mod-p Betti numbers cannot be compared.
Mod 2 is the cheapest field here: each sparse boundary column becomes
one int bitmask and rows are eliminated by XOR, with no dense matrix.
Ranks over Q and odd p start with unit pivots over Z
(``_kernels.rank_unit_pivots``; Dumas-Saunders-Villard, JSC 32, 2001):
pivoting only on +-1 entries is unimodular, so the pivots count towards
the rank over every field, and only the block they leave goes to
fraction-free or modular elimination.  They leave none in
``vdw sweep 40 --checks cm``, and always some where there is torsion.
The tests compare with ``_cohen_macaulay_naive`` (``tests/conftest.py``):
every face, its literal link, no core, no shortcut, dense elimination
(``certify._reduced_betti``), as ``certify.verify_cohen_macaulay_witness``
replays one witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from vdwcomplex import _kernels
from vdwcomplex.certify import (
    RATIONALS,
    _assert_chain_complex,
    _betti,
    _chain_complex,
    _dense_rank,
    field_label,
    parse_field,
)
from vdwcomplex.complexes import SimplicialComplex, _absorb, _in_face_order, _is_connected, unpack

@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers dim H~_i for i = -1 .. dim."""

    field: str
    betti: dict[int, int]

    def to_dict(self) -> dict:
        return {"field": self.field, "betti": {str(i): b for i, b in sorted(self.betti.items())}}


@dataclass(frozen=True)
class CohenMacaulayResult:
    value: bool
    field: str
    witness_face: tuple[int, ...] | None = None
    witness_degree: int | None = None

    def __bool__(self) -> bool:
        return self.value

    def to_dict(self) -> dict:
        return {
            "cohen_macaulay": self.value,
            "field": self.field,
            "witness_face": list(self.witness_face) if self.witness_face is not None else None,
            "witness_degree": self.witness_degree,
        }


def _facet_intersections(facet_masks) -> set[int]:
    """The empty face and every intersection of a nonempty set of facets."""
    closed = {0}
    for g in facet_masks:  # closed: the intersections of the facets before g
        closed |= {m & g for m in closed}
        closed.add(g)
    return closed


def _core(facet_masks) -> list[int]:
    """A facet list with the reduced Betti numbers of ``facet_masks`` over every field.

    Dominated vertices are deleted until none is left.  A vertex v is
    dominated when the AND of the facets holding v is more than v: every
    such facet also holds some w != v, and deleting v is a strong
    collapse, which keeps the homotopy type.  Each round checks the
    vertices in turn, deletes every one dominated by a vertex not deleted
    so far, then cuts the deleted vertices from their facets and absorbs.
    The round is a sequence of strong collapses: a vertex dominated by w
    stays dominated while w is kept, domination is transitive, and of
    each set of vertices with the same facets that no vertex with more
    facets dominates, the last one checked is kept; so every deleted
    vertex is still dominated by a kept one.  Only the vertices of cut
    facets change holders, so only they are checked in the next round.
    A cone ends as one vertex; ``<()>``, which has no vertex, is kept.
    """
    facets = list(facet_masks)
    check = 0
    for m in facets:
        check |= m
    while True:
        deleted = 0
        while check:
            bit = check & -check
            check ^= bit
            common = -1
            for m in facets:
                if m & bit:
                    common &= m
            if (common ^ bit) & ~deleted:
                deleted |= bit
        if not deleted:
            return facets
        keep = ~deleted
        kept = []  # the facets holding no deleted vertex: still an antichain
        cuts = set()
        for m in facets:
            if m & deleted:
                check |= m
                cuts.add(m & keep)
            else:
                kept.append(m)
        check &= keep
        # no kept facet lies in a cut one, so only cut facets can be absorbed
        facets = kept + [c for c in _absorb(cuts) if not any(c & g == c for g in kept)]


def _betti_per_field(facet_masks, chars) -> dict[int, dict[int, int]]:
    """Reduced Betti numbers of a nonvoid facet list over each field in ``chars``.

    The chain complex is built and checked once for all fields, and its
    boundaries are ranked mod 2 once when Q or F2 is asked for.  Over Q
    only the boundary maps that the mod-2 filter (module docstring)
    leaves open get a rational rank.  Ranks over Q and odd p go through
    unit pivots first (``_rank``).
    """
    levels, boundaries, masks = _chain_complex(facet_masks)
    counts = [len(level) for level in levels]  # counts[c] = #(c-1)-dim faces
    _assert_chain_complex(boundaries)
    out = {}
    if 2 in chars or RATIONALS in chars:  # no dense matrix
        ranks = [_kernels.rank_mod_2_masks(column_masks) for column_masks in masks]
        mod_2 = out[2] = _betti(counts, ranks)
        if RATIONALS in chars:
            for j, columns in enumerate(boundaries):
                if mod_2[j] and mod_2[j - 1]:
                    ranks[j] = _rank(columns, RATIONALS)
            out[RATIONALS] = _betti(counts, ranks)
    for char in chars:
        if char not in out:
            out[char] = _betti(counts, [_rank(columns, char) for columns in boundaries])
    return out


def _rank(columns, char: int) -> int:
    """Rank of signed sparse columns over Q (``char`` 0) or F_p for odd p.

    Unit pivots over Z come first; only the block they leave, if any,
    goes to dense elimination.
    """
    rank, rest = _kernels.rank_unit_pivots(columns)
    return rank + _dense_rank([column.items() for column in rest], char)


def _sphere_degree(facet_masks) -> int | None:
    """s - 2 when the facets are the s faces of s - 1 vertices of an s-set, else None.

    That complex is the boundary of a simplex, the (s - 2)-sphere, whose
    only reduced homology over every field is H~_(s-2) of dimension 1.
    """
    support = 0
    for m in facet_masks:
        support |= m
    s = support.bit_count()
    if len(facet_masks) == s and all(m.bit_count() == s - 1 for m in facet_masks):
        return s - 2
    return None


def reduced_homology(cx: SimplicialComplex, field="Q") -> HomologyProfile:
    """Reduced Betti numbers of a nonvoid complex over Q or F_p, in degrees -1 .. dim.

    They are measured on the complex's core (``_core``: its dominated
    vertices stripped) with the Reisner walk's ranks
    (``_betti_per_field``); a degree the core does not reach has Betti
    number 0.
    """
    if cx.is_void:
        raise ValueError("reduced homology of the void complex is undefined")
    char = parse_field(field)
    betti = _betti_per_field(_core(cx.facet_masks), [char])[char]
    return HomologyProfile(field_label(char), {i: betti.get(i, 0) for i in range(-1, cx.dim + 1)})


def _first_failures(facet_masks, dim: int, chars) -> dict[int, tuple[int, int] | None]:
    """Per field in ``chars``, the first face whose link fails Reisner's test, or None.

    ``facet_masks`` is a pure complex of dimension ``dim``.  The link of
    a face F fails in degree i when H~_i(lk F) != 0 for some
    i < dim lk F; a failure is reported as ``(face mask, i)``.  Faces
    are visited by increasing dimension, then lexicographically, once for
    all fields: only the empty face and intersections of facets with
    fewer than ``dim`` vertices (any other link is a cone or has
    dimension < 1), so a graph's walk visits the empty face alone.  The
    empty face comes first, and the intersections are built
    (``_walk_faces``) only if the walk gets past it, then sorted one size
    at a time as the walk reaches each.  A 1-dimensional
    link is decided by connectivity, for every field at once; any other
    is reduced to its core, passes if that is one simplex, fails or
    passes by its one Betti number if that is the boundary of a simplex,
    fails in degree 1 over every field by the Euler rule
    (``_euler_fails``) if it is 2-dimensional, and is otherwise measured
    over every field still passing (``_betti_per_field``).  A field
    leaves the walk at its first failure, and the walk ends when no
    field is left.
    """
    failures: dict[int, tuple[int, int] | None] = dict.fromkeys(chars)
    pending = list(failures)
    if not pending:
        return failures
    for fmask in _walk_faces(facet_masks, dim):
        link = [g ^ fmask for g in facet_masks if g & fmask == fmask]
        link_dim = dim - fmask.bit_count()
        if link_dim == 1:  # a nonempty graph: only H~_0 can fail
            if _is_connected(link):
                continue
            for char in pending:
                failures[char] = fmask, 0
            break
        core = _core(link)
        if len(core) == 1:  # a nonempty simplex: acyclic
            continue
        sphere = _sphere_degree(core)
        if sphere is not None:
            if sphere < link_dim:
                for char in pending:
                    failures[char] = fmask, sphere
                break
            continue
        if link_dim == 2 and _euler_fails(core):
            for char in pending:
                failures[char] = fmask, 1
            break
        bettis = _betti_per_field(core, pending)
        for char in pending:
            degree = next((i for i in range(-1, link_dim) if bettis[char].get(i, 0)), None)
            if degree is not None:
                failures[char] = fmask, degree
        pending = [char for char in pending if failures[char] is None]
        if not pending:
            break
    return failures


def _walk_faces(facet_masks, dim: int):
    """The faces ``_first_failures`` visits, in ``_face_order``, the empty face first.

    The other faces, the intersections of facets with fewer than ``dim``
    vertices, are built only when the walk asks for the second face, and
    sorted one size at a time as the walk reaches it (``_in_face_order``);
    a graph (``dim`` 1) has none.
    """
    if dim < 1:
        return
    yield 0
    if dim > 1:
        closure = _facet_intersections(facet_masks)
        closure.discard(0)
        yield from _in_face_order(closure, dim)


def _euler_fails(core) -> bool:
    """True when a link's core of dimension <= 2 has reduced Euler characteristic < 0 and is connected.

    Such a core has H~_-1 = H~_0 = 0 over every field, so its reduced
    Euler characteristic is b~_2 - b~_1, and a negative one forces
    b~_1 > 0: the link fails in degree 1 over every field.
    """
    support = triangles = 0
    edges = set()
    for m in core:  # the core is 2-dimensional at most
        support |= m
        size = m.bit_count()
        if size == 3:
            triangles += 1
            rest = m
            while rest:
                bit = rest & -rest
                rest ^= bit
                edges.add(m ^ bit)
        elif size == 2:
            edges.add(m)
    return support.bit_count() - len(edges) + triangles - 1 < 0 and _is_connected(core)


def _result(char: int, failure: tuple[int, int] | None) -> CohenMacaulayResult:
    if failure is None:
        return CohenMacaulayResult(True, field_label(char))
    fmask, degree = failure
    return CohenMacaulayResult(False, field_label(char), unpack(fmask), degree)


def cohen_macaulay_by_field(cx: SimplicialComplex, fields) -> list[CohenMacaulayResult]:
    """The Reisner test over several fields in one walk: one result per field, in order.

    A pure complex of dimension >= 2 for which the greedy shelling pass
    (``_kernels.greedy_shelling``) finds an order is shellable, so
    Cohen-Macaulay over every field, and gets no walk.  Otherwise faces
    are visited once; each link's core, chain complex and mod-2
    ranks are computed once for every field still passing, and a field
    stops at its first failing link (see ``_first_failures``).  Each
    result, witness included, is the one the traversal of every face
    and its literal link finds (``_cohen_macaulay_naive`` in the tests).  ``fields``
    is a list of field descriptors; a string is refused, since it would
    be read one character at a time.
    """
    if isinstance(fields, str):
        raise ValueError(f"fields must be a list of field descriptors, such as [{fields!r}]")
    if cx.is_void:
        raise ValueError("Cohen-Macaulayness of the void complex is undefined")
    chars = [parse_field(field) for field in fields]
    if not cx.is_pure:
        return [CohenMacaulayResult(False, field_label(char)) for char in chars]
    if cx.dim >= 2 and _kernels.greedy_shelling(list(cx.facet_masks)) is not None:
        return [CohenMacaulayResult(True, field_label(char)) for char in chars]
    failures = _first_failures(cx.facet_masks, cx.dim, chars)
    return [_result(char, failures[char]) for char in chars]


def is_cohen_macaulay(cx: SimplicialComplex, field="Q") -> CohenMacaulayResult:
    """Reisner test: every face link is homology-trivial below its dimension.

    This is ``cohen_macaulay_by_field`` for one field.  Nonpure
    complexes are rejected immediately (Cohen-Macaulay complexes are
    pure).  Faces are visited by increasing dimension, then
    lexicographically, and the first failing link is reported as a
    witness: only the empty face and intersections of facets are
    visited, since the link of any other face is a cone, and the
    shortcuts of ``_first_failures`` and the greedy shelling pass are
    exact, so the witness is the one the full traversal finds.
    """
    return cohen_macaulay_by_field(cx, [field])[0]
