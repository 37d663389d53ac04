"""Certificates, their replays, and the exact reference homology they measure with.

Shedding trees replay under :func:`verify_shedding_tree`, shelling orders
under :func:`verify_shelling`, Reisner witnesses (a face whose link
has reduced homology below its dimension) under
:func:`verify_cohen_macaulay_witness`, and (S2) witness pairs (two facets
in different components of the link of their intersection) under
:func:`verify_s2_witness`, on the literal link.  A replay
trusts no decider: from the package this module imports only
``complexes`` and ``_kernels``, and the deciders import from it.  The
reference homology checks that boundary composed with boundary vanishes
and ranks every map exactly: F2 by XOR on bitmasks, Q and odd p as dense
matrices, with no core, mod-2 filter or unit pivots.  The field
descriptors live here, since a replay reads a result's ``field``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from vdwcomplex import _kernels
from vdwcomplex.complexes import MAX_VERTICES, SimplicialComplex, _component, _pack_checked

RATIONALS = 0
_PRIME_DESCRIPTOR = re.compile(r"[Ff](?:[Pp]:)?([0-9]+)")  # F<p> or Fp:<p>


def parse_field(field) -> int:
    """Normalize a field descriptor to 0 (rationals) or a prime p.

    Accepts 0/None, a prime integer, or the strings "Q", "QQ", "0",
    "F<p>" and "Fp:<p>" (the letters F and p in either case).
    """
    if field is None:
        return RATIONALS
    if isinstance(field, int) and not isinstance(field, bool):
        if field == RATIONALS:
            return RATIONALS
        if field >= _PRIME_LIMIT:
            raise ValueError(f"prime fields are supported for p < 2**64, got {field}")
        if not _is_prime(field):
            raise ValueError(f"{field} is not prime")
        return field
    if isinstance(field, str):
        text = field.strip()
        if text in ("Q", "QQ", "0"):
            return RATIONALS
        prime = _PRIME_DESCRIPTOR.fullmatch(text)
        if prime and int(prime[1]):  # "F0" is no field
            return parse_field(int(prime[1]))
    raise ValueError(f"unrecognized field descriptor {field!r}; use Q, F2 or Fp:<p>")


def field_label(char: int) -> str:
    return "Q" if char == RATIONALS else f"Fp:{char}"


# Miller-Rabin with these bases is deterministic below 2**64.
_PRIME_LIMIT = 1 << 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Exact primality test for 0 <= p < 2**64."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _chain_complex(facet_masks) -> tuple[list[list[int]], list, list[list[int]]]:
    """The augmented chain complex of a nonvoid antichain, in one top-down pass.

    Returns ``(levels, boundaries, masks)``: ``levels[c]`` lists the faces
    with c vertices (``levels[0] == [0]``, the empty face), ``boundaries[j]``
    holds the signed sparse columns of the map from ``levels[j + 1]`` to
    ``levels[j]``, and ``masks[j]`` the same columns mod 2 as int bitmasks
    over the rows.  Level c - 1 starts as the facets with c - 1 vertices;
    every other face gets its row the first time a column of level c meets
    it, so rows are in order of discovery, which no rank depends on.
    """
    top = max(m.bit_count() for m in facet_masks)
    levels: list[list[int]] = [[] for _ in range(top + 1)]
    for m in facet_masks:
        levels[m.bit_count()].append(m)
    boundaries: list = [None] * top
    masks: list = [None] * top
    for c in range(top, 0, -1):
        index = {m: r for r, m in enumerate(levels[c - 1])}
        columns = []
        column_masks = []
        for m in levels[c]:
            column = []
            mask = 0
            sign = 1
            rest = m
            while rest:
                bit = rest & -rest
                r = index.setdefault(m ^ bit, len(index))
                column.append((r, sign))
                mask |= 1 << r
                sign = -sign
                rest ^= bit
            columns.append(column)
            column_masks.append(mask)
        levels[c - 1] = list(index)
        boundaries[c - 1] = columns
        masks[c - 1] = column_masks
    return levels, boundaries, masks


def _assert_chain_complex(boundaries: list[list[list[tuple[int, int]]]]) -> None:
    # boundary-of-boundary must vanish identically
    for lower, upper in zip(boundaries, boundaries[1:]):
        for column in upper:
            acc: dict[int, int] = {}
            for mid, sign in column:
                for r, s in lower[mid]:
                    acc[r] = acc.get(r, 0) + sign * s
            if any(acc.values()):
                raise AssertionError("boundary composed with boundary is nonzero")


def _reduced_betti(facet_masks, char: int) -> dict[int, int]:
    """Reduced Betti numbers of a nonvoid facet list over one field: the reference path.

    No mod-2 filter and no unit pivots: F2 by XOR elimination, every map
    over Q or odd p ranked as a dense matrix (``_dense_rank``).
    ``reduced_homology`` and the Reisner walk measure with
    ``homology._betti_per_field`` instead.
    """
    levels, boundaries, masks = _chain_complex(facet_masks)
    counts = [len(level) for level in levels]  # counts[c] = #(c-1)-dim faces
    _assert_chain_complex(boundaries)
    if char == 2:
        ranks = [_kernels.rank_mod_2_masks(column_masks) for column_masks in masks]
    else:
        ranks = [_dense_rank(columns, char) for columns in boundaries]
    return _betti(counts, ranks)


def _dense_rank(columns, char: int) -> int:
    """Rank over Q or odd F_p of sparse columns of (row, value) pairs, made dense.

    Only the rows the columns meet get a row of the matrix, in order of
    discovery; it is ranked by fraction-free or modular elimination.
    """
    if not columns:
        return 0
    index: dict[int, int] = {}
    for column in columns:
        for r, _ in column:
            index.setdefault(r, len(index))
    rows = [[0] * len(columns) for _ in index]
    for col, column in enumerate(columns):
        for r, x in column:
            rows[index[r]][col] = x
    if char == RATIONALS:
        return _kernels.rank_bareiss(rows, len(columns))
    return _kernels.rank_mod_p(rows, len(columns), char)


def _betti(counts: list[int], ranks: list[int]) -> dict[int, int]:
    """Betti numbers from face counts and the ranks of the boundary maps."""
    padded = [0, *ranks, 0]  # nothing leaves the empty face or enters the top faces
    return {c - 1: counts[c] - padded[c] - padded[c + 1] for c in range(len(counts))}


@dataclass(frozen=True)
class SheddingTree:
    """Certificate for vertex decomposability.

    ``kind`` is one of "void", "empty", "simplex" (base cases) or
    "shed"; a shed node records the shedding vertex and the subtrees
    certifying its link and deletion.
    """

    kind: str
    vertex: int | None = None
    link: "SheddingTree | None" = None
    deletion: "SheddingTree | None" = None

    def shedding_vertices(self) -> tuple[int, ...]:
        """Vertices shed along the leftmost (deletion-first) spine."""
        out = []
        node = self
        while node.kind == "shed":
            out.append(node.vertex)
            node = node.deletion
        return tuple(out)

    def to_dict(self) -> dict:
        if self.kind != "shed":
            return {"kind": self.kind}
        return {
            "kind": "shed",
            "vertex": self.vertex,
            "link": self.link.to_dict(),
            "deletion": self.deletion.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "SheddingTree":
        """Tree from the nested objects of :meth:`to_dict`.

        A node that is not an object with a ``"kind"``, or a shed node
        without ``"vertex"``, ``"link"`` and ``"deletion"``, raises
        ValueError; whether the tree decomposes a complex is for
        :func:`verify_shedding_tree` to say.
        """
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError('a shedding tree node must be an object with the key "kind"')
        if data["kind"] != "shed":
            return cls(data["kind"])
        if not all(key in data for key in ("vertex", "link", "deletion")):
            raise ValueError('a shed node must have the keys "vertex", "link" and "deletion"')
        return cls(
            "shed",
            data["vertex"],
            cls.from_dict(data["link"]),
            cls.from_dict(data["deletion"]),
        )


def _tree_order(
    masks: tuple[int, ...],
    tree: SheddingTree,
    verified: tuple[SheddingTree, tuple[int, ...], list[int]] | None = None,
) -> list[int]:
    """Replay a shedding tree on a pure facet list; return its shelling order (Provan-Billera).

    A subproblem is kept as the facets of ``masks`` that hold every vertex
    ``joined`` through links and avoid every vertex deleted.  Every node is
    checked, and one that does not decompose its subproblem raises
    ValueError: a leaf must match the subproblem, and the shedding vertex x
    of a shed node must be an int in 1..MAX_VERTICES that lies in a facet
    of the subproblem, and x must shed it: each ridge F - x of a facet F
    through x lies in a facet avoiding x.  A vertex in every facet of the
    subproblem, a cone apex or one joined already, has no facet avoiding
    it, so it never sheds.  The deletion is the facets avoiding x, and the
    order is the deletion's, then the link's.  The two subtrees split the
    facets, and each leaf but the void complex's holds one, so a tree that
    replays on a nonvoid complex has 2 * #facets - 1 nodes.

    ``verified`` is ``(tree, facets, order)`` from an earlier replay that
    returned ``order`` for that tree on those facets.  A node whose subtree
    is that tree object, on an equal facet list with nothing joined, takes
    ``order`` without a second walk: a tree is immutable and the walk
    depends only on the tree, the subproblem and ``joined``.  Down a sweep
    column the top node's deletion subtree is the previous record's tree,
    so only the new top node and its link are walked.  A different object,
    however equal, is walked in full.
    """
    known, facets, known_order = verified if verified is not None else (None, None, None)
    known_facets = list(facets) if facets is not None else None

    def order(sub: list[int], tree: SheddingTree, joined: int) -> list[int]:
        if tree is known and not joined and sub == known_facets:
            return known_order
        kind = tree.kind if isinstance(tree, SheddingTree) else None
        if kind == "shed":
            x = tree.vertex
            if not isinstance(x, bool) and isinstance(x, int) and 0 < x <= MAX_VERTICES:
                bit = 1 << (x - 1)
                through = [f for f in sub if f & bit]
                avoiding = [f for f in sub if not f & bit]
                if through and all(any(not (f ^ bit) & ~g for g in avoiding) for f in through):
                    return order(avoiding, tree.deletion, joined) + order(
                        through, tree.link, joined | bit
                    )
        elif kind == "void":
            if not sub:
                return sub
        elif kind == "empty":
            if sub == [joined]:
                return sub
        elif kind == "simplex":
            if len(sub) == 1 and sub[0] != joined:
                return sub
        raise ValueError("the shedding tree does not decompose this complex")

    return order(list(masks), tree, 0)


def verify_shedding_tree(cx: SimplicialComplex, tree: SheddingTree) -> bool:
    """Replay a shedding tree against a complex, checking every node.

    The replay is the walk that ``decompose.is_shellable`` reads an order
    off (see ``_tree_order``): the tree certifies ``cx`` iff the walk
    raises no ValueError.  A nonpure complex is not vertex decomposable,
    so no tree certifies it.
    """
    if not cx.is_pure:
        return False
    try:
        _tree_order(cx.facet_masks, tree)
    except ValueError:
        return False
    return True


def verify_shelling(cx: SimplicialComplex, order) -> bool:
    """Check the pairwise shelling condition literally.

    ``order`` must be a permutation of the facets; for every i < j some
    vertex x in F_j minus F_i must satisfy F_j minus F_l = {x} for a
    previous F_l.
    """
    masks = _pack_checked(cx.n, order, "facet")
    if sorted(masks) != sorted(cx.facet_masks):
        raise ValueError("order is not a permutation of the complex's facets")
    for j in range(1, len(masks)):
        fj = masks[j]
        singles = 0
        for l in range(j):
            diff = fj & ~masks[l]
            if diff and diff & (diff - 1) == 0:
                singles |= diff
        for i in range(j):
            if fj & ~masks[i] & singles == 0:
                return False
    return True


def verify_cohen_macaulay_witness(cx: SimplicialComplex, result) -> bool:
    """Replay a failing Reisner test, such as ``ShellingResult.refutation``.

    True iff ``cx`` is pure, ``result.value`` is False, the witness face F
    is a strictly increasing tuple of vertices in 1..n lying in a facet,
    -1 <= ``witness_degree`` < dim lk F, and the literal link of F has
    nonzero reduced homology in that degree over ``result.field``.
    """
    degree = result.witness_degree
    if not cx.is_pure or result.value is not False or type(degree) is not int:
        return False
    try:
        char = parse_field(result.field)
        (face,) = _pack_checked(cx.n, [result.witness_face], "witness face", increasing=True)
    except (TypeError, ValueError):
        return False
    link = [g ^ face for g in cx.facet_masks if g & face == face]
    if not link or not -1 <= degree < cx.dim - face.bit_count():
        return False
    return _reduced_betti(link, char).get(degree, 0) != 0


def verify_s2_witness(cx: SimplicialComplex, pair) -> bool:
    """Replay an (S2) witness pair, such as the one ``ideals._s2_witness`` returns.

    ``pair`` is (i, j), two positions into ``cx.facet_masks``.  True iff
    ``cx`` is pure, i and j are integers with 0 <= i < j < #facets, the
    link of F = f_i & f_j has dimension >= 1, and f_i - F and f_j - F lie
    in different components of that literal link.  Such a link refutes
    Serre's (S2), so the dual ideal of ``cx`` is not linearly presented.
    """
    masks = cx.facet_masks
    try:
        i, j = pair
    except (TypeError, ValueError):
        return False
    if not cx.is_pure or any(type(p) is not int for p in (i, j)) or not 0 <= i < j < len(masks):
        return False
    face = masks[i] & masks[j]
    if cx.dim - face.bit_count() < 1:  # dim lk F, as cx is pure
        return False
    link = [g ^ face for g in masks if g & face == face]
    return not _component(link, masks[i] ^ face) & (masks[j] ^ face)
