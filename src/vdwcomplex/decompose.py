"""Exact decision procedures for vertex decomposability and shellability.

Vertex decomposability follows the Provan-Billera recursion: a pure
complex qualifies if it is void, the empty complex, or a simplex, or if
some support vertex has a pure, vertex-decomposable link and deletion.
A successful decision is certified by a shedding tree that can be
replayed independently.

Shellability is decided by a depth-first search over facet prefixes: a
facet may extend a prefix iff its faces already covered by placed
facets form a nonempty union of its codimension-1 faces (equivalent,
for pure complexes, to the pairwise shelling condition, which
:func:`verify_shelling` checks literally).  The search memoizes dead
prefix sets and honours a node budget, reporting "undecided" when the
budget is exhausted.  A shellable complex is Cohen-Macaulay over every
field, so when a short probe of the search finds no order, a failing
Reisner test over F2 refutes shellability before the full search runs;
its witness face and degree are the certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from vdwcomplex import _kernels
from vdwcomplex.complexes import SimplicialComplex, Vertices, _absorb, pack, unpack
from vdwcomplex.homology import CohenMacaulayResult, is_cohen_macaulay

DEFAULT_SHELLING_BUDGET = 5_000_000

_MISSING = object()


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

    def relabel(self, mapping: dict[int, int]) -> "SheddingTree":
        if self.kind != "shed":
            return self
        return SheddingTree(
            "shed",
            mapping[self.vertex],
            self.link.relabel(mapping),
            self.deletion.relabel(mapping),
        )

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
        if data["kind"] != "shed":
            return cls(data["kind"])
        return cls(
            "shed",
            data["vertex"],
            cls.from_dict(data["link"]),
            cls.from_dict(data["deletion"]),
        )


@dataclass(frozen=True)
class DecompositionResult:
    value: bool
    tree: SheddingTree | None

    def __bool__(self) -> bool:
        return self.value


_LEAF_VOID = SheddingTree("void")
_LEAF_EMPTY = SheddingTree("empty")
_LEAF_SIMPLEX = SheddingTree("simplex")


def _is_pure_masks(masks) -> bool:
    return len({m.bit_count() for m in masks}) <= 1


def _compress(masks: tuple[int, ...]):
    """Memo key with support vertices relabelled to 1..m, plus the maps back."""
    support = 0
    for m in masks:
        support |= m
    verts = unpack(support)
    old_to_new = {v: i + 1 for i, v in enumerate(verts)}
    remapped = []
    for m in masks:
        nm = 0
        for v in unpack(m):
            nm |= 1 << (old_to_new[v] - 1)
        remapped.append(nm)
    new_to_old = {i + 1: v for i, v in enumerate(verts)}
    return tuple(sorted(remapped)), old_to_new, new_to_old


def _decide(masks: tuple[int, ...], memo: dict) -> SheddingTree | None:
    key, old_to_new, new_to_old = _compress(masks)
    hit = memo.get(key, _MISSING)
    if hit is not _MISSING:
        return hit.relabel(new_to_old) if hit is not None else None
    tree = _search(masks, memo)
    memo[key] = tree.relabel(old_to_new) if tree is not None else None
    return tree


def _search(masks: tuple[int, ...], memo: dict) -> SheddingTree | None:
    if not masks:
        return _LEAF_VOID
    if len(masks) == 1:
        return _LEAF_EMPTY if masks[0] == 0 else _LEAF_SIMPLEX
    support = 0
    for m in masks:
        support |= m
    # candidates in descending vertex order
    for x in reversed(unpack(support)):
        bit = 1 << (x - 1)
        link = tuple(sorted(m ^ bit for m in masks if m & bit))
        deletion = tuple(sorted(_absorb(m & ~bit for m in masks)))
        if not _is_pure_masks(link) or not _is_pure_masks(deletion):
            continue
        link_tree = _decide(link, memo)
        if link_tree is None:
            continue
        deletion_tree = _decide(deletion, memo)
        if deletion_tree is None:
            continue
        return SheddingTree("shed", x, link_tree, deletion_tree)
    return None


def is_vertex_decomposable(cx: SimplicialComplex, memo: dict | None = None) -> DecompositionResult:
    """Decide vertex decomposability of a pure complex.

    Returns a :class:`DecompositionResult`; on success its ``tree``
    certifies the decomposition and replays under
    :func:`verify_shedding_tree`.  ``memo`` may be supplied to share the
    (single-threaded) cache across calls.
    """
    if not cx.is_pure:
        raise ValueError("vertex decomposability is defined for pure complexes")
    if memo is None:
        memo = {}
    tree = _decide(tuple(sorted(cx.facet_masks)), memo)
    return DecompositionResult(tree is not None, tree)


def verify_shedding_tree(cx: SimplicialComplex, tree: SheddingTree) -> bool:
    """Replay a shedding tree against a complex, recomputing every step."""
    if tree.kind == "void":
        return cx.is_void
    if tree.kind == "empty":
        return cx.is_empty
    if tree.kind == "simplex":
        return len(cx.facets) == 1 and cx.facets[0] != ()
    if tree.kind != "shed":
        return False
    x = tree.vertex
    if x not in cx.support:
        return False
    link = cx.link(x)
    deletion = cx.deletion(x)
    if not link.is_pure or not deletion.is_pure:
        return False
    return verify_shedding_tree(link, tree.link) and verify_shedding_tree(deletion, tree.deletion)


@dataclass(frozen=True)
class ShellingResult:
    """Outcome of the shelling search: shellable / not-shellable / undecided.

    ``refutation`` is set when a failing Reisner test over F2, not the
    exhausted search, showed the complex is not shellable.
    """

    status: str
    order: tuple[Vertices, ...] | None
    nodes: int
    refutation: CohenMacaulayResult | None = None

    @property
    def value(self) -> bool | None:
        if self.status == "shellable":
            return True
        if self.status == "not-shellable":
            return False
        return None

    def __bool__(self) -> bool:
        return self.status == "shellable"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "order": [list(f) for f in self.order] if self.order is not None else None,
            "nodes": self.nodes,
            "refutation": self.refutation.to_dict() if self.refutation is not None else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


_STATUS = {
    _kernels.FOUND: "shellable",
    _kernels.NOT_SHELLABLE: "not-shellable",
    _kernels.EXHAUSTED: "undecided",
}


def is_shellable(cx: SimplicialComplex, budget: int | None = DEFAULT_SHELLING_BUDGET) -> ShellingResult:
    """Search for a shelling order of a pure, nonvoid complex.

    The first order found under the canonical facet ordering is
    returned.  The search first runs as a probe with no room to
    backtrack (one node per facet).  If the probe finds no order, the
    Reisner test over F2 runs: a complex that fails it is not
    Cohen-Macaulay, hence not shellable, and the result carries the
    failing test as ``refutation``.  Only otherwise does the search run
    again under ``budget``.  ``nodes`` counts the states expanded by the
    last search that ran.  "undecided" (budget exhausted) is distinct
    from "not-shellable", which requires the search space to be
    exhausted or a Reisner witness.  A negative ``budget`` raises
    ValueError.
    """
    if cx.is_void:
        raise ValueError("shellability of the void complex is undefined")
    if not cx.is_pure:
        raise ValueError("shellability is defined for pure complexes")
    if budget is None:
        budget = 1 << 62
    if budget < 0:
        raise ValueError(f"the shelling budget must be at least 0, got {budget}")
    masks = list(cx.facet_masks)
    probe_budget = min(budget, len(masks))
    status, idx_order, nodes = _kernels.search_shelling(masks, probe_budget)
    if status == _kernels.EXHAUSTED:
        cm = is_cohen_macaulay(cx, 2)
        if not cm:
            return ShellingResult("not-shellable", None, nodes, cm)
        if budget > probe_budget:
            status, idx_order, nodes = _kernels.search_shelling(masks, budget)
    order = tuple(cx.facets[i] for i in idx_order) if idx_order is not None else None
    return ShellingResult(_STATUS[status], order, nodes)


def verify_shelling(cx: SimplicialComplex, order) -> bool:
    """Check the pairwise shelling condition literally.

    ``order`` must be a permutation of the facets; for every i < j some
    vertex x in F_j minus F_i must satisfy F_j minus F_l = {x} for a
    previous F_l.
    """
    facets = [tuple(sorted(f)) for f in order]
    if sorted(facets) != sorted(cx.facets):
        raise ValueError("order is not a permutation of the complex's facets")
    masks = [pack(f) for f in facets]
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
