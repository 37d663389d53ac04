"""Exact decision procedures for vertex decomposability and shellability.

Vertex decomposability follows the Provan-Billera recursion: a pure
complex qualifies if it is void, the empty complex, or a simplex, or if
some shedding vertex x has a vertex-decomposable link and deletion.  A
vertex x sheds iff no face of its link is a facet of its deletion, i.e.
every ridge F - x of a facet F through x lies in a second facet, which
avoids x.  Every subproblem is lk_L(del_W K) of the top complex K, so
one map of K's ridges to the vertices completing them to facets tests
every candidate of every subproblem.  A vertex in every facet, a cone
apex, never sheds, since its ridges F - x lie in F alone.  A facet
sharing no ridge ends the search: a shellable complex, and so a
vertex-decomposable one, is strongly connected (Björner).  Every link of
a vertex-decomposable complex is vertex decomposable (Provan-Billera,
Math. Oper. Res. 5 (1980)), so the search fails at the first candidate
whose link fails; only a failing deletion moves it on to the next.
Subproblems are memoized on their facet masks, which link and deletion
keep in canonical order; the memo maps each to its shedding tree, or to
``None`` on failure.  A successful decision is certified by a shedding
tree, which ``certify`` replays with no help from this module.

``vdw sweep`` carries one :class:`_Column` down each column k.  The
deletion of n in vdW(n, k) is vdW(n - 1, k), so a record adds only the
facets through n and folds each once into the state a check reads (the
ridge map here, the (S2) walk's faces in ``ideals._S2Walk``).  Each
record's tree goes into the column's memo under its facet masks, so when
n sheds, the search, which tries n first, finds n's deletion there and
searches only n's link.

Shellability is decided from certificates where they exist, and by a
depth-first search over facet prefixes otherwise (see :func:`is_shellable`
for the order of the steps).  A vertex-decomposable complex is shellable
in the order its shedding tree gives (Provan-Billera): shell the deletion
of the shedding vertex x, then x joined to each facet of the link's order.
That order needs no search (``nodes == 0``).  A shellable complex is
Cohen-Macaulay over every field, so it satisfies Serre's (S2): every face
link of dimension >= 1 is connected.  A face whose link fails that
refutes shellability over every field, and is reported as a degree-0
Reisner witness over F2; a complex passing (S2) meets the Reisner test
over F2 next.  A facet may extend a prefix of the search iff its faces
already covered by placed facets form a nonempty union of its
codimension-1 faces (equivalent, for pure complexes, to the pairwise
shelling condition, which ``certify.verify_shelling`` checks literally).
The search memoizes dead prefix sets and reports "undecided" when the
node budget is exhausted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from vdwcomplex import _kernels
from vdwcomplex.certify import SheddingTree, _tree_order
from vdwcomplex.complexes import SimplicialComplex, Vertices, pack, unpack
from vdwcomplex.homology import CohenMacaulayResult, _first_failures, _result
from vdwcomplex.ideals import _S2Walk, _s2_witness
from vdwcomplex.vdw import _grown, vdw_complex

DEFAULT_SHELLING_BUDGET = 5_000_000

_MISSING = object()


@dataclass(frozen=True)
class DecompositionResult:
    value: bool
    tree: SheddingTree | None

    def __bool__(self) -> bool:
        return self.value


_LEAF_VOID = SheddingTree("void")
_LEAF_EMPTY = SheddingTree("empty")
_LEAF_SIMPLEX = SheddingTree("simplex")


def _ends(masks) -> dict[int, int]:
    """Map each ridge R of a pure facet list to the OR of the vertex bits x with R + x a facet."""
    ends: dict[int, int] = {}
    for m in masks:
        rest = m
        while rest:
            bit = rest & -rest
            rest ^= bit
            ends[m ^ bit] = ends.get(m ^ bit, 0) | bit
    return ends


def _candidates(masks: tuple[int, ...], ends: dict, face: int, gone: int) -> int | None:
    """The shedding vertices of ``masks``, two or more facets of lk_face(del_gone K).

    y is lonely in a facet m, its ridge m - y in m alone, iff K's ``ends[(m | face) - y]``
    outside ``gone`` is y alone.  None when a facet has every vertex lonely.
    """
    keep, support, lonely = ~gone, 0, 0
    for m in masks:
        support |= m
        facet, own, rest = m | face, 0, m
        while rest:
            bit = rest & -rest
            rest ^= bit
            if ends[facet ^ bit] & keep == bit:
                own |= bit
        if own == m:
            return None
        lonely |= own
    return support & ~lonely  # a vertex in every facet is lonely


def _decide(masks: tuple[int, ...], memo: dict, ends: dict, face=0, gone=0) -> SheddingTree | None:
    """Memoized :func:`_search`: ``memo`` maps ``masks`` to its shedding tree, or to ``None``."""
    tree = memo.get(masks, _MISSING)
    if tree is _MISSING:
        tree = memo[masks] = _search(masks, memo, ends, face, gone)
    return tree


def _search(
    masks: tuple[int, ...], memo: dict, ends: dict, face=0, gone=0, candidates: int | None = None
) -> SheddingTree | None:
    """First shedding tree of a canonical, pure facet list, shedding high vertices first.

    ``masks`` is lk_face(del_gone K) for the complex K whose ridges
    ``ends`` maps (see :func:`_ends`).  Only shedding vertices x are
    tried, whose deletion is the facets avoiding x: the link and deletion
    at x are the subproblems at face + x and at gone + x.  A cone apex
    never sheds, so a cone is decided on its base, and its tree is the base's.

    A candidate whose link is not vertex decomposable ends the search
    with ``None``: by Provan-Billera, every link of a vertex-decomposable
    complex is vertex decomposable.  A failing deletion only moves the
    search on to the next candidate.  A vertex-decomposable complex has
    no failing link, so its tree is the one the full search finds.

    ``candidates`` is the mask of shedding vertices when the caller
    already knows it (see :class:`_Column`); otherwise it is read off
    ``ends`` (see :func:`_candidates`).
    """
    if not masks:
        return _LEAF_VOID
    if len(masks) == 1:
        return _LEAF_EMPTY if masks[0] == 0 else _LEAF_SIMPLEX
    if candidates is None:
        candidates = _candidates(masks, ends, face, gone)
        if candidates is None:  # a facet shares no ridge: not strongly connected
            return None
    rest = candidates  # tried in descending vertex order
    while rest:
        bit = 1 << (rest.bit_length() - 1)
        rest ^= bit
        link, deletion = [], []  # one pass; the link's facets lose the bit, keeping the order
        for m in masks:
            if m & bit:
                link.append(m ^ bit)
            else:
                deletion.append(m)
        link_tree = _decide(tuple(link), memo, ends, face | bit, gone)
        if link_tree is None:  # every link of a vertex-decomposable complex is one
            return None
        deletion_tree = _decide(tuple(deletion), memo, ends, face, gone | bit)
        if deletion_tree is None:
            continue
        return SheddingTree("shed", bit.bit_length(), link_tree, deletion_tree)
    return None


def is_vertex_decomposable(cx: SimplicialComplex, memo: dict | None = None) -> DecompositionResult:
    """Decide vertex decomposability of a pure complex.

    Returns a :class:`DecompositionResult`; on success its ``tree``
    certifies the decomposition and replays under
    ``certify.verify_shedding_tree``.  Candidates are tried from the
    highest vertex down, and a vertex x is tried only if it sheds in the
    sense of Provan-Billera: every ridge F - x of a facet F through x lies
    in a second facet.  Subproblems are memoized on their facet masks:
    ``memo`` maps each to its shedding tree, or to ``None`` when it is
    not vertex decomposable, and may be supplied to share the
    (single-threaded) cache across calls.
    """
    if not cx.is_pure:
        raise ValueError("vertex decomposability is defined for pure complexes")
    if memo is None:
        memo = {}
    tree = _decide(cx.facet_masks, memo, _ends(cx.facet_masks))
    return DecompositionResult(tree is not None, tree)


def _vertex_decomposable(column: _Column) -> DecompositionResult:
    """:func:`is_vertex_decomposable` on the column's complex, decided once per record.

    Candidates, ``ends`` and memo are the column's, and the tree goes into
    the memo.  A shedding new vertex n is tried first, and its deletion,
    the last record's complex, is found there.
    """
    if column.vd is None:
        column._fold_vd()
        masks, memo = column.cx.facet_masks, column.memo
        candidates = column.support & ~column.lonely
        tree = memo[masks] = _search(masks, memo, column.ends, candidates=candidates)
        column.vd = DecompositionResult(tree is not None, tree)
    return column.vd


class _Column:
    """One sweep column k: vdW(n, k) grown one vertex at a time, and what its checks carry.

    :meth:`grow` validates only the facets through n and appends them to
    ``added``; the VD state and the (S2) walk (``s2``, an
    ``ideals._S2Walk`` over ``added``) fold in, once, those they have not
    seen, when a check reads them.  VD: ``ends`` is :func:`_ends` of the
    complex, ``singles`` counts per vertex bit x the ridges F - x held by
    F alone, and ``support & ~lonely`` are the shedding vertices.  ``memo``
    maps every complex decided in the column, each record's included, and
    their subproblems to their trees (see :func:`_decide`).  Each record
    decides once, on first read: ``vd`` is its verdict and ``witness``
    its (S2) witness (unset while ``_MISSING``).  ``replay`` is the last
    verified ``(tree, facets, order)`` (see ``_shellable``).
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.cx: SimplicialComplex | None = None
        self.added: list[int] = []
        self.vd_folded = self.support = self.lonely = 0
        self.memo, self.ends, self.singles = {}, {}, {}
        self.vd = self.replay = None
        self.witness = _MISSING
        self.s2 = _S2Walk(k, self.added)

    def grow(self, n: int) -> SimplicialComplex:
        """vdW(n, k), the column's next complex: built whole first, then one vertex at a time."""
        last = self.cx
        if last is not None and n != last.n + 1:
            raise ValueError(f"column k = {self.k} grows by one vertex, not to vdW({n}, {self.k})")
        cx, new = _grown(last, self.k) if last is not None else (vdw_complex(n, self.k), None)
        self._extend(cx, cx.facet_masks if new is None else new)
        return cx

    def _extend(self, cx: SimplicialComplex, new) -> None:
        """Make ``cx``, the last complex's facets and ``new`` in canonical order, the column's."""
        self.vd, self.witness = None, _MISSING
        self.cx = cx
        self.added += new

    def s2_witness(self) -> tuple[int, int] | None:
        """The complex's ``ideals._s2_witness``, from the (S2) walk carried, run once per record."""
        if self.witness is _MISSING:
            self.witness = self.s2.witness(self.cx.facet_masks)
        return self.witness

    def _fold_vd(self) -> None:
        ends, singles, lonely = self.ends, self.singles, self.lonely
        for h in self.added[self.vd_folded :]:
            self.support |= h
            rest = h
            while rest:
                bit = rest & -rest
                rest ^= bit
                ridge = h ^ bit
                x = ends.get(ridge, 0)
                ends[ridge] = x | bit
                if not x:  # h - bit lies in h alone
                    singles[bit] = singles.get(bit, 0) + 1
                    lonely |= bit
                elif not x & (x - 1):  # ridge + x no longer holds it alone: one single fewer for x
                    singles[x] -= 1
                    if not singles[x]:
                        lonely &= ~x
        self.lonely = lonely
        self.vd_folded = len(self.added)


@dataclass(frozen=True, init=False, repr=False)
class ShellingResult:
    """Outcome of a shellability decision: shellable / not-shellable / undecided.

    ``refutation`` is set when a failed test, not the exhausted search,
    showed the complex is not shellable: an (S2) witness, reported as a
    degree-0 witness over F2, or a failing Reisner test over F2.
    ``order_masks`` is the shelling order as facet masks, None without
    one; ``order`` is the same order as vertex tuples, built on first
    read.  ``ShellingResult(status, order, nodes, refutation)`` takes that
    tuple form.
    """

    status: str
    order_masks: tuple[int, ...] | None
    nodes: int
    refutation: CohenMacaulayResult | None

    def __init__(
        self,
        status: str,
        order: tuple[Vertices, ...] | None,
        nodes: int,
        refutation: CohenMacaulayResult | None = None,
    ) -> None:
        masks = None if order is None else tuple(map(pack, order))
        self._hold(status, masks, nodes, refutation)
        object.__setattr__(self, "order", order)  # read back as given

    @classmethod
    def _from_masks(cls, status: str, masks, nodes: int) -> "ShellingResult":
        """A result whose order is the facet masks ``masks`` (or None), unpacked only when read."""
        result = cls.__new__(cls)
        result._hold(status, None if masks is None else tuple(masks), nodes, None)
        return result

    def _hold(self, status, masks, nodes, refutation) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "order_masks", masks)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "refutation", refutation)

    @cached_property
    def order(self) -> tuple[Vertices, ...] | None:
        masks = self.order_masks
        return None if masks is None else tuple(map(unpack, masks))

    def __repr__(self) -> str:
        return (
            f"ShellingResult(status={self.status!r}, order={self.order!r}, "
            f"nodes={self.nodes!r}, refutation={self.refutation!r})"
        )

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


def is_shellable(
    cx: SimplicialComplex,
    budget: int | None = DEFAULT_SHELLING_BUDGET,
    vd: DecompositionResult | None = None,
) -> ShellingResult:
    """Decide shellability of a pure, nonvoid complex, with a certificate.

    ``vd`` is an optional :class:`DecompositionResult` for ``cx``, such as
    the caller's own :func:`is_vertex_decomposable` result.  The steps:

    1. If ``vd`` says vertex decomposable, the order is read off its
       shedding tree (see ``_tree_order``), with ``nodes == 0`` and no
       search.  The whole tree is replayed as ``certify.verify_shedding_tree``
       replays it, and a tree that does not decompose ``cx`` raises
       ValueError.
    2. Without ``vd``, a probe: the search with no room to backtrack,
       ``search_shelling(masks, min(budget, s))`` for s facets.  An order
       costs that search exactly s nodes, on a descent with no
       backtracking, and an exhausted search space at least s + 1 (the
       root and every facet placed first).  So the probe runs as the
       greedy pass (``_kernels.greedy_shelling``): its order, with
       ``nodes == s``, when the budget is at least s and the pass finds
       one; otherwise it is out of budget, with
       ``nodes == min(budget, s) + 1``.  If ``vd`` says not vertex
       decomposable, the probe is skipped.  It is the cheap path to the
       positives that come without a tree: it shells all 1306 positives
       of the random-pure benchmark complexes (seed 1).
    3. Serre's (S2): a face F = f_i & f_j whose link has dimension >= 1
       and is disconnected refutes shellability over every field.  The
       ``refutation`` is ``CohenMacaulayResult(False, "Fp:2", F, 0)``: the
       link's reduced H_0 is nonzero over F2, as over every field.
    4. The Reisner walk over F2 (``homology._first_failures``), without
       the greedy pass ``cohen_macaulay_by_field`` would take first: a
       failing link is the ``refutation``.
    5. The search under ``budget``, from the start; skipped when the
       probe already had the whole budget.

    The budget bounds the search alone: an order read off a tree costs
    no nodes.  ``nodes`` counts the states expanded by the last search
    that ran, 0 when none ran.  "undecided" (budget exhausted) is distinct from
    "not-shellable", which requires the search space to be exhausted or a
    refutation.  A ``budget`` that is not None or an integer at least 0
    raises ValueError.
    """
    return _shellable(cx, budget, vd, lambda: _s2_witness(cx.facet_masks, cx.dim))


def _shellable(
    cx: SimplicialComplex, budget, vd, s2_witness, column: _Column | None = None
) -> ShellingResult:
    """:func:`is_shellable`, taking step 3's witness from ``s2_witness()``.

    ``s2_witness`` is called at most once, and only when step 3 runs, so a
    caller can share one (S2) walk with its linear-presentation check.
    With ``column``, the column ``vd`` was decided in, step 1 hands the
    column's last verified replay to ``_tree_order`` and keeps its own
    there for the next record.
    """
    if cx.is_void:
        raise ValueError("shellability of the void complex is undefined")
    if not cx.is_pure:
        raise ValueError("shellability is defined for pure complexes")
    if budget is None:
        budget = 1 << 62
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise ValueError(f"the shelling budget must be None or an integer >= 0, got {budget!r}")
    if vd is not None and vd.value:
        if column is None:
            order = _tree_order(cx.facet_masks, vd.tree)
        else:
            order = _tree_order(cx.facet_masks, vd.tree, column.replay)
            column.replay = (vd.tree, cx.facet_masks, order)
        return ShellingResult._from_masks("shellable", order, 0)
    masks = list(cx.facet_masks)
    s = len(masks)
    nodes = 0
    if vd is None:  # the probe: search_shelling(masks, min(budget, s)), see step 2
        idx_order = _kernels.greedy_shelling(masks) if budget >= s else None
        if idx_order is not None:
            return ShellingResult._from_masks("shellable", [masks[i] for i in idx_order], s)
        nodes = min(budget, s) + 1
    witness = s2_witness()
    if witness is not None:
        face = unpack(masks[witness[0]] & masks[witness[1]])
        s2 = CohenMacaulayResult(False, "Fp:2", face, 0)
        return ShellingResult("not-shellable", None, nodes, s2)
    # the walk itself: is_cohen_macaulay would first repeat the greedy pass
    failure = _first_failures(masks, cx.dim, [2])[2]
    if failure is not None:
        return ShellingResult("not-shellable", None, nodes, _result(2, failure))
    if vd is None and budget <= s:  # the probe had the whole budget
        return ShellingResult("undecided", None, nodes)
    status, idx_order, nodes = _kernels.search_shelling(masks, budget)
    order = [masks[i] for i in idx_order] if idx_order is not None else None
    return ShellingResult._from_masks(_STATUS[status], order, nodes)
