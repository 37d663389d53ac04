"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms:
minimal non-faces by full subset enumeration, vertex decomposability by
the memo-free recursion on literal links and deletions, shedding vertices
by a literal count of each ridge's facets, shellability by
permutation search, Cohen-Macaulayness by every face and its literal
link measured with ``certify``'s reference homology, linear presentation
by the graph search on every generator pair, ranks by fraction Gaussian
elimination, syzygy membership by solving the multidegree-component
linear system, connectivity by breadth-first search on the vertex graph.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

from vdwcomplex.certify import (
    _chain_complex,
    _reduced_betti,
    field_label,
    parse_field,
    verify_shelling,
)
from vdwcomplex.complexes import SimplicialComplex, _face_order, unpack
from vdwcomplex.homology import CohenMacaulayResult, _result
from vdwcomplex.ideals import LinearPresentationResult

# antipodally identified icosahedron: the 6-vertex projective plane
RP2 = SimplicialComplex.from_facets(
    6,
    [
        [1, 2, 4], [1, 2, 6], [1, 3, 4], [1, 3, 5], [1, 5, 6],
        [2, 3, 5], [2, 3, 6], [2, 4, 5], [3, 4, 6], [4, 5, 6],
    ],
)

# -- enumeration ------------------------------------------------------


def enumerate_antichains(n: int):
    """All antichains of subsets of {1..n}, as tuples of masks.

    These are exactly the facet lists of the simplicial complexes on n
    vertices (the empty tuple is the void complex, (0,) the empty
    complex).
    """
    masks = list(range(1 << n))
    out: list[tuple[int, ...]] = []

    def rec(start: int, chosen: list[int]) -> None:
        out.append(tuple(chosen))
        for idx in range(start, len(masks)):
            m = masks[idx]
            if all(m & c != m and m & c != c for c in chosen):
                chosen.append(m)
                rec(idx + 1, chosen)
                chosen.pop()

    rec(0, [])
    return out


def complex_from_masks(n: int, masks) -> SimplicialComplex:
    return SimplicialComplex.from_facets(n, [unpack(m) for m in masks])


def random_pure_complex(rng, max_vertices: int = 7, min_vertices: int = 3) -> SimplicialComplex:
    """A random pure complex: equal-size facets sampled without replacement."""
    m = rng.randint(min_vertices, max_vertices)
    dim = rng.randint(1, min(3, m - 1))
    universe = list(combinations(range(1, m + 1), dim + 1))
    count = rng.randint(1, min(12, len(universe)))
    facets = rng.sample(universe, count)
    return SimplicialComplex.from_facets(m, facets)


def benchmark_random_pure(seed: int) -> list[SimplicialComplex]:
    """The complexes of the random-pure benchmark workload at ``seed``, in its order."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(perfbench))  # run.py imports its neighbour spans.py
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(perfbench))
    return [SimplicialComplex.from_facets(n, f) for n, f, _ in module.random_pure_facets(seed)]


# -- complex-structure oracles ----------------------------------------


def graph_connected(masks) -> bool:
    """Are the vertices of the faces ``masks`` joined by paths of shared faces?

    Breadth-first search on the graph that joins two vertices lying in a
    common face; empty faces add no vertex, and no vertex is connected.
    """
    neighbours: dict[int, set[int]] = {}
    for face in map(unpack, masks):
        for v in face:
            neighbours.setdefault(v, set()).update(face)
    if not neighbours:
        return True
    start = min(neighbours)
    seen, queue = {start}, deque([start])
    while queue:
        for w in neighbours[queue.popleft()] - seen:
            seen.add(w)
            queue.append(w)
    return len(seen) == len(neighbours)


def brute_force_minimal_nonfaces(cx: SimplicialComplex):
    """Minimal non-faces by enumerating every subset of the universe."""
    facet_masks = cx.facet_masks
    nonfaces = [
        m
        for m in range(1, 1 << cx.n)
        if not any(m & f == m for f in facet_masks)
    ]
    minimal = [
        m for m in nonfaces if not any(o != m and o & m == o for o in nonfaces)
    ]
    return tuple(sorted(unpack(m) for m in minimal))


def naive_shedding_tree(cx: SimplicialComplex):
    """Provan-Billera recursion on literal links and deletions, no memo.

    A vertex x sheds iff no facet of lk x is a facet of del x, so a cone
    apex, whose link is its deletion, never does.  Candidates are tried in
    descending vertex order, the link before the deletion.  Returns the
    shedding tree as ``SheddingTree.to_dict`` would, or None when the
    complex is not vertex decomposable.
    """
    if cx.is_void:
        return {"kind": "void"}
    if cx.is_empty:
        return {"kind": "empty"}
    if len(cx.facets) == 1:
        return {"kind": "simplex"}
    for x in reversed(cx.support):
        link, deletion = cx.link(x), cx.deletion(x)
        if set(link.facets) & set(deletion.facets):
            continue
        link_tree = naive_shedding_tree(link)
        if link_tree is None:
            continue
        deletion_tree = naive_shedding_tree(deletion)
        if deletion_tree is None:
            continue
        return {"kind": "shed", "vertex": x, "link": link_tree, "deletion": deletion_tree}
    return None


def ridge_recount(masks):
    """``(shedding vertices, isolated)`` of a pure facet list, by a literal count of each ridge's facets.

    A vertex x sheds iff every ridge F - x of a facet F through x lies in
    a second facet.  ``isolated`` says that some facet of two or more
    shares no ridge with another.
    """
    bits = [[1 << v for v in range(f.bit_length()) if f >> v & 1] for f in masks]
    ridges = Counter(f ^ b for f, fb in zip(masks, bits) for b in fb)
    support = lonely = 0
    isolated = False
    for f, fb in zip(masks, bits):
        own = sum(b for b in fb if ridges[f ^ b] == 1)
        support |= f
        lonely |= own
        isolated |= len(masks) > 1 and own == f
    return support & ~lonely, isolated


def _cohen_macaulay_naive(cx: SimplicialComplex, field="Q") -> CohenMacaulayResult:
    """The reference for ``is_cohen_macaulay``: every face, its literal link.

    Each link is measured by ``_reduced_betti``, with no core, no
    shortcut, no mod-2 filter and no unit pivots.
    """
    if cx.is_void:
        raise ValueError("Cohen-Macaulayness of the void complex is undefined")
    char = parse_field(field)
    if not cx.is_pure:
        return CohenMacaulayResult(False, field_label(char))
    faces = [m for level in _chain_complex(cx.facet_masks)[0] for m in level]
    for fmask in sorted(faces, key=_face_order):
        link = [g ^ fmask for g in cx.facet_masks if g & fmask == fmask]
        link_dim = cx.dim - fmask.bit_count()
        if link_dim < 0 and fmask != 0:
            continue  # link of a facet: nothing below dimension -1
        betti = _reduced_betti(link, char)
        for i in range(-1, link_dim):
            if betti.get(i, 0) != 0:
                return _result(char, (fmask, i))
    return _result(char, None)


def _linearly_presented_by_pairs(ideal) -> LinearPresentationResult:
    """The reference for ``is_linearly_presented``: every pair, in order.

    Each pair syzygy is tested in turn by the multidegree graph search
    of :func:`_linearly_joined`, and the first pair failing it is the
    witness.
    """
    if not ideal.is_equigenerated:
        raise ValueError("linear presentation is defined for equigenerated ideals")
    masks = ideal.generator_masks
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            linear = (masks[i] | masks[j]).bit_count() == masks[i].bit_count() + 1
            if not linear and not _linearly_joined(masks, i, j):
                return LinearPresentationResult(False, (i, j))
    return LinearPresentationResult(True)


def _linearly_joined(masks, i: int, j: int) -> bool:
    """Is the pair syzygy (i, j) in the span of the linear pair syzygies?

    It is iff i and j are joined in the graph on the generators dividing
    lcm(m_i, m_j) whose edges are the pairs of lcm-degree d + 1.
    """
    d = masks[0].bit_count()
    lcm = masks[i] | masks[j]
    members = [p for p, m in enumerate(masks) if m & ~lcm == 0]
    reached = {i}
    frontier = [i]
    while frontier and j not in reached:
        p = frontier.pop()
        for q in members:
            if q not in reached and (masks[p] | masks[q]).bit_count() == d + 1:
                reached.add(q)
                frontier.append(q)
    return j in reached


def brute_force_shellable(cx: SimplicialComplex):
    """Shellability by trying every facet permutation (small s only)."""
    for perm in permutations(cx.facets):
        if verify_shelling(cx, perm):
            return True
    return False


def reduced_euler_characteristic(cx: SimplicialComplex) -> int:
    """Alternating face-count sum, including the empty face with sign -1."""
    seen = {0}
    stack = [m for m in cx.facet_masks if m]
    seen.update(stack)
    while stack:
        m = stack.pop()
        rest = m
        while rest:
            bit = rest & -rest
            sub = m ^ bit
            if sub and sub not in seen:
                seen.add(sub)
                stack.append(sub)
            rest ^= bit
    return sum((-1) ** (m.bit_count() - 1) for m in seen)


# -- exact linear algebra oracles -------------------------------------


def fraction_rank(rows) -> int:
    """Gaussian elimination over Fraction: the pedestrian rational rank."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == len(m):
            break
    return rank


def modp_rank(rows, p: int) -> int:
    """Row reduction mod p, column-major pivot scan."""
    m = [[x % p for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == len(m):
            break
    return rank


def _rank_over(rows, char: int) -> int:
    return fraction_rank(rows) if char == 0 else modp_rank(rows, char)


def linear_presentation_oracle(ideal, char: int):
    """Syzygy membership as an exact linear system, one multidegree at a time.

    The component of the free module in the squarefree multidegree
    a = lcm(m_i, m_j) has one coordinate per generator dividing x^a, the
    pair syzygy is the difference of two unit coordinates, and the
    available linear syzygies restrict to unit-coordinate differences as
    well; membership is a rank comparison over the chosen field.
    """
    masks = ideal.generator_masks
    s = len(masks)
    if s <= 1:
        return True, None
    d = masks[0].bit_count()
    linear_pairs = [
        (p, q)
        for p in range(s)
        for q in range(p + 1, s)
        if (masks[p] | masks[q]).bit_count() == d + 1
    ]
    for i in range(s):
        for j in range(i + 1, s):
            if (masks[i] | masks[j]).bit_count() == d + 1:
                continue
            a = masks[i] | masks[j]
            members = [p for p in range(s) if masks[p] & ~a == 0]
            col = {p: c for c, p in enumerate(members)}
            rows = []
            for p, q in linear_pairs:
                if p in col and q in col:
                    vec = [0] * len(members)
                    vec[col[p]] = 1
                    vec[col[q]] = -1
                    rows.append(vec)
            target = [0] * len(members)
            target[col[i]] = 1
            target[col[j]] = -1
            if _rank_over(rows, char) != _rank_over(rows + [target], char):
                return False, (i, j)
    return True, None


# -- graph isomorphism classes ----------------------------------------


def connected_graph_classes(max_vertices: int = 8):
    """Connected graphs with 2..max_vertices vertices, one per iso class.

    Orders <= 7 come from the networkx graph atlas; order 8 is produced
    by attaching a new vertex to every connected 7-vertex class in all
    ways and deduplicating with an invariant bucket plus explicit
    isomorphism tests.  Yields (num_vertices, edge_list) with vertices
    relabelled 1..m.
    """
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    by_order: dict[int, list] = {m: [] for m in range(2, max_vertices + 1)}
    for g in graph_atlas_g():
        m = g.number_of_nodes()
        if 2 <= m <= min(7, max_vertices) and nx.is_connected(g):
            by_order[m].append(g)

    if max_vertices >= 8:
        def invariant(g):
            degs = dict(g.degree())
            nbr = tuple(
                sorted(
                    (degs[v], tuple(sorted(degs[u] for u in g[v]))) for v in g
                )
            )
            return (g.number_of_edges(), nbr, sum(nx.triangles(g).values()))

        buckets: dict = {}
        classes = []
        for parent in by_order[7]:
            nodes = list(parent.nodes())
            for r in range(1, len(nodes) + 1):
                for subset in combinations(nodes, r):
                    g = parent.copy()
                    new = max(nodes) + 1
                    g.add_edges_from((new, v) for v in subset)
                    key = invariant(g)
                    bucket = buckets.setdefault(key, [])
                    if not any(nx.is_isomorphic(g, h) for h in bucket):
                        bucket.append(g)
                        classes.append(g)
        by_order[8] = classes

    for m in sorted(by_order):
        for g in by_order[m]:
            relabel = {v: i + 1 for i, v in enumerate(sorted(g.nodes()))}
            edges = sorted(tuple(sorted((relabel[a], relabel[b]))) for a, b in g.edges())
            yield m, edges


# number of connected graphs on m labelled-free vertices, m = 2..8
CONNECTED_GRAPH_CLASS_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
