"""The hot kernels: exact matrix ranks, the shelling-order search and its greedy pass.

Pure Python, and the only implementation.  Callers reach them through
the module attribute (``_kernels.rank_bareiss(...)``), so a wrapper set
on the module sees every call.

``greedy_shelling`` is the first descent of ``search_shelling`` with no
backtracking, kept incrementally.  ``decompose.is_shellable`` runs it as
its probe, and ``homology.cohen_macaulay_by_field`` and
``ideals.is_linearly_presented`` as a fast path: a shellable complex is
Cohen-Macaulay over every field, so satisfies Serre's (S2), and an
order it finds for a pure complex of dimension >= 2 decides both
properties with no link measured.  A graph's Reisner or (S2) test is one
connectivity test, cheaper than the pass, so it gets none.
"""

from __future__ import annotations

FOUND = 0
NOT_SHELLABLE = 1
EXHAUSTED = 2


def implementation_name() -> str:
    """Name of the kernels in use; there is one implementation."""
    return "pure"


def rank_bareiss(rows: list[list[int]], ncols: int) -> int:
    """Rank of an integer matrix over the rationals.

    Fraction-free (Bareiss) elimination: every intermediate entry is a
    minor of the input, every division is exact, so the computation
    stays in arbitrary-precision integers.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    if nrows == 0 or ncols == 0:
        return 0
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            row_i = m[i]
            factor = row_i[c]
            row_r = m[r]
            for j in range(c + 1, ncols):
                row_i[j] = (row_i[j] * pivot - factor * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def rank_mod_p(rows: list[list[int]], ncols: int, p: int) -> int:
    """Rank of an integer matrix over the field with p elements (p prime)."""
    nrows = len(rows)
    if nrows == 0 or ncols == 0:
        return 0
    m = [[x % p for x in row] for row in rows]
    rank = 0
    r = 0
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            f = row_i[c] * inv % p
            if f:
                for j in range(c, ncols):
                    row_i[j] = (row_i[j] - f * row_r[j]) % p
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def rank_unit_pivots(columns) -> tuple[int, list[dict[int, int]]]:
    """Eliminate a sparse integer matrix on its +-1 entries only.

    ``columns`` lists each column as (row, value) pairs.  A pivot on a unit
    entry (r, c) clears row r from every other column by an integer column
    operation; with the pivot's column and row dropped, that is a
    unimodular step, so the rank over Q and over every F_p is the number
    of pivots plus the rank of what is left.  Returns ``(pivots, rest)``:
    ``rest`` holds the nonzero leftover columns as {row: value} dicts, none
    with a +-1 entry.  Columns are taken in order, each on its unit entry
    whose row has the fewest entries (linear in the column), and a column
    with no unit entry is retried after the pass that changed it.
    """
    cols: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}  # row -> the columns with an entry there
    for c, column in enumerate(columns):
        col = {r: x for r, x in column if x}
        cols[c] = col
        for r in col:
            holders.setdefault(r, set()).add(c)
    pivots = 0
    queue = list(cols)
    while queue:
        retry = []
        for c in queue:
            col = cols[c]
            best = -1
            fewest = 0
            for r, x in col.items():
                if (x == 1 or x == -1) and (best < 0 or len(holders[r]) < fewest):
                    best = r
                    fewest = len(holders[r])
            if best < 0:
                if col:
                    retry.append(c)
                continue
            del cols[c]
            pivot = col.pop(best)
            for r in col:
                holders[r].discard(c)
            holders_best = holders.pop(best)
            holders_best.discard(c)
            for d in holders_best:
                other = cols[d]
                factor = other.pop(best) * pivot  # pivot * pivot == 1
                for r, x in col.items():
                    y = other.get(r, 0) - factor * x
                    if y:
                        if r not in other:
                            holders[r].add(d)
                        other[r] = y
                    elif r in other:
                        del other[r]
                        holders[r].discard(d)
            pivots += 1
        if len(retry) == len(queue):
            break
        queue = retry
    return pivots, [col for col in cols.values() if col]


def rank_mod_2_masks(masks) -> int:
    """Rank over F2 of the vectors given as int bitmasks (bit j = entry j)."""
    pivots: dict[int, int] = {}
    for bits in masks:
        while bits:
            top = bits.bit_length()
            other = pivots.get(top)
            if other is None:
                pivots[top] = bits
                break
            bits ^= other
    return len(pivots)


def search_shelling(masks: list[int], budget: int) -> tuple[int, list[int] | None, int]:
    """Depth-first search for a shelling order of a pure facet list.

    A facet extends a prefix iff the set of its faces already covered by
    placed facets is a nonempty union of its codimension-1 faces.  For an
    antichain this is a pairwise test: with ``shed`` the vertices x such
    that F minus some placed g is exactly {x}, F extends iff ``shed`` meets
    F minus g for every placed g (so ``shed`` is nonempty).  States
    (sets of placed facets) that exhausted without completing are
    memoized, so the search never revisits a dead prefix.

    Returns ``(status, order, nodes)`` with status FOUND / NOT_SHELLABLE /
    EXHAUSTED; ``order`` lists facet indices when status is FOUND; nodes
    counts expanded states (compared against ``budget``).
    """
    s = len(masks)
    if s == 0:
        return (FOUND, [], 0)
    order = [0] * s
    placed: list[int] = []
    visited: set[int] = set()

    def extendable(fm: int) -> bool:
        # The ridge fm - x lies in a placed g iff fm & ~g is exactly x
        # (never empty: fm is in no other facet), so ``shed`` collects the
        # vertices whose ridge is covered.  The intersection fm & g lies in
        # a covered ridge iff shed & ~(fm & g) = fm & ~g & shed is nonzero.
        outs = [fm & ~g for g in placed]
        shed = 0
        for out in outs:
            if out & (out - 1) == 0:
                shed |= out
        return all(out & shed for out in outs)

    # An explicit stack, not recursion: one frame per placed facet would
    # overflow the interpreter's stack (vdW(50, 1) has 1225 facets).
    # Frame d holds the placed set at depth d and an iterator over its
    # remaining candidates, so candidate order and node accounting match
    # a recursive search; the records in ``test_pure_search_pinned`` are
    # the reference.
    nodes = 1  # the root state
    if nodes > budget:
        return (EXHAUSTED, None, nodes)
    frames = [(0, iter(range(s)))]
    while frames:
        placed_mask, candidates = frames[-1]
        depth = len(placed)
        for f in candidates:
            if placed_mask >> f & 1 or (depth and not extendable(masks[f])):
                continue
            order[depth] = f
            if depth + 1 == s:
                return (FOUND, order, nodes)
            child = placed_mask | 1 << f
            if child in visited:
                continue
            nodes += 1
            if nodes > budget:
                return (EXHAUSTED, None, nodes)
            placed.append(masks[f])
            frames.append((child, iter(range(s))))
            break
        else:
            visited.add(placed_mask)
            frames.pop()
            if depth:
                placed.pop()
    return (NOT_SHELLABLE, None, nodes)


def greedy_shelling(masks: list[int]) -> list[int] | None:
    """The first descent of :func:`search_shelling`: a shelling order, or None at a dead end.

    Each step places the first unplaced facet, in index order, that
    extends the prefix; the pass gives up at the first step with none, so
    it costs one update of every unplaced facet per placed one.  For each
    unplaced facet h it keeps ``search_shelling``'s extension test
    incrementally: ``shed[h]``, the vertices x with h - g = {x} for a
    placed g, and ``pending[h]``, the sets h - g of placed g that miss
    ``shed[h]``.  h extends the prefix iff ``shed[h]`` is nonzero and
    ``pending[h]`` is empty.  An order found this way is the one
    ``search_shelling`` finds in exactly ``len(masks)`` nodes; any other
    outcome of that search costs more nodes.
    """
    s = len(masks)
    if s == 0:
        return []
    shed = [0] * s
    pending: list[list[int]] = [[] for _ in range(s)]
    order = [0]
    rest = list(range(1, s))
    g = masks[0]
    while rest:
        chosen = -1
        for h in rest:
            out = masks[h] & ~g  # nonzero: the facets form an antichain
            covered = shed[h]
            if out & (out - 1) == 0:  # the ridge h - x lies in g
                if not out & covered:
                    covered = shed[h] = covered | out
                    if pending[h]:
                        pending[h] = [p for p in pending[h] if not p & covered]
            elif not out & covered:
                pending[h].append(out)
            if chosen < 0 and covered and not pending[h]:
                chosen = h
        if chosen < 0:
            return None
        order.append(chosen)
        rest.remove(chosen)
        g = masks[chosen]
    return order
