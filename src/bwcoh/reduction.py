"""Cohomology invariants of a built complex by sparse unit-pivot reduction.

A factor ``A = Z^g / R Z^r`` of a degree is resolved freely by
``0 -> Z^r -R-> Z^g -> A -> 0`` once ``R`` is injective, so each factor is
first given independent relations (``PresentedGroup.injective``).  Stacking
the resolutions of a complex truncated at degree N gives the free cone

    T^n = Z^{g_n} ⊕ Z^{r_{n+1}}  (-1 <= n < N, g_{-1} = 0),   T^N = Z^{g_N},
    ∂(x, y) = (D_n x + R_{n+1} y,  -S_n x - Q_{n+1} y),

where ``D_n R_n = R_{n+1} Q_n`` and ``D_{n+1} D_n = R_{n+2} S_n``; the top
differential ``∂_{N-1}`` keeps only its first component.  ``H^n(T)`` is
``H^n`` of the complex for every ``n < N``.  ``S_n`` comes from the ``d∘d``
check of ``build_complex`` (``CochainComplex.dd_witness``) and ``Q_n`` from
``BlockHom.to_witness``, which solves it block by block in the factors'
independent relations.

The cone is checked for ``∂∘∂ = 0`` exactly, then shrunk by elimination on
±1 pivots: each pivot splits off an acyclic ``Z -±1-> Z``, replaces its own
differential by the Schur complement, drops its column's basis element as a
row of the differential below and its row's basis element as a column of the
differential above (Kaczynski–Mischaikow–Mrozek, *Computational Homology*,
ch. 4).  The small residue is finished by ``smith_normal_form``; the top
differential needs only its rank over Q, found by fraction-free elimination.
The free rank of ``H^n`` is ``dim T^n - rk ∂_n - rk ∂_{n-1}`` and its torsion
is the elementary divisors of ``∂_{n-1}`` above 1.
"""

from __future__ import annotations

import heapq
from math import gcd

from .abgroup import GroupInvariants
from .bwcomplex import CochainComplex, HomotopyIdentityError, ProductGroup
from .intmat import IntMatrix, smith_normal_form

# A sparse differential: columns {col: {row: value}} and, once reduction
# starts, rows {row: {col, ...}}.  Zero entries are never stored.
Columns = dict[int, dict[int, int]]
Rows = dict[int, set[int]]


def cohomology_invariants(cx: CochainComplex) -> list[GroupInvariants]:
    """``GroupInvariants`` of H^0..H^{N-1} of a built ``CochainComplex``."""
    diffs = _cone(cx)
    _check_square_zero(diffs)
    dims = [len(c) for c in diffs] + [cx.groups[-1].total_gens]
    pivots = _reduce(diffs)
    top = len(diffs) - 1
    ranks, divisors = [], []
    for k, cols in enumerate(diffs):
        if k < top:
            diag = _elementary_divisors(cols)
            ranks.append(pivots[k] + len(diag))
            divisors.append(tuple(d for d in diag if d > 1))
        else:
            ranks.append(pivots[k] + _rank(cols))
    # T-index k + 1 holds T^k; ∂ index k is ∂_{k-1}: T^{k-1} -> T^k
    return [GroupInvariants(dims[n + 1] - ranks[n + 1] - ranks[n],
                            divisors[n])
            for n in range(cx.max_degree)]


# ---------------------------------------------------------------------------
# the cone

def _cone(cx: CochainComplex) -> list[Columns]:
    """∂_{-1}, ..., ∂_{N-1} of the free cone, as sparse columns."""
    top = cx.max_degree
    inj = [tuple(f.injective for f in g.factors) for g in cx.groups]
    gens = [g.gen_offsets for g in cx.groups]
    rels = [ProductGroup(fs).rel_offsets for fs in inj]
    # T^n for n = -1..N: x part at 0, y part (relations of degree n+1) after it
    x_size = [0] + [g[-1] for g in gens]
    y_size = [r[-1] for r in rels] + [0]
    diffs: list[Columns] = []
    for n in range(-1, top):
        diffs.append({j: {} for j in range(x_size[n + 1] + y_size[n + 1])})

    for n in range(-1, top):
        cols = diffs[n + 1]
        y0, below = x_size[n + 1], x_size[n + 2]   # y offset in T^n, T^{n+1}
        if n >= 0:
            for (t, s), m in cx.diffs[n].blocks.items():          # D_n x
                _put(cols, gens[n][s], gens[n + 1][t], m, 1)
        if 0 <= n < top - 1:
            for (t, s), x in cx.dd_witness[n].items():            # -S_n x
                _put(cols, gens[n][s], below + rels[n + 2][t], x, -1)
        for s, f in enumerate(inj[n + 1]):                        # R_{n+1} y
            _put(cols, y0 + rels[n + 1][s], gens[n + 1][s], f.relations, 1)
        if n < top - 1:
            witness, bad = cx.diffs[n + 1].to_witness()           # -Q_{n+1} y
            if bad is not None:
                raise HomotopyIdentityError(
                    f"differential from degree {n + 1} does not preserve "
                    f"relations: target {cx.coordinate_name(n + 2, bad[0])}, "
                    f"source {cx.coordinate_name(n + 1, bad[1])}")
            for (t, s), q in witness.items():
                _put(cols, y0 + rels[n + 1][s], below + rels[n + 2][t], q, -1)
    return diffs


def _put(cols: Columns, col0: int, row0: int, m: IntMatrix, sign: int) -> None:
    """Write sign * m into the columns with its corner at (row0, col0)."""
    c, e = m.cols, m.entries
    for i in range(m.rows):
        base = i * c
        for j in range(c):
            v = e[base + j]
            if v:
                cols[col0 + j][row0 + i] = sign * v


def _check_square_zero(diffs: list[Columns]) -> None:
    for k in range(len(diffs) - 1):
        upper = diffs[k + 1]
        for j, col in diffs[k].items():
            acc: dict[int, int] = {}
            for i, a in col.items():
                for r, b in upper[i].items():
                    acc[r] = acc.get(r, 0) + a * b
            if any(acc.values()):
                raise HomotopyIdentityError(
                    f"cone ∂∘∂ != 0 from degree {k - 1}: column {j}")


# ---------------------------------------------------------------------------
# unit-pivot elimination

def _reduce(diffs: list[Columns]) -> list[int]:
    """Eliminate ±1 pivots in place; the number of pivots per differential."""
    rows: list[Rows] = []
    for cols in diffs:
        r: Rows = {}
        for j, col in cols.items():
            for i in col:
                r.setdefault(i, set()).add(j)
        rows.append(r)
    pivots = [0] * len(diffs)
    queue: list[tuple[int, int, int]] = []     # (kind, k, index); 0 col, 1 row

    def pivot(k: int, i: int, j: int) -> None:
        cols, rk = diffs[k], rows[k]
        col = cols.pop(j)
        p = col.pop(i)
        row = rk.pop(i)
        row.discard(j)
        for r in col:
            rk[r].discard(j)
        for jj in row:
            c = cols[jj]
            f = c.pop(i) * p
            for r, a in col.items():
                v = c.get(r, 0) - a * f
                if v:
                    if r not in c:
                        rk[r].add(jj)
                    c[r] = v
                elif r in c:
                    del c[r]
                    rk[r].discard(jj)
            if len(c) == 1:
                queue.append((0, k, jj))
        for r in col:
            if len(rk[r]) == 1:
                queue.append((1, k, r))
        if k > 0:            # basis element j leaves T as a row below
            for cc in rows[k - 1].pop(j, ()):
                c = diffs[k - 1][cc]
                del c[j]
                if len(c) == 1:
                    queue.append((0, k - 1, cc))
        if k + 1 < len(diffs):   # basis element i leaves T as a column above
            for r in diffs[k + 1].pop(i):
                rr = rows[k + 1][r]
                rr.discard(i)
                if len(rr) == 1:
                    queue.append((1, k + 1, r))
        pivots[k] += 1

    def drain() -> None:
        while queue:
            kind, k, x = queue.pop()
            if kind == 0:
                col = diffs[k].get(x)
                if col is None or len(col) != 1:
                    continue
                (i, v), = col.items()
                if v == 1 or v == -1:
                    pivot(k, i, x)
            else:
                row = rows[k].get(x)
                if row is None or len(row) != 1:
                    continue
                j = next(iter(row))
                v = diffs[k][j][x]
                if v == 1 or v == -1:
                    pivot(k, x, j)

    for k, cols in enumerate(diffs):
        queue.extend((0, k, j) for j, col in cols.items() if len(col) == 1)
        queue.extend((1, k, i) for i, row in rows[k].items() if len(row) == 1)
    while True:
        drain()
        # least-fill unit pivots, taken in order while their fill has not grown
        cands = sorted(
            ((len(rows[k][i]) - 1) * (len(col) - 1), k, i, j)
            for k, cols in enumerate(diffs)
            for j, col in cols.items()
            for i, v in col.items() if v == 1 or v == -1)
        if not cands:
            return pivots
        for cost, k, i, j in cands:
            col = diffs[k].get(j)
            if col is None or col.get(i) not in (1, -1):
                continue
            if (len(rows[k][i]) - 1) * (len(col) - 1) > cost:
                continue
            pivot(k, i, j)
            drain()


# ---------------------------------------------------------------------------
# finishing the residue

def _elementary_divisors(cols: Columns) -> list[int]:
    """Nonzero Smith diagonal of the nonzero part of a residue."""
    cols = {j: c for j, c in cols.items() if c}
    if not cols:
        return []
    row_ids = sorted({i for c in cols.values() for i in c})
    where = {i: n for n, i in enumerate(row_ids)}
    width = len(cols)
    flat = [0] * (len(row_ids) * width)
    for n, j in enumerate(sorted(cols)):
        for i, v in cols[j].items():
            flat[where[i] * width + n] = v
    _, s, _ = smith_normal_form(IntMatrix(len(row_ids), width, tuple(flat)))
    return [d for d in (s.at(i, i) for i in range(min(s.rows, s.cols))) if d]


def _rank(cols: Columns) -> int:
    """Rank over Q by sparse fraction-free elimination, shortest column
    first: a pivot p at (i, j) replaces each other column c through row i by
    p*c - c[i]*col_j (by c - p*c[i]*col_j when p is ±1)."""
    cols = {j: _primitive(c) for j, c in cols.items() if c}
    rows: Rows = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    heap = [(len(c), j) for j, c in cols.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        size, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None:
            continue
        if len(col) != size:
            heapq.heappush(heap, (len(col), j))
            continue
        del cols[j]
        if not col:
            continue
        i = min(col, key=lambda i: (abs(col[i]), len(rows[i])))
        p = col.pop(i)
        unit = p == 1 or p == -1
        for r in col:
            rows[r].discard(j)
        row = rows.pop(i)
        row.discard(j)
        for jj in row:
            c = cols[jj]
            f = c.pop(i)
            if unit:
                f *= p
            else:
                for r in c:
                    c[r] *= p
            for r, a in col.items():
                v = c.get(r, 0) - a * f
                if v:
                    if r not in c:
                        rows[r].add(jj)
                    c[r] = v
                elif r in c:
                    del c[r]
                    rows[r].discard(jj)
            if not unit:
                cols[jj] = c = _primitive(c)
            heapq.heappush(heap, (len(c), jj))
        rank += 1
    return rank


def _primitive(col: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    return {r: v // g for r, v in col.items()} if g > 1 else col
