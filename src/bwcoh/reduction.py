"""Cohomology of a built complex by sparse unit-pivot reduction.

A factor ``A = Z^g / R Z^r`` of a degree is resolved freely by
``0 -> Z^r -R-> Z^g -> A -> 0`` once ``R`` is injective, so each factor is
first given independent relations (``PresentedGroup.injective``).  Stacking
the resolutions of a complex truncated at degree N gives the free cone

    T^n = Z^{g_n} ⊕ Z^{r_{n+1}}  (-1 <= n < N, g_{-1} = 0),   T^N = Z^{g_N},
    ∂(x, y) = (D_n x + R_{n+1} y,  -S_n x - Q_{n+1} y),

where ``D_n R_n = R_{n+1} Q_n`` and ``D_{n+1} D_n = R_{n+2} S_n``; the top
differential ``∂_{N-1}`` keeps only its first component.  ``H^n(T)`` is
``H^n`` of the complex for every ``n < N``: a cocycle ``x`` of the complex
(``D_n x`` a relation) is the ``x`` part of exactly one cone cocycle, whose
``y`` solves ``R_{n+1} y = -D_n x``.  ``S_n`` comes from the ``d∘d`` check of
``build_complex`` (``CochainComplex.dd_witness``) and ``Q_n`` from
``BlockHom.to_witness``, which solves ``D_n`` applied to each relation
column.  Both are sparse columns in relation coordinates, found, like the
``y`` of ``ReducedCone.project``, by ``ProductGroup.solve_relations``, so
the cone only shifts them into place.

The cone is checked for ``∂∘∂ = 0`` exactly, then shrunk by elimination on
±1 pivots: a pivot ``p`` at row ``i``, column ``j`` of ``∂_{n-1}`` splits off
the acyclic ``Z e_j -> Z ∂e_j``, replaces ``∂_{n-1}`` by its Schur complement
(each other column ``jj`` through row ``i`` loses ``p·c_jj[i]·col_j``), drops
``j`` as a row of ``∂_{n-2}`` and ``i`` as a column of ``∂_n``
(Kaczynski–Mischaikow–Mrozek, *Computational Homology*, ch. 4).  A column
or row whose single entry is a unit is pivoted at once; the other unit
entries are taken in least-fill order ``(cost, k, i, j)``, cost
``(|row i| - 1)·(|col j| - 1)`` in ``∂_{k-1}``, each packed into one integer
that sorts the same way.  Rows are kept as short lists of columns.  Each
pivot is a chain homotopy equivalence between the cone before and after it,
and the pivot log (per differential, in order: ``i``, ``j``, ``p``, the popped
``col_j`` without its pivot entry and the row coefficients ``(jj, c_jj[i])``)
composes them into two chain maps between the cone and its residue:

* projection to the residue, on ``T^n``: replay the pivots of ``∂_{n-1}`` in
  order, each setting ``z <- z - p·z_i·col_j`` and dropping ``z_i``, and
  drop the column ``z_j`` of every pivot of ``∂_n``;
* lift from the residue, on ``T^n``: replay the pivots of ``∂_n`` in reverse,
  each restoring ``z_j = -p·Σ c_jj[i]·z_jj``, and leave the row ``z_i`` of
  every pivot of ``∂_{n-1}`` at zero.

A pivot of ``∂_n`` drops its column ``j`` from every later ``col_j`` of
``∂_{n-1}``, so the two kinds of steps on ``T^n`` commute and each replay
needs only one differential's log.

Projection after lift is the identity on the residue, and both maps take
cocycles to cocycles.  Invariants are read off the residue directly: the
Smith diagonal (``smith_normal_form``, Hermite forms of the residue and of
transposes taken without their transforms, so a tall or wide residue costs
only its own entries) below the top, and for the top
differential only its rank over Q, found by fraction-free elimination.  The
free rank of ``H^n`` is ``dim T^n - rk ∂_n - rk ∂_{n-1}`` and its torsion is
the elementary divisors of ``∂_{n-1}`` above 1.  Induced maps use ``ReducedCone.subquotient``,
H^n as the subquotient of the two residue differentials around ``T^n``,
whose kernel basis ``bwcomplex.cohomology_map`` lifts, maps and projects.
The cone is free, so a row of the residue ``∂_n`` with a single entry
forces that coordinate to zero in every cocycle; such columns are dropped
with their rows until none is left, and the subquotient is taken on the
rest.  At the top degree the relation cells of degree N have no partner
and almost all of them go this way.  A boundary from ``∂_{n-1}`` that is
nonzero at a dropped coordinate would break ``∂∘∂ = 0`` and raises
``HomotopyIdentityError``.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from math import gcd

from .abgroup import (
    GroupHom, GroupInvariants, PresentedGroup, Subquotient, subquotient,
)
from .bwcomplex import Columns, CochainComplex, HomotopyIdentityError
from .intmat import IntMatrix, smith_normal_form

# A sparse differential: columns {col: {row: value}} (``bwcomplex.Columns``)
# and, once reduction starts, rows {row: [col, ...]}: short lists in no
# order, far smaller than sets at depth.  Zero entries are never stored.
Rows = dict[int, list[int]]
# One unit pivot: i, j, p, col_j without row i, [(jj, c_jj[i]), ...]
Pivot = tuple[int, int, int, dict[int, int], list[tuple[int, int]]]


class ReducedCone:
    """The free cone of a built complex after unit-pivot reduction.

    ``diffs[k]`` is the residue of ``∂_{k-1}: T^{k-1} -> T^k`` and
    ``log[k]`` its pivots in the order they were taken.
    """

    def __init__(self, cx: CochainComplex):
        self.cx = cx
        self.diffs = _cone(cx)
        _check_square_zero(self.diffs)
        self.dims = [len(c) for c in self.diffs] + [cx.groups[-1].total_gens]
        self.log = _reduce(self.diffs)
        self._subquotients: dict[int, tuple[list[int], Subquotient]] = {}

    @cached_property
    def invariants(self) -> list[GroupInvariants]:
        """``GroupInvariants`` of H^0..H^{N-1}."""
        top = len(self.diffs) - 1
        ranks, divisors = [], []
        for k, cols in enumerate(self.diffs):
            if k < top:
                diag = _elementary_divisors(cols)
                ranks.append(len(self.log[k]) + len(diag))
                divisors.append(tuple(d for d in diag if d > 1))
            else:
                ranks.append(len(self.log[k]) + _rank(cols))
        # T-index k + 1 holds T^k; ∂ index k is ∂_{k-1}: T^{k-1} -> T^k
        return [GroupInvariants(self.dims[n + 1] - ranks[n + 1] - ranks[n],
                                divisors[n])
                for n in range(self.cx.max_degree)]

    def subquotient(self, n: int) -> Subquotient:
        """H^n as ker ∂_n / im ∂_{n-1} of the residue, whose ambient
        coordinates are the residue basis of T^n in increasing order."""
        return self._residue(n)[1]

    def _residue(self, n: int) -> tuple[list[int], Subquotient]:
        if n not in self._subquotients:
            d_in, d_out = self.diffs[n], self.diffs[n + 1]
            dropped = _forced_zero(d_out)
            basis = sorted(j for j in d_out if j not in dropped)
            sources = sorted(j for j, c in d_in.items() if c)
            for j in sources:
                for i in d_in[j]:
                    if i in dropped:
                        raise HomotopyIdentityError(
                            f"residue ∂∘∂ != 0 into degree {n}: column {j} "
                            f"is nonzero at the forced-zero row {i}")
            targets = sorted({i for j in basis for i in d_out[j]})
            mid = _free(len(basis))
            sq = subquotient(
                GroupHom(_free(len(sources)), mid,
                         _dense(d_in, sources, basis)),
                GroupHom(mid, _free(len(targets)),
                         _dense(d_out, basis, targets)))
            self._subquotients[n] = (basis, sq)
        return self._subquotients[n]

    def lift(self, n: int, z: list[int]) -> dict[int, int]:
        """The x part of the cone cocycle lifted from the residue cocycle
        ``z`` of degree n, as {generator coordinate: value}."""
        basis = self._residue(n)[0]
        v = {c: a for c, a in zip(basis, z) if a}
        for i, j, p, col, coeffs in reversed(self.log[n + 1]):
            s = 0
            for jj, c in coeffs:
                a = v.get(jj)
                if a:
                    s += c * a
            if s:
                v[j] = -p * s
        gens = self.cx.groups[n].total_gens
        return {c: a for c, a in v.items() if c < gens}

    def project(self, n: int, x: dict[int, int]) -> list[int]:
        """Residue coordinates of the cone cocycle whose x part is the
        cocycle ``x`` of degree n.

        Its y part solves ``R_{n+1} y = -D_n x`` in each factor's
        independent relations; ``HomotopyIdentityError`` names the first
        degree n+1 coordinate where ``D_n x`` is not a relation."""
        cx = self.cx
        y, bad = cx.groups[n + 1].solve_relations(
            {r: -a for r, a in cx.diffs[n].apply(x).items()})
        if bad is not None:
            raise HomotopyIdentityError(
                f"cocycle condition fails at degree {n}: "
                f"target {cx.coordinate_name(n + 1, bad)}")
        v = dict(x)
        y0 = cx.groups[n].total_gens
        for r, a in y.items():
            v[y0 + r] = a
        for i, j, p, col, coeffs in self.log[n]:
            a = v.pop(i, 0)
            if a:
                f = p * a
                for r, b in col.items():
                    w = v.get(r, 0) - b * f
                    if w:
                        v[r] = w
                    else:
                        v.pop(r, None)
        return [v.get(c, 0) for c in self._residue(n)[0]]


def _forced_zero(cols: Columns) -> set[int]:
    """The columns of a residue differential on which every cocycle
    vanishes, found by peeling rows with a single entry: such a row forces
    its column to zero, and dropping that column may leave other rows with
    a single entry."""
    rows = _rows(cols)
    queue = [i for i, row in rows.items() if len(row) == 1]
    dropped: set[int] = set()
    while queue:
        row = rows[queue.pop()]
        if len(row) != 1:
            continue
        j = row[0]
        dropped.add(j)
        for i in cols[j]:
            rest = rows[i]
            rest.remove(j)
            if len(rest) == 1:
                queue.append(i)
    return dropped


def _rows(cols: Columns) -> Rows:
    rows: Rows = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, []).append(j)
    return rows


def _free(rank: int) -> PresentedGroup:
    return PresentedGroup(rank, IntMatrix(rank, 0, ()))


def _dense(cols: Columns, col_ids: list[int], row_ids: list[int]
           ) -> IntMatrix:
    """The submatrix of ``cols`` on the given rows and columns, which hold
    every nonzero entry of those columns."""
    where = {i: n for n, i in enumerate(row_ids)}
    width = len(col_ids)
    flat = [0] * (len(row_ids) * width)
    for n, j in enumerate(col_ids):
        for i, v in cols[j].items():
            flat[where[i] * width + n] = v
    return IntMatrix(len(row_ids), width, tuple(flat))


# ---------------------------------------------------------------------------
# the cone

def _cone(cx: CochainComplex) -> list[Columns]:
    """∂_{-1}, ..., ∂_{N-1} of the free cone, as sparse columns."""
    top = cx.max_degree
    # T^n for n = -1..N: x part at 0, y part (relations of degree n+1) after it
    x_size = [0] + [g.total_gens for g in cx.groups]
    y_size = [g.injective_rel_offsets[-1] for g in cx.groups] + [0]
    diffs: list[Columns] = []
    for n in range(-1, top):
        diffs.append({j: {} for j in range(x_size[n + 1] + y_size[n + 1])})

    for n in range(-1, top):
        cols = diffs[n + 1]
        y0, below = x_size[n + 1], x_size[n + 2]   # y offset in T^n, T^{n+1}
        if n >= 0:
            for j, col in cx.diffs[n].columns.items():            # D_n x
                cols[j].update(col)
        if 0 <= n < top - 1:
            for j, col in cx.dd_witness[n].items():               # -S_n x
                _shift(cols[j], below, col)
        for _, j, col in cx.groups[n + 1].relation_columns():     # R_{n+1} y
            cols[y0 + j].update(col)
        if n < top - 1:
            witness, bad = cx.diffs[n + 1].to_witness()           # -Q_{n+1} y
            if bad is not None:
                raise HomotopyIdentityError(
                    f"differential from degree {n + 1} does not preserve "
                    f"relations: target {cx.coordinate_name(n + 2, bad[0])}, "
                    f"source {cx.coordinate_name(n + 1, bad[1])}")
            for j, col in witness.items():
                _shift(cols[y0 + j], below, col)
    return diffs


def _shift(col: dict[int, int], row0: int, entries: dict[int, int]) -> None:
    """Write the negated ``entries`` into ``col``, moved down by ``row0``."""
    for r, v in entries.items():
        col[row0 + r] = -v


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

def _reduce(diffs: list[Columns]) -> list[list[Pivot]]:
    """Eliminate ±1 pivots in place; the pivot log of each differential."""
    rows = [_rows(cols) for cols in diffs]
    log: list[list[Pivot]] = [[] for _ in diffs]
    queue: list[tuple[int, int, int]] = []     # (kind, k, index); 0 col, 1 row

    def pivot(k: int, i: int, j: int) -> None:
        cols, rk = diffs[k], rows[k]
        col = cols.pop(j)
        p = col.pop(i)
        row = rk.pop(i)
        row.remove(j)
        for r in col:
            rk[r].remove(j)
        coeffs = []
        for jj in row:
            c = cols[jj]
            ci = c.pop(i)
            coeffs.append((jj, ci))
            f = ci * p
            for r, a in col.items():
                v = c.get(r, 0) - a * f
                if v:
                    if r not in c:
                        rk[r].append(jj)
                    c[r] = v
                elif r in c:
                    del c[r]
                    rk[r].remove(jj)
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
                rr.remove(i)
                if len(rr) == 1:
                    queue.append((1, k + 1, r))
        log[k].append((i, j, p, col, coeffs))

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
                j = row[0]
                v = diffs[k][j][x]
                if v == 1 or v == -1:
                    pivot(k, x, j)

    for k, cols in enumerate(diffs):
        queue.extend((0, k, j) for j, col in cols.items() if len(col) == 1)
        queue.extend((1, k, i) for i, row in rows[k].items() if len(row) == 1)
    # a candidate (cost, k, i, j) packed into one int that sorts the same way
    nk = len(diffs)
    w = 1 + max(max(m, default=0) for m in (*diffs, *rows))
    while True:
        drain()
        # least-fill unit pivots, taken in order while their fill has not grown
        cands = sorted(
            (((len(rows[k][i]) - 1) * (len(col) - 1) * nk + k) * w + i) * w + j
            for k, cols in enumerate(diffs)
            for j, col in cols.items()
            for i, v in col.items() if v == 1 or v == -1)
        if not cands:
            return log
        for key in cands:
            key, j = divmod(key, w)
            key, i = divmod(key, w)
            cost, k = divmod(key, nk)
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
    col_ids = sorted(j for j, c in cols.items() if c)
    row_ids = sorted({i for j in col_ids for i in cols[j]})
    return smith_normal_form(_dense(cols, col_ids, row_ids))


def _rank(cols: Columns) -> int:
    """Rank over Q by sparse fraction-free elimination, shortest column
    first: a pivot p at (i, j) replaces each other column c through row i by
    p*c - c[i]*col_j (by c - p*c[i]*col_j when p is ±1).  Works on a copy,
    so ``cols`` is left as it was."""
    cols = {j: _primitive(dict(c)) for j, c in cols.items() if c}
    rows = _rows(cols)
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
            rows[r].remove(j)
        row = rows.pop(i)
        row.remove(j)
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
                        rows[r].append(jj)
                    c[r] = v
                elif r in c:
                    del c[r]
                    rows[r].remove(jj)
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
