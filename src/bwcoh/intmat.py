"""Exact integer matrix arithmetic: Smith/Hermite normal forms and lattice solving.

Matrices are immutable, row-major, with arbitrary-precision integer entries.
Empty matrices (zero rows and/or columns) are legal and arise routinely, e.g.
as relation matrices of free groups and as differentials out of empty degrees.

Conventions fixed here and relied on everywhere else:

* ``smith_normal_form(m)`` returns the nonzero Smith invariants of ``m`` as
  a list ``[d1, d2, ...]``: positive, each dividing the next, 1s included,
  so its length is the rank.  No transforms are kept.  ``m`` is
  diagonalized by row and column operations around pivots of minimal
  absolute value, which keeps intermediate entries small in practice; the
  diagonal is then put in divisibility order by replacing pairs with their
  gcd and lcm (``divisibility_chain``).
* ``hermite_normal_form(m)`` returns ``(h, u)`` with ``h == m @ u`` and ``u``
  unimodular.  ``h`` is in column echelon form: pivots are positive, pivot
  rows strictly increase left to right, zero columns sit at the right end,
  and in a pivot row the entries of earlier columns are reduced into
  ``[0, pivot)``.
* ``LatticeSolver`` wraps one Hermite form and answers exact questions about
  the column lattice of a matrix: membership, solving ``A x = b`` over the
  integers, and a kernel basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class DimensionMismatch(ValueError):
    """Matrix shapes do not allow the requested operation."""


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @staticmethod
    def from_rows(rows: list[list[int]] | tuple) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[int] = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
            flat.extend(int(x) for x in row)
        return IntMatrix(r, c, tuple(flat))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        e = [0] * (n * n)
        for i in range(n):
            e[i * n + i] = 1
        return IntMatrix(n, n, tuple(e))

    @staticmethod
    def zeros(r: int, c: int) -> "IntMatrix":
        return IntMatrix(r, c, (0,) * (r * c))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        e = self.entries
        return [list(e[i * c:(i + 1) * c]) for i in range(self.rows)]

    def column(self, j: int) -> list[int]:
        c = self.cols
        return [self.entries[i * c + j] for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m, p = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (n * p)
        for i in range(n):
            abase = i * m
            rbase = i * p
            for k in range(m):
                x = a[abase + k]
                if x:
                    bbase = k * p
                    if x == 1:
                        for j in range(p):
                            y = b[bbase + j]
                            if y:
                                out[rbase + j] += y
                    else:
                        for j in range(p):
                            y = b[bbase + j]
                            if y:
                                out[rbase + j] += x * y
        return IntMatrix(n, p, tuple(out))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("addition shape mismatch")
        return IntMatrix(
            self.rows, self.cols,
            tuple(x + y for x, y in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("subtraction shape mismatch")
        return IntMatrix(
            self.rows, self.cols,
            tuple(x - y for x, y in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(k * x for x in self.entries))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        rows = []
        for i in range(self.rows):
            rows.append(
                list(self.entries[i * self.cols:(i + 1) * self.cols])
                + list(other.entries[i * other.cols:(i + 1) * other.cols])
            )
        if not rows:
            return IntMatrix(0, self.cols + other.cols, ())
        return IntMatrix.from_rows(rows)

    @staticmethod
    def block_diag(mats: list["IntMatrix"]) -> "IntMatrix":
        rtot = sum(m.rows for m in mats)
        ctot = sum(m.cols for m in mats)
        out = [0] * (rtot * ctot)
        roff = coff = 0
        for m in mats:
            for i in range(m.rows):
                base = (roff + i) * ctot + coff
                mbase = i * m.cols
                for j in range(m.cols):
                    out[base + j] = m.entries[mbase + j]
            roff += m.rows
            coff += m.cols
        return IntMatrix(rtot, ctot, tuple(out))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()})"


def _swap_cols(a: list[list[int]], j1: int, j2: int) -> None:
    for row in a:
        row[j1], row[j2] = row[j2], row[j1]


def _col_addmul(a: list[list[int]], jdst: int, jsrc: int, q: int) -> None:
    # column jdst += q * column jsrc
    for row in a:
        x = row[jsrc]
        if x:
            row[jdst] += q * x


def _negate_col(a: list[list[int]], j: int) -> None:
    for row in a:
        row[j] = -row[j]


def _eye_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m: IntMatrix) -> list[int]:
    """The nonzero Smith invariants of m: positive, each dividing the next."""
    r, c = m.rows, m.cols
    a = m.to_rows()
    diag: list[int] = []
    t = 0
    while t < r and t < c:
        # minimal-absolute-value pivot in the trailing block
        piv = None
        best = 0
        for i in range(t, r):
            ai = a[i]
            for j in range(t, c):
                x = ai[j]
                if x:
                    ax = -x if x < 0 else x
                    if piv is None or ax < best:
                        piv = (i, j)
                        best = ax
                        if ax == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            _swap_cols(a, t, j0)

        while True:
            restart = False
            # clear column t by row operations; rows from t on are zero left
            # of column t
            for i in range(t + 1, r):
                ai = a[i]
                x = ai[t]
                if x:
                    q = x // a[t][t]
                    if q:
                        at = a[t]
                        for j in range(t, c):
                            ai[j] -= q * at[j]
                    if ai[t]:
                        a[t], a[i] = ai, a[t]
                        restart = True
                        break
            if restart:
                continue
            # clear row t by column operations
            for j in range(t + 1, c):
                x = a[t][j]
                if x:
                    q = x // a[t][t]
                    if q:
                        _col_addmul(a, j, t, -q)
                    if a[t][j]:
                        _swap_cols(a, t, j)
                        restart = True
                        break
            if not restart:
                break
        p = a[t][t]
        diag.append(abs(p))
        t += 1
    return divisibility_chain(diag)


def divisibility_chain(ds: list[int]) -> list[int]:
    """``ds``, positive integers, rearranged in place into the Smith form of
    ``diag(ds)``, each dividing the next, and returned.

    diag(x, y) and diag(gcd, lcm) have the same Smith form."""
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            x, y = ds[i], ds[j]
            g = gcd(x, y)
            ds[i], ds[j] = g, x // g * y
    return ds


def _hnf_core(m: IntMatrix) -> tuple[list[list[int]], list[list[int]], list[tuple[int, int]]]:
    r, c = m.rows, m.cols
    a = m.to_rows()
    u = _eye_rows(c)
    pivots: list[tuple[int, int]] = []
    col = 0
    for row in range(r):
        if col >= c:
            break
        if not any(a[row][j] for j in range(col, c)):
            continue
        while True:
            j0 = None
            best = 0
            for j in range(col, c):
                x = a[row][j]
                if x:
                    ax = -x if x < 0 else x
                    if j0 is None or ax < best:
                        j0 = j
                        best = ax
            if j0 != col:
                _swap_cols(a, col, j0)
                _swap_cols(u, col, j0)
            if a[row][col] < 0:
                _negate_col(a, col)
                _negate_col(u, col)
            p = a[row][col]
            done = True
            for j in range(col + 1, c):
                x = a[row][j]
                if x:
                    q = x // p
                    if q:
                        _col_addmul(a, j, col, -q)
                        _col_addmul(u, j, col, -q)
                    if a[row][j]:
                        done = False
            if done:
                break
        # reduce this row's entries in earlier pivot columns
        p = a[row][col]
        for (_, pc) in pivots:
            q = a[row][pc] // p
            if q:
                _col_addmul(a, pc, col, -q)
                _col_addmul(u, pc, col, -q)
        pivots.append((row, col))
        col += 1
    return a, u, pivots


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return (h, u) with h = m @ u in column-style Hermite normal form."""
    a, u, _ = _hnf_core(m)
    h = IntMatrix.from_rows(a) if m.rows else IntMatrix(0, m.cols, ())
    umat = IntMatrix.from_rows(u) if m.cols else IntMatrix(0, 0, ())
    return h, umat


class LatticeSolver:
    """Exact queries against the column lattice of an integer matrix.

    Built once per matrix; reused for membership tests, solving and kernels.
    """

    def __init__(self, mat: IntMatrix):
        self.mat = mat
        a, u, pivots = _hnf_core(mat)
        self._h = a
        self._u = u
        self._pivots = pivots

    def solve(self, b: list[int]) -> list[int] | None:
        """An integer x with mat @ x = b, or None if no solution exists."""
        if len(b) != self.mat.rows:
            raise DimensionMismatch("rhs length mismatch")
        res = list(b)
        c = self.mat.cols
        y = [0] * c
        for (pr, pc) in self._pivots:
            p = self._h[pr][pc]
            q, rem = divmod(res[pr], p)
            if rem:
                return None
            if q:
                y[pc] = q
                for i in range(pr, len(res)):
                    x = self._h[i][pc]
                    if x:
                        res[i] -= q * x
        if any(res):
            return None
        # x = u @ y
        out = [0] * c
        for i in range(c):
            ui = self._u[i]
            s = 0
            for j in range(c):
                if y[j]:
                    s += ui[j] * y[j]
            out[i] = s
        return out

    def solve_matrix(self, b: IntMatrix) -> IntMatrix | None:
        """X with mat @ X = b, or None. b is consumed column by column."""
        if b.rows != self.mat.rows:
            raise DimensionMismatch("rhs rows mismatch")
        cols = []
        for j in range(b.cols):
            x = self.solve(b.column(j))
            if x is None:
                return None
            cols.append(x)
        n = self.mat.cols
        flat = []
        for i in range(n):
            for col in cols:
                flat.append(col[i])
        return IntMatrix(n, b.cols, tuple(flat))

    def contains_matrix(self, b: IntMatrix) -> bool:
        return self.solve_matrix(b) is not None

    def kernel(self) -> IntMatrix:
        """Columns form a basis of the integer kernel of mat."""
        c = self.mat.cols
        pivot_cols = {pc for (_, pc) in self._pivots}
        free = [j for j in range(c) if j not in pivot_cols]
        rows = [[self._u[i][j] for j in free] for i in range(c)]
        return IntMatrix.from_rows(rows) if c else IntMatrix(0, len(free), ())

    def basis(self) -> IntMatrix:
        """Nonzero Hermite columns: a basis of the column lattice."""
        r = self.mat.rows
        pcols = [pc for (_, pc) in self._pivots]
        rows = [[self._h[i][j] for j in pcols] for i in range(r)]
        return IntMatrix.from_rows(rows) if r else IntMatrix(0, len(pcols), ())

    @property
    def rank(self) -> int:
        return len(self._pivots)

