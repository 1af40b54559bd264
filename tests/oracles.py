"""Independent oracles used to cross-check the library.

These deliberately avoid the library's own reduction routines: determinants
are cofactor expansions, lattice membership is a row-style basis kept in the
style of hand-rolled lattice code, group structure is recovered from element
order statistics, and the bar complex is written directly from tuples.  The
one exception is ``dense_cohomology_map``, the induced map on cohomology
through the dense subquotients of the full differentials, which is the
reference the reduced-cone ``cohomology_map`` is compared against.
"""

from __future__ import annotations

import itertools
from math import gcd

from bwcoh.abgroup import (
    GroupHom, GroupInvariants, PresentedGroup, direct_product, subquotient,
    trivial_group,
)
from bwcoh.intmat import IntMatrix


# ---------------------------------------------------------------------------
# determinantal divisors

def cofactor_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        a = rows[0][j]
        if not a:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = a * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def determinantal_divisors(m: IntMatrix) -> list[int]:
    """Smith diagonal via gcds of k x k minors."""
    rows = m.to_rows()
    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in itertools.combinations(range(m.rows), k):
            for ci in itertools.combinations(range(m.cols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, cofactor_det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


# ---------------------------------------------------------------------------
# row-style integer lattice (independent of the column-style Hermite code)

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


class RowLattice:
    """Sublattice of Z^n kept as a row basis with pivot bookkeeping."""

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, list[int]] = {}   # pivot position -> vector

    def add(self, vec: list[int]) -> None:
        v = list(vec)
        for pos in range(self.n):
            if not v[pos]:
                continue
            row = self.rows.get(pos)
            if row is None:
                if v[pos] < 0:
                    v = [-x for x in v]
                self.rows[pos] = v
                return
            a, b = row[pos], v[pos]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, row)]
            else:
                x, y, g = _xgcd(a, b)
                new_row = [x * p + y * q for p, q in zip(row, v)]
                v = [(-(b // g)) * p + (a // g) * q for p, q in zip(row, v)]
                self.rows[pos] = new_row
        # fully reduced to zero: nothing to add

    def reduce(self, vec: list[int]) -> tuple[int, ...]:
        """Canonical residue of vec modulo the lattice."""
        v = list(vec)
        for pos in range(self.n):
            row = self.rows.get(pos)
            if row is not None and v[pos]:
                q = v[pos] // row[pos]
                if q:
                    v = [x - q * y for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, vec: list[int]) -> bool:
        return not any(self.reduce(vec))

    def finite_quotient_elements(self) -> list[tuple[int, ...]] | None:
        """All residues of Z^n modulo the lattice, or None if infinite."""
        bounds = []
        for pos in range(self.n):
            row = self.rows.get(pos)
            if row is None:
                return None
            bounds.append(row[pos])
        out = []
        for combo in itertools.product(*(range(b) for b in bounds)):
            out.append(self.reduce(list(combo)))
        return sorted(set(out))


# ---------------------------------------------------------------------------
# group structure from element orders

def invariants_from_orders(elements, add, zero) -> GroupInvariants:
    """Invariant factors of a finite abelian group given as explicit elements.

    ``add`` combines two elements, ``zero`` is the neutral element.
    """
    order = len(elements)
    primes = []
    n = order
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)

    def multiple(x, k):
        acc = zero
        for _ in range(k):
            acc = add(acc, x)
        return acc

    exponents_by_prime = {}
    for p in primes:
        sizes = [1]
        k = 1
        while True:
            count = sum(1 for x in elements if multiple(x, p ** k) == zero)
            sizes.append(count)
            if count == sizes[-2]:
                break
            k += 1
        parts = []
        for k in range(1, len(sizes)):
            m_k = sizes[k] // sizes[k - 1]
            copies = 0
            while m_k > 1:
                m_k //= p
                copies += 1
            parts.append(copies)   # number of cyclic p-factors with exponent >= k
        exps = []
        for k, copies in enumerate(parts, start=1):
            # copies counts factors with exponent >= k
            exps.append(copies)
        factors = []
        for k in range(len(exps), 0, -1):
            have = exps[k - 1] - (exps[k] if k < len(exps) else 0)
            factors.extend([p ** k] * have)
        exponents_by_prime[p] = sorted(factors, reverse=True)

    width = max((len(v) for v in exponents_by_prime.values()), default=0)
    invariant = []
    for i in range(width):
        d = 1
        for p, factors in exponents_by_prime.items():
            if i < len(factors):
                d *= factors[i]
        invariant.append(d)
    invariant = [d for d in invariant if d > 1]
    return GroupInvariants(0, tuple(sorted(invariant)))


def subquotient_by_enumeration(d_in: GroupHom, d_out: GroupHom
                               ) -> GroupInvariants | None:
    """ker/im invariants by explicit element enumeration.

    Returns None when any of the three groups involved is infinite.
    """
    mid = d_in.target
    mid_lat = RowLattice(mid.generators)
    for j in range(mid.relations.cols):
        mid_lat.add(mid.relations.column(j))
    mid_elems = mid_lat.finite_quotient_elements()
    if mid_elems is None:
        return None

    tgt = d_out.target
    tgt_lat = RowLattice(tgt.generators)
    for j in range(tgt.relations.cols):
        tgt_lat.add(tgt.relations.column(j))
    if tgt_lat.finite_quotient_elements() is None:
        return None

    src = d_in.source
    src_lat = RowLattice(src.generators)
    for j in range(src.relations.cols):
        src_lat.add(src.relations.column(j))
    src_elems = src_lat.finite_quotient_elements()
    if src_elems is None:
        return None

    kernel = [x for x in mid_elems
              if not any(tgt_lat.reduce(d_out.matrix.matvec(list(x))))]
    image_lat = RowLattice(mid.generators)
    for j in range(mid.relations.cols):
        image_lat.add(mid.relations.column(j))
    for x in src_elems:
        image_lat.add(d_in.matrix.matvec(list(x)))

    cosets = sorted({image_lat.reduce(list(x)) for x in kernel})

    def add(a, b):
        return image_lat.reduce([p + q for p, q in zip(a, b)])

    zero = image_lat.reduce([0] * mid.generators)
    return invariants_from_orders(cosets, add, zero)


# ---------------------------------------------------------------------------
# induced maps on cohomology, the dense way

def dense_cohomology_map(cmap, n: int) -> GroupHom:
    """H^n(source) -> H^n(target) of a ``CochainMap`` between the dense
    subquotients of ``CochainComplex.cohomology_data``: the kernel basis of
    the source is mapped by the densified ``maps[n]`` and expressed in the
    kernel basis of the target."""
    sq_a = cmap.source.cohomology_data(n)
    sq_b = cmap.target.cohomology_data(n)
    w = sq_b.express(cmap.maps[n].to_matrix() @ sq_a.basis)
    return GroupHom.create(sq_a.group, sq_b.group, w)


def kernel_cokernel(h: GroupHom) -> tuple[GroupInvariants, GroupInvariants]:
    """Invariants of the kernel and the cokernel of a hom of presented
    groups, which do not depend on the presentations chosen."""
    kernel = subquotient(GroupHom.zero(trivial_group, h.source), h)
    coker = PresentedGroup(h.target.generators,
                           h.matrix.hstack(h.target.relations))
    return kernel.group.invariants, coker.invariants


# ---------------------------------------------------------------------------
# composable-chain counting

def chain_count(c, n: int) -> int:
    if n == 0:
        return c.n_objects
    counts = [1] * c.n_morphisms
    for _ in range(n - 1):
        nxt = [0] * c.n_morphisms
        for m in range(c.n_morphisms):
            src = c.mor_source[m]
            for g in range(c.n_morphisms):
                if c.mor_target[g] == src:
                    nxt[g] += counts[m]
        # counts[m] = number of partial sequences whose last entry is m;
        # extending appends g with target(g) = source(m)
        counts = nxt
    return sum(counts)


# ---------------------------------------------------------------------------
# bar complex of a finite cyclic group with trivial coefficients

def bar_differential(k: int, n: int, coeff: PresentedGroup) -> GroupHom:
    src_tuples = list(itertools.product(range(k), repeat=n))
    dst_tuples = list(itertools.product(range(k), repeat=n + 1))
    src_index = {t: i for i, t in enumerate(src_tuples)}
    g = coeff.generators
    rows = len(dst_tuples) * g
    cols = len(src_tuples) * g
    ent = [0] * (rows * cols)

    def put(hi: int, lo: int, sign: int) -> None:
        for t in range(g):
            ent[(hi * g + t) * cols + (lo * g + t)] += sign

    for hi, tup in enumerate(dst_tuples):
        put(hi, src_index[tup[1:]], 1)
        for i in range(1, n + 1):
            merged = tup[:i - 1] + ((tup[i - 1] + tup[i]) % k,) + tup[i + 1:]
            put(hi, src_index[merged], -1 if i % 2 else 1)
        put(hi, src_index[tup[:-1]], -1 if (n + 1) % 2 else 1)
    src = direct_product([coeff] * len(src_tuples))
    dst = direct_product([coeff] * len(dst_tuples))
    return GroupHom.create(src, dst, IntMatrix(rows, cols, tuple(ent)))


def bar_cohomology(k: int, coeff: PresentedGroup, degrees: int
                   ) -> list[GroupInvariants]:
    from bwcoh.abgroup import subquotient
    diffs = [bar_differential(k, n, coeff) for n in range(degrees + 1)]
    out = []
    for n in range(degrees):
        d_in = diffs[n - 1] if n else GroupHom.zero(trivial_group,
                                                    diffs[0].source)
        out.append(subquotient(d_in, diffs[n]).group.invariants)
    return out
