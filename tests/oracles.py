"""Independent oracles used to cross-check the library, and the shared
test fixtures that only the tests need.

These deliberately avoid the library's own reduction routines: determinants
are cofactor expansions (``determinant``, a fraction-free Bareiss
elimination, is checked against them and certifies unimodular transforms),
lattice membership is a row-style basis kept in the style of hand-rolled
lattice code, group structure is recovered from element order statistics,
and the bar complex is written directly from tuples.  ``nerve_cohomology``
computes constant-coefficient cohomology from the simplicial face maps of
the nerve, independently of the coefficient complex.  The exceptions are
``dense_cohomology_map``, the induced map on cohomology through the dense
subquotients of the full differentials, which is the reference the
reduced-cone ``cohomology_map`` is compared against, and the blockwise
forms of the column-native ``BlockHom``: ``block_hom`` builds one from
blocks (refusing a key outside the factor counts or a block of the wrong
shape), ``blockwise_signed_sum`` and ``blockwise_first_nonzero`` are the
per-block ``IntMatrix`` forms of ``BlockHom.signed_sum`` and the zero check,
and ``blockwise_differentials`` and ``blockwise_insertion_blocks`` assemble
differentials and insertion sums with one ``IntMatrix`` per term.  The
natural-system oracles work on the library's own types:
``validate_full_table`` composes the whole action table over every
composable pair of the factorization category, the definition that
``validate_natural_system`` checks on the one-sided presentation,
``validate_bifunctor_full`` does the same for a functor on C^op x C, which
``validate_bifunctor`` checks on its generators,
``validate_ab_nat`` and ``validate_pair_morphism`` check naturality and the
shape of a pair morphism, and ``fullness_witness`` is the ordinary morphism
two-morphic to a pair morphism.  The (co)localization generators at the
end draw from an ``InstanceGen``'s random stream, so a seed fixes the
instance.
"""

from __future__ import annotations

import itertools
from math import gcd

from bwcoh.abgroup import (
    GroupHom, GroupInvariants, PresentedGroup, direct_product, hom_compose,
    subquotient, trivial_group,
)
from bwcoh.bwcomplex import BlockHom
from bwcoh.fincat import (
    FiniteCategory, Report, ShapeMismatch, cyclic_group_category,
    identity_functor, identity_nat,
)
from bwcoh.intmat import DimensionMismatch, IntMatrix
from bwcoh.localization import Colocalization, Localization
from bwcoh.natsys import (
    AbFunctor, AbNat, NatFTwoMorphism, NatSysMorphism, NaturalSystem,
    act_by_two_morphism, constant_system, pullback_along_nat,
)
from bwcoh.nerve import Simplex, nerve_cells
from bwcoh.randgen import InstanceGen


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


def determinant(m: IntMatrix) -> int:
    """Fraction-free (Bareiss) determinant of a square matrix."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and determinant(m) in (1, -1)


def matvec(m: IntMatrix, v: list[int]) -> list[int]:
    """``m`` applied to the integer vector ``v``."""
    if m.cols != len(v):
        raise DimensionMismatch("matvec size mismatch")
    c = m.cols
    return [sum(a * x for a, x in zip(m.entries[i * c:(i + 1) * c], v))
            for i in range(m.rows)]


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
              if not any(tgt_lat.reduce(matvec(d_out.matrix, list(x))))]
    image_lat = RowLattice(mid.generators)
    for j in range(mid.relations.cols):
        image_lat.add(mid.relations.column(j))
    for x in src_elems:
        image_lat.add(matvec(d_in.matrix, list(x)))

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


# ---------------------------------------------------------------------------
# block-hom maps, the blockwise way: each block its own IntMatrix

def block_hom(src, dst, blocks) -> BlockHom:
    """The ``BlockHom`` with the given ``blocks[(t, s)]``, each mapping the
    generators of source factor s to those of target factor t.  A key
    outside the factor counts or a block of the wrong shape raises
    ``ShapeMismatch``; absent and all-zero blocks store nothing."""
    for key in sorted(blocks):
        if not (0 <= key[0] < len(dst.factors)
                and 0 <= key[1] < len(src.factors)):
            raise ShapeMismatch(
                f"block {key} outside {len(dst.factors)} target and "
                f"{len(src.factors)} source factors")
    t_off, s_off = dst.gen_offsets, src.gen_offsets
    cols: dict[int, dict[int, int]] = {}
    for (t, s), m in blocks.items():
        r0, c0, w = t_off[t], s_off[s], m.cols
        if m.rows != t_off[t + 1] - r0 or w != s_off[s + 1] - c0:
            raise ShapeMismatch(
                f"block {(t, s)} is {m.rows}x{w}, its factors are "
                f"{t_off[t + 1] - r0}x{s_off[s + 1] - c0}")
        for k, v in enumerate(m.entries):
            if v:
                i, j = divmod(k, w)
                col = cols.setdefault(c0 + j, {})
                col[r0 + i] = col.get(r0 + i, 0) + v
    return BlockHom(src, dst, {c: nz for c, col in cols.items()
                               if (nz := {r: v for r, v in col.items()
                                          if v})})


def with_block(hom: BlockHom, key, m: IntMatrix) -> BlockHom:
    """A copy of ``hom`` with block ``key`` replaced by ``m``."""
    return block_hom(hom.src, hom.dst, {**hom.blocks, key: m})


def blocks_to_matrix(src, dst, blocks) -> IntMatrix:
    """The dense matrix of ``blocks``, placed block by block."""
    rows, cols = dst.total_gens, src.total_gens
    out = [0] * (rows * cols)
    for (t, s), m in blocks.items():
        rbase, cbase = dst.gen_offsets[t], src.gen_offsets[s]
        for i in range(m.rows):
            for j in range(m.cols):
                out[(rbase + i) * cols + cbase + j] += m.at(i, j)
    return IntMatrix(rows, cols, tuple(out))


def blockwise_first_nonzero(hom: BlockHom, solutions=None):
    """``BlockHom.first_nonzero_coordinate`` block by block: every stored
    block, in key order, solved against the independent relations of its
    target factor."""
    blocks = hom.blocks
    for (t, s) in sorted(blocks):
        m = blocks[t, s]
        if not any(m.entries):
            continue
        x = hom.dst.factors[t].injective.solver.solve_matrix(m)
        if x is None:
            return (t, s)
        if solutions is not None:
            solutions[(t, s)] = x
    return None


def blockwise_signed_sum(terms) -> BlockHom:
    """``BlockHom.signed_sum`` accumulated block by block: every product
    ``left[t, m] @ right[m, s]`` and every plain block is its own
    ``IntMatrix``, added into the block ``(t, s)``."""
    blocks: dict[tuple[int, int], IntMatrix] = {}
    src = dst = None
    for sign, left, right in terms:
        term_src = left.src if right is None else right.src
        if src is None:
            src, dst = term_src, left.dst
        elif term_src.factors != src.factors or \
                left.dst.factors != dst.factors:
            raise ShapeMismatch("signed sum terms differ in shape")
        if right is None:
            products = list(left.blocks.items())
        else:
            if right.dst.factors != left.src.factors:
                raise ShapeMismatch("block hom composition middle mismatch")
            by_row: dict[int, list[tuple[int, IntMatrix]]] = {}
            for (mid, s), m1 in right.blocks.items():
                by_row.setdefault(mid, []).append((s, m1))
            products = [((t, s), m2 @ m1)
                        for (t, mid), m2 in left.blocks.items()
                        for s, m1 in by_row.get(mid, ())]
        for key, m in products:
            signed = m if sign == 1 else -m
            blocks[key] = blocks[key] + signed if key in blocks else signed
    return block_hom(src, dst, blocks)


def _acc_block(acc: dict, ti: int, si: int, hom: GroupHom, sign: int) -> None:
    m = hom.matrix if sign == 1 else hom.matrix.scale(sign)
    acc[(ti, si)] = acc[(ti, si)] + m if (ti, si) in acc else m


def blockwise_differentials(cx) -> list[dict]:
    """The blocks of every differential of ``cx``, assembled face term by
    face term with one ``IntMatrix`` per term: the head action, the merges
    as identities (skipping identity merges on a normalized basis) and the
    tail action.  Blocks whose terms cancel are kept."""
    d, c, bases = cx.system, cx.system.base, cx.bases
    out = []
    for n in range(cx.max_degree):
        idx = cx.index[n]
        small = bases[n]
        acc: dict[tuple[int, int], IntMatrix] = {}
        for ti, tau in enumerate(bases[n + 1]):
            m = tau.length
            comp = tau.composite
            s1 = tau.mors[0]
            si = idx[("obj", tau.objects[1])] if m == 1 else idx[tau.mors[1:]]
            sub = small[si]
            _acc_block(acc, ti, si, d.act_pair(
                sub.composite, comp, c.identity[c.mor_source[sub.composite]],
                s1), 1)
            ident = GroupHom.identity(d.value(comp))
            for i in range(1, m):
                merged = c.table[tau.mors[i]][tau.mors[i - 1]]
                if cx.normalized and c.is_identity(merged):
                    continue
                key = tau.mors[:i - 1] + (merged,) + tau.mors[i + 1:]
                _acc_block(acc, ti, idx[key], ident, -1 if i % 2 else 1)
            sm = tau.mors[-1]
            si = idx[("obj", tau.objects[0])] if m == 1 else idx[tau.mors[:-1]]
            sub = small[si]
            _acc_block(acc, ti, si, d.act_pair(
                sub.composite, comp, sm,
                c.identity[c.mor_target[sub.composite]]),
                -1 if m % 2 else 1)
        out.append(acc)
    return out


def blockwise_insertion_blocks(cx_src, cx_dst, n, functors, comps, k_hom
                               ) -> dict:
    """The blocks of ``bwcomplex._insertion_hom``, each cut adding the
    (negated) coefficient matrix of its target sequence as a block."""
    m = len(comps)
    idx = cx_src.index[n + m]
    cuts = [((0,) + c + (n,), sum(c) % 2)
            for c in itertools.combinations_with_replacement(range(n + 1), m)]
    blocks: dict[tuple[int, int], IntMatrix] = {}
    for ti, tau in enumerate(cx_dst.bases[n]):
        mat = k_hom(tau.composite).matrix
        signed = (mat, -mat) if n and m else (mat,)
        objs = tau.objects
        images = [tuple([f.mor_map[s] for s in tau.mors]) for f in functors]
        for b, odd in cuts:
            key = images[0][:b[1]]
            for k in range(m):
                key += (comps[k][objs[b[k + 1]]],) \
                    + images[k + 1][b[k + 1]:b[k + 2]]
            si = idx[key] if key else idx["obj", functors[0].obj_map[objs[0]]]
            blk = signed[odd]
            blocks[ti, si] = blocks[ti, si] + blk if (ti, si) in blocks \
                else blk
    return blocks


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


# ---------------------------------------------------------------------------
# simplicial cochain complex of the nerve, constant coefficients

def face(c: FiniteCategory, s: Simplex, i: int) -> Simplex:
    """The i-th face: drop vertex i, composing through it when interior."""
    n = len(s.arrows)
    if i == 0:
        return Simplex(s.arrows[1:], s.vertices[1:])
    if i == n:
        return Simplex(s.arrows[:-1], s.vertices[:-1])
    merged = c.table[s.arrows[i - 1]][s.arrows[i]]
    return Simplex(s.arrows[:i - 1] + (merged,) + s.arrows[i + 1:],
                   s.vertices[:i] + s.vertices[i + 1:])


def _coboundary(c: FiniteCategory, coeff: PresentedGroup,
                cells_lo: tuple[Simplex, ...], cells_hi: tuple[Simplex, ...]
                ) -> GroupHom:
    index = {s.arrows if s.arrows else ("v", s.vertices[0]): i
             for i, s in enumerate(cells_lo)}
    g = coeff.generators
    rows = len(cells_hi) * g
    cols = len(cells_lo) * g
    ent = [0] * (rows * cols)
    for hi, s in enumerate(cells_hi):
        for i in range(len(s.arrows) + 1):
            f = face(c, s, i)
            key = f.arrows if f.arrows else ("v", f.vertices[0])
            lo = index[key]
            sign = -1 if i % 2 else 1
            for k in range(g):
                ent[(hi * g + k) * cols + (lo * g + k)] += sign
    src = direct_product([coeff] * len(cells_lo))
    dst = direct_product([coeff] * len(cells_hi))
    mat = IntMatrix(rows, cols, tuple(ent))
    return GroupHom.create(src, dst, mat)


def nerve_cohomology(c: FiniteCategory, coeff: PresentedGroup,
                     max_degree: int) -> list[GroupInvariants]:
    """Simplicial cohomology of the nerve with constant coefficients,
    in degrees 0..max_degree-1.  The coboundary is assembled from the face
    maps alone, degenerate simplices kept: the unnormalized complex has the
    same cohomology and matches the coefficient complex degree for
    degree."""
    cells = [nerve_cells(c, n) for n in range(max_degree + 1)]
    diffs = [_coboundary(c, coeff, cells[n], cells[n + 1])
             for n in range(max_degree)]
    out = []
    for n in range(max_degree):
        if n == 0:
            d_in = GroupHom.zero(trivial_group, diffs[0].source)
        else:
            d_in = diffs[n - 1]
        out.append(subquotient(d_in, diffs[n]).group.invariants)
    return out


# ---------------------------------------------------------------------------
# natural systems, the definitional way

def validate_full_table(d: NaturalSystem) -> Report:
    """Functoriality of the completed action table, composed over every
    composable pair of the factorization category: the table sizes, the
    groups of every action, identity pairs acting as the identity, and
    ``D(q)∘D(p) == D(q∘p)`` modulo relations.  Matrices are not checked to
    preserve relations."""
    rep = Report("natural system")
    fcat = d.fc.category
    c = d.base
    values, homs = d.functor.values, d.functor.homs

    def pair_name(i: int) -> str:
        p = d.fc.pairs[i]
        return (f"({c.morphism_name(p.h)},{c.morphism_name(p.k)}): "
                f"{c.morphism_name(p.src)} -> {c.morphism_name(p.dst)}")

    if d.functor.category != fcat or len(values) != fcat.n_objects or \
            len(homs) != fcat.n_morphisms:
        rep.violations.append("value or action table has the wrong size")
        return rep
    for i in range(fcat.n_morphisms):
        if homs[i].source != values[fcat.mor_source[i]] or \
                homs[i].target != values[fcat.mor_target[i]]:
            rep.violations.append(
                f"action at {pair_name(i)} connects the wrong groups")
    if rep.violations:
        return rep
    for f in range(c.n_morphisms):
        ident = d.fc.pair_id(f, f, c.identity[c.mor_source[f]],
                             c.identity[c.mor_target[f]])
        if not homs[ident].equal_mod(GroupHom.identity(values[f])):
            rep.violations.append(
                f"identity pair of {c.morphism_name(f)} does not act as "
                f"the identity")
    for i in range(fcat.n_morphisms):
        for j in range(fcat.n_morphisms):
            if fcat.mor_target[i] != fcat.mor_source[j]:
                continue
            if not hom_compose(homs[j], homs[i]).equal_mod(
                    homs[fcat.table[i][j]]):
                rep.violations.append(
                    f"functoriality fails composing {pair_name(i)} "
                    f"then {pair_name(j)}")
    return rep


def validate_bifunctor_full(f: AbFunctor) -> Report:
    """Functoriality of a group-valued functor composed over every
    composable pair of its category: the definition that
    ``natsys.validate_bifunctor`` checks on the generators of C^op x C.
    Reports only whether and where it fails, by morphism ids."""
    rep = Report("group-valued functor")
    c = f.category
    if len(f.values) != c.n_objects or len(f.homs) != c.n_morphisms:
        rep.violations.append("table sizes inconsistent")
        return rep
    for m in range(c.n_morphisms):
        h = f.homs[m]
        if h.source != f.values[c.mor_source[m]] or \
                h.target != f.values[c.mor_target[m]]:
            rep.violations.append(f"hom at morphism {m} has wrong groups")
    if rep.violations:
        return rep
    for x in range(c.n_objects):
        e = c.identity[x]
        if not f.homs[e].equal_mod(GroupHom.identity(f.values[x])):
            rep.violations.append(
                f"identity morphism {e} not sent to identity")
    for a in range(c.n_morphisms):
        for b in range(c.n_morphisms):
            if c.mor_target[a] != c.mor_source[b]:
                continue
            if not hom_compose(f.homs[b], f.homs[a]).equal_mod(
                    f.homs[c.table[a][b]]):
                rep.violations.append(
                    f"functoriality fails on composable pair ({a},{b})")
    return rep


def fullness_witness(m: NatSysMorphism
                     ) -> tuple[NatSysMorphism, NatFTwoMorphism]:
    """An ordinary morphism two-morphic to (alpha, t).

    Returns ((1_phi, t∘(1_D*F(1_phi, alpha))), two-morphism (1_phi, alpha))
    connecting it to (alpha, t); witnesses that every pair morphism is
    equivalent to an embedded ordinary one.
    """
    phi = m.alpha.source_functor
    one_phi = identity_nat(phi)
    corr = act_by_two_morphism(m.source_system, one_phi, one_phi, m.alpha)
    ordinary = NatSysMorphism(one_phi, m.source_system, m.target_system,
                              m.nat.compose(corr.nat))
    two = NatFTwoMorphism(ordinary, m, one_phi, m.alpha)
    return ordinary, two


def validate_ab_nat(t: AbNat) -> Report:
    """Naturality of a transformation of group-valued functors, modulo the
    relations of each target group."""
    rep = Report("transformation of group-valued functors")
    if t.source.category != t.target.category:
        rep.violations.append("functors live on different categories")
        return rep
    c = t.source.category
    if len(t.components) != c.n_objects:
        rep.violations.append("component count mismatch")
        return rep
    for x in range(c.n_objects):
        comp = t.components[x]
        if comp.source != t.source.values[x] or \
           comp.target != t.target.values[x]:
            rep.violations.append(f"component at {x} has wrong groups")
    if rep.violations:
        return rep
    for m in range(c.n_morphisms):
        x, y = c.mor_source[m], c.mor_target[m]
        lhs = hom_compose(t.components[y], t.source.homs[m])
        rhs = hom_compose(t.target.homs[m], t.components[x])
        if not lhs.equal_mod(rhs):
            rep.violations.append(f"naturality fails at morphism {m}")
    return rep


def validate_pair_morphism(m: NatSysMorphism) -> Report:
    """A pair morphism (alpha, t): (C, D) -> (D', E) is well formed: alpha
    connects the bases, t runs from D∘F(alpha) to E and is natural."""
    rep = Report("pair morphism")
    if m.alpha.codomain != m.source_system.base:
        rep.violations.append("anchor does not land in the source base")
    if m.alpha.domain != m.target_system.base:
        rep.violations.append("anchor does not start at the target base")
    if rep.violations:
        return rep
    pulled = pullback_along_nat(m.source_system, m.alpha)
    if m.nat.source.values != pulled.functor.values or \
       not m.nat.source.equal_mod(pulled.functor):
        rep.violations.append("component family source is not D∘F(alpha)")
    if m.nat.target.values != m.target_system.functor.values or \
       not m.nat.target.equal_mod(m.target_system.functor):
        rep.violations.append("component family target is not E")
    rep.violations.extend(validate_ab_nat(m.nat).violations)
    return rep


def identity_morphism(d: NaturalSystem) -> NatSysMorphism:
    """The identity pair morphism (1, 1_D): (C, D) -> (C, D)."""
    alpha = identity_nat(identity_functor(d.base))
    return NatSysMorphism(alpha, d, d, AbNat.identity(d.functor))


# ---------------------------------------------------------------------------
# seeded (co)localizations and (co)local systems, drawn from an InstanceGen

def localization(gen: InstanceGen) -> Localization:
    roll = gen.rng.random()
    if roll < 0.55:
        return gen._chain_closure(gen.rng.randint(2, 4))
    if roll < 0.75:
        return gen._product_localization(
            gen._chain_closure(gen.rng.randint(2, 3)),
            cyclic_group_category(2))
    return _identity_localization(gen.category(5))


def _identity_localization(c: FiniteCategory) -> Localization:
    one = identity_functor(c)
    return Localization(c, c, one, one, identity_nat(one))


def colocalization(gen: InstanceGen) -> Colocalization:
    roll = gen.rng.random()
    if roll < 0.7:
        return gen._chain_interior(gen.rng.randint(2, 4))
    c = gen.category(5)
    one = identity_functor(c)
    return Colocalization(c, c, one, one, identity_nat(one))


def local_system(gen: InstanceGen, loc: Localization) -> NaturalSystem:
    """A system that is local by construction: constant or pulled back
    along the unit."""
    if gen.rng.random() < 0.4:
        return constant_system(loc.big, gen.small_group())
    e0 = gen.system(loc.big)
    return pullback_along_nat(e0, loc.unit)


def colocal_system(gen: InstanceGen, coloc: Colocalization) -> NaturalSystem:
    if gen.rng.random() < 0.4:
        return constant_system(coloc.big, gen.small_group())
    e0 = gen.system(coloc.big)
    return pullback_along_nat(e0, coloc.counit)
