"""The cochain complex of a finite category with natural-system coefficients.

Degree n is the direct product of D(s1...sn) over all composable sequences of
length n, in the lexicographic basis order of ``enumerate_sequences``; the
degree-0 basis is indexed by objects via their identity morphisms.  The
differential is the three-term alternating sum: precompose the head morphism
into the coefficient action on the left, merge adjacent entries with
alternating signs, and postcompose the tail morphism with sign (-1)^(n+1).
Degenerate sequences (those containing identities) are genuine basis
elements of this full complex, the object of the chain-level certificates.
``build_complex(..., normalized=True)`` builds instead the normalized
subcomplex of cochains vanishing on every degenerate sequence, whose basis
``enumerate_sequences(..., nondegenerate=True)`` enumerates directly.  Its
inclusion is a quasi-isomorphism (Dold–Kan normalization), so it answers
``bwcoh cohomology``; its differential is the full one restricted to
nondegenerate rows and columns, and the map constructors refuse it.

What a complex needs of the nerve alone is computed once per category:
``nerve_shape``, memoized on ``(category, max_degree, normalized)`` with at
most ``NERVE_SHAPE_CACHE`` entries, returns the sequence bases, their
indices and, for every sequence of each degree n+1, an integer face table:
the index of its head and tail faces in degree n with the coefficient
action of each, and the index of every merge face, whose sign its position
gives.  Equal categories, however built, share one ``NerveShape``, and
nothing ever changes it.  ``build_complex`` reads the table and only fills
in the coefficients of its own system; the ``d∘d`` sum is still formed and
checked for every complex.

Every differential, chain map and homotopy is a ``BlockHom``: one map
stored once, at construction, as global sparse columns ``{col: {row: int}}``
over the generator coordinates of ``ProductGroup.gen_offsets``, holding only
nonzero entries and never changed afterwards.  ``build_complex`` and
``_insertion_hom`` write each face or insertion term straight into those
columns; a merge face, whose coefficient map is an identity, is ±1 on a
diagonal.  Sums, ``apply``, ``to_matrix`` and the cone of
``bwcoh.reduction`` read the columns as stored.  ``BlockHom.blocks`` is a
read-only view of the same entries by (target factor, source factor),
derived on each access, for the test oracles and the benchmark's counters.

Cohomology, groups and maps alike, comes from the free cone of
``bwcoh.reduction``, reduced once per complex (``CochainComplex.reduced``):
each factor is resolved by ``0 -> Z^r -R-> Z^g`` with ``R`` made injective,
and the cone ``T^n = Z^{g_n} ⊕ Z^{r_{n+1}}`` has differential
``(x, y) -> (D_n x + R_{n+1} y, -S_n x - Q_{n+1} y)``.  Its ``S_n``, with
``D_{n+1} D_n = R_{n+2} S_n``, is exactly what the ``d∘d`` check of
``build_complex`` solves for column by column, so the check keeps those
solution columns in ``dd_witness`` instead of composing the differentials
again later.  Every such witness, ``S_n``, the ``Q_n`` of
``BlockHom.to_witness`` and the y part of a projected cocycle, is solved by
one routine, ``ProductGroup.solve_relations``: a sparse vector over a
degree's generators is split by factor, each part solved against that
factor's independent relations, and the solution returned in relation
coordinates.  ``CochainComplex.cohomology`` reads the invariants of every
degree off the reduced cone.  ``cohomology_map`` works on the small
residue: the pivot log of the reduction lifts each generator of ``H^n`` of
the source residue to a cone cocycle, its x part goes through the chain map
sparsely (``BlockHom.apply``), the image is completed to a cone cocycle of
the target and projected to the target residue, and the residue
subquotient expresses it there.  ``cohomology_data``, the dense ``subquotient`` of the full
differentials, is kept only as the test oracle.

Induced chain maps and homotopy families are all insertion sums, built by
one assembler, ``_insertion_hom``: pull a target sequence back along
functors, insert m components at cuts ``i_1 <= ... <= i_m`` with sign
``(-1)^(i_1+...+i_m)``, and apply one coefficient map per target sequence.
The chain maps have m = 0, ``homotopy_h`` has m = 1 and both degree -2
families have m = 2.  Index bookkeeping, fixed once here because the defining
sums leave the intermediate groups implicit:

* For a two-morphism with legs ``eps: xi => phi`` and ``gam: psi => zeta``
  bounding ``(alpha, t) => (beta, s)``, every summand
  ``c(phi s1, ..., phi s_i, eps_{X_i}, xi s_{i+1}, ..., xi s_n)`` has the same
  composite, namely ``eps_Y ∘ xi(s)`` (naturality of eps), so all summands
  live in the single group ``D(F(eps)(s))``.  The correction applied before
  the ``s``-component is the coefficient action along the pair
  ``(identity of xi(X), (gam∘alpha)_Y): F(eps)(s) -> F(beta)(s)``; this
  coefficient map is ``_corrected``.  The chain map of ``(alpha, t)`` is the
  m = 0 sum with the coefficient map of its identity two-morphism.
* The stacked (vertical) double sum takes the coefficient map of the
  composite ``b∘a = (eps∘eps', gam'∘gam)``: the summands live in
  ``D(F(eps∘eps')(s))`` and the correction pair is
  ``(identity of xi(X), (gam'∘gam∘alpha)_Y)``.
* The side-by-side (horizontal) double sum takes that of ``b*a``: the
  summands live in ``D(F(eps*eps')(s))``; the correction pair is
  ``(identity of (xi xi')(X), ((gam*gam')∘(alpha*alpha'))_Y)``, followed by
  the component of the composite ``(beta', s')(beta, s)``, which is the
  middle component family taken at ``F(beta')(s)`` and the outer one at
  ``s``.

Every constructor asserts its defining identity exactly (integer arithmetic,
zero tolerance); these identities are the load-bearing content and silent
tolerance would mask sign errors.  Each identity (``d∘d = 0``, ``dp = pd``,
``dh + hd = -p + q``, the two ``dr - rd`` identities and the interchange law)
is written as one ``BlockHom.signed_sum`` of composites and checked by
``require_vanishing``, which reports the offending degree and the target and
source coordinates on failure.  The sum runs entry by entry over the
stored columns and keeps only the entries that do not cancel.
``first_nonzero_coordinate`` then solves each stored column against the
relations of the target (``ProductGroup.solve_relations``); a failure is
reported at the least (target factor, source factor) among the columns
that fail, so it names the same block whatever order the columns are
stored in.
"""

from __future__ import annotations

import warnings
from array import array
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING

from .abgroup import (
    GroupHom, GroupInvariants, PresentedGroup, Subquotient, direct_product,
    hom_compose, is_iso, subquotient,
)
from .fincat import (
    FiniteCategory, Functor, MSeq, ShapeMismatch, compose_functors,
    enumerate_sequences, identity_nat, sequence_index, vertical_compose,
)
from .intmat import IntMatrix, LatticeSolver
from .natsys import (
    NatFTwoMorphism, NatSysMorphism, NaturalSystem, horizontal_compose_two,
    identity_two_morphism, vertical_compose_two,
)

if TYPE_CHECKING:
    from .reduction import ReducedCone


class DegreeOutOfRange(ValueError):
    pass


class HomotopyIdentityError(AssertionError):
    """A defining chain-level identity failed; carries the coordinate."""


class DegreeTruncation(UserWarning):
    """Results certified only up to the computed maximum degree."""


class ScaleWarning(UserWarning):
    """A degree's basis has grown past the comfortable desk-scale bound."""


SEQUENCE_WARN_LIMIT = 10 ** 5

# nerve shapes kept, one per (category, max degree, normalized)
NERVE_SHAPE_CACHE = 32


# ---------------------------------------------------------------------------
# products of presented groups with block bookkeeping

@dataclass(frozen=True)
class ProductGroup:
    factors: tuple[PresentedGroup, ...]

    @cached_property
    def gen_offsets(self) -> tuple[int, ...]:
        offs = [0]
        for f in self.factors:
            offs.append(offs[-1] + f.generators)
        return tuple(offs)

    @cached_property
    def injective_rel_offsets(self) -> tuple[int, ...]:
        """Offsets of the factors' independent relations
        (``PresentedGroup.injective``)."""
        offs = [0]
        for f in self.factors:
            offs.append(offs[-1] + f.injective.relations.cols)
        return tuple(offs)

    @cached_property
    def gen_factor(self) -> tuple[int, ...]:
        """The factor of each generator coordinate."""
        return tuple(i for i, f in enumerate(self.factors)
                     for _ in range(f.generators))

    @property
    def total_gens(self) -> int:
        return self.gen_offsets[-1]

    @cached_property
    def group(self) -> PresentedGroup:
        return direct_product(list(self.factors))

    def relation_columns(self) -> Iterator[tuple[int, int, dict[int, int]]]:
        """Every independent relation (``PresentedGroup.injective``) as
        (factor, relation coordinate, its nonzero entries {generator
        coordinate: value})."""
        for s, f in enumerate(self.factors):
            rels = f.injective.relations
            g0, r0 = self.gen_offsets[s], self.injective_rel_offsets[s]
            for j in range(rels.cols):
                yield s, r0 + j, {g0 + i: v
                                  for i, v in enumerate(rels.column(j)) if v}

    def solve_relations(self, x: dict[int, int]
                        ) -> tuple[dict[int, int], int | None]:
        """y with R y = x, R the independent relations of every factor, for
        a sparse vector x {generator coordinate: nonzero value}.

        x is split by factor and each part solved by its factor's
        ``injective.solver``; a factor without relations admits no nonzero
        part.  Returns (y over ``injective_rel_offsets``, None), or ({}, t)
        for the least factor t whose part is not a relation."""
        offs, of, factors = self.gen_offsets, self.gen_factor, self.factors
        parts: dict[int, list[int]] = {}
        for c, v in x.items():
            t = of[c]
            if t not in parts:
                parts[t] = [0] * factors[t].generators
            parts[t][c - offs[t]] = v
        y: dict[int, int] = {}
        for t in sorted(parts):
            f = factors[t].injective
            sol = f.solver.solve(parts[t]) if f.relations.cols else None
            if sol is None:
                return {}, t
            base = self.injective_rel_offsets[t]
            y.update((base + k, a) for k, a in enumerate(sol) if a)
        return y, None


# (sign, left, right): sign·(left∘right), or sign·left when right is None
Term = tuple[int, "BlockHom", "BlockHom | None"]
# A sparse map over global generator coordinates: columns {col: {row: value}}
Columns = dict[int, dict[int, int]]
# Entries of one block, in coordinates local to it: [(row, col, value), ...]
Entries = list[tuple[int, int, int]]


class BlockHom:
    """A homomorphism between products of presented groups, stored once as
    global sparse columns.

    ``columns[c][r]`` is the entry from generator coordinate c of ``src`` to
    generator coordinate r of ``dst``, both over ``ProductGroup.gen_offsets``.
    Only nonzero entries are stored, and a column with none is absent.  The
    columns are written once, by the constructor's caller, and never changed
    afterwards; every reader uses them as stored.

    ``blocks`` is a read-only view ``{(t, s): IntMatrix}`` of the same
    entries by (target factor, source factor), derived on each access and
    not kept: the form the test oracles compare against and the benchmark
    counts blocks in.
    """

    __slots__ = ("src", "dst", "columns")

    def __init__(self, src: ProductGroup, dst: ProductGroup,
                 columns: Columns):
        self.src = src
        self.dst = dst
        self.columns = columns

    @property
    def blocks(self) -> Mapping[tuple[int, int], IntMatrix]:
        return _BlockView(self)

    @staticmethod
    def identity(pg: ProductGroup) -> "BlockHom":
        return BlockHom(pg, pg, {c: {c: 1} for c in range(pg.total_gens)})

    @staticmethod
    def signed_sum(terms: list[Term]) -> "BlockHom":
        """Sum of ``sign·(left∘right)`` over ``(sign, left, right)`` terms,
        ``sign·left`` when ``right`` is None.

        Each sign is 1 or -1, and every term must map the same source to
        the same target.  Every term is added into one ``Columns`` map
        straight from the stored columns: each entry of ``right`` runs
        through the column of ``left`` it lands on.  Entries that cancel are
        dropped."""
        acc: Columns = {}
        src = dst = None
        for sign, left, right in terms:
            term_src = left.src if right is None else right.src
            if src is None:
                src, dst = term_src, left.dst
            elif term_src.factors != src.factors or \
                    left.dst.factors != dst.factors:
                raise ShapeMismatch("signed sum terms differ in shape")
            if right is None:
                for c, through in left.columns.items():
                    col = acc.setdefault(c, {})
                    for r, v in through.items():
                        col[r] = col.get(r, 0) + sign * v
                continue
            if right.dst.factors != left.src.factors:
                raise ShapeMismatch("block hom composition middle mismatch")
            lcols = left.columns
            for c, rcol in right.columns.items():
                col = None
                for k, a in rcol.items():
                    through = lcols.get(k)
                    if through:
                        if col is None:
                            col = acc.setdefault(c, {})
                        a *= sign
                        for r, v in through.items():
                            col[r] = col.get(r, 0) + a * v
        return BlockHom(src, dst, _nonzero(acc))

    def compose(self, first: "BlockHom") -> "BlockHom":
        """self ∘ first."""
        return BlockHom.signed_sum([(1, self, first)])

    def apply(self, x: dict[int, int]) -> dict[int, int]:
        """self applied to a sparse vector {generator coordinate: value};
        zero entries of the result are dropped."""
        out: dict[int, int] = {}
        columns = self.columns
        for c, a in x.items():
            col = columns.get(c)
            if col:
                for r, v in col.items():
                    out[r] = out.get(r, 0) + a * v
        return {r: v for r, v in out.items() if v}

    def first_nonzero_coordinate(self, solutions: Columns | None = None
                                 ) -> tuple[int, int] | None:
        """(target factor, source factor) of the least block, in key order,
        not zero modulo relations.

        Each stored column M e_c is solved as R x against the independent
        relations R of the target (``ProductGroup.solve_relations``).  When
        ``solutions`` is given and every column solves, it receives the
        nonzero columns of X with M = R X, over the target's
        ``injective_rel_offsets``."""
        if not self.columns:
            return None
        bad = None
        s_of, solve = self.src.gen_factor, self.dst.solve_relations
        for c, col in self.columns.items():
            x, t = solve(col)
            if t is not None:
                if bad is None or (t, s_of[c]) < bad:
                    bad = (t, s_of[c])
            elif solutions is not None and x:
                solutions[c] = x
        return bad

    def to_matrix(self) -> IntMatrix:
        rows = self.dst.total_gens
        cols = self.src.total_gens
        out = [0] * (rows * cols)
        for c, col in self.columns.items():
            for r, v in col.items():
                out[r * cols + c] = v
        return IntMatrix(rows, cols, tuple(out))

    def to_witness(self) -> tuple[Columns, tuple[int, int] | None]:
        """Q with M R_src = R_dst Q in the independent relations of each
        factor, as nonzero columns over the relation coordinates of ``src``
        and ``dst`` (``ProductGroup.injective_rel_offsets``), and the least
        (target factor, source factor) whose M does not preserve relations,
        or None."""
        witness: Columns = {}
        bad = None
        solve = self.dst.solve_relations
        for s, j, rel in self.src.relation_columns():
            q, t = solve(self.apply(rel))
            if t is not None:
                if bad is None or (t, s) < bad:
                    bad = (t, s)
            elif q:
                witness[j] = q
        return witness, bad

    def to_hom(self) -> GroupHom:
        return GroupHom(self.src.group, self.dst.group, self.to_matrix())


class _BlockView(Mapping):
    """The blocks ``{(t, s): IntMatrix}`` of a ``BlockHom``, in key order:
    its keys are found when the view is made, a matrix is built from the
    columns when its key is looked up, and no item can be set."""

    def __init__(self, hom: BlockHom):
        self._hom = hom
        t_of, s_of = hom.dst.gen_factor, hom.src.gen_factor
        self._keys = {(t_of[r], s_of[c])
                      for c, col in hom.columns.items() for r in col}

    def __getitem__(self, key: tuple[int, int]) -> IntMatrix:
        if key not in self._keys:
            raise KeyError(key)
        hom, (t, s) = self._hom, key
        r0, r1 = hom.dst.gen_offsets[t:t + 2]
        c0, c1 = hom.src.gen_offsets[s:s + 2]
        cols = c1 - c0
        flat = [0] * ((r1 - r0) * cols)
        for c in range(c0, c1):
            for r, v in hom.columns.get(c, {}).items():
                if r0 <= r < r1:
                    flat[(r - r0) * cols + c - c0] = v
        return IntMatrix(r1 - r0, cols, tuple(flat))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._keys))

    def __len__(self) -> int:
        return len(self._keys)


def _nonzero(cols: Columns) -> Columns:
    """``cols`` without its zero entries and empty columns."""
    out: Columns = {}
    for c, col in cols.items():
        if all(col.values()):
            if col:
                out[c] = col
        else:
            nz = {r: v for r, v in col.items() if v}
            if nz:
                out[c] = nz
    return out


def _sparse(m: IntMatrix) -> Entries:
    """The nonzero entries of ``m`` as ``(row, col, value)``."""
    w = m.cols
    return [(*divmod(k, w), v) for k, v in enumerate(m.entries) if v]


def _add(cols: Columns, c0: int, r0: int, entries: Entries, sign: int
         ) -> None:
    """Add sign times the block ``entries`` into ``cols`` with its corner
    at (r0, c0)."""
    for i, j, v in entries:
        col = cols.setdefault(c0 + j, {})
        r = r0 + i
        col[r] = col.get(r, 0) + sign * v


# ---------------------------------------------------------------------------
# the complex

class CochainComplex:
    """Groups and differentials in degrees 0..max_degree; immutable after build."""

    def __init__(self, system: NaturalSystem, max_degree: int,
                 shape: NerveShape, groups: list[ProductGroup],
                 diffs: list[BlockHom], normalized: bool = False):
        self.system = system
        self.max_degree = max_degree
        # bases hold only the nondegenerate sequences (build_complex)
        self.normalized = normalized
        # shared with every complex on an equal category; never changed
        self.bases = shape.bases
        self.index = shape.index
        self.groups = groups
        self.diffs = diffs            # diffs[n]: degree n -> n+1, n < max_degree
        # dd_witness[n]: S_n with D_{n+1} D_n = R_{n+2} S_n, as columns over
        # the generators of degree n and the independent relations of degree
        # n+2; filled by the d∘d check of build_complex, read by the
        # reduction engine
        self.dd_witness: list[Columns] = []
        self._cohom: dict[int, Subquotient] = {}
        self._reduced: ReducedCone | None = None

    def coordinate_name(self, n: int, i: int) -> str:
        seq = self.bases[n][i]
        c = self.system.base
        if seq.length == 0:
            return f"({c.object_name(seq.objects[0])})"
        return "(" + ",".join(c.morphism_name(m) for m in seq.mors) + ")"

    def _check_degree(self, n: int) -> None:
        if not (0 <= n <= self.max_degree - 1):
            raise DegreeOutOfRange(
                f"degree {n} not computable with max degree {self.max_degree}")

    def cohomology_data(self, n: int) -> Subquotient:
        """H^n as the dense subquotient of the full differentials: the test
        oracle for ``cohomology`` and ``cohomology_map``, which answer from
        the reduced cone."""
        self._check_degree(n)
        if n not in self._cohom:
            d_out = self.diffs[n].to_hom()
            if n == 0:
                from .abgroup import trivial_group
                d_in = GroupHom.zero(trivial_group, self.groups[0].group)
            else:
                d_in = self.diffs[n - 1].to_hom()
            self._cohom[n] = subquotient(d_in, d_out)
        return self._cohom[n]

    def reduced(self) -> ReducedCone:
        """The reduced free cone with its pivot log, built on first use."""
        if self._reduced is None:
            from .reduction import ReducedCone
            self._reduced = ReducedCone(self)
        return self._reduced

    def cohomology(self, n: int) -> GroupInvariants:
        self._check_degree(n)
        return self.reduced().invariants[n]


def require_vanishing(total: BlockHom, label: str, cx_src: CochainComplex,
                      n: int, cx_dst: CochainComplex, m: int,
                      solutions: Columns | None = None) -> None:
    """Raise ``HomotopyIdentityError`` unless ``total``, a map from degree n
    of ``cx_src`` to degree m of ``cx_dst``, is zero modulo relations; the
    message names the degree and the first offending target and source
    coordinates.  ``solutions`` is passed on to ``first_nonzero_coordinate``."""
    bad = total.first_nonzero_coordinate(solutions)
    if bad is not None:
        raise HomotopyIdentityError(
            f"{label} fails at degree {n}: "
            f"target {cx_dst.coordinate_name(m, bad[0])}, "
            f"source {cx_src.coordinate_name(n, bad[1])}")


@dataclass(frozen=True)
class NerveShape:
    """What the complexes of one category share, whatever their
    coefficients: the sequence bases, their indices and the face tables.

    ``faces[n]`` lists, for each sequence τ of degree n+1 in basis order,
    ``n + 4`` integers: the index in degree n of its head face and the
    action of that face, the index of each merge face i = 1..n (its sign is
    (-1)^i), or -1 where a normalized basis drops it, and the index of its
    tail face and the action of that face.  An action indexes ``actions``,
    the ``(src, dst, h, k)`` of ``NaturalSystem.act_pair``: ``D(1, s1)``
    from the head face's composite, ``D(s_m, 1)`` from the tail face's."""
    bases: tuple[tuple[MSeq, ...], ...]
    index: tuple[dict, ...]
    actions: tuple[tuple[int, int, int, int], ...]
    faces: tuple[array, ...]


@lru_cache(maxsize=NERVE_SHAPE_CACHE)
def nerve_shape(c: FiniteCategory, max_degree: int,
                normalized: bool) -> NerveShape:
    """The ``NerveShape`` of ``c`` in degrees 0..max_degree, built once per
    argument triple and shared; callers read it and never change it."""
    bases = tuple(enumerate_sequences(c, n, nondegenerate=normalized)
                  for n in range(max_degree + 1))
    index = tuple(sequence_index(b) for b in bases)
    actions: dict[tuple[int, int, int, int], int] = {}
    ident, table = c.identity, c.table
    faces = []
    for n in range(max_degree):
        idx, small = index[n], bases[n]
        face = array("i")
        for tau in bases[n + 1]:
            mors, top = tau.mors, tau.composite
            head = idx["obj", tau.objects[1]] if n == 0 else idx[mors[1:]]
            sub = small[head].composite
            face.append(head)
            face.append(actions.setdefault(
                (sub, top, ident[c.mor_source[sub]], mors[0]), len(actions)))
            for i in range(1, n + 1):
                merged = table[mors[i]][mors[i - 1]]
                face.append(-1 if normalized and c.is_identity(merged) else
                            idx[mors[:i - 1] + (merged,) + mors[i + 1:]])
            tail = idx["obj", tau.objects[0]] if n == 0 else idx[mors[:-1]]
            sub = small[tail].composite
            face.append(tail)
            face.append(actions.setdefault(
                (sub, top, mors[-1], ident[c.mor_target[sub]]), len(actions)))
        faces.append(face)
    return NerveShape(bases, index, tuple(actions), tuple(faces))


def build_complex(d: NaturalSystem, max_degree: int, *,
                  normalized: bool = False) -> CochainComplex:
    """The complex in degrees 0..max_degree, with ``d∘d = 0`` checked.

    With ``normalized`` the basis is the nondegenerate sequences only: the
    normalized subcomplex, whose cohomology is that of the full complex.
    Its differential is the full one restricted to nondegenerate rows and
    columns, so only the merge terms whose merged morphism is an identity
    are dropped; head and tail faces of a nondegenerate sequence are
    nondegenerate."""
    if max_degree < 1:
        raise DegreeOutOfRange("max degree must be at least 1")
    shape = nerve_shape(d.base, max_degree, normalized)
    bases = shape.bases
    for n, b in enumerate(bases):
        if len(b) > SEQUENCE_WARN_LIMIT:
            warnings.warn(
                f"degree {n} has {len(b)} sequences; expect heavy computation",
                ScaleWarning, stacklevel=2)
    values = d.functor.values
    groups = [ProductGroup(tuple([values[s.composite] for s in basis]))
              for basis in bases]
    cx = CochainComplex(d, max_degree, shape, groups, [], normalized)
    # the sparse entries of each face action, read off this system
    acts = [_sparse(d.act_pair(*a).matrix) for a in shape.actions]
    for n in range(max_degree):
        face = shape.faces[n]
        width = n + 4
        tail_sign = 1 if n % 2 else -1     # (-1)^m for m = n + 1
        s_off, t_off = groups[n].gen_offsets, groups[n + 1].gen_offsets
        cols: Columns = {}
        for ti in range(len(bases[n + 1])):
            at = ti * width
            r0 = t_off[ti]
            # head term: + D(1, s1) applied to the head-dropped coordinate
            _add(cols, s_off[face[at]], r0, acts[face[at + 1]], 1)
            # merge terms: the identity of D(composite), signs from -1
            g = t_off[ti + 1] - r0
            for i in range(1, n + 1):
                si = face[at + 1 + i]
                if si < 0:
                    continue
                c0 = s_off[si]
                sign = -1 if i % 2 else 1
                for k in range(g):
                    col = cols.setdefault(c0 + k, {})
                    col[r0 + k] = col.get(r0 + k, 0) + sign
            # tail term: sign (-1)^m with D(s_m, 1)
            _add(cols, s_off[face[at + n + 2]], r0, acts[face[at + n + 3]],
                 tail_sign)
        cx.diffs.append(BlockHom(groups[n], groups[n + 1], _nonzero(cols)))

    diffs = cx.diffs
    for n in range(max_degree - 1):
        witness: Columns = {}
        require_vanishing(BlockHom.signed_sum([(1, diffs[n + 1], diffs[n])]),
                          "d∘d = 0", cx, n, cx, n + 2, witness)
        cx.dd_witness.append(witness)
    return cx


# ---------------------------------------------------------------------------
# graded maps

@dataclass
class CochainMap:
    source: CochainComplex
    target: CochainComplex
    maps: tuple[BlockHom, ...]   # one per degree 0..max_degree
    label: str = ""

    @property
    def max_degree(self) -> int:
        return min(self.source.max_degree, self.target.max_degree)

    def check_chain(self) -> None:
        for n in range(self.max_degree):
            total = BlockHom.signed_sum([
                (1, self.target.diffs[n], self.maps[n]),
                (-1, self.maps[n + 1], self.source.diffs[n])])
            require_vanishing(total, f"chain map {self.label or '?'} dp=pd",
                              self.source, n, self.target, n + 1)

    def compose(self, first: "CochainMap") -> "CochainMap":
        if first.target is not self.source:
            if first.target.groups[0].factors != self.source.groups[0].factors:
                raise ShapeMismatch("cochain maps do not chain")
        maps = tuple(self.maps[n].compose(first.maps[n])
                     for n in range(min(len(self.maps), len(first.maps))))
        return CochainMap(first.source, self.target, maps,
                          label=f"{self.label}∘{first.label}")

    def equal_mod(self, other: "CochainMap") -> bool:
        return all(BlockHom.signed_sum([(1, a, None), (-1, b, None)])
                   .first_nonzero_coordinate() is None
                   for a, b in zip(self.maps, other.maps))

    def is_identity_mod(self) -> bool:
        return self.equal_mod(identity_cochain_map(self.source))


def identity_cochain_map(cx: CochainComplex) -> CochainMap:
    return CochainMap(cx, cx, tuple(BlockHom.identity(g) for g in cx.groups),
                      label="id")


@dataclass
class Homotopy1:
    """Degree -1 family h with dh + hd = -p + q, checked at construction."""
    source: CochainComplex
    target: CochainComplex
    maps: dict[int, BlockHom]    # n -> (A^n -> B^{n-1}), n = 1..max_degree
    p: CochainMap
    q: CochainMap

    def check_boundary(self) -> None:
        N = min(self.source.max_degree, self.target.max_degree)
        for n in range(N):
            # hd + dh + p - q
            terms = [(1, self.maps[n + 1], self.source.diffs[n]),
                     (1, self.p.maps[n], None), (-1, self.q.maps[n], None)]
            if n >= 1:
                terms.append((1, self.target.diffs[n - 1], self.maps[n]))
            require_vanishing(BlockHom.signed_sum(terms), "dh+hd = -p+q",
                              self.source, n, self.target, n)

    def sub(self, other: "Homotopy1", p: CochainMap, q: CochainMap
            ) -> "Homotopy1":
        """Coordinatewise difference; the caller states the new boundary maps.

        When self.q == other.q this is a homotopy from self.p to other.p.
        """
        maps = {n: BlockHom.signed_sum([(1, self.maps[n], None),
                                        (-1, other.maps[n], None)])
                for n in self.maps}
        return Homotopy1(self.source, self.target, maps, p, q)


@dataclass
class Homotopy2:
    """Degree -2 family r with dr - rd equal to a signed sum of homotopies."""
    source: CochainComplex
    target: CochainComplex
    maps: dict[int, BlockHom]    # n -> (A^n -> B^{n-2}), n = 2..max_degree

    def check_boundary(self, rhs_terms: Callable[[int], list[Term]],
                       label: str) -> None:
        """Verify dr - rd == Σ rhs_terms(n) in degrees 1..N-1, where
        ``rhs_terms(n)`` lists the signed-sum terms of the degree -1 side."""
        N = min(self.source.max_degree, self.target.max_degree)
        for n in range(1, N):
            terms = [(-1, self.maps[n + 1], self.source.diffs[n])]
            if n >= 2:
                terms.append((1, self.target.diffs[n - 2], self.maps[n]))
            terms += [(-sign, left, right)
                      for sign, left, right in rhs_terms(n)]
            require_vanishing(BlockHom.signed_sum(terms), label,
                              self.source, n, self.target, n - 1)


# ---------------------------------------------------------------------------
# insertion sums: induced chain maps and homotopy families

def _insertion_hom(cx_src: CochainComplex, cx_dst: CochainComplex, n: int,
                   functors: tuple[Functor, ...],
                   comps: tuple[tuple[int, ...], ...],
                   k_hom: Callable[[int], GroupHom]) -> BlockHom:
    """The map from degree n+m of ``cx_src`` to degree n of ``cx_dst``,
    m = ``len(comps)``.

    At a target sequence τ = (s_1, ..., s_n) with objects X_0, ..., X_n and
    composite σ it sums ``(-1)^(i_1+...+i_m) k_hom(σ)`` over the cuts
    0 <= i_1 <= ... <= i_m <= n, each at the source sequence
    ``F_0(s_1..s_{i_1}), c_1(X_{i_1}), F_1(s_{i_1+1}..s_{i_2}), ...,
    c_m(X_{i_m}), F_m(s_{i_m+1}..s_n)``, where ``F_k = functors[k]`` and
    ``c_k = comps[k-1]`` lists a morphism per object.  With m = 0 the source
    is the pulled-back sequence F_0(τ), the object F_0(X_0) in degree 0.
    Every term is added straight into the columns of the result.

    Both complexes must be full: a pulled-back or inserted sequence may be
    degenerate, and a normalized basis has no coordinate for it."""
    for side, cx in (("source", cx_src), ("target", cx_dst)):
        if cx.normalized:
            raise ShapeMismatch(
                f"chain maps and homotopies need the full complex; the "
                f"{side} complex is normalized")
    m = len(comps)
    idx = cx_src.index[n + m]
    s_off = cx_src.groups[n + m].gen_offsets
    t_off = cx_dst.groups[n].gen_offsets
    cuts = [((0,) + c + (n,), -1 if sum(c) % 2 else 1)
            for c in combinations_with_replacement(range(n + 1), m)]
    coeffs: dict[int, Entries] = {}    # the entries of k_hom(σ), per σ
    cols: Columns = {}
    for ti, tau in enumerate(cx_dst.bases[n]):
        e = coeffs.get(tau.composite)
        if e is None:
            e = coeffs[tau.composite] = _sparse(k_hom(tau.composite).matrix)
        if not e:
            continue
        r0 = t_off[ti]
        objs = tau.objects
        # each functor's image of τ, sliced between the cuts below
        images = [tuple([f.mor_map[s] for s in tau.mors]) for f in functors]
        for b, sign in cuts:
            key = images[0][:b[1]]
            for k in range(m):
                key += (comps[k][objs[b[k + 1]]],) \
                    + images[k + 1][b[k + 1]:b[k + 2]]
            si = idx[key] if key else idx["obj", functors[0].obj_map[objs[0]]]
            _add(cols, s_off[si], r0, e, sign)
    return BlockHom(cx_src.groups[n + m], cx_dst.groups[n], _nonzero(cols))


def _corrected(tm: NatFTwoMorphism) -> Callable[[int], GroupHom]:
    """The coefficient map of the insertion sums of a two-morphism
    (eps, gam): (alpha, t) => (beta, s) with eps: xi => phi.

    At a composite σ: X -> Y it is ``s_σ ∘ D(1, (gam∘alpha)_Y)``, the
    correction running from ``D(eps_Y ∘ xi(σ))`` to ``D(beta_Y ∘ xi(σ))``.
    Every summand lives in the first group, by naturality of eps.  Each
    σ's map is composed once and reused by every degree of the family."""
    d = tm.src.source_system
    cc = d.base
    xi = tm.dst.alpha.source_functor
    e, b = tm.eps.components, tm.dst.alpha.components
    c = vertical_compose(tm.gam, tm.src.alpha).components
    s = tm.dst.nat.components

    @cache
    def k_hom(sigma: int) -> GroupHom:
        y, xs = xi.source.mor_target[sigma], xi.mor_map[sigma]
        return hom_compose(s[sigma], d.act_pair(
            cc.table[xs][e[y]], cc.table[xs][b[y]],
            cc.identity[cc.mor_source[xs]], c[y]))
    return k_hom


def _chain_map(m: NatSysMorphism, cx_src: CochainComplex,
               cx_dst: CochainComplex, k_hom: Callable[[int], GroupHom],
               label: str) -> CochainMap:
    """The m = 0 insertion sums of ``m`` in every degree, checked to be a
    chain map."""
    phi = m.alpha.source_functor
    maps = tuple(_insertion_hom(cx_src, cx_dst, n, (phi,), (), k_hom)
                 for n in range(min(cx_src.max_degree,
                                    cx_dst.max_degree) + 1))
    cmap = CochainMap(cx_src, cx_dst, maps, label=label)
    cmap.check_chain()
    return cmap


def induced_map_nat(m: NatSysMorphism, cx_src: CochainComplex,
                    cx_dst: CochainComplex) -> CochainMap:
    """Chain map of an ordinary morphism (phi, t): coordinates pulled back
    along phi and pushed through t, with no correction factor."""
    if m.alpha != identity_nat(m.alpha.source_functor):
        raise ShapeMismatch("ordinary induced map needs an identity anchor")
    return _chain_map(m, cx_src, cx_dst, m.component, "F*(phi,t)")


def induced_map_2(m: NatSysMorphism, cx_src: CochainComplex,
                  cx_dst: CochainComplex) -> CochainMap:
    """Chain map of a pair morphism (alpha, t): the pulled-back coordinate is
    corrected along (1_{phi X}, alpha_Y) before applying t, the coefficient
    map of the identity two-morphism of (alpha, t)."""
    return _chain_map(m, cx_src, cx_dst,
                      _corrected(identity_two_morphism(m)), "F*(alpha,t)")


# ---------------------------------------------------------------------------
# homotopies

def homotopy_h(tm: NatFTwoMorphism, cx_src: CochainComplex,
               cx_dst: CochainComplex) -> Homotopy1:
    """The degree -1 family attached to a two-morphism (eps, gam), checked
    to satisfy ``dh + hd = -p + q``."""
    tm.require()
    return _homotopy_h(tm, cx_src, cx_dst,
                       induced_map_2(tm.src, cx_src, cx_dst),
                       induced_map_2(tm.dst, cx_src, cx_dst))


def _homotopy_h(tm: NatFTwoMorphism, cx_src: CochainComplex,
                cx_dst: CochainComplex, p: CochainMap, q: CochainMap
                ) -> Homotopy1:
    """``homotopy_h`` of a valid ``tm`` whose boundary chain maps, ``p`` of
    ``tm.src`` and ``q`` of ``tm.dst``, are already built and checked."""
    k_hom = _corrected(tm)
    functors = (tm.src.alpha.source_functor, tm.dst.alpha.source_functor)
    maps = {n + 1: _insertion_hom(cx_src, cx_dst, n, functors,
                                  (tm.eps.components,), k_hom)
            for n in range(min(cx_src.max_degree, cx_dst.max_degree))}
    h = Homotopy1(cx_src, cx_dst, maps, p, q)
    h.check_boundary()
    return h


def _double_insertion(ab: NatFTwoMorphism, middle: Functor,
                      comps: tuple[tuple[int, ...], tuple[int, ...]],
                      cx_src: CochainComplex, cx_dst: CochainComplex
                      ) -> Homotopy2:
    """The degree -2 family of a composite two-morphism ``ab``: both
    components inserted, ``middle`` between them, with the coefficient map
    of ``ab``."""
    k_hom = _corrected(ab)
    functors = (ab.src.alpha.source_functor, middle,
                ab.dst.alpha.source_functor)
    N = min(cx_src.max_degree, cx_dst.max_degree)
    return Homotopy2(cx_src, cx_dst, {
        n + 2: _insertion_hom(cx_src, cx_dst, n, functors, comps, k_hom)
        for n in range(N - 1)})


def homotopy_r_vertical(a: NatFTwoMorphism, b: NatFTwoMorphism,
                        cx_src: CochainComplex, cx_dst: CochainComplex
                        ) -> Homotopy2:
    """Degree -2 family for stacked two-morphisms a: (alpha,t) => (alpha',t')
    and b: (alpha',t') => (beta,s), with
    dr - rd = -h_a - h_b + h_{b∘a} checked exactly."""
    a.require()
    b.require()
    if a.dst.alpha != b.src.alpha or not a.dst.nat.equal_mod(b.src.nat):
        raise ShapeMismatch("ladder middle morphisms disagree")
    ab = vertical_compose_two(b, a)
    # eps: phi' => phi, then eps': xi => phi'
    r = _double_insertion(ab, a.eps.source_functor,
                          (a.eps.components, b.eps.components),
                          cx_src, cx_dst)
    # three distinct boundary maps: F*(alpha,t), F*(alpha',t'), F*(beta,s);
    # the middle one serves both a and b, as their nats agree mod relations
    p, mid, q = (induced_map_2(m, cx_src, cx_dst)
                 for m in (a.src, a.dst, b.dst))
    h_a = _homotopy_h(a, cx_src, cx_dst, p, mid)
    h_b = _homotopy_h(b, cx_src, cx_dst, mid, q)
    h_ab = _homotopy_h(ab.require(), cx_src, cx_dst, p, q)
    r.check_boundary(lambda n: [(-1, h_a.maps[n], None),
                                (-1, h_b.maps[n], None),
                                (1, h_ab.maps[n], None)],
                     "dr-rd = -h -h' +h''")
    return r


def homotopy_r_horizontal(a: NatFTwoMorphism, b: NatFTwoMorphism,
                          cx_a: CochainComplex, cx_mid: CochainComplex,
                          cx_b: CochainComplex
                          ) -> tuple[Homotopy2, Homotopy1, Homotopy1]:
    """Degree -2 family for side-by-side two-morphisms a on (C,D) -> (D',E)
    and b on (D',E) -> (E',G), with
    dr' - r'd = -h_b∘F*(alpha,t) - F*(beta',s')∘h_a + h_{b*a} checked exactly.

    Returns ``(r', h_a, h_b)``: the family and the two checked degree -1
    families it was verified against."""
    a.require()
    b.require()
    ab = horizontal_compose_two(b, a)
    phi, xi2 = a.src.alpha.source_functor, b.dst.alpha.source_functor
    # phi(eps'_X), then eps_{xi' X}, with phi∘xi' between them
    r = _double_insertion(ab, compose_functors(phi, xi2),
                          (tuple(phi.mor_map[f] for f in b.eps.components),
                           tuple(a.eps.components[x] for x in xi2.obj_map)),
                          cx_a, cx_b)
    # a and b are validated above; only the new composite ab is checked again
    h_a = _homotopy_h(a, cx_a, cx_mid, induced_map_2(a.src, cx_a, cx_mid),
                      induced_map_2(a.dst, cx_a, cx_mid))
    h_b = _homotopy_h(b, cx_mid, cx_b, induced_map_2(b.src, cx_mid, cx_b),
                      induced_map_2(b.dst, cx_mid, cx_b))
    h_ab = homotopy_h(ab, cx_a, cx_b)
    # h_a.p is F*(alpha,t) and h_b.q is F*(beta',s')
    r.check_boundary(lambda n: [(-1, h_b.maps[n], h_a.p.maps[n]),
                                (-1, h_b.q.maps[n - 1], h_a.maps[n]),
                                (1, h_ab.maps[n], None)],
                     "dr'-r'd = -h'p -p'h +h''")
    return r, h_a, h_b


# ---------------------------------------------------------------------------
# maps on cohomology and relative homotopy classes

def cohomology_map(cmap: CochainMap, n: int) -> GroupHom:
    """The induced homomorphism H^n(source) -> H^n(target), between the
    residue presentations of ``ReducedCone.subquotient``.

    Each generator of the source H^n is lifted to a cone cocycle, its x part
    is mapped by ``maps[n]``, and the image is projected to the target
    residue and expressed in its kernel basis.  An image that is not a
    cocycle raises ``HomotopyIdentityError`` naming the coordinate."""
    cmap.source._check_degree(n)
    cmap.target._check_degree(n)
    src, dst = cmap.source.reduced(), cmap.target.reduced()
    sq_a, sq_b = src.subquotient(n), dst.subquotient(n)
    m = cmap.maps[n]
    images = [dst.project(n, m.apply(src.lift(n, sq_a.basis.column(j))))
              for j in range(sq_a.basis.cols)]
    rows = sq_b.ambient.generators
    mapped = IntMatrix(rows, len(images),
                       tuple(v[i] for i in range(rows) for v in images))
    w = sq_b.express(mapped)
    return GroupHom.create(sq_a.group, sq_b.group, w)


def is_cohomology_iso(cmap: CochainMap, n: int) -> bool:
    return is_iso(cohomology_map(cmap, n))


def homotopy_class_equal(h1: Homotopy1, h2: Homotopy1) -> bool:
    """Decide relative homotopy: does some degree -2 family r satisfy
    dr - rd = -h1 + h2?

    Solved as one integer linear system over the computed degrees; equality
    is certified only up to the complexes' maximum degree (a
    ``DegreeTruncation`` warning records this).
    """
    if not (h1.p.equal_mod(h2.p) and h1.q.equal_mod(h2.q)):
        raise ShapeMismatch("homotopies do not share boundary chain maps")
    cx_a, cx_b = h1.source, h1.target
    N = min(cx_a.max_degree, cx_b.max_degree)
    warnings.warn(f"relative homotopy certified up to degree {N}",
                  DegreeTruncation, stacklevel=2)

    ga = [g.total_gens for g in cx_a.groups]
    gb = [g.total_gens for g in cx_b.groups]
    ra = [g.group.relations.cols for g in cx_a.groups]
    rb = [g.group.relations.cols for g in cx_b.groups]
    # variables: r_n (n=2..N), Q_n (n=2..N), Y_n (n=1..N-1)
    offsets = {}
    nvars = 0
    for n in range(2, N + 1):
        offsets[("r", n)] = nvars
        nvars += gb[n - 2] * ga[n]
        offsets[("q", n)] = nvars
        nvars += rb[n - 2] * ra[n]
    for n in range(1, N):
        offsets[("y", n)] = nvars
        nvars += rb[n - 1] * ga[n]

    rows: list[list[int]] = []
    rhs: list[int] = []

    def var_r(n, i, j):
        return offsets[("r", n)] + i * ga[n] + j

    def var_q(n, i, j):
        return offsets[("q", n)] + i * ra[n] + j

    def var_y(n, i, j):
        return offsets[("y", n)] + i * ga[n] + j

    delta = {n: BlockHom.signed_sum([(1, h2.maps[n], None),
                                     (-1, h1.maps[n], None)]).to_matrix()
             for n in range(1, N + 1)}
    d_a = [bh.to_matrix() for bh in cx_a.diffs]
    d_b = [bh.to_matrix() for bh in cx_b.diffs]
    rels_a = [g.group.relations for g in cx_a.groups]
    rels_b = [g.group.relations for g in cx_b.groups]

    # boundary equations at degree n: [n>=2] d_B r_n - r_{n+1} d_A - R_B Y_n = delta_n
    for n in range(1, N):
        for i in range(gb[n - 1]):
            for j in range(ga[n]):
                row = [0] * nvars
                if n >= 2:
                    for k in range(gb[n - 2]):
                        cda = d_b[n - 2].at(i, k)
                        if cda:
                            row[var_r(n, k, j)] += cda
                for k in range(ga[n + 1]):
                    cda = d_a[n].at(k, j)
                    if cda:
                        row[var_r(n + 1, i, k)] -= cda
                for k in range(rb[n - 1]):
                    cy = rels_b[n - 1].at(i, k)
                    if cy:
                        row[var_y(n, k, j)] -= cy
                rows.append(row)
                rhs.append(delta[n].at(i, j))
    # well-definedness: r_n R_A - R_B Q_n = 0
    for n in range(2, N + 1):
        for i in range(gb[n - 2]):
            for j in range(ra[n]):
                row = [0] * nvars
                for k in range(ga[n]):
                    cra = rels_a[n].at(k, j)
                    if cra:
                        row[var_r(n, i, k)] += cra
                for k in range(rb[n - 2]):
                    crb = rels_b[n - 2].at(i, k)
                    if crb:
                        row[var_q(n, k, j)] -= crb
                rows.append(row)
                rhs.append(0)

    if not rows or nvars == 0:
        return all(x == 0 for x in rhs)
    mat = IntMatrix.from_rows(rows)
    return LatticeSolver(mat).solve(rhs) is not None
