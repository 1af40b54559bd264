"""Finitely presented abelian groups and exact homomorphisms between them.

A group is ``Z^g`` modulo the column span of an integer relations matrix with
``g`` rows (each column is one relation).  A homomorphism is an integer matrix
``M`` that descends to the quotients: ``M @ R_source`` lies in the column span
of ``R_target``, checked exactly when the hom is created.

Isomorphism classes are canonicalised by ``GroupInvariants``: free rank plus
torsion coefficients in a divisibility chain, with trivial coefficients
dropped.  Subquotients (kernel modulo image, the cohomology of a two-step
complex) are computed by lifting to free presentations, never by floating
point or modular shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .intmat import IntMatrix, LatticeSolver, smith_normal_form

__all__ = [
    "PresentedGroup", "GroupInvariants", "GroupHom", "Subquotient",
    "CompositionNotZero", "IllDefinedHom",
    "Z", "trivial_group", "cyclic", "from_invariants", "direct_product",
    "hom_compose", "is_iso", "hom_inverse", "subquotient",
    "preimage_lattice_basis",
]


class CompositionNotZero(ValueError):
    """The two maps handed to a subquotient do not compose to zero."""


class IllDefinedHom(ValueError):
    """A matrix does not descend to the quotient groups involved."""


@dataclass(frozen=True)
class GroupInvariants:
    free_rank: int
    torsion: tuple[int, ...]  # d1 | d2 | ..., each >= 2

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def human(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"

    def machine(self) -> str:
        tor = ",".join(str(d) for d in self.torsion)
        return f"rank={self.free_rank} torsion=[{tor}]"

    def __str__(self):
        return self.human()


@dataclass(frozen=True)
class PresentedGroup:
    generators: int
    relations: IntMatrix  # generators x r; columns are relations

    def __post_init__(self):
        if self.relations.rows != self.generators:
            raise IllDefinedHom(
                f"relations have {self.relations.rows} rows for "
                f"{self.generators} generators"
            )

    @cached_property
    def solver(self) -> LatticeSolver:
        return LatticeSolver(self.relations)

    @cached_property
    def injective(self) -> "PresentedGroup":
        """The same group with linearly independent relations: itself when
        its relation matrix is injective, else its relation lattice basis."""
        if self.solver.rank == self.relations.cols:
            return self
        return PresentedGroup(self.generators, self.solver.basis())

    @cached_property
    def invariants(self) -> GroupInvariants:
        diag = smith_normal_form(self.relations)
        torsion = tuple(d for d in diag if d > 1)
        return GroupInvariants(self.generators - len(diag), torsion)

    def is_trivial(self) -> bool:
        return self.invariants.is_trivial()

    def __repr__(self):
        return f"PresentedGroup({self.invariants.human()!s})"


Z = PresentedGroup(1, IntMatrix(1, 0, ()))
trivial_group = PresentedGroup(0, IntMatrix(0, 0, ()))


def cyclic(k: int) -> PresentedGroup:
    if k == 0:
        return Z
    return PresentedGroup(1, IntMatrix(1, 1, (k,)))


def from_invariants(free_rank: int, torsion: tuple[int, ...] = ()) -> PresentedGroup:
    g = free_rank + len(torsion)
    rel_rows = [[0] * len(torsion) for _ in range(g)]
    for j, d in enumerate(torsion):
        rel_rows[free_rank + j][j] = d
    rels = IntMatrix.from_rows(rel_rows) if g else IntMatrix(0, len(torsion), ())
    return PresentedGroup(g, rels)


def direct_product(groups: list[PresentedGroup]) -> PresentedGroup:
    gens = sum(g.generators for g in groups)
    rels = IntMatrix.block_diag([g.relations for g in groups])
    return PresentedGroup(gens, rels)


@dataclass(frozen=True)
class GroupHom:
    source: PresentedGroup
    target: PresentedGroup
    matrix: IntMatrix          # target.generators x source.generators

    def __post_init__(self):
        if self.matrix.rows != self.target.generators or \
           self.matrix.cols != self.source.generators:
            raise IllDefinedHom("hom matrix shape mismatch")

    @staticmethod
    def create(source: PresentedGroup, target: PresentedGroup,
               matrix: IntMatrix) -> "GroupHom":
        """Build a hom, checking that the matrix maps relations into the
        target's relation lattice."""
        if not target.solver.contains_matrix(matrix @ source.relations):
            raise IllDefinedHom("matrix does not preserve relations")
        return GroupHom(source, target, matrix)

    @staticmethod
    def identity(g: PresentedGroup) -> "GroupHom":
        return GroupHom(g, g, IntMatrix.identity(g.generators))

    @staticmethod
    def zero(source: PresentedGroup, target: PresentedGroup) -> "GroupHom":
        return GroupHom(source, target,
                        IntMatrix.zeros(target.generators, source.generators))

    def is_zero_mod(self) -> bool:
        return self.target.solver.contains_matrix(self.matrix)

    def equal_mod(self, other: "GroupHom") -> bool:
        if self.source is not other.source and self.source != other.source:
            return False
        if self.target is not other.target and self.target != other.target:
            return False
        return self.target.solver.contains_matrix(self.matrix - other.matrix)


def hom_compose(g: GroupHom, f: GroupHom) -> GroupHom:
    """The composite g∘f (f applied first)."""
    if f.target != g.source:
        raise IllDefinedHom("hom composition middle groups differ")
    return GroupHom(f.source, g.target, g.matrix @ f.matrix)


def preimage_lattice_basis(m: IntMatrix, target_rels: IntMatrix) -> IntMatrix:
    """Basis of the lattice {x : m @ x lies in the column span of target_rels}."""
    combined = m.hstack(target_rels)
    ker = LatticeSolver(combined).kernel()
    # project kernel vectors to the x-part and re-extract a basis
    proj = IntMatrix.from_rows(
        [[ker.at(i, j) for j in range(ker.cols)] for i in range(m.cols)]
    ) if m.cols else IntMatrix(0, ker.cols, ())
    return LatticeSolver(proj).basis()


def is_iso(h: GroupHom) -> bool:
    """Bijectivity on the quotients: trivial cokernel and trivial kernel."""
    coker = PresentedGroup(h.target.generators,
                           h.matrix.hstack(h.target.relations))
    if not coker.is_trivial():
        return False
    pre = preimage_lattice_basis(h.matrix, h.target.relations)
    # kernel of the induced map is trivial iff the preimage lattice is
    # contained in the relation lattice of the source
    return h.source.solver.contains_matrix(pre)


def hom_inverse(h: GroupHom) -> GroupHom:
    """Two-sided inverse of an isomorphism of presented groups."""
    combined = LatticeSolver(h.matrix.hstack(h.target.relations))
    cols = []
    gt = h.target.generators
    for i in range(gt):
        e = [0] * gt
        e[i] = 1
        sol = combined.solve(e)
        if sol is None:
            raise IllDefinedHom("hom is not surjective, cannot invert")
        cols.append(sol[:h.source.generators])
    gs = h.source.generators
    mat = IntMatrix.from_rows(
        [[cols[j][i] for j in range(gt)] for i in range(gs)]
    ) if gs else IntMatrix(0, gt, ())
    inv = GroupHom.create(h.target, h.source, mat)
    if not hom_compose(inv, h).equal_mod(GroupHom.identity(h.source)) or \
       not hom_compose(h, inv).equal_mod(GroupHom.identity(h.target)):
        raise IllDefinedHom("hom is not an isomorphism")
    return inv


@dataclass(frozen=True)
class Subquotient:
    """ker(d_out)/im(d_in) at the middle group of a two-step complex.

    ``basis`` has columns forming a lattice basis of the kernel preimage
    K = {x : d_out(x) lies in the target relation lattice}; ``group`` presents
    K modulo boundaries-and-relations in the coordinates of that basis.
    """
    ambient: PresentedGroup
    basis: IntMatrix       # ambient.generators x k
    group: PresentedGroup  # Z^k / W
    # the Hermite form of ``basis``, built once to find W and kept for express
    basis_solver: LatticeSolver = field(compare=False, repr=False)

    def express(self, vectors: IntMatrix) -> IntMatrix:
        """Coordinates of ambient vectors (known to lie in K) in the basis."""
        out = self.basis_solver.solve_matrix(vectors)
        if out is None:
            raise IllDefinedHom("vector does not lie in the kernel lattice")
        return out


def subquotient(d_in: GroupHom, d_out: GroupHom) -> Subquotient:
    if d_in.target != d_out.source:
        raise IllDefinedHom("subquotient maps do not share the middle group")
    if not hom_compose(d_out, d_in).is_zero_mod():
        raise CompositionNotZero("d_out ∘ d_in is not zero")
    mid = d_in.target
    k_basis = preimage_lattice_basis(d_out.matrix, d_out.target.relations)
    boundaries = d_in.matrix.hstack(mid.relations)
    solver = LatticeSolver(k_basis)
    w = solver.solve_matrix(boundaries)
    if w is None:
        raise IllDefinedHom("boundaries escape the kernel lattice")
    return Subquotient(mid, k_basis, PresentedGroup(k_basis.cols, w), solver)
