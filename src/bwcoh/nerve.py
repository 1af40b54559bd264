"""Cells of the nerve of a finite category, for ``bwcoh export --what nerve``.

An n-simplex is a forward chain

    X_0 --g1--> X_1 --g2--> ... --gn--> X_n

(the opposite reading order from the cochain bases in ``bwcomplex``).
Degenerate simplices, those containing an identity, are listed too and
flagged as such by the export.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import FiniteCategory


@dataclass(frozen=True)
class Simplex:
    arrows: tuple[int, ...]    # g1..gn, forward composable
    vertices: tuple[int, ...]  # X_0..X_n

    def is_degenerate(self, c: FiniteCategory) -> bool:
        return any(c.is_identity(g) for g in self.arrows)


def nerve_cells(c: FiniteCategory, n: int) -> tuple[Simplex, ...]:
    """All n-simplices of the nerve, lexicographic in arrow ids."""
    if n == 0:
        return tuple(Simplex((), (x,)) for x in range(c.n_objects))
    cells = [Simplex((g,), (c.mor_source[g], c.mor_target[g]))
             for g in range(c.n_morphisms)]
    for _ in range(n - 1):
        nxt = []
        for s in cells:
            for g in range(c.n_morphisms):
                if c.mor_source[g] == s.vertices[-1]:
                    nxt.append(Simplex(s.arrows + (g,),
                                       s.vertices + (c.mor_target[g],)))
        cells = nxt
    return tuple(cells)
