#!/usr/bin/env python3
"""Walk through the transport theorem on the arrow category.

Builds the collapse localization onto the target object, checks locality of
a few coefficient systems, and prints the full three-certificate report for
the ones that qualify.
"""

from bwcoh.abgroup import GroupHom, Z, cyclic, trivial_group
from bwcoh.factorization import build_factorization
from bwcoh.fincat import (
    Functor, NaturalTransformation, arrow_category, compose_functors,
    identity_functor, terminal_category,
)
from bwcoh.intmat import IntMatrix
from bwcoh.localization import (
    Localization, NotLocal, local_characterization,
    verify_transport_theorem,
)
from bwcoh.natsys import AbFunctor, NaturalSystem, constant_system


def arrow_localization() -> Localization:
    c = arrow_category()
    pt = terminal_category()
    phi = Functor(c, pt, (0, 0), (0, 0, 0))
    psi = Functor(pt, c, (1,), (1,))
    unit = NaturalTransformation(identity_functor(c),
                                 compose_functors(psi, phi), (2, 1))
    return Localization(c, pt, phi, psi, unit)


def zero_on_f(c) -> NaturalSystem:
    fc = build_factorization(c)
    values = (Z, Z, trivial_group)
    homs = tuple(
        GroupHom.create(values[p.src], values[p.dst],
                        IntMatrix(values[p.dst].generators,
                                  values[p.src].generators,
                                  (1,) * (values[p.dst].generators *
                                          values[p.src].generators)))
        for p in fc.pairs)
    return NaturalSystem(fc, AbFunctor(fc.category, values, homs))


def main():
    loc = arrow_localization()
    systems = [
        ("constant Z", constant_system(loc.big, Z)),
        ("constant Z/4", constant_system(loc.big, cyclic(4))),
        ("Z on identities, 0 on the arrow", zero_on_f(loc.big)),
    ]
    for label, d in systems:
        print(f"== {label} ==")
        ch = local_characterization(d, loc)
        print(f"pointwise local: {ch.pointwise_local}; "
              f"canonical comparison invertible: {ch.canonical_map_iso}")
        try:
            report = verify_transport_theorem(d, loc, 3)
        except NotLocal as exc:
            print(f"skipped transport: {exc}")
            print()
            continue
        for line in report.lines():
            print(line)
        print()


if __name__ == "__main__":
    main()
