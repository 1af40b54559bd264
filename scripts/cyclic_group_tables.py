#!/usr/bin/env python3
"""Cohomology tables for small cyclic groups viewed as one-object categories.

Computes H^0..H^(N-1) with a few constant coefficient groups and with the
sign module on Z/2, printing one table per coefficient system.  Only the
invariants are needed, so each complex is the normalized one.

    PYTHONPATH=src python scripts/cyclic_group_tables.py [--max-degree N]
                                                         [--orders K ...]
"""

import argparse

from bwcoh.abgroup import GroupHom, Z, cyclic
from bwcoh.bwcomplex import build_complex
from bwcoh.factorization import op_pair_product
from bwcoh.fincat import cyclic_group_category
from bwcoh.intmat import IntMatrix
from bwcoh.natsys import AbFunctor, constant_system, from_bifunctor


def sign_system(k: int):
    """Z with the order-k generator acting by -1 (only sensible for k = 2)."""
    c = cyclic_group_category(k)
    prod = op_pair_product(c)
    homs = []
    for m in range(prod.category.n_morphisms):
        _, right = prod.mor_pair(m)
        sign = -1 if right % 2 else 1
        homs.append(GroupHom.create(Z, Z, IntMatrix(1, 1, (sign,))))
    bif = AbFunctor(prod.category, (Z,) * prod.category.n_objects,
                    tuple(homs))
    return from_bifunctor(c, bif)


def positive(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=positive, default=4)
    ap.add_argument("--orders", type=positive, nargs="*", default=[2, 3])
    args = ap.parse_args()
    n = args.max_degree
    for k in args.orders:
        cat = cyclic_group_category(k)
        for label, system in [
            ("Z", constant_system(cat, Z)),
            (f"Z/{k}", constant_system(cat, cyclic(k))),
        ]:
            cx = build_complex(system, n, normalized=True)
            cells = " ".join(f"H^{i}={cx.cohomology(i).human()}"
                             for i in range(n))
            print(f"Z/{k} with constant {label}: {cells}")
    if 2 in args.orders:
        cx = build_complex(sign_system(2), n, normalized=True)
        cells = " ".join(f"H^{i}={cx.cohomology(i).human()}"
                         for i in range(n))
        print(f"Z/2 with the sign module: {cells}")


if __name__ == "__main__":
    main()
