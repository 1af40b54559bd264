"""Closed-form cohomology answers that the benchmark checks job output against.

Each table is a list of ``(free_rank, torsion)`` pairs, one per degree
0..N-1.  The values come from textbook group and poset cohomology, not from
bwcoh, so a wrong answer from the code under test cannot agree with them by
construction:

* ``H^n(Z/k; Z)`` is Z, 0, Z/k, 0, Z/k, ... (periodic resolution of a
  cyclic group);
* ``H^n(Z/k; Z/m)`` is Z/m in degree 0 and Z/gcd(k, m) above;
* Z with a generator of Z/k (k even) acting by -1 has H^0 = 0, Z/2 in odd
  degrees and 0 in even positive degrees;
* a category with a terminal object is contractible: Z in degree 0, 0 above;
* a contractible poset crossed with Z/k has the cohomology of Z/k.
"""

from __future__ import annotations

from math import gcd

Invariants = tuple[int, tuple[int, ...]]


def _cyclic(d: int) -> Invariants:
    return (0, (d,)) if d > 1 else (0, ())


def cyclic_constant_z(k: int, degrees: int) -> list[Invariants]:
    return [(1, ()) if n == 0 else (0, ()) if n % 2 else _cyclic(k)
            for n in range(degrees)]


def cyclic_constant_mod(k: int, m: int, degrees: int) -> list[Invariants]:
    return [_cyclic(m) if n == 0 else _cyclic(gcd(k, m))
            for n in range(degrees)]


def cyclic_sign_z(k: int, degrees: int) -> list[Invariants]:
    if k % 2:
        raise ValueError("the sign action needs a cyclic group of even order")
    return [_cyclic(2) if n % 2 else (0, ()) for n in range(degrees)]


def contractible(degrees: int) -> list[Invariants]:
    return [(1, ())] + [(0, ())] * (degrees - 1)


def machine(inv: Invariants) -> str:
    """The ``--format machine`` spelling of one degree."""
    rank, torsion = inv
    return f"rank={rank} torsion=[{','.join(map(str, torsion))}]"


def human(inv: Invariants) -> str:
    """The spelling used in ``localization-check`` degree lines."""
    rank, torsion = inv
    parts = ([] if rank == 0 else ["Z"] if rank == 1 else [f"Z^{rank}"])
    parts += [f"Z/{d}" for d in torsion]
    return " ⊕ ".join(parts) if parts else "0"
