import itertools
import random
import time
import tracemalloc

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from bwcoh.intmat import (
    DimensionMismatch, IntMatrix, LatticeSolver, _hnf_core,
    divisibility_chain, hermite_normal_form, smith_normal_form,
)
from oracles import determinant, determinantal_divisors, is_unimodular, matvec


def mat(rows):
    return IntMatrix.from_rows(rows)


def small_matrices(max_dim=6, lo=-9, hi=9):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(lo, hi), min_size=c, max_size=c),
                min_size=r, max_size=r).map(mat)))


def test_smith_example_2468():
    m = mat([[2, 4], [6, 8]])
    # determinantal-divisor oracle: g1 = gcd of entries = 2, g2 = |det| = 8
    assert determinantal_divisors(m) == [2, 4]
    assert smith_normal_form(m) == [2, 4]


def test_smith_identity_and_zero():
    assert smith_normal_form(IntMatrix.identity(3)) == [1, 1, 1]
    assert smith_normal_form(IntMatrix.zeros(2, 3)) == []


def test_smith_empty():
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert smith_normal_form(IntMatrix.zeros(*shape)) == []


def test_smith_orders_coprime_pivots_by_divisibility():
    # diag(2, 3) is Smith-equivalent to diag(1, 6), not to itself
    assert smith_normal_form(mat([[2, 0], [0, 3]])) == [1, 6]
    m = mat([[6, 0, 0], [0, 4, 0], [0, 0, 10]])
    assert smith_normal_form(m) == [2, 2, 60]


def _tall_rows():
    # [B; Q·B] has the row lattice of B, so the same invariants
    b = [[2, 0, 4], [0, 6, 6], [4, 6, 14]]
    rng = random.Random(2024)
    rows = [list(r) for r in b]
    for _ in range(2000 - len(b)):
        q = [rng.randint(-5, 5) for _ in b]
        rows.append([sum(qk * b[k][j] for k, qk in enumerate(q))
                     for j in range(3)])
    return rows


def _traced_smith(m):
    """The Smith invariants of ``m`` and the peak of traced allocations."""
    tracemalloc.start()
    try:
        diag = smith_normal_form(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return diag, peak


def test_smith_tall_matrix_needs_no_square_transform():
    # a transform on the long side would be 2,000 x 2,000
    diag, peak = _traced_smith(mat(_tall_rows()))
    assert diag == [2, 6]
    assert peak < 16 * 2**20


def test_smith_wide_matrix_needs_no_square_transform():
    # the transpose of the tall case: the same invariants, and a Hermite
    # transform of its 2,000 columns would be 2,000 x 2,000
    rows = _tall_rows()
    diag, peak = _traced_smith(mat([list(c) for c in zip(*rows)]))
    assert diag == [2, 6]
    assert peak < 16 * 2**20


def test_smith_dense_60_by_60_is_quick():
    # U·diag(D)·V for random elementary U and V with small multipliers;
    # pivoting on the least entry across the whole matrix did not finish
    # this in 100 s, one Hermite elimination per round takes hundredths
    n = 60
    rng = random.Random(7)
    d = [(1, 1, 2, 2, 6, 12, 0, 0)[i % 8] for i in range(n)]
    a = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(360):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        else:
            for row in a:
                row[i] += q * row[j]
    assert max(abs(x) for row in a for x in row).bit_length() == 12
    start = time.process_time()
    diag = smith_normal_form(mat(a))
    assert time.process_time() - start < 2
    assert diag == divisibility_chain([x for x in d if x])


def test_hermite_examples():
    h, u = hermite_normal_form(mat([[2], [4]]))
    assert h == mat([[2], [4]])
    h, u = hermite_normal_form(IntMatrix.identity(2))
    assert h == IntMatrix.identity(2)
    h, u = hermite_normal_form(mat([[4, 6]]))
    assert h == mat([[2, 0]])   # gcd(4, 6) = 2 by Euclid
    assert (mat([[4, 6]]) @ u) == h


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_smith_properties(m):
    diag = smith_normal_form(m)
    assert diag == determinantal_divisors(m)
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_hermite_properties(m):
    h, u = hermite_normal_form(m)
    assert (m @ u) == h
    assert is_unimodular(u)
    # staircase: pivot rows strictly increase; pivots positive; entries to the
    # left of a pivot reduced into [0, pivot)
    last_pivot_row = -1
    for j in range(h.cols):
        col = h.column(j)
        nz = [i for i, x in enumerate(col) if x]
        if not nz:
            for j2 in range(j + 1, h.cols):
                assert not any(h.column(j2))
            break
        assert nz[0] > last_pivot_row
        last_pivot_row = nz[0]
        assert col[nz[0]] > 0
        for j2 in range(j):
            assert 0 <= h.at(nz[0], j2) < col[nz[0]]


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_hermite_without_transform_is_the_same_form(m):
    h, u, pivots = _hnf_core(m)
    assert len(u) == m.cols
    assert _hnf_core(m, transform=False) == (h, [], pivots)


@settings(max_examples=100, deadline=None)
@given(small_matrices(max_dim=5), st.lists(st.integers(-4, 4), min_size=1,
                                           max_size=5))
def test_solver_roundtrip(m, coeffs):
    coeffs = (coeffs * m.cols)[:m.cols]
    member = matvec(m, coeffs)
    solver = LatticeSolver(m)
    x = solver.solve(member)
    assert x is not None
    assert matvec(m, x) == member


@settings(max_examples=100, deadline=None)
@given(small_matrices(max_dim=5))
def test_kernel(m):
    k = LatticeSolver(m).kernel()
    prod = m @ k
    assert not any(prod.entries)
    assert k.cols + LatticeSolver(m).rank == m.cols


def test_membership_brute_force_small():
    # exhaustive Cramer-bounded search agrees with the solver on full-rank 2x2
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        m = mat([[a, b], [c, d]])
        det = a * d - b * c
        if det == 0:
            continue
        solver = LatticeSolver(m)
        for t in itertools.product(range(-2, 3), repeat=2):
            target = list(t)
            # any solution satisfies |x_i| <= max|target| * max|entry| * 2 / |det|
            bound = 2 * max(1, max(map(abs, target))) * \
                max(1, max(abs(e) for e in (a, b, c, d))) // max(1, abs(det)) + 1
            brute = any(
                [a * x + b * y, c * x + d * y] == target
                for x in range(-bound, bound + 1)
                for y in range(-bound, bound + 1))
            assert (solver.solve(target) is not None) == brute


def test_mod_m_obstruction_on_rejects():
    # when the solver rejects, some small modulus certifies the rejection
    # whenever the target is rationally inside the column span
    m = mat([[2, 0], [0, 3]])
    solver = LatticeSolver(m)
    assert solver.solve([1, 0]) is None
    found = False
    for mod in (2, 3, 4, 5, 6):
        ok = any((2 * x) % mod == 1 % mod and (3 * y) % mod == 0
                 for x in range(mod) for y in range(mod))
        if not ok:
            found = True
    assert found


def test_determinant_matches_cofactors():
    from oracles import cofactor_det
    import random
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert determinant(mat(rows)) == cofactor_det(rows)


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        mat([[1]]) @ mat([[1, 2], [3, 4]])
