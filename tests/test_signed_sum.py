"""Differential tests of ``BlockHom.signed_sum``.

The sum runs over the stored sparse columns in global generator coordinates
and keeps only the entries it leaves nonzero; ``oracles.blockwise_signed_sum``,
the per-block ``IntMatrix`` products, is the reference.  The two must agree
block for block, and so must the zero check built on them:
``first_nonzero_coordinate`` and its solutions against
``oracles.blockwise_first_nonzero``.
"""

import random

import pytest

from bwcoh.abgroup import PresentedGroup, Z, cyclic, from_invariants
from bwcoh.bwcomplex import BlockHom, ProductGroup, build_complex
from bwcoh.fincat import ShapeMismatch
from bwcoh.intmat import IntMatrix
from bwcoh.randgen import InstanceGen
from oracles import (
    block_hom, blockwise_first_nonzero, blockwise_signed_sum,
)

TRIVIAL = from_invariants(0)               # zero generators: 1x0, 0x0 blocks
# Z/2 with the relations (2, 4), which are not independent
Z2_TWICE = PresentedGroup(1, IntMatrix(1, 2, (2, 4)))
TORSION = [TRIVIAL, cyclic(2), cyclic(6), Z2_TWICE]
FACTORS = TORSION + [Z, from_invariants(2), from_invariants(1, (2,))]


def random_product(rng, factors, most=4):
    return ProductGroup(tuple(rng.choice(factors)
                              for _ in range(rng.randint(0, most))))


def random_hom(rng, src, dst, scale=1):
    blocks = {}
    for t, ft in enumerate(dst.factors):
        for s, fs in enumerate(src.factors):
            if rng.random() < 0.6:
                blocks[t, s] = IntMatrix(
                    ft.generators, fs.generators,
                    tuple(scale * rng.choice([0, 0, 1, -1, 2, -3])
                          for _ in range(ft.generators * fs.generators)))
    return block_hom(src, dst, blocks)


def random_terms(rng, dst_factors=FACTORS, scale=1):
    src = random_product(rng, FACTORS)
    dst = random_product(rng, dst_factors)
    terms = []
    for _ in range(rng.randint(1, 5)):
        sign = rng.choice([1, -1])
        if rng.random() < 0.3:
            terms.append((sign, random_hom(rng, src, dst, scale), None))
        else:
            mid = random_product(rng, FACTORS)
            terms.append((sign, random_hom(rng, mid, dst, scale),
                          random_hom(rng, src, mid)))
        if rng.random() < 0.3:                  # cancels the term just added
            s, left, right = terms[-1]
            terms.append((-s, left, right))
    rng.shuffle(terms)
    return terms


def assert_agree(terms):
    ref = blockwise_signed_sum(terms)
    new = BlockHom.signed_sum(terms)
    assert new.blocks == {k: m for k, m in ref.blocks.items()
                          if any(m.entries)}
    sol_ref, sol_new = {}, {}
    bad = new.first_nonzero_coordinate(sol_new)
    assert bad == blockwise_first_nonzero(ref, sol_ref)
    assert sol_new == sol_ref
    return new, bad


@pytest.mark.parametrize("seed", range(60))
def test_random_sums_match_blockwise(seed):
    assert_agree(random_terms(random.Random(seed)))


@pytest.mark.parametrize("seed", range(20))
def test_sums_vanishing_mod_torsion_match_blockwise(seed):
    # left entries are multiples of 6, so every block lands in the
    # relations of its torsion target and is solved, not refused
    new, bad = assert_agree(random_terms(random.Random(1000 + seed),
                                         TORSION, scale=6))
    assert bad is None


@pytest.mark.parametrize("seed", range(20))
def test_exactly_cancelling_sums_store_no_block(seed):
    terms = random_terms(random.Random(2000 + seed))
    terms += [(-sign, left, right) for sign, left, right in terms]
    new, bad = assert_agree(terms)
    assert new.blocks == {} and bad is None


@pytest.mark.parametrize("seed", range(24))
def test_dd_check_matches_blockwise_on_random_systems(seed):
    # the systems of test_reduction.test_random_systems_match_dense
    gen = InstanceGen(seed)
    c = gen.category(6)
    cx = build_complex(gen.system(c), 3 + seed % 2)
    for n in range(cx.max_degree - 1):
        terms = [(1, cx.diffs[n + 1], cx.diffs[n])]
        new, bad = assert_agree(terms)
        assert bad is None
        witness = {}
        blockwise_first_nonzero(blockwise_signed_sum(terms), witness)
        assert cx.dd_witness[n] == witness


def test_shape_mismatches_are_refused_alike():
    pg1, pg2 = ProductGroup((Z,)), ProductGroup((Z, Z))
    one, two = BlockHom.identity(pg1), BlockHom.identity(pg2)
    for terms, message in [
            ([(1, one, None), (1, two, None)], "terms differ in shape"),
            ([(1, one, two)], "composition middle mismatch")]:
        for total in (BlockHom.signed_sum, blockwise_signed_sum):
            with pytest.raises(ShapeMismatch, match=message):
                total(terms)


def test_block_of_the_wrong_shape_is_refused():
    # refused when the hom is built from its blocks, before any sum
    pg = ProductGroup((Z, from_invariants(2)))
    with pytest.raises(ShapeMismatch,
                       match=r"block \(1, 0\) is 1x1, its factors are 2x1"):
        block_hom(pg, pg, {(1, 0): IntMatrix(1, 1, (1,))})
