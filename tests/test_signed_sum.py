"""Differential tests of ``BlockHom.signed_sum``.

The sum runs over the stored sparse columns in global generator coordinates
and keeps only the entries it leaves nonzero; ``oracles.blockwise_signed_sum``,
the per-block ``IntMatrix`` products, is the reference.  The two must agree
block for block, and so must the zero check built on them:
``first_nonzero_coordinate`` against ``oracles.blockwise_first_nonzero``,
and, when the check passes, its solution columns against the blockwise
solutions placed by ``oracles.blocks_to_columns``.  On a failure only the
failing coordinate is compared: the check raises there, so no solution is
read.  ``BlockHom.to_witness``, the cone's ``Q`` with ``M R_src = R_dst Q``,
is checked by ``oracles.assert_q_witness`` on random homs.
"""

import random

import pytest

from bwcoh.abgroup import PresentedGroup, Z, cyclic, from_invariants
from bwcoh.bwcomplex import BlockHom, ProductGroup, build_complex
from bwcoh.fincat import ShapeMismatch
from bwcoh.intmat import IntMatrix
from bwcoh.randgen import InstanceGen
from oracles import (
    assert_q_witness, block_hom, blocks_to_columns, blockwise_first_nonzero,
    blockwise_signed_sum,
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
    if bad is None:
        assert sol_new == witness_columns(new, sol_ref)
    return new, bad


def witness_columns(hom, solutions):
    """Blockwise solutions X of ``hom`` = R X as the columns
    ``first_nonzero_coordinate`` fills."""
    return blocks_to_columns(solutions, hom.dst.injective_rel_offsets,
                             hom.src.gen_offsets)


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
        ref = blockwise_signed_sum(terms)
        blockwise_first_nonzero(ref, witness)
        assert cx.dd_witness[n] == witness_columns(ref, witness)


@pytest.mark.parametrize("seed", range(30))
def test_q_witness_matches_blocks_on_random_homs(seed):
    # torsion, free and non-injective factors on both sides; a hom that
    # breaks relations is named at the same block as the blockwise check
    rng = random.Random(3000 + seed)
    src, dst = random_product(rng, FACTORS), random_product(rng, FACTORS)
    assert_q_witness(random_hom(rng, src, dst))


@pytest.mark.parametrize("seed", range(20))
def test_q_witness_into_torsion_targets(seed):
    # entries that are multiples of 6 map every relation into the
    # relations of each torsion target, so Q exists
    rng = random.Random(4000 + seed)
    src, dst = random_product(rng, FACTORS), random_product(rng, TORSION)
    assert assert_q_witness(random_hom(rng, src, dst, scale=6)) is None


def test_least_failing_block_is_named():
    # (2, 0) and (1, 1) send a Z/2 generator to a free one: no relation
    # there, and a relation sent to 2, which is none.  Column order meets
    # (2, 0) first; both checks name (1, 1), the least key.  (0, 0) lands
    # in the relations of Z/2, and (0, 2) has a free source.
    src = ProductGroup((cyclic(2), Z2_TWICE, Z))
    dst = ProductGroup((cyclic(2), Z, Z))
    one, two = IntMatrix(1, 1, (1,)), IntMatrix(1, 1, (2,))
    hom = block_hom(src, dst, {(0, 0): two, (2, 0): one, (1, 1): one,
                               (0, 2): two})
    assert hom.first_nonzero_coordinate() == (1, 1)
    assert blockwise_first_nonzero(hom) == (1, 1)
    assert assert_q_witness(hom) == (1, 1)


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
