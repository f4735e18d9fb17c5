"""Tests for the reference strata: the paper's per-bend formula, the Hom
and Ext dimensions it reads, and its polynomials."""

from itertools import product
from math import comb

import pytest

from clusterscatter.errors import InputError, UnsupportedInputError
from clusterscatter.quiver import euler_form, kronecker_quiver, path_quiver

from strata_oracle import (
    Stratum,
    _generic_summands,
    chain_dimension,
    first_bending,
    gaussian_binomial,
    hom_ext_dims,
    next_bending,
)

K2 = kronecker_quiver(2)

#: [5 choose 2]_q and [4 choose 1]_q, constant first.
BINOM_5_2 = (1, 1, 2, 2, 2, 1, 1)
BINOM_4_1 = (1, 1, 1, 1)


def test_gaussian_binomials_are_binomials_at_one():
    assert gaussian_binomial(5, 2) == BINOM_5_2
    for a in range(9):
        for b in range(-1, a + 2):
            assert sum(gaussian_binomial(a, b)) == (comb(a, b) if b >= 0 else 0)


class TestFirstBending:
    def test_two_fold_bend_on_one_two(self):
        stratum, steps = first_bending(K2, (5, 6), (1, 2), 2)
        assert stratum.affine_exponent == 0
        assert stratum.grass_params == (2, 5)
        assert stratum.qpoly == BINOM_5_2
        assert sum(stratum.qpoly) == 10
        assert steps == (((1, 2), 2),)

    def test_single_bend_on_two_three(self):
        stratum, steps = first_bending(K2, (5, 6), (2, 3), 1)
        assert stratum.qpoly == BINOM_4_1
        assert sum(stratum.qpoly) == 4
        assert steps == (((2, 3), 1),)

    def test_stratum_value_is_binomial(self):
        stratum, _ = first_bending(K2, (5, 6), (1, 2), 3)
        lam, ambient = stratum.grass_params
        assert sum(stratum.qpoly) == comb(ambient, lam)

    def test_zero_multiplicity_trivial(self):
        stratum, steps = first_bending(K2, (5, 6), (1, 2), 0)
        assert stratum.qpoly == (1,)
        assert stratum.grass_params == (0, 5)
        assert steps == ()

    def test_no_morphisms_rejected(self):
        with pytest.raises(InputError, match="no bending"):
            first_bending(K2, (5, 6), (1, 0), 1)

    def test_regular_normal_rejected(self):
        with pytest.raises(UnsupportedInputError, match="regular"):
            first_bending(K2, (5, 6), (1, 1), 1)


class TestNextBending:
    def test_second_step_with_extension_twist(self):
        _, steps = first_bending(K2, (5, 6), (2, 3), 1)
        stratum, longer = next_bending(K2, (5, 6), steps, (0, 1), 1)
        assert stratum.affine_exponent == 1
        assert stratum.grass_params == (1, 2)
        assert stratum.qpoly == (0, 1, 1)
        assert sum(stratum.qpoly) == 2
        assert longer == (((2, 3), 1), ((0, 1), 1))
        assert chain_dimension(longer) == (2, 4)

    def test_combined_product_value(self):
        s1, steps = first_bending(K2, (5, 6), (2, 3), 1)
        s2, _ = next_bending(K2, (5, 6), steps, (0, 1), 1)
        assert sum(s1.qpoly) * sum(s2.qpoly) == 8

    def test_extension_free_step_is_plain_binomial(self):
        _, steps = first_bending(K2, (5, 6), (0, 1), 6)
        stratum, longer = next_bending(K2, (5, 6), steps, (1, 0), 2)
        assert stratum.affine_exponent == 0
        assert stratum.qpoly == BINOM_5_2
        assert chain_dimension(longer) == (2, 6)

    def test_empty_grassmannian_gives_zero_stratum(self):
        _, steps = first_bending(K2, (5, 6), (2, 3), 1)
        stratum, _ = next_bending(K2, (5, 6), steps, (0, 1), 3)
        assert stratum.grass_params == (3, 2)
        assert stratum.qpoly == ()
        assert sum(stratum.qpoly) == 0

    def test_zero_multiplicity_keeps_chain(self):
        _, steps = first_bending(K2, (5, 6), (2, 3), 1)
        stratum, same = next_bending(K2, (5, 6), steps, (0, 1), 0)
        assert stratum.qpoly == (1,)
        assert same is steps

    def test_inadmissible_order_rejected(self):
        _, steps = first_bending(K2, (5, 6), (0, 1), 1)
        with pytest.raises(InputError, match="inadmissible"):
            next_bending(K2, (5, 6), steps, (2, 3), 1)

    def test_overfull_chain_rejected(self):
        _, steps = first_bending(K2, (5, 6), (1, 2), 4)
        with pytest.raises(InputError, match="exceeds"):
            next_bending(K2, (5, 6), steps, (0, 1), 1)

    def test_regular_normal_rejected(self):
        _, steps = first_bending(K2, (5, 6), (1, 2), 1)
        with pytest.raises(UnsupportedInputError, match="regular"):
            next_bending(K2, (5, 6), steps, (1, 1), 1)


class TestGenericSummands:
    def test_a2_orbit_walk_gives_the_full_rank_split(self):
        """On the one-arrow quiver the generic map has full rank: (u, v)
        splits as min(u, v) copies of (1,1) and the rest simple."""
        a2 = path_quiver(2)
        for u, v in product(range(7), repeat=2):
            m = min(u, v)
            want = [(part, k) for part, k in
                    (((0, 1), v - m), ((1, 0), u - m), ((1, 1), m)) if k]
            assert sorted(_generic_summands(a2, (u, v))) == want, (u, v)

    def test_a_multiple_of_a_simple_stays_aggregated_on_a_wild_quiver(self):
        # (2, 0) has Tits form 4 > 1, so it is no root of the three-arrow
        # quiver; it is twice the simple (1, 0)
        assert _generic_summands(kronecker_quiver(3), (2, 0)) == (((1, 0), 2),)


def test_hom_ext_examples():
    assert hom_ext_dims(K2, (1, 2), (5, 6)) == (5, 0)
    assert hom_ext_dims(K2, (2, 3), (0, 1)) == (0, 1)
    # preinjective before preprojective: maps vanish, extensions remain
    assert hom_ext_dims(K2, (1, 0), (1, 2)) == (0, 3)
    # preprojective to regular and regular to preinjective
    assert hom_ext_dims(K2, (0, 1), (1, 1)) == (1, 0)
    assert hom_ext_dims(K2, (1, 1), (1, 0)) == (1, 0)
    with pytest.raises(UnsupportedInputError):
        hom_ext_dims(K2, (1, 1), (2, 2))


@pytest.mark.parametrize(
    "c,d",
    [
        (c, d)
        for c in [(1, 2), (2, 3), (0, 1), (1, 0), (2, 1), (1, 1)]
        for d in [(1, 2), (2, 3), (0, 1), (1, 0), (2, 1), (1, 1)]
        if not (c[0] == c[1] and d[0] == d[1])
    ],
)
def test_hom_minus_ext_is_euler_form(c, d):
    hom, ext = hom_ext_dims(K2, c, d)
    assert hom >= 0 and ext >= 0
    assert hom - ext == euler_form(K2, c, d)


class TestStratumInvariant:
    def test_value_at_one_is_binomial(self):
        for lam in range(4):
            for ambient in range(6):
                s = Stratum.from_params(2, lam, ambient)
                expected = comb(ambient, lam) if 0 <= lam <= ambient else 0
                assert sum(s.qpoly) == expected
