"""Tests for the wall-crossing stratification algebra."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest

import fp_oracle
import strata_oracle

from clusterscatter.brokenlines import (
    BrokenLine,
    Segment,
    enumerate_broken_lines,
    theta_function,
)
from clusterscatter.cluster import initial_seed, rank2_exchange
from clusterscatter.errors import (
    DegenerateBrokenLineError,
    InputError,
    UnsupportedInputError,
)
from clusterscatter.hall import (
    Filtration,
    HNPhases,
    StabilityValue,
    bend_polynomial,
    broken_line_strata,
    gl_poincare,
    hall_theta_chi,
    hn_phases,
    q_power,
    q_str,
    qbinom,
)
from clusterscatter.lattice import GradedSeries, LaurentPoly
from clusterscatter.quiver import (
    Quiver,
    caldero_chapoton,
    g_map,
    gaussian_binomial_int,
    grassmannian_euler_char,
    kronecker_quiver,
    path_quiver,
)
from clusterscatter.scattering import Wall, complete_rank2, initial_diagram

K2 = kronecker_quiver(2)
K3 = kronecker_quiver(3)
SEED2 = initial_seed(rank2_exchange(2))
D12 = complete_rank2(initial_diagram(SEED2, 12), 12)

EP = (2, 1)
QGEN = (Fraction(157, 100), Fraction(83, 100))

Q = q_power
ONE = Q(0)
ZERO = LaurentPoly.zero()


def poly(*coeff_exp: tuple[int, int]) -> LaurentPoly:
    return LaurentPoly({(e,): c for c, e in coeff_exp})


def at(p: LaurentPoly, x: int) -> int:
    """The value of a polynomial in ``q`` at ``q = x``."""
    return p.evaluate_int((x,))


class TestQStr:
    def test_string_forms(self):
        assert q_str(qbinom(2, 1)) == "q + 1"
        assert q_str(Q(2) - ONE) == "q^2 - 1"
        assert q_str(ZERO) == "0"
        assert q_str(Q(1).scale(2)) == "2*q"


class TestQBinom:
    def test_small_closed_form(self):
        assert qbinom(2, 1) == Q(1) + ONE
        assert qbinom(3, 1) == poly((1, 2), (1, 1), (1, 0))
        assert qbinom(4, 2) == poly((1, 4), (1, 3), (2, 2), (1, 1), (1, 0))

    def test_values_at_one(self):
        assert at(qbinom(5, 2), 1) == 10
        assert at(qbinom(4, 1), 1) == 4

    def test_matches_binomial_up_to_twelve(self):
        for a in range(13):
            for b in range(a + 1):
                assert at(qbinom(a, b), 1) == comb(a, b)

    def test_out_of_range_is_zero(self):
        assert qbinom(2, 5) == ZERO
        assert qbinom(2, -1) == ZERO
        assert qbinom(-1, 0) == ZERO

    def test_symmetry(self):
        for a in range(9):
            for b in range(a + 1):
                assert qbinom(a, b) == qbinom(a, a - b)

    def test_against_integer_subspace_counts(self):
        # Independent oracle: the product-formula point count.
        for a in range(9):
            for b in range(a + 1):
                for p in (2, 3, 5):
                    assert at(qbinom(a, b), p) == gaussian_binomial_int(a, b, p)


class TestGLPoincare:
    def test_closed_forms(self):
        assert gl_poincare(0) == ONE
        assert gl_poincare(1) == Q(1) - ONE
        assert gl_poincare(2) == Q(1) * (Q(1) - ONE) * (Q(2) - ONE)

    def test_degree_is_d_squared(self):
        for d in range(5):
            assert max(e for (e,) in gl_poincare(d).terms) == d * d

    def test_matches_brute_force_group_orders(self):
        for d in range(4):
            for p in (2, 3, 5):
                assert at(gl_poincare(d), p) == fp_oracle.brute_gl_order(d, p)

    def test_negative_rank_rejected(self):
        with pytest.raises(InputError):
            gl_poincare(-1)


class TestFiltration:
    def test_dimension_sum(self):
        f = Filtration((((1, 2), 2),))
        assert f.dimension() == (2, 4)
        g = Filtration((((2, 3), 1), ((0, 1), 1)))
        assert g.dimension() == (2, 4)
        assert Filtration(()).dimension() == ()

    def test_invalid_steps(self):
        with pytest.raises(InputError):
            Filtration((((1, 2), 0),))
        with pytest.raises(InputError):
            Filtration((((0, 0), 1),))
        with pytest.raises(InputError):
            Filtration((((1, -2), 1),))
        with pytest.raises(InputError):
            Filtration((((1, 2), 1), ((1, 2, 3), 1)))


WALLS = {wall.normal: wall for wall in D12.walls}
#: d = (n, n+1) and (n, n-1), 1 <= n <= 6, with every e <= d.
SWEEP = [
    (d, e)
    for n in range(1, 7)
    for d in ((n, n + 1), (n, n - 1))
    for e in product(range(d[0] + 1), range(d[1] + 1))
]


def hand_built_line(d, wall, power, final_x=None) -> BrokenLine:
    """A line into dimension ``d`` with one bend of this power over this
    wall; ``final_x`` overrides the last two coordinates of its final
    exponent.  The strata read no bend point or coefficient."""
    m0 = tuple(-x for x in g_map(K2, d)) + (0, 0)
    end = tuple(a + power * s for a, s in zip(m0, wall.func.step))
    if final_x is not None:
        end = end[:2] + tuple(final_x)
    return BrokenLine(m0, EP, (
        Segment(1, m0, None, None, 0),
        Segment(1, end, (Fraction(1), Fraction(1)), wall, power),
    ))


class TestBendPolynomial:
    """The rule's polynomials are in ``v``, with ``q = v^2``."""

    def test_wall_one_plus_t_keeps_a_balanced_binomial(self):
        rigid = WALLS[(1, 0)].func
        assert bend_polynomial(rigid, 3, 1) == poly((1, -2), (1, 0), (1, 2))
        assert bend_polynomial(rigid, 4, 2) == poly(
            (1, -4), (1, -2), (2, 0), (1, 2), (1, 4)
        )
        assert bend_polynomial(rigid, 2, 2) == poly((1, 0))
        assert bend_polynomial(rigid, 1, 2) == ZERO

    def test_central_wall_at_pairing_one(self):
        central = WALLS[(1, 1)].func
        assert central.coeffs[:4] == (1, 2, 3, 4)
        assert bend_polynomial(central, 1, 1) == poly((1, -1), (1, 1))
        assert bend_polynomial(central, 1, 3) == poly(
            (1, -3), (1, -1), (1, 1), (1, 3)
        )

    def test_value_at_one_is_the_wall_crossing_coefficient(self):
        rigid, central = WALLS[(0, 1)].func, WALLS[(1, 1)].func
        for k in range(1, 7):
            for j in range(1, 7):
                assert at(bend_polynomial(rigid, k, j), 1) == (rigid**k).coefficient(j)
        for j in range(1, 6):
            assert at(bend_polynomial(central, 1, j), 1) == central.coefficient(j)

    def test_central_wall_at_pairing_two_refused(self):
        with pytest.raises(UnsupportedInputError, match=r"\(1,1\) at pairing k = 2"):
            bend_polynomial(WALLS[(1, 1)].func, 2, 1)
        # (2,0) pairs with (1,1) to k = 2 at the initial exponent (-2,0)
        line = hand_built_line((2, 0), WALLS[(1, 1)], 1)
        with pytest.raises(UnsupportedInputError, match=r"\(1,1\) at pairing k = 2"):
            broken_line_strata(line, K2, (2, 0))

    def test_other_wall_functions_refused(self):
        step = WALLS[(1, 0)].func.step
        square = Wall((1, 0), "line", ((0, 1),), GradedSeries(step, 12, (1, 2, 1)), True)
        line = hand_built_line((1, 0), square, 1)
        with pytest.raises(UnsupportedInputError, match=r"\(1,0\) at pairing k = 1"):
            broken_line_strata(line, K2, (1, 0))
        # without the wall function's t^2 term, the same line has a rule
        plain = hand_built_line((1, 0), WALLS[(1, 0)], 1)
        assert broken_line_strata(plain, K2, (1, 0)) == (Filtration((((1, 0), 1),)), ONE)

    def test_odd_powers_of_v_refused(self):
        # e = (0,1) against d - e = (1,-1) gives <e, d-e> = -1, while the
        # bend keeps v^0: no polynomial in q
        line = hand_built_line((1, 0), WALLS[(1, 0)], 1, final_x=(0, 1))
        with pytest.raises(UnsupportedInputError, match="odd powers of v"):
            broken_line_strata(line, K2, (1, 0))

    def test_rule_equals_the_paper_formula_wherever_that_exists(self):
        """On every line of the sweep at (2,1) that the reference strata
        can stratify, the filtrations and polynomials agree exactly."""
        diagram = complete_rank2(initial_diagram(SEED2, 13), 13)
        origin = compared = 0
        for d, e in SWEEP:
            m0 = tuple(-x for x in g_map(K2, d)) + (0, 0)
            try:
                lines = enumerate_broken_lines(
                    m0, EP, diagram, max(sum(e), 2), final_filter=(None, None, *e)
                )
            except DegenerateBrokenLineError:
                origin += 1
                continue
            for bl in lines:
                filt, p = broken_line_strata(bl, K2, d)
                bends = tuple((wall.normal, j) for wall, j in bl.bends())
                assert filt.steps == bends
                try:
                    steps, want = strata_oracle.line_strata(K2, d, bends)
                except InputError:
                    continue
                assert steps == bends
                assert p == poly(*((c, k) for k, c in enumerate(want))), (d, e)
                compared += 1
        assert (len(SWEEP), origin, compared) == (278, 8, 136)


@pytest.fixture(scope="module")
def filtered_lines():
    return enumerate_broken_lines(
        (7, -6, 0, 0), EP, D12, 11, final_filter=(-1, -2, None, None)
    )


class TestBrokenLineStrata:
    def test_two_lines_refine_to_ten_plus_eight(self, filtered_lines):
        assert len(filtered_lines) == 2
        results = [broken_line_strata(bl, K2, (5, 6)) for bl in filtered_lines]
        values = sorted(at(p, 1) for _, p in results)
        assert values == [8, 10]
        total = sum(at(p, 1) for _, p in results)
        assert total == grassmannian_euler_char(K2, (5, 6), (2, 4)) == 18

    def test_filtration_shapes(self, filtered_lines):
        by_value = {
            at(p, 1): filt
            for filt, p in (
                broken_line_strata(bl, K2, (5, 6)) for bl in filtered_lines
            )
        }
        assert by_value[10].steps == (((1, 2), 2),)
        assert by_value[8].steps == (((2, 3), 1), ((0, 1), 1))
        for filt in by_value.values():
            assert filt.dimension() == (2, 4)

    def test_exact_polynomials(self, filtered_lines):
        polys = {
            at(p, 1): p
            for _, p in (
                broken_line_strata(bl, K2, (5, 6)) for bl in filtered_lines
            )
        }
        assert polys[10] == qbinom(5, 2)
        assert polys[8] == qbinom(4, 1) * Q(1) * qbinom(2, 1)

    def test_phases_of_two_step_chain(self, filtered_lines):
        checked = 0
        for bl in filtered_lines:
            filt, _ = broken_line_strata(bl, K2, (5, 6))
            if len(filt.steps) != 2:
                continue
            values, decreasing = hn_phases(filt, EP, K2, (5, 6), (2, 4))
            assert values == (StabilityValue(8, 7), StabilityValue(2, 1))
            assert decreasing
            checked += 1
        assert checked

    def test_bend_free_line_is_trivial(self):
        lines = enumerate_broken_lines(
            (7, -6, 0, 0), EP, D12, 11, final_filter=(7, -6, 0, 0)
        )
        assert len(lines) == 1
        filt, p = broken_line_strata(lines[0], K2, (5, 6))
        assert filt.steps == ()
        assert p == ONE

    def test_central_wall_bend_gets_the_rule(self):
        theta = theta_function((7, -6, 0, 0), EP, D12, 11)
        central = [
            bl
            for bl in theta.lines
            if any(wall.normal == (1, 1) for wall, _ in bl.bends())
        ]
        assert central, "expected lines bending over the central wall"
        line = central[0]
        filt, p = broken_line_strata(line, K2, (5, 6))
        assert filt.steps == (((1, 1), 1), ((0, 1), 4), ((1, 0), 2))
        assert line.final_exponent[2:] == (3, 5)
        # the paper's formula has no stratum over the regular normal (1,1)
        with pytest.raises(UnsupportedInputError, match="regular"):
            strata_oracle.line_strata(K2, (5, 6), filt.steps)
        assert p == poly((1, 1), (2, 2), (2, 3), (1, 4))
        assert at(p, 1) == line.coefficient == 6

    def test_wrong_ambient_rejected(self, filtered_lines):
        with pytest.raises(InputError, match="weight covector"):
            broken_line_strata(filtered_lines[0], K2, (1, 2))


class TestStrataAcrossThetas:
    """Every line refines exactly; sums match Euler counts."""

    @pytest.mark.parametrize(
        "d", [(1, 2), (2, 3), (2, 1), (3, 2), (3, 4)], ids=str
    )
    def test_line_by_line_and_summed(self, d):
        m0 = tuple(-x for x in g_map(K2, d)) + (0, 0)
        degree = min(sum(d) + abs(m0[0]) + abs(m0[1]), 10)
        theta = theta_function(m0, QGEN, D12, degree)
        assert theta.lines
        sums: dict[tuple[int, int], int] = {}
        for bl in theta.lines:
            e = bl.final_exponent[2:]
            filt, p = broken_line_strata(bl, K2, d)
            assert at(p, 1) == bl.coefficient
            sums[e] = sums.get(e, 0) + at(p, 1)
            if not filt.steps:
                continue
            assert filt.dimension() == e
            try:
                strata_oracle.line_strata(K2, d, filt.steps)
            except InputError:
                # a line only the rule stratifies: its phases may fail to
                # decrease, and what they claim there is an open question
                continue
            assert hn_phases(filt, QGEN, K2, d, e).decreasing
        checked = 0
        for e, total in sums.items():
            if all(0 <= x <= dx for x, dx in zip(e, d)):
                assert total == grassmannian_euler_char(K2, d, e)
                checked += 1
        assert checked > 0


class TestHallThetaChi:
    @pytest.mark.parametrize("d", [(1, 2), (2, 3), (2, 1), (1, 1)], ids=str)
    def test_equals_cluster_character(self, d):
        assert hall_theta_chi(K2, d, QGEN) == caldero_chapoton(K2, d)

    def test_coefficient_at_two_four_is_eighteen(self):
        value = hall_theta_chi(K2, (5, 6), EP)
        # shift (7,-6,0,0) plus the doubled image of (2,4).
        assert value.coefficient((-1, -2, 2, 4)) == 18

    def test_regular_generator_gives_three_terms(self):
        value = hall_theta_chi(K2, (1, 1), EP)
        expected = LaurentPoly(
            {(1, -1, 0, 0): 1, (-1, -1, 0, 1): 1, (-1, 1, 1, 1): 1}
        )
        assert value == expected

    def test_zero_dimension_vector(self):
        assert hall_theta_chi(K2, (0, 0), EP) == LaurentPoly.one(4)

    def test_imprimitive_isotropic_rejected(self):
        with pytest.raises(UnsupportedInputError, match="isotropic"):
            hall_theta_chi(K2, (2, 2), EP)
        with pytest.raises(UnsupportedInputError, match="isotropic"):
            hall_theta_chi(K2, (3, 3), EP)

    def test_wild_regular_direction_rejected(self):
        with pytest.raises(UnsupportedInputError, match="cluster complex"):
            hall_theta_chi(K3, (1, 1), EP)

    def test_wild_three_vertex_quiver_rejected_at_once(self):
        # no chamber search: the cluster complex is decided only for
        # representation-finite quivers and quivers on two vertices
        wild = Quiver(3, ((0, 2, 0), (0, 0, 1), (0, 0, 0)))
        with pytest.raises(UnsupportedInputError, match="two vertices"):
            hall_theta_chi(wild, (1, 1, 1), (1, 1, 1))

    def test_endpoint_must_be_positive(self):
        with pytest.raises(InputError, match="positive chamber"):
            hall_theta_chi(K2, (1, 2), (0, 1))
        with pytest.raises(InputError, match="positive chamber"):
            hall_theta_chi(K2, (1, 2), (-1, 2))
        with pytest.raises(InputError, match="length"):
            hall_theta_chi(K2, (1, 2), (1, 1, 1))


class TestStabilityValue:
    def test_exact_fields(self):
        z = StabilityValue(8, 7)
        assert z.re == Fraction(8) and z.im == Fraction(7)
        assert str(z) == "8 + 7i"

    def test_lower_half_plane_rejected(self):
        with pytest.raises(InputError, match="upper half plane"):
            StabilityValue(1, 0)
        with pytest.raises(InputError, match="upper half plane"):
            StabilityValue(1, -2)

    def test_phase_cross_sign(self):
        hi = StabilityValue(2, 1)
        lo = StabilityValue(8, 7)
        # (8,7) has the larger phase, so crossing toward (2,1) is negative.
        assert lo.phase_cross(hi) < 0
        assert hi.phase_cross(lo) > 0
        assert hi.phase_cross(hi) == 0


class TestHNPhases:
    FILT = Filtration((((2, 3), 1), ((0, 1), 1)))

    def test_two_step_values_decrease(self):
        values, decreasing = hn_phases(self.FILT, EP, K2, (5, 6), (2, 4))
        assert values == (StabilityValue(8, 7), StabilityValue(2, 1))
        assert decreasing is True

    def test_single_step_vacuous(self):
        single = Filtration((((1, 2), 2),))
        result = hn_phases(single, EP, K2, (5, 6), (2, 4))
        assert isinstance(result, HNPhases)
        assert result.decreasing is True
        assert len(result.values) == 1

    def test_reversed_chain_fails(self):
        reverse = Filtration((((0, 1), 1), ((2, 3), 1)))
        assert hn_phases(reverse, EP, K2, (5, 6), (2, 4)).decreasing is False

    def test_empty_chain_vacuous(self):
        assert hn_phases(Filtration(()), EP, K2, (5, 6), (0, 0)).decreasing

    def test_multiplicity_scales_both_parts(self):
        values, _ = hn_phases(
            Filtration((((1, 2), 2),)), EP, K2, (5, 6), (2, 4)
        )
        assert values[0] == StabilityValue(10, 8)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError, match="resolves"):
            hn_phases(self.FILT, EP, K2, (5, 6), (1, 2))

    def test_subdimension_bound_enforced(self):
        with pytest.raises(InputError, match="componentwise"):
            hn_phases(self.FILT, EP, K2, (1, 1), (2, 4))

    def test_endpoint_validation(self):
        with pytest.raises(InputError, match="positive chamber"):
            hn_phases(self.FILT, (0, 1), K2, (5, 6), (2, 4))
        with pytest.raises(InputError, match="length"):
            hn_phases(self.FILT, (1, 1, 1), K2, (5, 6), (2, 4))

    def test_higher_rank_unsupported(self):
        with pytest.raises(UnsupportedInputError, match="rank-2"):
            hn_phases(
                Filtration((((1, 0, 0), 1),)),
                (1, 1, 1),
                path_quiver(3),
                (1, 1, 1),
                (1, 0, 0),
            )
