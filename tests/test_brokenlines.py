"""Tests for broken-line enumeration, theta functions, and restrictions."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from broken_line_oracle import reference_lines
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusterscatter import brokenlines, scattering
from clusterscatter.brokenlines import (
    BrokenLine,
    Segment,
    enumerate_broken_lines,
    restrict_to_A,
    theta_function,
    theta_via_path,
    validate_broken_line,
)
from clusterscatter.cluster import (
    g_vector,
    initial_seed,
    mutate_seed,
    rank2_exchange,
)
from clusterscatter.errors import (
    DegenerateBrokenLineError,
    GenericPositionError,
    InputError,
    UnsupportedInputError,
)
from clusterscatter.lattice import GradedSeries, LaurentPoly, p_star, x_degree
from clusterscatter.quiver import (
    caldero_chapoton,
    g_map,
    grassmannian_euler_char,
    kronecker_quiver,
    path_quiver,
    quiver_to_skew,
)
from clusterscatter.scattering import (
    CrossingPath,
    ScatteringDiagram,
    Wall,
    cluster_complex_diagram,
    complete_rank2,
    initial_diagram,
    path_ordered_product,
)

SEED1 = initial_seed(rank2_exchange(1))
SEED2 = initial_seed(rank2_exchange(2))
D1 = complete_rank2(initial_diagram(SEED1, 8), 8)
D2 = complete_rank2(initial_diagram(SEED2, 8), 8)
D2_DEEP = complete_rank2(initial_diagram(SEED2, 12), 12)

CPLUS = (Fraction(3, 2), Fraction(1))
# Positive-chamber endpoint whose direction shares no small integer vector,
# so no candidate segment line passes through the origin.
QGEN = (Fraction(157, 100), Fraction(83, 100))

K2 = kronecker_quiver(2)

#: Order-6 diagrams for b = 1, 2, 3, for property tests at degree 4.
SMALL_DIAGRAMS = {
    b: complete_rank2(initial_diagram(initial_seed(rank2_exchange(b)), 6), 6)
    for b in (1, 2, 3)
}

# Rational coordinates: small ones, large ones, and small points moved by
# steps with denominators near 10^5, like the theta command's one-sided
# limits.
_RATIONALS = st.one_of(
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**5)),
    st.builds(
        lambda p, k, den: p + Fraction(k, den),
        st.integers(-4, 4),
        st.integers(-3, 3),
        st.integers(99_900, 100_000),
    ),
)


def mono(*terms):
    total = LaurentPoly()
    for coeff, expo in terms:
        total = total + LaurentPoly.monomial(expo, coeff)
    return total


THREE_TERM = mono((1, (1, -1, 0, 0)), (1, (-1, -1, 0, 1)), (1, (-1, 1, 1, 1)))
FIVE_TERM = mono(
    (1, (2, -2, -1, -1)),
    (1, (-2, 2, 1, 1)),
    (1, (-2, -2, -1, 1)),
    (2, (0, -2, -1, 0)),
    (2, (-2, 0, 0, 1)),
)


def bend_signature(line: BrokenLine):
    return tuple(
        (seg.bend_wall.normal, seg.bend_power, seg.start)
        for seg in line.segments[1:]
    )


class TestThreeLineTheta:
    def test_positive_chamber_value_and_count(self):
        theta = theta_function((1, -1, 0, 0), CPLUS, D2, 8)
        assert len(theta.lines) == 3
        assert theta.value == THREE_TERM
        for line in theta.lines:
            assert validate_broken_line(line, D2)

    def test_bend_geometry_frozen(self):
        theta = theta_function((1, -1, 0, 0), CPLUS, D2, 8)
        by_final = {line.final_exponent: line for line in theta.lines}
        straight = by_final[(1, -1, 0, 0)]
        assert bend_signature(straight) == ()
        one_bend = by_final[(-1, -1, 0, 1)]
        assert bend_signature(one_bend) == (
            ((0, 1), 1, (Fraction(1, 2), Fraction(0))),
        )
        two_bend = by_final[(-1, 1, 1, 1)]
        assert bend_signature(two_bend) == (
            ((0, 1), 1, (Fraction(-5, 2), Fraction(0))),
            ((1, 0), 1, (Fraction(0), Fraction(5, 2))),
        )

    def test_exactly_three_lines_near_fourth_quadrant_endpoint(self):
        for q in [(1, Fraction(-29, 20)), (1, Fraction(-31, 20))]:
            lines = enumerate_broken_lines((1, -1, 0, 0), q, D2, 8)
            assert len(lines) == 3

    def test_endpoint_on_wall_rejected(self):
        with pytest.raises(GenericPositionError):
            enumerate_broken_lines((1, -1, 0, 0), (1, Fraction(-3, 2)), D2, 8)
        with pytest.raises(GenericPositionError):
            enumerate_broken_lines((1, -1, 0, 0), (2, 0), D2, 8)
        with pytest.raises(GenericPositionError):
            enumerate_broken_lines((1, -1, 0, 0), (0, 0), D2, 8)

    def test_same_chamber_straight_line(self):
        for m0 in [(1, 0, 0, 0), (2, 1, 0, 0)]:
            lines = enumerate_broken_lines(m0, CPLUS, D2, 8)
            assert len(lines) == 1
            assert lines[0].bends() == ()
            assert lines[0].coefficient == 1
            assert lines[0].final_exponent == m0


class TestFiveLineTheta:
    def test_slice_value_and_multiplicities(self):
        theta = theta_function((2, -2, -1, -1), (1, Fraction(-3, 2)), D2_DEEP, 8)
        assert len(theta.lines) == 5
        assert theta.value == FIVE_TERM
        assert sorted(line.coefficient for line in theta.lines) == [1, 1, 1, 2, 2]
        for line in theta.lines:
            assert validate_broken_line(line, D2_DEEP)

    def test_slice_bend_geometry_frozen(self):
        # Bend points lie in the plane of the first two coordinates, on
        # the walls as the diagram stores them.
        theta = theta_function((2, -2, -1, -1), (1, Fraction(-3, 2)), D2_DEEP, 8)
        by_final = {line.final_exponent: line for line in theta.lines}
        doubled_y = by_final[(0, -2, -1, 0)]
        assert doubled_y.coefficient == 2
        assert bend_signature(doubled_y) == (
            ((0, 1), 1, (Fraction(3), Fraction(0))),
        )
        doubled_x = by_final[(-2, 0, 0, 1)]
        assert doubled_x.coefficient == 2
        assert bend_signature(doubled_x) == (
            ((0, 1), 2, (Fraction(-2), Fraction(0))),
            ((1, 0), 1, (Fraction(0), Fraction(2))),
        )

    def test_slice_endpoint_is_mapped_by_p_star(self):
        """A slice exponent (p*(v), v) reads its endpoint in the plane of
        the last two coordinates and ends at its image under p*; any
        other exponent ends where it was asked to."""
        q = (1, Fraction(-3, 2))
        eps = SEED2.exchange_block()
        theta = theta_function((2, -2, -1, -1), q, D2_DEEP, 8)
        assert theta.endpoint == p_star(eps, q) == (3, 2)
        assert {line.endpoint for line in theta.lines} == {(3, 2)}
        for line in theta.lines:
            assert validate_broken_line(line, D2_DEEP)
        assert theta_function((1, -1, 0, 0), CPLUS, D2, 8).endpoint == CPLUS
        # (-2, 2, 0, 0) is not on the slice: p*(0, 0) is zero.
        assert theta_function((-2, 2, 0, 0), CPLUS, D2, 8).endpoint == CPLUS

    def test_slice_wall_error_names_the_given_endpoint(self):
        # (1, 0) maps to (0, 2), on the wall with normal (1,0).
        message = (
            "endpoint (1,0) lies on the wall with normal (1,0); perturb it "
            "off the support"
        )
        m0 = (0, 2, 1, 0)
        for route in (
            lambda: theta_function(m0, (1, 0), D2_DEEP, 8),
            lambda: theta_via_path(m0, (1, 0), D2_DEEP),
        ):
            with pytest.raises(GenericPositionError) as info:
                route()
            assert str(info.value) == message


class TestFilteredEnumeration:
    def test_two_lines_with_final_exponent_filter(self):
        lines = enumerate_broken_lines(
            (7, -6, 0, 0), (2, 1), D2, 8, final_filter=(-1, -2, None, None)
        )
        assert len(lines) == 2
        coeffs = sorted(line.coefficient for line in lines)
        assert coeffs == [8, 10]
        for line in lines:
            assert line.final_exponent == (-1, -2, 2, 4)
            assert validate_broken_line(line, D2)

    def test_filtered_bend_records(self):
        lines = enumerate_broken_lines(
            (7, -6, 0, 0), (2, 1), D2, 8, final_filter=(-1, -2, None, None)
        )
        by_coeff = {line.coefficient: line for line in lines}
        assert bend_signature(by_coeff[10]) == (
            ((1, 2), 2, (Fraction(6, 5), Fraction(-3, 5))),
        )
        assert bend_signature(by_coeff[8]) == (
            ((2, 3), 1, (Fraction(9, 4), Fraction(-3, 2))),
            ((0, 1), 1, (Fraction(3, 2), Fraction(0))),
        )

    def test_filter_total_matches_counting_oracle(self):
        lines = enumerate_broken_lines(
            (7, -6, 0, 0), (2, 1), D2, 8, final_filter=(-1, -2, None, None)
        )
        total = sum(line.coefficient for line in lines)
        assert total == grassmannian_euler_char(K2, (5, 6), (2, 4)) == 18

    def test_filter_length_checked(self):
        with pytest.raises(InputError):
            enumerate_broken_lines((7, -6, 0, 0), (2, 1), D2, 8, final_filter=(1, 2))


class TestInputGuards:
    def test_zero_exponent_rejected(self):
        with pytest.raises(InputError):
            enumerate_broken_lines((0, 0, 0, 0), CPLUS, D2, 8)

    def test_degree_budget_needs_deep_enough_diagram(self):
        with pytest.raises(InputError):
            enumerate_broken_lines((2, -2, -1, -1), (1, Fraction(-3, 2)), D2, 8)
        with pytest.raises(InputError):
            enumerate_broken_lines((1, -1, 0, 0), CPLUS, D2, 9)

    def test_negative_degree_rejected(self):
        with pytest.raises(InputError):
            enumerate_broken_lines((1, -1, 0, 0), CPLUS, D2, -1)

    @pytest.mark.parametrize("fan", [False, True], ids=["initial", "cluster-complex"])
    def test_higher_rank_is_unsupported(self, fan):
        # cone walls have no direction, so the rank is refused before any
        # wall is asked whether the endpoint lies on it
        seed = initial_seed(quiver_to_skew(path_quiver(3)))
        diagram = cluster_complex_diagram(seed, 2, 4) if fan else initial_diagram(seed, 4)
        with pytest.raises(
            UnsupportedInputError, match="^broken lines implemented for rank-2 diagrams$"
        ):
            theta_function((1, 0, 0, 0, 0, 0), (1, 2), diagram, 4)


class TestValidation:
    def _three_lines(self):
        return theta_function((1, -1, 0, 0), CPLUS, D2, 8).lines

    def test_genuine_lines_validate(self):
        for line in self._three_lines():
            check = validate_broken_line(line, D2)
            assert check and check.reason == ""

    def test_fabricated_off_wall_bend_fails(self):
        straight = next(l for l in self._three_lines() if not l.bends())
        wall = next(w for w in D2.walls if not w.incoming)
        # on the travel line of the straight piece, but off every wall
        fake_seg = Segment(
            coefficient=1,
            exponent=straight.segments[0].exponent,
            start=(Fraction(2), Fraction(1, 2)),
            bend_wall=wall,
            bend_power=1,
        )
        tampered = BrokenLine(
            straight.initial_exponent,
            straight.endpoint,
            (straight.segments[0], fake_seg),
        )
        check = validate_broken_line(tampered, D2)
        assert not check and "off the wall" in check.reason

    def test_tampered_coefficient_fails(self):
        lines = self._three_lines()
        bent = next(l for l in lines if len(l.segments) == 2)
        bad_last = Segment(
            coefficient=7,
            exponent=bent.segments[1].exponent,
            start=bent.segments[1].start,
            bend_wall=bent.segments[1].bend_wall,
            bend_power=bent.segments[1].bend_power,
        )
        tampered = BrokenLine(
            bent.initial_exponent,
            bent.endpoint,
            (bent.segments[0], bad_last),
        )
        check = validate_broken_line(tampered, D2)
        assert not check and "coefficient" in check.reason

    def test_tampered_initial_coefficient_fails(self):
        straight = next(l for l in self._three_lines() if not l.bends())
        bad_first = Segment(2, straight.segments[0].exponent, None, None, 0)
        tampered = BrokenLine(
            straight.initial_exponent,
            straight.endpoint,
            (bad_first,),
        )
        assert not validate_broken_line(tampered, D2)

    def test_wrong_travel_direction_fails(self):
        theta = theta_function((1, -1, 0, 0), CPLUS, D2, 8)
        two_bend = next(l for l in theta.lines if len(l.segments) == 3)
        moved = Segment(
            two_bend.segments[2].coefficient,
            two_bend.segments[2].exponent,
            (Fraction(4), Fraction(4)),
            two_bend.segments[2].bend_wall,
            two_bend.segments[2].bend_power,
        )
        tampered = BrokenLine(
            two_bend.initial_exponent,
            two_bend.endpoint,
            two_bend.segments[:2] + (moved,),
        )
        assert not validate_broken_line(tampered, D2)


class TestPathIndependence:
    @pytest.mark.parametrize(
        "diagram,m0,pairs",
        [
            (
                D2,
                (1, -1, 0, 0),
                [
                    ((Fraction(3, 2), 1), (1, Fraction(-29, 20))),
                    ((Fraction(3, 2), 1), (Fraction(1, 3), Fraction(1, 7))),
                    ((-1, Fraction(22, 7)), (1, Fraction(-31, 20))),
                ],
            ),
            (
                D2,
                (7, -6, 0, 0),
                [
                    ((2, 1), (Fraction(157, 100), Fraction(83, 100))),
                    ((2, 1), (1, Fraction(-29, 20))),
                    ((Fraction(1, 3), Fraction(1, 7)), (-1, Fraction(22, 7))),
                ],
            ),
            (
                D1,
                (1, -1, 0, 0),
                [
                    ((Fraction(3, 2), 1), (Fraction(5, 2), Fraction(-1, 3))),
                    ((Fraction(-7, 5), Fraction(1, 2)), (Fraction(3, 2), 1)),
                    ((Fraction(-2), Fraction(-1, 3)), (Fraction(1, 5), Fraction(-3))),
                ],
            ),
        ],
    )
    def test_transport_matches_direct_enumeration(self, diagram, m0, pairs):
        for start, end in pairs:
            theta_start = theta_function(m0, start, diagram, 8)
            theta_end = theta_function(m0, end, diagram, 8)
            action = path_ordered_product(
                CrossingPath(start=start, end=end), diagram
            )
            assert action.apply(theta_start.value) == theta_end.value


def _all_seeds(seed, max_depth=10):
    seen = {}
    frontier = [seed]
    key = lambda s: frozenset(tuple(col) for col in zip(*s.g_matrix()))
    seen[key(seed)] = seed
    for _ in range(max_depth):
        new = []
        for s in frontier:
            for k in range(1, s.rank + 1):
                t = mutate_seed(s, k)
                if key(t) not in seen:
                    seen[key(t)] = t
                    new.append(t)
        if not new:
            return list(seen.values())
        frontier = new
    raise AssertionError("mutation graph did not close at this depth")


class TestViaPath:
    def test_every_finite_type_variable_from_its_chamber(self):
        variables = {}
        for seed in _all_seeds(SEED1):
            for idx in range(2):
                var = seed.variables[idx]
                g = g_vector(var, 2)
                variables[g] = var
        assert len(variables) == 5
        for g, var in variables.items():
            m0 = g + (0, 0)
            assert theta_via_path(m0, QGEN, D1) == var
            assert theta_function(m0, QGEN, D1, 8).value == var

    def test_matches_enumeration_on_mutation_fan_exponents(self):
        for m0 in [(1, 0, 0, 0), (0, 1, 0, 0), (3, -2, 0, 0), (-1, 2, 0, 0)]:
            via = theta_via_path(m0, QGEN, D2)
            direct = theta_function(m0, QGEN, D2, 8).value
            assert via == direct

    def test_identity_path_returns_monomial(self):
        assert theta_via_path((2, 1, 0, 0), CPLUS, D2) == LaurentPoly.monomial(
            (2, 1, 0, 0)
        )

    def test_direction_outside_fan_unsupported(self):
        with pytest.raises(UnsupportedInputError):
            theta_via_path((1, -1, 0, 0), CPLUS, D2)

    def test_slice_exponents_match_enumeration(self):
        """Both routes read a slice exponent's endpoint in the plane of the
        last two coordinates; they agree on every term of degree <= k."""
        endpoints = [QGEN, (Fraction(-157, 100), Fraction(83, 100)),
                     (Fraction(1, 3), Fraction(-22, 7)), (-2, Fraction(-1, 3)),
                     (Fraction(5, 2), Fraction(-1, 3))]
        compared = 0
        for diagram in (D1, D2):
            eps = diagram.seed.exchange_block()
            for v in product(range(-2, 3), repeat=2):
                if v == (0, 0):
                    continue
                m0 = (*p_star(eps, v), *v)
                k = min(diagram.order, diagram.order + x_degree(m0, 2))
                for q in endpoints:
                    try:
                        direct = theta_function(m0, q, diagram, k).value
                        via = theta_via_path(m0, q, diagram, depth=8)
                    except InputError:
                        continue
                    assert direct == LaurentPoly({
                        e: c for e, c in via.terms.items() if x_degree(e, 2) <= k
                    }), (m0, q)
                    compared += 1
        assert compared == 204

    def test_three_term_value_via_path_on_finite_diagram(self):
        got = theta_via_path((1, -1, 0, 0), CPLUS, D1)
        assert got == theta_function((1, -1, 0, 0), CPLUS, D1, 8).value


class TestRestriction:
    def test_three_term_restriction(self):
        theta = theta_function((1, -1, 0, 0), CPLUS, D2, 8)
        assert restrict_to_A(theta) == mono(
            (1, (1, -1)), (1, (-1, -1)), (1, (-1, 1))
        )

    def test_square_identity(self):
        a1 = restrict_to_A(theta_function((1, -1, 0, 0), CPLUS, D2, 8))
        a2 = restrict_to_A(
            theta_function((2, -2, -1, -1), (1, Fraction(-3, 2)), D2_DEEP, 8)
        )
        assert a1 * a1 == a2 + LaurentPoly.monomial((0, 0), 2)

    def test_constants_and_zero(self):
        assert restrict_to_A(LaurentPoly.one(4)) == LaurentPoly.one(2)
        assert restrict_to_A(LaurentPoly.zero()) == LaurentPoly.zero()


class TestClusterCharacterEquality:
    @pytest.mark.parametrize("d", [(1, 2), (2, 3), (1, 1)])
    def test_kronecker_small(self, d):
        m0 = tuple(-x for x in g_map(K2, d)) + (0, 0)
        theta = theta_function(m0, QGEN, D2, 8)
        assert theta.value == caldero_chapoton(K2, d)

    def test_kronecker_large(self):
        m0 = (7, -6, 0, 0)
        theta = theta_function(m0, QGEN, D2_DEEP, 11)
        assert theta.value == caldero_chapoton(K2, (5, 6))

    def test_kronecker_along_n_n_plus_1_up_to_12(self):
        diagram = complete_rank2(initial_diagram(SEED2, 25), 25)
        for n in range(5, 13):
            d = (n, n + 1)
            m0 = tuple(-x for x in g_map(K2, d)) + (0, 0)
            theta = theta_function(m0, QGEN, diagram, 2 * n + 1)
            assert theta.value == caldero_chapoton(K2, d), d

    @pytest.mark.parametrize("d", [(1, 0), (0, 1), (1, 1)])
    def test_two_vertex_path_quiver(self, d):
        quiver = path_quiver(2)
        seed = initial_seed(quiver_to_skew(quiver))
        diagram = complete_rank2(initial_diagram(seed, 8), 8)
        m0 = tuple(-x for x in g_map(quiver, d)) + (0, 0)
        theta = theta_function(m0, QGEN, diagram, 8)
        assert theta.value == caldero_chapoton(quiver, d)

    def test_three_vertex_path_quiver_against_cluster_variables(self):
        # Rank-3 diagrams have no 2D drawing, so the character values are
        # checked against the mutation recursion instead.
        quiver = path_quiver(3)
        seed = initial_seed(quiver_to_skew(quiver))
        variables = set()
        for s in _all_seeds(seed):
            variables.update(s.variables)
        roots = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
        for d in roots:
            assert caldero_chapoton(quiver, d) in variables


class TestPositivity:
    def test_all_computed_thetas_positive(self):
        computed = [
            theta_function((1, -1, 0, 0), CPLUS, D2, 8),
            theta_function((2, -2, -1, -1), (1, Fraction(-3, 2)), D2_DEEP, 8),
            theta_function((7, -6, 0, 0), (2, 1), D2, 8),
            theta_function((1, -1, 0, 0), CPLUS, D1, 8),
            theta_function((0, 1, 0, 0), (Fraction(-2), Fraction(-1, 3)), D1, 8),
        ]
        for theta in computed:
            assert theta.value.terms
            assert all(c > 0 for c in theta.value.terms.values())
            for line in theta.lines:
                assert line.coefficient > 0


class TestIntegerEngine:
    """The search runs in homogeneous integer coordinates; the rational
    validator and the cone structure of the walls check it."""

    def test_segment_along_a_support_line_raises(self):
        diagram = complete_rank2(initial_diagram(SEED1, 6), 6)
        with pytest.raises(DegenerateBrokenLineError) as info:
            theta_function((-3, 0, 0, 0), (-1, 1), diagram, 4)
        assert str(info.value) == (
            "a segment runs along the support line of the wall with normal "
            "(1,1); perturb the endpoint"
        )

    @settings(max_examples=80, deadline=None)
    @given(
        b=st.sampled_from([1, 2, 3]),
        a=st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
        endpoint=st.tuples(_RATIONALS, _RATIONALS),
        scale=st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000)),
    )
    def test_lines_validate_and_scaling_keeps_theta(self, b, a, endpoint, scale):
        diagram = SMALL_DIAGRAMS[b]
        m0 = (*a, 0, 0)
        scaled = tuple(scale * x for x in endpoint)
        try:
            theta = theta_function(m0, endpoint, diagram, 4)
        except GenericPositionError as exc:
            with pytest.raises(type(exc)) as info:
                theta_function(m0, scaled, diagram, 4)
            if isinstance(exc, DegenerateBrokenLineError):
                assert info.value.degeneracy == exc.degeneracy
            return
        for line in theta.lines:
            assert validate_broken_line(line, diagram)
        twin = theta_function(m0, scaled, diagram, 4)
        assert twin.value == theta.value
        assert len(twin.lines) == len(theta.lines)

    def test_ray_parallel_to_its_point_leading_away_bends(self):
        # The lines with bend weight (2,1) end with velocity (5,-1): their
        # backward ray from (-5,1) is parallel to its point, leads away
        # from the origin and meets no support line, so it bends on.
        diagram = SMALL_DIAGRAMS[2]
        theta = theta_function((-3, -3, 0, 0), (-5, 1), diagram, 4)
        assert theta.value == mono(
            (1, (-3, -3, 0, 0)), (3, (-5, -3, 0, 1)),
            (3, (-7, -3, 0, 2)), (1, (-9, -3, 0, 3)),
        )
        assert theta.lines == reference_lines((-3, -3, 0, 0), (-5, 1), diagram, 4)

    @settings(max_examples=150, deadline=None)
    @given(
        b=st.sampled_from([1, 2, 3]),
        a=st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
        on_slice=st.booleans(),
        endpoint=st.one_of(
            st.tuples(_RATIONALS, _RATIONALS),
            st.builds(Fraction, st.integers(-8, 8).filter(bool), st.integers(1, 4)),
        ),
        weight=st.integers(0, 4),
    )
    def test_search_matches_all_wall_oracle(self, b, a, on_slice, endpoint, weight):
        """Same lines as the reference that scans every wall at every
        node, or the same error; a scalar endpoint stands for that
        multiple of the initial direction, parallel to +-m0."""
        diagram = SMALL_DIAGRAMS[b]
        m0 = (*p_star(diagram.seed.exchange_block(), a), *a) if on_slice else (*a, 0, 0)
        if isinstance(endpoint, Fraction):
            endpoint = (endpoint * a[0], endpoint * a[1])
        k = x_degree(m0, 2) + weight
        assume(k >= 0)
        got, want = _search_and_oracle(m0, endpoint, diagram, k)
        assert got == want

    @pytest.mark.parametrize("walls", ["shared", "rays"])
    @pytest.mark.parametrize("a", [(-5, 1), (1, -2), (3, 1), (-2, -3)])
    @pytest.mark.parametrize("endpoint", [
        (Fraction(157, 100), Fraction(83, 100)), (Fraction(-3, 7), Fraction(2, 9)),
        (Fraction(7, 3), Fraction(-5, 2)), (Fraction(-1, 5), Fraction(-3)), "m0", "-m0",
    ])
    def test_hand_built_walls_match_all_wall_oracle(self, walls, a, endpoint):
        """Line for line and error for error on two hand-built diagrams.
        On the first, two rays share one direction and a third lies on
        one half of a line: walls of one direction are crossed at one
        point, and the search takes them in wall-index order either way
        round.  The second has only rays, all in one open half-plane."""
        diagram = HAND_BUILT[walls]
        m0 = (*a, 0, 0)
        if isinstance(endpoint, str):
            sign = -1 if endpoint == "-m0" else 1
            endpoint = (Fraction(sign * a[0], 3), Fraction(sign * a[1], 3))
        for k in (2, 4):
            got, want = _search_and_oracle(m0, endpoint, diagram, k)
            assert got == want


def _search_and_oracle(m0, endpoint, diagram, k):
    """The lines of ``theta_function`` and of the all-wall reference, or
    the type and message of the error each raises."""
    outcomes = []
    for search in (theta_function, reference_lines):
        try:
            result = search(m0, endpoint, diagram, k)
        except InputError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append(getattr(result, "lines", result))
    return outcomes


def _wall(normal, kind, direction, coeffs, order=6):
    step = (*p_star(SEED2.exchange_block(), normal), *normal)
    return Wall(normal, kind, (direction,), GradedSeries(step, order, coeffs), False)


# Diagrams over the b=2 seed that no completion makes: the initial lines,
# two rays on (1,-1) and one on the lower half of the line x = 0; and two
# rays alone in the second quadrant.
HAND_BUILT = {
    "shared": ScatteringDiagram(SEED2, 6, (
        *initial_diagram(SEED2, 6).walls,
        _wall((1, 1), "ray", (1, -1), (1, 2, 1)),
        _wall((1, 0), "ray", (0, -1), (1, 1, 1, 1)),
        _wall((1, 1), "ray", (1, -1), (1, 3)),
    )),
    "rays": ScatteringDiagram(SEED2, 6, (
        _wall((2, 1), "ray", (-1, 2), (1, 2)),
        _wall((1, 2), "ray", (-2, 1), (1, 1)),
    )),
}


def _basis_diagrams():
    """The diagrams of the ``theta-basis`` benchmark workload, completed."""
    return {
        b: complete_rank2(initial_diagram(initial_seed(rank2_exchange(b)), order), order)
        for b, order in ((2, 10), (3, 8))
    }


# The theta basis of the ``theta-basis`` benchmark workload: (b, initial
# A-exponent, degree), each evaluated at both base endpoints.  Its bend
# weights reach 10, where searches meet dead states again; the property
# test against the oracle stops at weight 4.
BASIS_DIAGRAMS = _basis_diagrams()
BASIS_ENDPOINTS = (
    (Fraction(157, 100), Fraction(83, 100)),
    (Fraction(1), Fraction(-29, 20)),
)
BASIS_EXPONENTS = (
    (2, (1, -2), 10), (2, (2, -3), 8), (2, (7, -6), 10),
    (2, (1, -1), 8), (2, (3, -3), 8), (2, (4, -4), 10),
    (3, (-1, 0), 6), (3, (1, -3), 8), (3, (3, -8), 8), (3, (8, -3), 6),
    (3, (21, -8), 8), (3, (2, -2), 8), (3, (3, -2), 6),
)


class TestDeadStates:
    """A bend point's search depends on its wall, the side of the wall's
    support it lies on and the bend weight left, so a search that found
    no line is not repeated within one call."""

    @pytest.mark.parametrize("b,a,k", BASIS_EXPONENTS)
    @pytest.mark.parametrize("endpoint", BASIS_ENDPOINTS, ids=["positive", "past-rays"])
    def test_deep_search_matches_all_wall_oracle(self, b, a, k, endpoint):
        m0 = (*a, 0, 0)
        diagram = BASIS_DIAGRAMS[b]
        got = theta_function(m0, endpoint, diagram, k).lines
        assert got == reference_lines(m0, endpoint, diagram, k)

    @staticmethod
    def _searched_states(monkeypatch, endpoint):
        """(state, found a line) of every node that the search for theta of
        (3,-8,0,0) on b=3 enters; a node at the endpoint has state ``None``."""
        diagram = BASIS_DIAGRAMS[3]
        index = {id(wall): i for i, wall in enumerate(diagram.walls)}
        original = brokenlines._Engine.descend
        entered = []

        def descend(engine, c1, c2, point, slot, rev_bends):
            before = len(engine.lines)
            found = original(engine, c1, c2, point, slot, rev_bends)
            assert found == (len(engine.lines) > before)
            state = None
            if rev_bends:
                wall = rev_bends[-1][0]
                d0, d1 = wall.direction()
                side = d0 * point[0] + d1 * point[1] > 0
                state = (index[id(wall)], side, c1, c2)
            entered.append((state, found))
            return found

        monkeypatch.setattr(brokenlines._Engine, "descend", descend)
        theta_function((3, -8, 0, 0), endpoint, diagram, 8)
        monkeypatch.undo()
        return entered

    @pytest.mark.parametrize("endpoint", BASIS_ENDPOINTS, ids=["positive", "past-rays"])
    def test_no_dead_state_is_searched_twice(self, monkeypatch, endpoint):
        entered = self._searched_states(monkeypatch, endpoint)
        outcomes: dict = {}
        for state, found in entered:
            if state is not None:
                outcomes.setdefault(state, []).append(found)
        dead = [state for state, found in outcomes.items() if not any(found)]
        assert dead
        for state in dead:
            assert outcomes[state] == [False], state
        # a state is live or dead wherever on its ray the search meets it
        assert all(len(set(found)) == 1 for found in outcomes.values())
        # the engine's own count agrees, and nothing of the search is kept
        # from one call to the next: a second call enters the same nodes
        stats: dict = {}
        theta_function((3, -8, 0, 0), endpoint, BASIS_DIAGRAMS[3], 8, stats=stats)
        assert stats["entered"] == len(entered)
        assert self._searched_states(monkeypatch, endpoint) == entered

    def test_search_enters_a_pinned_number_of_nodes(self):
        """The 26 basis calls enter 1,610 search nodes and prune 1,703
        states without entering them: a state, or a top-level search from
        the endpoint, whose first half-line ahead with normal at most its
        bend weight already lies past its exponent crosses nothing it can
        bend on.  Every node is one or the other, and entering them all
        makes 3,313; testing the first half-line ahead of any normal,
        which the walk skips past, entered 2,401."""
        stats: dict = {}
        for b, a, k in BASIS_EXPONENTS:
            for endpoint in BASIS_ENDPOINTS:
                theta_function((*a, 0, 0), endpoint, BASIS_DIAGRAMS[b], k, stats=stats)
        assert stats == {"entered": 1610, "pruned": 1703}
        # a second round enters as many: only the index is kept
        again: dict = {}
        for b, a, k in BASIS_EXPONENTS:
            for endpoint in BASIS_ENDPOINTS:
                theta_function((*a, 0, 0), endpoint, BASIS_DIAGRAMS[b], k, stats=again)
        assert again == stats


class TestSearchIndex:
    """The half-lines of a diagram are sorted once, by completion or the
    first time a search runs on it, and the search index built on them
    once; both are kept with the diagram, and what a call finds does not
    depend on the calls before it."""

    CALLS = [
        (b, a, k, endpoint)
        for b, a, k in BASIS_EXPONENTS
        for endpoint in BASIS_ENDPOINTS
    ]

    @staticmethod
    def _lines(diagrams, calls):
        return {
            (b, a, endpoint): theta_function((*a, 0, 0), endpoint, diagrams[b], k).lines
            for b, a, k, endpoint in calls
        }

    def test_rejected_call_builds_nothing(self):
        diagram = BASIS_DIAGRAMS[2]._replace()
        endpoint = BASIS_ENDPOINTS[0]
        with pytest.raises(UnsupportedInputError, match="has no direction"):
            theta_function((0, 0, 1, 0), endpoint, diagram, 2)
        with pytest.raises(InputError, match="final filter"):
            theta_function((1, 0, 0, 0), endpoint, diagram, 2, final_filter=(1,))
        assert vars(diagram) == {}

    def test_lines_do_not_depend_on_call_order_or_diagram(self, monkeypatch):
        # what each ring sort and each index build is given: walls, diagram
        built = {scattering._Ring: [], brokenlines._SearchIndex: []}
        for cls, log in built.items():
            def init(obj, arg, original=cls.__init__, log=log):
                log.append(arg)
                original(obj, arg)

            monkeypatch.setattr(cls, "__init__", init)
        sorts, indexed = built.values()
        orders = []
        for seed in (1, 2):
            order = list(self.CALLS)
            Random(seed).shuffle(order)
            orders.append(order)
        first = self._lines(BASIS_DIAGRAMS, orders[0])
        sorts.clear()
        indexed.clear()
        assert self._lines(BASIS_DIAGRAMS, orders[1]) == first
        assert sorts == indexed == []
        fresh = _basis_diagrams()
        # completion sorts the two lines it starts from, then once the
        # diagram that it checks and returns
        assert [tuple(walls) for walls in sorts] == [
            walls for b in (2, 3) for walls in (fresh[b].walls[:2], fresh[b].walls)
        ]
        sorts.clear()
        assert self._lines(fresh, orders[1]) == first
        # so a search on it sorts nothing, and builds one index per
        # diagram, not one per call
        assert sorts == []
        assert [id(diagram) for diagram in indexed] in (
            [id(fresh[2]), id(fresh[3])], [id(fresh[3]), id(fresh[2])]
        )
        # a diagram that did not come from completion is sorted once
        copies = {b: diagram._replace() for b, diagram in fresh.items()}
        assert self._lines(copies, orders[0]) == first
        assert sorted(sorts, key=len) == [fresh[2].walls, fresh[3].walls]
        assert fresh == copies == BASIS_DIAGRAMS
        for b, a, k, endpoint in Random(3).sample(self.CALLS, 3):
            want = reference_lines((*a, 0, 0), endpoint, fresh[b], k)
            assert first[b, a, endpoint] == want
