"""Tests for wall crossing, rank-2 completion, and cluster-complex fans."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import comb
from random import Random

import pytest
from completion_oracle import (
    reference_completion,
    reference_cross,
    reference_path_crossings,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusterscatter.cluster import (
    apply_word,
    check_tropical_duality,
    initial_seed,
    mutate_seed,
    rank2_exchange,
)
from clusterscatter.errors import (
    GenericPositionError,
    InputError,
    UnsupportedInputError,
)
from clusterscatter.lattice import (
    GradedSeries,
    LaurentPoly,
    dual_pair,
    p_star,
    primitive,
    vec_scale,
)
from clusterscatter.quiver import (
    Quiver,
    kronecker_quiver,
    path_quiver,
    quiver_to_skew,
)
from clusterscatter.scattering import (
    CrossingPath,
    Wall,
    _first_factor,
    _positive_rep,
    ar_order_check,
    cluster_complex_chambers,
    cluster_complex_diagram,
    complete_rank2,
    diagram_to_json,
    ensure_generic,
    find_chamber,
    initial_diagram,
    path_crossings,
    path_ordered_product,
    positive_crossing_pairs,
    support_directions,
    wall_cross,
)


def series_of(order, step):
    """The two-term wall function ``1 + z^step``."""
    return GradedSeries(step, order, (1, 1))


def wall_by_normal(diagram, normal):
    found = [w for w in diagram.walls if w.normal == normal]
    assert len(found) == 1, f"expected one wall with normal {normal}"
    return found[0]


# ---------------------------------------------------------------------------
# Initial diagrams


class TestInitialDiagram:
    def test_one_arrow_initial_walls(self):
        seed = initial_seed(rank2_exchange(1))
        diagram = initial_diagram(seed, order=6)
        w1 = wall_by_normal(diagram, (1, 0))
        w2 = wall_by_normal(diagram, (0, 1))
        # functions 1 + A2*X1 and 1 + A1^-1*X2
        assert w1.func == series_of(6, (0, 1, 1, 0))
        assert w2.func == series_of(6, (-1, 0, 0, 1))
        assert w1.kind == "line" and w1.span == ((0, 1),)
        assert w2.kind == "line" and w2.span == ((1, 0),)
        assert w1.incoming and w2.incoming

    def test_two_arrow_initial_walls(self):
        seed = initial_seed(rank2_exchange(2))
        diagram = initial_diagram(seed, order=6)
        assert wall_by_normal(diagram, (1, 0)).func == series_of(6, (0, 2, 1, 0))
        assert wall_by_normal(diagram, (0, 1)).func == series_of(6, (-2, 0, 0, 1))

    def test_wall_validation(self):
        with pytest.raises(InputError):
            Wall((2, 2), "ray", ((1, -1),), series_of(4, (-2, 2, 1, 1)), False)
        with pytest.raises(InputError):
            Wall((1, -1), "ray", ((1, -1),), series_of(4, (-2, 2, 1, 1)), False)
        bad = GradedSeries((-2, 2, 1, 1), 4, (2,))
        with pytest.raises(InputError):
            Wall((1, 1), "ray", ((1, -1),), bad, False)


# ---------------------------------------------------------------------------
# Wall crossing on monomials


class TestWallCross:
    def test_positive_crossing_of_second_axis_wall(self):
        # crossing the second coordinate wall of the two-arrow diagram
        # multiplies z^(1,-1,0,0) by one positive power of the function
        seed = initial_seed(rank2_exchange(2))
        diagram = initial_diagram(seed, order=8)
        wall = wall_by_normal(diagram, (0, 1))
        result = wall_cross(LaurentPoly.monomial((1, -1, 0, 0)), wall, 1, 8)
        expected = LaurentPoly.monomial((1, -1, 0, 0)) + LaurentPoly.monomial(
            (-1, -1, 0, 1)
        )
        assert result == expected

    def test_positive_crossing_of_first_axis_wall(self):
        seed = initial_seed(rank2_exchange(2))
        diagram = initial_diagram(seed, order=8)
        wall = wall_by_normal(diagram, (1, 0))
        result = wall_cross(LaurentPoly.monomial((-1, -1, 0, 1)), wall, 1, 8)
        expected = LaurentPoly.monomial((-1, -1, 0, 1)) + LaurentPoly.monomial(
            (-1, 1, 1, 1)
        )
        assert result == expected

    def test_zero_pairing_leaves_monomial_alone(self):
        seed = initial_seed(rank2_exchange(1))
        diagram = initial_diagram(seed, order=8)
        wall = wall_by_normal(diagram, (1, 0))
        mono = LaurentPoly.monomial((0, 3, 0, 0))
        assert wall_cross(mono, wall, 1, 8) == mono

    @settings(max_examples=60, deadline=None)
    @given(
        b=st.integers(1, 4),
        ray=st.integers(0, 30),
        sign=st.sampled_from([1, -1]),
        order=st.integers(0, 7),
        terms=st.dictionaries(
            st.tuples(*[st.integers(-4, 4)] * 2, *[st.integers(-1, 4)] * 2),
            st.integers(-5, 5),
            max_size=12,
        ),
    )
    def test_matches_the_per_term_expansion(self, b, ray, sign, order, terms):
        # every wall of the completed order-7 diagram (lines and rays),
        # on polynomials whose terms reach past the order or below degree 0
        walls = ORDER7[b].walls
        wall = walls[ray % len(walls)]
        poly = LaurentPoly(terms)
        assert wall_cross(poly, wall, sign, order) == reference_cross(
            poly, wall, sign, order
        )

    def test_rejects_an_exponent_of_the_wrong_width(self):
        wall = initial_diagram(initial_seed(rank2_exchange(1)), 4).walls[0]
        with pytest.raises(InputError, match="exponent length 3 is not 2[*]2"):
            wall_cross(LaurentPoly.monomial((1, 0, 0)), wall, 1, 4)


    def test_wall_function_lives_in_the_normal_monomial(self):
        Wall((1, 2), "ray", ((2, -1),), series_of(4, (-4, 2, 1, 2)), False)
        with pytest.raises(InputError):
            Wall((1, 2), "ray", ((2, -1),), series_of(4, (-2, 2, 1, 1)), False)


ORDER7 = {
    b: complete_rank2(initial_diagram(initial_seed(rank2_exchange(b)), 7), 7)
    for b in (1, 2, 3, 4)
}


# ---------------------------------------------------------------------------
# Completion in rank 2


class TestCompletion:
    def test_one_arrow_completion_single_new_ray(self):
        seed = initial_seed(rank2_exchange(1))
        diagram = complete_rank2(initial_diagram(seed, order=8), 8)
        new = [w for w in diagram.walls if not w.incoming]
        assert len(new) == 1
        ray = new[0]
        assert ray.normal == (1, 1)
        assert ray.span == ((1, -1),)
        # function 1 + A1^-1*A2*X1*X2 exactly
        assert ray.func == series_of(8, (-1, 1, 1, 1))

    def test_two_arrow_completion_order8(self):
        seed = initial_seed(rank2_exchange(2))
        diagram = complete_rank2(initial_diagram(seed, order=8), 8)
        central = wall_by_normal(diagram, (1, 1))
        # central function is (1 - z)^(-2) truncated, z = A1^-2*A2^2*X1*X2
        geometric = (GradedSeries((-2, 2, 1, 1), 8, (1, -1)) ** -1) ** 2
        assert central.func == geometric
        # the three finite rays named by exact functions
        assert wall_by_normal(diagram, (1, 2)).func == series_of(8, (-4, 2, 1, 2))
        assert wall_by_normal(diagram, (2, 1)).func == series_of(8, (-2, 4, 2, 1))
        assert wall_by_normal(diagram, (2, 3)).func == series_of(8, (-6, 4, 2, 3))

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_loop_consistency_after_completion(self, b):
        seed = initial_seed(rank2_exchange(b))
        diagram = complete_rank2(initial_diagram(seed, order=8), 8)
        loop = CrossingPath((F(-1), F(1)), (F(-1), F(1)), full_loops=1)
        action = path_ordered_product(loop, diagram)
        for i in range(4):
            unit = tuple(int(j == i) for j in range(4))
            assert action.apply(LaurentPoly.monomial(unit)) == LaurentPoly.monomial(
                unit
            )

    @pytest.mark.parametrize(
        "m, order", [(3, 16), (4, 16), (5, 16), (3, 30)],
        ids=["3", "4", "5", "3-order30"],
    )
    def test_central_ray_matches_closed_form(self, m, order):
        # Gross-Pandharipande-Siebert / Reineke: the central ray of the
        # (m, m) diagram is (sum_k C(a k, k) / ((a - 1) k + 1) t^k)^m with
        # a = (m - 1)^2 and t the doubled monomial of the normal (1, 1)
        diagram = complete_rank2(
            initial_diagram(initial_seed(rank2_exchange(m)), order), order
        )
        central = wall_by_normal(diagram, (1, 1)).func
        a = (m - 1) ** 2
        size = order // 2 + 1
        base = [comb(a * k, k) // ((a - 1) * k + 1) for k in range(size)]
        expected = [1] + [0] * (size - 1)
        for _ in range(m):
            expected = [
                sum(expected[i] * base[k - i] for i in range(k + 1))
                for k in range(size)
            ]
        assert central.step == (-m, m, 1, 1)
        assert list(central.coeffs) == expected

    def test_completion_rejects_higher_rank(self):
        seed = initial_seed(quiver_to_skew(path_quiver(3)))
        with pytest.raises(UnsupportedInputError):
            complete_rank2(initial_diagram(seed, order=4), 4)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_matches_degree_by_degree_oracle(self, b):
        seed = initial_seed(rank2_exchange(b))
        for order in range(13):
            diagram = initial_diagram(seed, order)
            peeled = complete_rank2(diagram, order)
            reference = reference_completion(diagram, order)
            assert peeled.walls == reference.walls, order
            assert diagram_to_json(peeled) == diagram_to_json(reference), order

    def test_completion_starts_from_the_initial_diagram(self):
        seed = initial_seed(rank2_exchange(2))
        completed = complete_rank2(initial_diagram(seed, order=4), 4)
        lines = completed.walls[:2]
        for walls in (completed.walls, lines[:1], lines[::-1]):
            with pytest.raises(UnsupportedInputError, match="initial diagram"):
                complete_rank2(completed._replace(walls=walls), 4)

    def test_ray_factors_must_be_positive(self):
        # (1 + u^2)^3 (1 + u^3) on the (1, 2) ray of b = 2: its first
        # factor is at c = (2, 4); (1 + u)^-1 has the exponent -1
        step, order = (-4, 2, 1, 2), 12
        u2 = GradedSeries(step, order, (1, 0, 1))
        u3 = GradedSeries(step, order, (1, 0, 0, 1))
        ray = Wall((1, 2), "ray", ((2, -1),), u2 ** 3 * u3, False)
        assert _first_factor(ray) == (6, (2, 4))
        inverse = series_of(order, step) ** -1
        inverse = Wall((1, 2), "ray", ((2, -1),), inverse, False)
        with pytest.raises(InputError, match="nonpositive exponent -1 for "
                           r"normal \(1, 2\); positivity violated"):
            _first_factor(inverse)

    @pytest.mark.parametrize("b", [-1, -3])
    def test_ray_sector_comes_from_the_seed(self, b):
        # with the arrows reversed the rays fill the second quadrant,
        # where the loop of the positive case starts; the peeled diagram
        # is still consistent, checked on a loop from the fourth quadrant
        seed = initial_seed(((0, b), (-b, 0)))
        diagram = complete_rank2(initial_diagram(seed, order=6), 6)
        assert all(
            w.direction()[0] < 0 < w.direction()[1]
            for w in diagram.walls if not w.incoming
        )
        loop = CrossingPath((F(1), F(-1)), (F(1), F(-1)), full_loops=1)
        action = path_ordered_product(loop, diagram)
        for i in range(4):
            unit = LaurentPoly.monomial(tuple(int(j == i) for j in range(4)))
            assert action.apply(unit) == unit


# ---------------------------------------------------------------------------
# Angular paths and path-ordered products


ORDER6 = {
    b: complete_rank2(initial_diagram(initial_seed(rank2_exchange(b)), 6), 6)
    for b in (1, 2, 3)
}
_COORDS = st.builds(F, st.integers(-40, 40), st.integers(1, 9))
_POINTS = st.tuples(_COORDS, _COORDS)


class TestPaths:
    def test_quarter_loop_action(self):
        # derived by hand: starting from z^(0,1,0,0), crossing the lower
        # vertical axis wall (no effect) and the (1,-1) ray inverts the
        # ray function, giving an alternating three-term sum at order 4
        seed = initial_seed(rank2_exchange(1))
        diagram = complete_rank2(initial_diagram(seed, order=4), 4)
        path = CrossingPath((F(-1), F(-2)), (F(2), F(-1)))
        action = path_ordered_product(path, diagram)
        assert [(w.normal, s) for w, s in action.crossings] == [
            ((1, 0), 1),
            ((1, 1), 1),
        ]
        image = action.apply(LaurentPoly.monomial((0, 1, 0, 0)))
        expected = (
            LaurentPoly.monomial((0, 1, 0, 0))
            + LaurentPoly.monomial((-1, 2, 1, 1), -1)
            + LaurentPoly.monomial((-2, 3, 2, 2))
        )
        assert image == expected

    def test_path_inverse_roundtrip(self):
        seed = initial_seed(rank2_exchange(2))
        diagram = complete_rank2(initial_diagram(seed, order=6), 6)
        start, end = (F(-3), F(-1)), (F(5), F(-2))
        forward = path_ordered_product(
            CrossingPath(start, end, turn="ccw"), diagram
        )
        backward = path_ordered_product(
            CrossingPath(end, start, turn="cw"), diagram
        )
        mono = LaurentPoly.monomial((2, -1, 0, 0))
        assert backward.apply(forward.apply(mono)) == mono

    def test_endpoint_on_wall_rejected(self):
        seed = initial_seed(rank2_exchange(1))
        diagram = complete_rank2(initial_diagram(seed, order=4), 4)
        with pytest.raises(GenericPositionError):
            path_crossings(
                CrossingPath((F(1), F(-1)), (F(2), F(1))), diagram
            )
        with pytest.raises(GenericPositionError):
            ensure_generic(diagram, (F(0), F(0)))

    @settings(max_examples=60, deadline=None)
    @given(b=st.sampled_from([1, 2, 3]), a=_POINTS, c=_POINTS)
    def test_sweeps_split_the_full_loop(self, b, a, c):
        diagram = ORDER6[b]
        for pt in (a, c):
            try:
                ensure_generic(diagram, pt)
            except GenericPositionError:
                assume(False)
        # points on one ray through the origin sweep nothing between them
        assume(a[0] * c[1] != a[1] * c[0] or a[0] * c[0] + a[1] * c[1] < 0)

        def crossings(start, end, turn, loops=0):
            path = CrossingPath(start, end, turn=turn, full_loops=loops)
            return path_crossings(path, diagram)

        loop = crossings(a, a, "ccw", loops=1)
        assert len(loop) == sum(2 if w.kind == "line" else 1 for w in diagram.walls)
        back = crossings(c, a, "ccw")
        assert crossings(a, c, "ccw") + back == loop
        assert crossings(a, c, "cw") == [(w, -s) for w, s in reversed(back)]

    @pytest.mark.parametrize("b", range(1, 6))
    def test_crossings_match_the_comparator_sweep(self, b):
        """On a completed diagram, the ring rotated at the start and cut at
        the end gives the crossings that the reference's comparator sweep
        from the start gives, on seeded random paths of every turn, with
        and without a full loop: endpoints anywhere, in one direction, in
        one gap on either side of each other, and on a support, which
        both reject."""
        diagram = complete_rank2(initial_diagram(initial_seed(rank2_exchange(b)), 6), 6)
        directions = [u for wall in diagram.walls for u in support_directions(wall)]
        rng = Random(b)

        def point():
            return tuple(F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in "xy")

        seen = Counter()
        for _ in range(400):
            start, case = point(), rng.choice(("apart", "direction", "gap", "support"))
            if case == "direction":
                scale = F(rng.randint(1, 9), rng.randint(1, 9))
                end = (start[0] * scale, start[1] * scale)
            elif case == "gap":
                end = tuple(7 * x + F(rng.choice((-1, 1)), 50) for x in start)
            elif case == "support":
                scale = F(rng.randint(1, 9), rng.randint(1, 9))
                end = tuple(scale * x for x in rng.choice(directions))
                if rng.random() < 0.5:
                    start, end = end, start
                    case = "start on a support"
            else:
                end = point()
            path = CrossingPath(
                start, end, rng.choice(("auto", "ccw", "cw")), rng.randrange(2)
            )
            try:
                want = reference_path_crossings(path, diagram)
            except GenericPositionError:
                with pytest.raises(GenericPositionError):
                    path_crossings(path, diagram)
                seen[case] += 1
                continue
            assert path_crossings(path, diagram) == want, path
            ahead = reference_path_crossings(CrossingPath(start, end, "ccw"), diagram)
            if ahead and len(ahead) < len(directions):
                case = "apart"
            elif case != "direction":
                case = "same gap, end behind" if ahead else "same gap, end ahead"
            seen[case, path.turn, path.full_loops] += 1
        assert seen["support"] and seen["start on a support"]
        for case in ("apart", "direction", "same gap, end behind", "same gap, end ahead"):
            for turn, loops in product(("auto", "ccw", "cw"), (0, 1)):
                assert seen[case, turn, loops], (case, turn, loops)

    def test_opposite_ray_direction_is_not_a_crossing(self):
        # the (1,1)-normal ray points into the fourth quadrant; a sweep
        # through the second quadrant (its opposite) must not cross it
        seed = initial_seed(rank2_exchange(1))
        diagram = complete_rank2(initial_diagram(seed, order=4), 4)
        path = CrossingPath((F(1), F(2)), (F(-2), F(-1)), turn="ccw")
        crosses = path_crossings(path, diagram)
        assert [(w.normal, s) for w, s in crosses] == [
            ((1, 0), -1),
            ((0, 1), -1),
        ]


# ---------------------------------------------------------------------------
# Cluster-complex chambers and walls


class TestClusterComplex:
    def test_depth_zero_positive_chamber(self):
        seed = initial_seed(rank2_exchange(2))
        chambers = cluster_complex_chambers(seed, 0)
        assert len(chambers) == 1
        assert chambers[0].generators == ((1, 0), (0, 1))
        assert chambers[0].normals == ((1, 0), (0, 1))

    def test_one_arrow_complex_matches_completion(self):
        seed = initial_seed(rank2_exchange(1))
        chambers = cluster_complex_chambers(seed, 5)
        assert len(chambers) == 5
        fan = cluster_complex_diagram(seed, 5, order=8)
        completed = complete_rank2(initial_diagram(seed, order=8), 8)
        # expand completed walls into rays: each line covers two rays
        completed_rays = {}
        for w in completed.walls:
            dirs = [w.direction()]
            if w.kind == "line":
                dirs.append(vec_scale(-1, w.direction()))
            for u in dirs:
                completed_rays[primitive(u)] = (w.normal, w.func)
        fan_rays = {w.direction(): (w.normal, w.func) for w in fan.walls}
        assert fan_rays == completed_rays

    def test_two_arrow_depth4_chamber(self):
        seed = initial_seed(rank2_exchange(2))
        chambers = cluster_complex_chambers(seed, 4)
        spans = {frozenset(c.generators) for c in chambers}
        assert frozenset({(2, -1), (3, -2)}) in spans

    def test_chamber_duality_holds_along_words(self):
        for eps in (rank2_exchange(2), quiver_to_skew(path_quiver(3))):
            seed = initial_seed(eps)
            for chamber in cluster_complex_chambers(seed, 4):
                assert check_tropical_duality(apply_word(seed, chamber.word))

    @pytest.mark.parametrize(
        "label, depth",
        [("b1", 6), ("b2", 6), ("b3", 5), ("a3", 6), ("a4", 6)],
    )
    def test_chambers_match_laurent_seeds(self, label, depth):
        # second route: the seed that the Laurent mutation reaches along
        # each chamber's word has the chamber's generators and normals
        if label.startswith("b"):
            eps = rank2_exchange(int(label[1:]))
        else:
            eps = quiver_to_skew(path_quiver(int(label[1:])))
        seed = initial_seed(eps)
        for chamber in cluster_complex_chambers(seed, depth):
            reached = apply_word(seed, chamber.word)
            assert tuple(zip(*reached.g_matrix())) == chamber.generators
            normals = tuple(_positive_rep(c) for c in reached.c_vectors())
            assert normals == chamber.normals

    def test_chamber_search_builds_no_laurent_polynomial(self, monkeypatch):
        seed = initial_seed(rank2_exchange(5))

        def refuse(*args):
            raise AssertionError("chamber search built a Laurent polynomial")

        monkeypatch.setattr(LaurentPoly, "exact_div", refuse)
        monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
        assert len(cluster_complex_chambers(seed, 8)) == 17

    def test_search_from_a_mutated_seed_steps_back_first(self):
        # only letters the search itself appended are not taken again: the
        # seed's own last letter leads to a chamber not yet seen
        seed = mutate_seed(initial_seed(rank2_exchange(1)), 1)
        words = [chamber.word for chamber in cluster_complex_chambers(seed, 1)]
        assert words == [(1,), (1, 1), (1, 2)]

    def test_find_chamber_and_interior(self):
        seed = initial_seed(rank2_exchange(2))
        chambers = cluster_complex_chambers(seed, 4)
        positive = find_chamber(chambers, (F(3), F(2)))
        assert positive.word == ()
        target = find_chamber(chambers, (F(5), F(-3)))
        assert frozenset(target.generators) == frozenset({(2, -1), (3, -2)})
        for chamber in chambers:
            inside = chamber.interior_point()
            assert find_chamber([chamber], inside).word == chamber.word
        with pytest.raises(InputError):
            find_chamber([positive], (F(-1), F(-1)))

    def test_json_shape_is_deterministic(self):
        seed = initial_seed(rank2_exchange(1))
        diagram = complete_rank2(initial_diagram(seed, order=4), 4)
        one = diagram_to_json(diagram)
        two = diagram_to_json(
            complete_rank2(initial_diagram(seed, order=4), 4)
        )
        assert one == two
        assert one["rank"] == 2 and one["order"] == 4
        assert len(one["walls"]) == 3


# ---------------------------------------------------------------------------
# Positive-crossing order checks


def _quiver(n, counts):
    """The quiver on ``n`` vertices with these arrow counts over the pairs
    ``(s, t)``, ``s < t``, in lexicographic order."""
    rows = [[0] * n for _ in range(n)]
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    for (s, t), m in zip(pairs, counts):
        rows[s][t] = m
    return Quiver(n, rows)


# positive-crossing pairs of the fan explored to depths 5, 6 and 8
PAIR_COUNTS = {
    "a2": (path_quiver(2), (2, 2, 2)),
    "a3": (path_quiver(3), (3, 3, 3)),
    "a3 (1,2),(1,3)": (_quiver(3, (1, 1, 0)), (4, 4, 4)),
    "affine A2": (_quiver(3, (1, 1, 1)), (10, 16, 28)),
    "affine D4": (_quiver(4, (0, 0, 1, 0, 1, 1)), (3, 6, 6)),
    "wild (1,2)^2,(2,3)": (_quiver(3, (2, 0, 1)), (4, 5, 9)),
    "kronecker2": (kronecker_quiver(2), (6, 8, 12)),
    "kronecker3": (kronecker_quiver(3), (6, 8, 12)),
    "kronecker4": (kronecker_quiver(4), (6, 8, 12)),
    "a4": (path_quiver(4), (0, 0, 0)),
}


def _pairs_hold_theorem(q, depth):
    """The positive-crossing pairs of the fan of ``q``, after checking that
    each satisfies the paper's theorem."""
    pairs = positive_crossing_pairs(initial_seed(quiver_to_skew(q)), depth)
    for w1, w2 in pairs:
        assert ar_order_check(w1, w2, q) is True, (q, w1.normal, w2.normal)
    return pairs


class TestAROrder:
    def test_kronecker_example_pair(self):
        q = kronecker_quiver(2)
        seed = initial_seed(rank2_exchange(2))
        fan = cluster_complex_diagram(seed, 5, order=4)
        walls = {w.normal: w for w in fan.walls}
        assert ar_order_check(walls[(1, 2)], walls[(0, 1)], q) is True
        assert ar_order_check(walls[(0, 1)], walls[(1, 2)], q) is False
        assert ar_order_check(walls[(1, 2)], walls[(1, 2)], q) is True

    def test_regular_regular_unsupported(self):
        q = PAIR_COUNTS["affine A2"][0]
        fan = cluster_complex_diagram(initial_seed(quiver_to_skew(q)), 3)
        walls = {w.normal: w for w in fan.walls}
        with pytest.raises(UnsupportedInputError):
            ar_order_check(walls[(0, 1, 0)], walls[(1, 0, 1)], q)

    @pytest.mark.parametrize("label", PAIR_COUNTS)
    def test_all_positive_crossing_pairs(self, label):
        q, counts = PAIR_COUNTS[label]
        seed = initial_seed(quiver_to_skew(q))
        eps, n = seed.exchange_block(), seed.rank
        for depth, count in zip((5, 6, 8), counts):
            pairs = _pairs_hold_theorem(q, depth)
            assert len(pairs) == count
            chambers = cluster_complex_chambers(seed, depth)
            for w1, _ in pairs:
                # the chamber w1 is crossed out of holds -p*(n1) strictly
                # inside w1's facet, in its generator coordinates <c_j, x>
                x = vec_scale(-1, p_star(eps, w1.normal))
                (source, k), = [
                    (c, k) for c in chambers for k in range(n)
                    if c.facet(k) == w1.span
                    and c.c_vectors[k] == vec_scale(-1, w1.normal)
                ]
                coords = [dual_pair(c, x) for c in source.c_vectors]
                terms = [vec_scale(a, g) for a, g in zip(coords, source.generators)]
                assert tuple(map(sum, zip(*terms))) == x
                assert coords[k] == 0
                assert all(a > 0 for j, a in enumerate(coords) if j != k)

    def test_three_vertex_sweep(self):
        # every acyclic quiver on 3 vertices with at most 2 arrows a pair
        quivers = [_quiver(3, c) for c in product(range(3), repeat=3)]
        assert sum(len(_pairs_hold_theorem(q, 6)) for q in quivers) == 138

    def test_four_vertex_sweep(self):
        # every acyclic quiver on 4 vertices with at most 1 arrow a pair
        quivers = [_quiver(4, c) for c in product(range(2), repeat=6)]
        assert sum(len(_pairs_hold_theorem(q, 6)) for q in quivers) == 122
