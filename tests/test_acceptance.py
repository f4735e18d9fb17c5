"""Acceptance gate: one test per deliverable criterion.

Run with ``pytest -v`` to get one pass/fail line per criterion.  Each
test asserts the exact values and, where stated, the runtime budget.
Every case of ``cli.GOLDEN``, the table ``clusterscatter check`` runs, is
one test here, criteria 1, 2 and 7 among them; the other criteria are
too slow or too broad for ``check``.
"""

import time
from fractions import Fraction

import pytest

import fp_oracle

from clusterscatter.brokenlines import enumerate_broken_lines, theta_function
from clusterscatter.cli import GOLDEN
from clusterscatter.cluster import (
    check_tropical_duality,
    initial_seed,
    mutate_seed,
    rank2_exchange,
)
from clusterscatter.hall import (
    broken_line_strata,
    gl_poincare,
)
from clusterscatter.quiver import (
    grassmannian_counting_polynomial,
    indecomposable_rep,
    kronecker_quiver,
    path_quiver,
    quiver_to_skew,
    rep_mod_p,
)
from clusterscatter.scattering import (
    CrossingPath,
    complete_rank2,
    initial_diagram,
    path_ordered_product,
)

K2 = kronecker_quiver(2)
CPLUS = (Fraction(3, 2), Fraction(1))


def completed(b: int, order: int):
    seed = initial_seed(rank2_exchange(b))
    return complete_rank2(initial_diagram(seed, order), order)


def elapsed_under(t0: float, bound: float, label: str) -> None:
    dt = time.perf_counter() - t0
    assert dt < bound, f"{label} took {dt:.2f}s, over the {bound}s budget"
    print(f"PASS {label} ({dt:.2f}s)")


@pytest.mark.parametrize(
    "row", GOLDEN, ids=[f"{row.check}:{row.case}" for row in GOLDEN]
)
def test_golden_case(row):
    t0 = time.perf_counter()
    assert row.compute() == row.expected
    elapsed_under(t0, 30.0, f"golden {row.check}: {row.case}")


def test_criterion_5_grassmannian_18_and_strata_10_8():
    t0 = time.perf_counter()
    counting = grassmannian_counting_polynomial(K2, (5, 6), (2, 4))
    assert counting == (1, 2, 4, 4, 4, 2, 1)
    assert sum(counting) == 18
    rep = indecomposable_rep(K2, (5, 6))
    for p in (2, 3, 5, 7, 11):
        direct = fp_oracle.subrep_count(rep_mod_p(rep, p), (2, 4))
        assert direct == sum(c * p**i for i, c in enumerate(counting))
    diagram = completed(2, 6)
    lines = enumerate_broken_lines(
        (7, -6, 0, 0), (2, 1), diagram, 6, final_filter=(-1, -2, 2, 4)
    )
    values = sorted(
        broken_line_strata(bl, K2, (5, 6))[1].evaluate_int((1,)) for bl in lines
    )
    assert values == [8, 10]
    assert sum(values) == 18
    elapsed_under(
        t0, 60.0, "criterion 5: chi(Gr) = 18 over F_p, strata 10 + 8"
    )


def test_criterion_8b_theta_path_independence():
    t0 = time.perf_counter()
    cases = [
        (
            completed(2, 8),
            (1, -1, 0, 0),
            [
                (CPLUS, (1, Fraction(-29, 20))),
                (CPLUS, (Fraction(1, 3), Fraction(1, 7))),
                ((-1, Fraction(22, 7)), (1, Fraction(-31, 20))),
            ],
        ),
        (
            completed(1, 8),
            (1, -1, 0, 0),
            [
                (CPLUS, (Fraction(5, 2), Fraction(-1, 3))),
                ((Fraction(-7, 5), Fraction(1, 2)), CPLUS),
                ((Fraction(-2), Fraction(-1, 3)), (Fraction(1, 5), Fraction(-3))),
            ],
        ),
    ]
    for diagram, m0, pairs in cases:
        assert len(pairs) >= 3
        for start, end in pairs:
            theta_start = theta_function(m0, start, diagram, 8)
            theta_end = theta_function(m0, end, diagram, 8)
            action = path_ordered_product(
                CrossingPath(start=start, end=end), diagram
            )
            assert action.apply(theta_start.value) == theta_end.value
    elapsed_under(t0, 30.0, "criterion 8b: theta path independence, 3 pairs each")


def test_criterion_8c_tropical_duality_words_up_to_six():
    t0 = time.perf_counter()
    for label, eps in (
        ("a2", quiver_to_skew(path_quiver(2))),
        ("a3", quiver_to_skew(path_quiver(3))),
        ("kronecker2", rank2_exchange(2)),
    ):
        frontier = [initial_seed(eps)]
        checked = 0
        for _ in range(6):
            nxt = []
            for seed in frontier:
                for k in range(1, seed.rank + 1):
                    m = mutate_seed(seed, k)
                    assert m.is_sign_coherent(), (label, m.word)
                    assert check_tropical_duality(m), (label, m.word)
                    checked += 1
                    nxt.append(m)
            frontier = nxt
        assert checked > 0
    elapsed_under(t0, 30.0, "criterion 8c: G^T = C^-1 and sign coherence")


def test_criterion_8e_gl_poincare_matches_brute_force():
    t0 = time.perf_counter()
    for d in range(4):
        for p in (2, 3, 5):
            assert gl_poincare(d).evaluate_int((p,)) == fp_oracle.brute_gl_order(d, p)
    elapsed_under(t0, 30.0, "criterion 8e: gl_poincare matches |GL_d(F_p)|")
