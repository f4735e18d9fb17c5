"""Core lattice/series arithmetic: frozen oracle values and properties."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterscatter import lattice
from clusterscatter.errors import InputError, ResourceLimitError
from clusterscatter.lattice import (
    Budget,
    GradedSeries,
    LaurentPoly,
    budget_from_env,
    charge,
    default_names,
    mat_mul,
    monomial_str,
    p_star,
    poly_str,
    primitive,
    principal_extension,
    tilde_p_star,
    vec_add,
    x_degree,
)


def rank2_form(b: int) -> tuple[tuple[int, ...], ...]:
    return ((0, b), (-b, 0))


# ---------------------------------------------------------------------------
# skew forms and the principal extension


def test_principal_extension_blocks_b2():
    ext = principal_extension(rank2_form(2))
    assert ext == (
        (0, 2, 1, 0),
        (-2, 0, 0, 1),
        (-1, 0, 0, 0),
        (0, -1, 0, 0),
    )


def test_doubled_pairing_base_with_dual_is_plus_one():
    # Pairing of a base vector with its adjoined dual partner is +1,
    # matching the exponent conventions of the wall functions below.
    ext = principal_extension(rank2_form(2))
    assert ext[0][2] == 1
    assert ext[2][0] == -1
    assert ext[0][1] == 2


def test_p_star_rows_b2():
    eps = rank2_form(2)
    assert p_star(eps, (1, 0)) == (0, 2)
    assert p_star(eps, (0, 1)) == (-2, 0)
    assert p_star(eps, (2, 4)) == (-8, 4)


def test_tilde_p_star_initial_wall_exponents_b2():
    eps = rank2_form(2)
    assert tilde_p_star(eps, (1, 0, 0, 0)) == (0, 2, 1, 0)
    assert tilde_p_star(eps, (0, 1, 0, 0)) == (-2, 0, 0, 1)


def test_tilde_p_star_adds_base_vector_to_x_part():
    eps = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    for nvec in [(1, 0, 0), (2, 1, 0), (1, 1, 1)]:
        v = nvec + (0, 0, 0)
        full = tilde_p_star(eps, v)
        assert full[:3] == p_star(eps, nvec)
        assert full[3:] == nvec


@given(
    st.integers(1, 3),
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
)
def test_p_star_injective_for_nonzero_form(b, v1, v2):
    eps = rank2_form(b)
    if tuple(v1) != tuple(v2):
        assert p_star(eps, tuple(v1)) != p_star(eps, tuple(v2))


def test_primitive_vector():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, -5)) == (0, -1)
    with pytest.raises(InputError):
        primitive((0, 0))


# ---------------------------------------------------------------------------
# Laurent polynomials


def test_poly_mul_and_pow():
    x = LaurentPoly.monomial((1, 0))
    y = LaurentPoly.monomial((0, 1))
    p = (x + y) ** 2
    assert p == LaurentPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_exact_division_binomial():
    # (1 + t)^3 / (1 + t) = (1 + t)^2 in Laurent form with negative shifts.
    t = LaurentPoly.monomial((1,))
    one = LaurentPoly.one(1)
    num = (one + t) ** 3
    shifted = num.shift((-2,))
    q = shifted.exact_div((one + t).shift((-1,)))
    assert q == ((one + t) ** 2).shift((-1,))


def test_exact_division_detects_failure():
    t = LaurentPoly.monomial((1,))
    one = LaurentPoly.one(1)
    with pytest.raises(InputError):
        (one + t + t * t).exact_div(one + t)


@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-4, 4)
        ),
        max_size=5,
    ),
    st.lists(
        st.tuples(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-4, 4)
        ),
        max_size=5,
    ),
)
def test_exact_division_inverts_product(terms_a, terms_b):
    a = LaurentPoly(dict(terms_a))
    b = LaurentPoly(dict(terms_b))
    if a.is_zero() or b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def test_monomial_canonical_text():
    names = default_names(4)
    assert names == ["A1", "A2", "X1", "X2"]
    assert monomial_str((1, -1, 0, 0), 1, names) == "A1*A2^-1"
    assert monomial_str((0, 0, 0, 0), 7, names) == "7"
    assert monomial_str((-1, 1, 1, 1), -1, names) == "-A1^-1*A2*X1*X2"


def test_poly_canonical_text_sorted_lexicographically():
    p = LaurentPoly({(1, -1, 0, 0): 1, (-1, -1, 0, 1): 1, (-1, 1, 1, 1): 1})
    s = poly_str(p, default_names(4))
    assert s == "A1^-1*A2^-1*X2 + A1^-1*A2*X1*X2 + A1*A2^-1"


def test_poly_text_deterministic_bytes():
    p = LaurentPoly({(2, 0): -3, (0, 0): 1, (1, 1): 5})
    assert poly_str(p, ["A1", "A2"]) == "1 + 5*A1*A2 - 3*A1^2"


# ---------------------------------------------------------------------------
# graded series


def test_x_degree_counts_x_part_only():
    assert x_degree((5, -7, 2, 3), 2) == 5
    assert x_degree((-4, 9, 0, 0), 2) == 0


def test_series_inverse_of_inverse_square():
    # ((1 - x)^-2)^-1 truncated at order 4 equals 1 - 2x + x^2,
    # where x is the first adjoined variable of a rank-1 pair.
    one_minus = GradedSeries((0, 1), 4, (1, -1))
    f = one_minus ** -2
    assert f.poly == LaurentPoly(
        {(0, 0): 1, (0, 1): 2, (0, 2): 3, (0, 3): 4, (0, 4): 5}
    )
    g = f ** -1
    assert g.poly == LaurentPoly({(0, 0): 1, (0, 1): -2, (0, 2): 1})


def test_series_mul_truncates():
    f = GradedSeries((0, 1), 3, (1, 1))
    g = f * f * f * f  # (1+x)^4 truncated at order 3
    assert g.poly == LaurentPoly({(0, 0): 1, (0, 1): 4, (0, 2): 6, (0, 3): 4})


def test_series_inverse_requires_unit_constant():
    f = GradedSeries((0, 1), 3, (2, 1))
    with pytest.raises(InputError):
        f ** -1


@st.composite
def unit_series(draw):
    order = draw(st.integers(1, 5))
    coeffs = [1] + [draw(st.integers(-4, 4)) for _ in range(order)]
    # the mixed A/X step (1, 1) has degree 1, so t^d has degree d
    return GradedSeries((1, 1), order, coeffs)


@given(unit_series())
@settings(max_examples=60)
def test_series_double_inverse_is_identity(f):
    assert (f ** -1) ** -1 == f


@given(unit_series(), unit_series())
@settings(max_examples=60)
def test_series_mul_inverse_cancels(f, g):
    if f.order != g.order:
        return
    prod = f * g
    assert prod * g ** -1 == f


@given(unit_series(), st.integers(-4, 5))
@settings(max_examples=60)
def test_series_power_matches_repeated_products(f, p):
    expected = GradedSeries(f.step, f.order, (1,))
    base = f if p >= 0 else f ** -1
    for _ in range(abs(p)):
        expected = expected * base
    assert f ** p == expected


def test_series_powers_are_cached_and_poly_is_full_width():
    f = GradedSeries((-2, 2, 1, 1), 5, (1, 1))
    assert f ** 3 is f ** 3
    assert f.coeffs == (1, 1, 0)  # t has degree 2, so t^2 is the last term
    assert (f ** 3).poly == LaurentPoly(
        {(0, 0, 0, 0): 1, (-2, 2, 1, 1): 3, (-4, 4, 2, 2): 3}
    )
    assert (f ** 3).coefficient(1) == 3 and (f ** 3).coefficient(3) == 0


@pytest.mark.parametrize(
    "step", [(1, 0), (0, 0, 0, 0), (3, 1, 1, -1), (1, 1, 1)]
)
def test_series_step_needs_positive_degree(step):
    with pytest.raises(InputError):
        GradedSeries(step, 4, (1, 1))


def test_matrix_helpers():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert vec_add((1, 2), (3, -5)) == (4, -3)


# ---------------------------------------------------------------------------
# the resource budget


def test_charge_names_the_budget_its_limit_and_the_count(monkeypatch):
    monkeypatch.setattr(lattice, "BUDGET", Budget(terms=3, subspaces=5))
    charge("terms", "a series", 3)
    charge("subspaces", "torus-fixed points", 5)
    with pytest.raises(ResourceLimitError) as err:
        charge("terms", "a series", 4)
    assert str(err.value) == (
        "a series of 4 terms exceeds the term ceiling 3 "
        "(CLUSTERSCATTER_MAX_TERMS)"
    )
    with pytest.raises(ResourceLimitError) as err:
        charge("subspaces", "torus-fixed points", 6)
    assert str(err.value) == (
        "6 torus-fixed points exceed the configured enumeration limit 5 "
        "(CLUSTERSCATTER_SUBSPACE_LIMIT)"
    )


def test_budget_from_env(monkeypatch):
    monkeypatch.delenv("CLUSTERSCATTER_MAX_TERMS", raising=False)
    monkeypatch.setenv("CLUSTERSCATTER_SUBSPACE_LIMIT", "")
    assert budget_from_env() == Budget() == (2_000_000, 20_000)
    monkeypatch.setenv("CLUSTERSCATTER_SUBSPACE_LIMIT", "7")
    assert budget_from_env() == Budget(subspaces=7)
    # the term ceiling is checked first
    monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "-1")
    monkeypatch.setenv("CLUSTERSCATTER_SUBSPACE_LIMIT", "x")
    with pytest.raises(InputError, match="CLUSTERSCATTER_MAX_TERMS='-1'"):
        budget_from_env()


def test_only_lattice_reads_the_environment():
    source = Path(lattice.__file__).parent
    readers = sorted(
        path.name for path in source.glob("*.py")
        if re.search(r"\bos\.(environ|getenv)\b", path.read_text())
    )
    assert readers == ["lattice.py"]
