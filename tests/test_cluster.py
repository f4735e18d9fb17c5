"""Seed mutation, g/c-vectors, and tropical duality."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterscatter.cluster import (
    apply_word,
    check_tropical_duality,
    cluster_variable,
    g_vector,
    initial_seed,
    mutate_matrix,
    mutate_seed,
    rank2_exchange,
    seed_to_json,
)
from clusterscatter.errors import InputError
from clusterscatter.lattice import LaurentPoly
from clusterscatter.quiver import path_quiver, quiver_to_skew


def test_mutate_matrix_three_by_three():
    # Oracle re-derived from the transposed-convention recursion: the only
    # entry pair touched by a bump is (1, 3)/(3, 1), where both path
    # factors through vertex 2 are positive.
    eps = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    assert mutate_matrix(eps, 2) == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutate_matrix_is_involution():
    eps = ((0, 2, 1, 0), (-2, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
    assert mutate_matrix(mutate_matrix(eps, 1), 1) == eps


@given(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(1, 3),
)
def test_mutate_matrix_involution_rank3(a, b, c, k):
    eps = ((0, a, b), (-a, 0, c), (-b, -c, 0))
    assert mutate_matrix(mutate_matrix(eps, k), k) == eps


def test_mutate_matrix_checks_its_input():
    with pytest.raises(InputError, match=r"not skew-symmetric at \(0,1\)"):
        mutate_matrix(((0, 1), (1, 0)), 1)


def test_initial_seed_has_identity_c_matrix():
    s = initial_seed(rank2_exchange(2))
    assert s.c_matrix() == ((1, 0), (0, 1))
    assert s.g_matrix() == ((1, 0), (0, 1))
    assert check_tropical_duality(s)


def test_first_exchange_b1():
    s = mutate_seed(initial_seed(rank2_exchange(1)), 1)
    # (1 + A2 X1) / A1
    assert s.variables[0] == LaurentPoly({(-1, 0, 0, 0): 1, (-1, 1, 1, 0): 1})
    assert g_vector(s.variables[0], 2) == (-1, 0)
    assert s.c_vectors() == ((-1, 0), (0, 1))
    assert check_tropical_duality(s)


def test_word_one_two_b1():
    v = cluster_variable(initial_seed(rank2_exchange(1)), (1, 2), 2)
    assert v == LaurentPoly(
        {(0, -1, 0, 0): 1, (-1, -1, 0, 1): 1, (-1, 0, 1, 1): 1}
    )
    assert g_vector(v, 2) == (0, -1)
    # the F-polynomial: every A set to 1
    assert {e[2:]: c for e, c in v.terms.items()} == {(0, 0): 1, (0, 1): 1, (1, 1): 1}


def test_word_one_two_b2_variable_and_duality():
    s = apply_word(initial_seed(rank2_exchange(2)), (1, 2))
    v = s.variables[1]
    assert v == LaurentPoly(
        {
            (0, -1, 0, 0): 1,
            (-2, -1, 0, 1): 1,
            (-2, 1, 1, 1): 2,
            (-2, 3, 2, 1): 1,
        }
    )
    assert g_vector(v, 2) == (0, -1)
    assert s.c_matrix() == ((-1, 0), (0, -1))
    assert check_tropical_duality(s)


def test_pentagon_periodicity_b1():
    s = initial_seed(rank2_exchange(1))
    t = apply_word(s, (1, 2) * 5)
    assert t.variables == s.variables
    assert t.eps_ext == s.eps_ext


def test_g_vector_rejects_malformed():
    with pytest.raises(InputError):
        g_vector(LaurentPoly({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}), 2)
    with pytest.raises(InputError):
        g_vector(LaurentPoly({(1, 0, 0, 0): 2}), 2)
    with pytest.raises(InputError):
        g_vector(LaurentPoly({(0, 0, 1, 0): 1}), 2)


def test_seed_json_roundtrip_and_schema():
    s = initial_seed(quiver_to_skew(path_quiver(3)))
    data = seed_to_json(apply_word(s, (1, 2)))
    assert data["rank"] == 3
    assert data["word"] == [1, 2]


@pytest.mark.parametrize(
    "eps",
    [rank2_exchange(1), rank2_exchange(2), quiver_to_skew(path_quiver(3))],
)
def test_duality_and_sign_coherence_short_words(eps):
    n = len(eps)
    s0 = initial_seed(eps)
    for length in range(0, 5):
        for word in itertools.product(range(1, n + 1), repeat=length):
            s = apply_word(s0, word)
            assert s.is_sign_coherent(), word
            assert check_tropical_duality(s), word


@pytest.mark.parametrize("b", [1, 2, 3])
def test_laurent_positivity_short_words(b):
    s0 = initial_seed(rank2_exchange(b))
    for word in itertools.product((1, 2), repeat=4):
        s = apply_word(s0, word)
        for v in s.variables:
            assert all(c > 0 for c in v.terms.values())


@given(st.lists(st.sampled_from([1, 2]), max_size=6))
@settings(max_examples=40, deadline=None)
def test_mutation_involution_on_seeds(word):
    s = apply_word(initial_seed(rank2_exchange(2)), word)
    k = 1 if not word else word[-1]
    assert mutate_seed(mutate_seed(s, k), k).variables == s.variables
