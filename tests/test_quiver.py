"""Tests for acyclic quiver representation data.

Numeric oracles were fixed ahead of implementation: Euler-form values by
direct evaluation of the defining sum, translate values by the explicit
2x2 translate matrix [[3,-2],[2,-1]] of the two-arrow quiver, component
classifications by iterating that matrix by hand, and subrepresentation
counts by the independent brute-force enumerator in this file.
"""

from __future__ import annotations

import time
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterscatter import lattice
from clusterscatter import hall as hall_mod
from clusterscatter import quiver as quiver_mod
from clusterscatter.cluster import cluster_variable, initial_seed, rank2_exchange
from clusterscatter.errors import (
    InputError,
    ResourceLimitError,
    TranslateUndefinedError,
    UnsupportedInputError,
)
from clusterscatter.lattice import LaurentPoly, tilde_p_star, vec_add, vec_sub
from clusterscatter.quiver import (
    ARNode,
    ExplicitRep,
    Quiver,
    ar_component,
    caldero_chapoton,
    classify_indecomposable,
    coxeter_translate,
    euler_form,
    euler_matrix,
    g_map,
    gaussian_binomial_int,
    grassmannian_counting_polynomial,
    grassmannian_euler_char,
    hom_ext_dims,
    indecomposable_rep,
    is_predecessor,
    kronecker_quiver,
    path_quiver,
    projective_dims,
    quiver_to_skew,
    rep_mod_p,
    subrep_count,
)

import cell_oracle
import fp_oracle

K2 = kronecker_quiver(2)
A2 = path_quiver(2)
A3 = path_quiver(3)


# ---------------------------------------------------------------------------
# Independent brute-force referee for subrepresentation counts


def _span(p: int, vectors: list[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    d = len(vectors[0]) if vectors else 0
    out = set()
    for coeffs in product(range(p), repeat=len(vectors)):
        vec = tuple(
            sum(c * v[i] for c, v in zip(coeffs, vectors)) % p for i in range(d)
        )
        out.add(vec)
    return frozenset(out)


def _all_subspaces(p: int, d: int, k: int) -> list[frozenset[tuple[int, ...]]]:
    zero = tuple([0] * d)
    if k == 0:
        return [frozenset([zero])]
    vectors = [
        tuple(v) for v in product(range(p), repeat=d) if any(x for x in v)
    ]
    seen = {}
    for combo in product(vectors, repeat=k):
        spanned = _span(p, list(combo))
        if len(spanned) == p**k:
            seen[spanned] = None
    return list(seen.keys())


def naive_subrep_count(rep: ExplicitRep, e: tuple[int, ...]) -> int:
    p = rep.field
    q = rep.quiver
    choices = [
        _all_subspaces(p, rep.dims[v], e[v]) for v in range(q.n_vertices)
    ]
    total = 0
    for combo in product(*choices):
        ok = True
        for (s, t), mat in zip(q.arrows, rep.maps):
            for vec in combo[s - 1]:
                image = tuple(
                    sum(row[j] * vec[j] for j in range(len(vec))) % p
                    for row in mat
                )
                if image not in combo[t - 1]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


# ---------------------------------------------------------------------------
# Euler form and weight covector


def test_euler_form_examples():
    assert euler_form(K2, (1, 2), (5, 6)) == 5
    assert euler_form(K2, (1, 0), (0, 1)) == -2
    one_vertex = Quiver(1, ((0,),))
    assert euler_form(one_vertex, (7,), (7,)) == 49


@given(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.integers(-4, 4),
)
def test_euler_form_bilinear(a, b, c, scale):
    left = tuple(x + scale * y for x, y in zip(a, b))
    assert euler_form(K2, left, c) == euler_form(K2, a, c) + scale * euler_form(
        K2, b, c
    )
    assert euler_form(K2, c, left) == euler_form(K2, c, a) + scale * euler_form(
        K2, c, b
    )


def test_g_map_examples():
    assert g_map(K2, (5, 6)) == (-7, 6)
    for k in range(1, 5):
        assert g_map(K2, (k, k)) == (-k, k)
    assert g_map(K2, (0, 0)) == (0, 0)
    assert g_map(A3, (1, 1, 1)) == (0, 0, 1)


# ---------------------------------------------------------------------------
# Translates


def test_coxeter_translate_examples():
    assert coxeter_translate(K2, (2, 3), "tau") == (0, 1)
    with pytest.raises(TranslateUndefinedError):
        coxeter_translate(K2, (0, 1), "tau")
    with pytest.raises(TranslateUndefinedError):
        coxeter_translate(K2, (1, 2), "tau")
    assert coxeter_translate(K2, (0, 1), "tau_inverse") == (2, 3)
    with pytest.raises(TranslateUndefinedError):
        coxeter_translate(K2, (1, 0), "tau_inverse")
    with pytest.raises(InputError):
        coxeter_translate(K2, (1, 1), "sideways")


@pytest.mark.parametrize(
    "d", [(2, 3), (3, 4), (4, 5), (1, 1), (2, 2), (3, 3), (2, 1), (3, 2)]
)
def test_translate_roundtrip(d):
    forward = coxeter_translate(K2, d, "tau")
    assert coxeter_translate(K2, forward, "tau_inverse") == d


# ---------------------------------------------------------------------------
# Classification


def test_classify_kronecker():
    assert classify_indecomposable(K2, (3, 4)) == ARNode("P", 1, 1, (3, 4))
    assert classify_indecomposable(K2, (5, 6)) == ARNode("P", 1, 2, (5, 6))
    assert classify_indecomposable(K2, (0, 1)) == ARNode("P", 2, 0, (0, 1))
    assert classify_indecomposable(K2, (1, 0)) == ARNode("I", 1, 0, (1, 0))
    assert classify_indecomposable(K2, (4, 3)) == ARNode("I", 2, 1, (4, 3))
    for k in (1, 2, 3):
        assert classify_indecomposable(K2, (k, k)).component == "R"
    with pytest.raises(InputError):
        classify_indecomposable(K2, (1, 3))


def test_classify_skips_orbits_when_the_tits_form_is_not_one(monkeypatch):
    # translates keep the Tits form and projectives and injectives have
    # form 1, so a vector of another form is settled without a translate
    steps = []
    original = quiver_mod._apply

    def counting(mat, d):
        steps.append(d)
        return original(mat, d)

    monkeypatch.setattr(quiver_mod, "_apply", counting)
    assert classify_indecomposable(kronecker_quiver(300_000), (1, 1)) == ARNode(
        "R", None, None, (1, 1)
    )
    assert steps == []
    with pytest.raises(InputError) as err:
        fork = Quiver(3, ((0, 1, 1), (0, 0, 0), (0, 0, 0)))
        classify_indecomposable(fork, (2, 1, 1))
    assert str(err.value) == (
        "(2, 1, 1) has Tits form 2 > 1, so no indecomposable has this "
        "dimension vector"
    )
    assert steps == []


def test_classify_dynkin():
    assert classify_indecomposable(A2, (1, 1)) == ARNode("P", 1, 0, (1, 1))
    assert classify_indecomposable(A2, (0, 1)) == ARNode("P", 2, 0, (0, 1))
    # On representation-finite quivers the projective side is searched
    # first, so the simple at vertex 1 is reported through its orbit
    # coordinates rather than as an injective.
    assert classify_indecomposable(A2, (1, 0)) == ARNode("P", 2, 1, (1, 0))
    node = classify_indecomposable(A3, (0, 1, 0))
    assert node.component in ("P", "I")
    # an orbit on a Dynkin quiver is walked to its end, however long
    a140 = path_quiver(140)
    simple = tuple(int(v == 69) for v in range(140))
    assert classify_indecomposable(a140, simple) == ARNode("P", 140, 70, simple)


@pytest.mark.parametrize("b", [2, 3, 4, 7])
def test_classify_walks_two_vertex_orbits_to_their_end(b):
    # every node of 150 translate steps comes back to itself, far past
    # the 64 steps that still bound quivers on three or more vertices
    q = kronecker_quiver(b)
    for side in ("P", "I"):
        for node in ar_component(q, side, 150).nodes:
            assert classify_indecomposable(q, node.dim) == node


def test_classify_charges_a_two_vertex_orbit_first(monkeypatch):
    # the smaller coordinate drops by 2 at every step on two arrows, and
    # falls below half on more, so the walk is charged before it starts
    monkeypatch.setattr(lattice, "BUDGET", lattice.Budget(terms=1000))
    with pytest.raises(ResourceLimitError, match="translate orbit of 1001 terms"):
        classify_indecomposable(K2, (1001, 1002))
    assert classify_indecomposable(K2, (1000, 1001)) == ARNode("P", 2, 500, (1000, 1001))
    k3 = kronecker_quiver(3)
    top = ar_component(k3, "P", 150).nodes[-1]
    assert classify_indecomposable(k3, top.dim) == top


def test_classify_rejects_vectors_of_tits_form_above_one():
    # Kac: no root has Tits form > 1, on wild quivers too
    with pytest.raises(InputError, match="Tits form 4 > 1"):
        classify_indecomposable(kronecker_quiver(3), (2, 0))
    assert hall_mod._generic_summands(kronecker_quiver(3), (2, 0)) == (((1, 0), 2),)


# ---------------------------------------------------------------------------
# Hom/Ext dimensions


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


# ---------------------------------------------------------------------------
# Mesh graphs


def _edge_dims(graph):
    return [
        (graph.nodes[s].dim, graph.nodes[t].dim) for s, t in graph.edges
    ]


def test_ar_component_kronecker_projective_side():
    graph = ar_component(K2, "P", 2)
    dims = [node.dim for node in graph.nodes]
    for expected in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]:
        assert expected in dims
    chain = [((0, 1), (1, 2)), ((1, 2), (2, 3)), ((2, 3), (3, 4)), ((3, 4), (4, 5))]
    edge_dims = _edge_dims(graph)
    for pair in chain:
        assert edge_dims.count(pair) == 2


def test_ar_component_kronecker_injective_side():
    graph = ar_component(K2, "I", 1)
    dims = [node.dim for node in graph.nodes]
    for expected in [(1, 0), (2, 1), (3, 2), (4, 3)]:
        assert expected in dims
    edge_dims = _edge_dims(graph)
    for pair in [((2, 1), (1, 0)), ((3, 2), (2, 1)), ((4, 3), (3, 2))]:
        assert edge_dims.count(pair) == 2


def test_ar_component_a2_is_three_node_chain():
    graph = ar_component(A2, "P", 5)
    dims = sorted(node.dim for node in graph.nodes)
    assert dims == [(0, 1), (1, 0), (1, 1)]
    assert sorted(_edge_dims(graph)) == [((0, 1), (1, 1)), ((1, 1), (1, 0))]


def test_ar_component_bound_zero_is_projectives_with_quiver_arrows():
    graph = ar_component(A3, "P", 0)
    dims = sorted(node.dim for node in graph.nodes)
    assert dims == [(0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert sorted(_edge_dims(graph)) == [
        ((0, 0, 1), (0, 1, 1)),
        ((0, 1, 1), (1, 1, 1)),
    ]


def test_ar_component_edges_stop_at_the_last_slice():
    # The projective orbits of A3 end within 3 steps; a bound near the term
    # ceiling must cost no more than the slices that exist.
    t0 = time.perf_counter()
    graph = ar_component(A3, "P", 666_665)
    assert time.perf_counter() - t0 < 0.1
    assert graph == ar_component(A3, "P", 3)


def test_quiver_builders_read_no_term_ceiling(monkeypatch):
    # The command line charges a named quiver's size; building a quiver in
    # the library, or testing its shape during classification, does not.
    monkeypatch.setattr(lattice, "BUDGET", lattice.Budget(terms=0))
    assert kronecker_quiver(3).arrows == ((1, 2),) * 3
    assert path_quiver(4).arrows == ((1, 2), (2, 3), (3, 4))
    assert indecomposable_rep(A3, (0, 1, 1)).dims == (0, 1, 1)
    wild = Quiver(3, ((0, 2, 0), (0, 0, 1), (0, 0, 0)))
    with pytest.raises(UnsupportedInputError):
        indecomposable_rep(wild, (1, 1, 1))


def test_kronecker_quiver_is_its_arrow_counts():
    # K_b costs the same for every b: the structural maps read the 2x2
    # matrix of arrow counts and never walk the b arrows
    b = 10**12
    t0 = time.perf_counter()
    q = kronecker_quiver(b)
    assert quiver_to_skew(q) == ((0, b), (-b, 0))
    assert euler_form(q, (1, 1), (1, 1)) == 2 - b
    assert g_map(q, (1, 1)) == (1 - b, 1)
    assert projective_dims(q) == ((1, b), (0, 1))
    assert classify_indecomposable(q, (1, 1)) == ARNode("R", None, None, (1, 1))
    assert time.perf_counter() - t0 < 0.1
    # a quiver built from its counts is the quiver a builder makes, so the
    # lru caches keyed on quivers share their entries
    for built, counts in (
        (K2, ((0, 2), (0, 0))),
        (A3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    ):
        q = Quiver(built.n_vertices, counts)
        assert q == built and hash(q) == hash(built)
        want = euler_matrix(built)
        hits = euler_matrix.cache_info().hits
        assert euler_matrix(q) is want
        assert euler_matrix.cache_info().hits == hits + 1


def test_ar_component_is_acyclic():
    graph = ar_component(K2, "P", 3)
    adjacency: dict[int, set[int]] = {}
    for s, t in graph.edges:
        adjacency.setdefault(s, set()).add(t)
    state: dict[int, int] = {}

    def visit(v: int) -> None:
        state[v] = 1
        for nxt in adjacency.get(v, ()):
            assert state.get(nxt, 0) != 1, "cycle in mesh graph"
            if state.get(nxt, 0) == 0:
                visit(nxt)
        state[v] = 2

    for v in range(len(graph.nodes)):
        if state.get(v, 0) == 0:
            visit(v)


def test_is_predecessor():
    p_one = classify_indecomposable(K2, (0, 1))
    p_two = classify_indecomposable(K2, (2, 3))
    regular = classify_indecomposable(K2, (2, 2))
    inj = classify_indecomposable(K2, (1, 0))
    assert is_predecessor(K2, p_one, p_two)
    assert not is_predecessor(K2, p_two, p_one)
    assert not is_predecessor(K2, p_one, p_one)
    assert is_predecessor(K2, regular, inj)
    assert is_predecessor(K2, p_one, regular)
    assert not is_predecessor(K2, inj, p_one)
    with pytest.raises(UnsupportedInputError):
        is_predecessor(K2, regular, regular)


def test_ar_to_dot():
    text = ar_component(A2, "P", 5).to_dot()
    assert text.startswith("digraph")
    assert "->" in text


# ---------------------------------------------------------------------------
# Explicit representations


def test_kronecker_indecomposable_matrices():
    rep = indecomposable_rep(K2, (1, 2))
    assert rep.maps[0] == ((1,), (0,))
    assert rep.maps[1] == ((0,), (1,))
    rep = indecomposable_rep(K2, (2, 1))
    assert rep.maps[0] == ((1, 0),)
    assert rep.maps[1] == ((0, 1),)
    rep = indecomposable_rep(K2, (2, 2))
    assert rep.maps[0] == ((1, 0), (0, 1))
    assert rep.maps[1] == ((0, 1), (0, 0))
    with pytest.raises(InputError):
        indecomposable_rep(K2, (1, 3))


@pytest.mark.parametrize(
    "q, d, walk",
    [
        (K2, (2, 3), [(1, 0, 0), (0, -1, 0), (1, 1, 1), (0, -1, 0), (1, 1, 1)]),
        (K2, (3, 2), [(0, 0, 0), (1, 1, 0), (0, -1, 1), (1, 1, 0), (0, -1, 1)]),
        (K2, (2, 2), [(0, 0, 0), (1, 1, 0), (0, -1, 1), (1, 1, 0)]),
        (path_quiver(4), (0, 1, 1, 1), [(1, 0, 0), (2, 1, 1), (3, 1, 2)]),
    ],
    ids=["K2-2-3", "K2-3-2", "K2-2-2", "a4-interval"],
)
def test_string_walks_are_pinned(q, d, walk):
    # the walks the coefficient quivers of the earlier matrix models gave
    assert quiver_mod._string(q, d) == walk


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_square_model_matches_the_eigenvalue_one_block(k):
    # (I, J_k(1)) and the model (I, J_k(0)) have the same
    # subrepresentations, since (A, B) -> (A, B - A) preserves them
    ident = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    jordan = tuple(tuple(int(j in (i, i + 1)) for j in range(k)) for i in range(k))
    block = ExplicitRep(K2, 0, (k, k), (ident, jordan))
    for e in product(range(k + 1), repeat=2):
        coeffs = grassmannian_counting_polynomial(K2, (k, k), e)
        for p in (2, 3):
            count = subrep_count(rep_mod_p(block, p), e)
            assert sum(c * p**i for i, c in enumerate(coeffs)) == count, (e, p)


def _leading_minors_positive(q: Quiver) -> bool:
    n = q.n_vertices
    sym = [[2 * int(i == j) - q.counts[i][j] - q.counts[j][i] for j in range(n)]
           for i in range(n)]

    def det(rows: list[list[int]]) -> int:
        if not rows:
            return 1
        return sum((-1) ** j * x * det([r[:j] + r[j + 1:] for r in rows[1:]])
                   for j, x in enumerate(rows[0]) if x)

    return all(det([row[:k] for row in sym[:k]]) > 0 for k in range(1, n + 1))


def test_tits_positive_definite_matches_leading_minors():
    quivers = [kronecker_quiver(b) for b in range(1, 7)]
    for n, most in ((3, 2), (4, 1)):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for counts in product(range(most + 1), repeat=len(pairs)):
            rows = [[0] * n for _ in range(n)]
            for (i, j), m in zip(pairs, counts):
                rows[i][j] = m
            quivers.append(Quiver(n, rows))
    quivers += [path_quiver(n) for n in range(1, 9)]
    for q in quivers:
        assert quiver_mod.tits_positive_definite(q) == _leading_minors_positive(q), q


def test_quiver_skew_roundtrip():
    assert quiver_to_skew(K2) == ((0, 2), (-2, 0))
    assert quiver_to_skew(A3) == ((0, 1, 0), (-1, 0, 1), (0, -1, 0))


# ---------------------------------------------------------------------------
# Counting


def test_gaussian_binomial_against_census():
    from clusterscatter.quiver import _subspace_bases

    for (d, k, p) in [(4, 2, 2), (3, 1, 3), (4, 1, 2), (3, 2, 2)]:
        census = sum(1 for _ in _subspace_bases(p, d, k))
        assert census == gaussian_binomial_int(d, k, p)
    assert gaussian_binomial_int(4, 2, 2) == 35
    assert gaussian_binomial_int(3, 5, 2) == 0


def test_subrep_count_trivial_cases():
    rep = rep_mod_p(indecomposable_rep(K2, (2, 3)), 3)
    assert subrep_count(rep, (0, 0)) == 1
    assert subrep_count(rep, (2, 3)) == 1
    assert subrep_count(rep, (3, 1)) == 0


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("e", [(1, 1), (1, 2), (0, 2), (2, 2)])
def test_subrep_count_matches_naive_kronecker(p, e):
    rep = rep_mod_p(indecomposable_rep(K2, (2, 3)), p)
    assert subrep_count(rep, e) == naive_subrep_count(rep, e)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("e", [(0, 1, 1), (1, 1, 0), (0, 0, 1), (1, 1, 1)])
def test_subrep_count_matches_naive_path(p, e):
    rep = rep_mod_p(indecomposable_rep(A3, (1, 1, 1)), p)
    assert subrep_count(rep, e) == naive_subrep_count(rep, e)


@pytest.mark.parametrize("p", [2, 5])
@pytest.mark.parametrize("e", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_two_vertex_fast_path_matches_general(p, e):
    # the oracle's rank histogram against the package's vertex-by-vertex count
    rep = rep_mod_p(indecomposable_rep(K2, (2, 3)), p)
    assert fp_oracle.subrep_count(rep, e) == subrep_count(rep, e)


def test_counting_polynomial_fits_across_primes():
    # Counts over at least four primes must fit one polynomial for every
    # subdimension of every indecomposable up to (3, 4).
    for d in [(1, 2), (2, 3), (3, 4), (1, 1), (2, 2), (2, 1)]:
        for e in product(range(d[0] + 1), range(d[1] + 1)):
            coeffs = grassmannian_counting_polynomial(K2, d, e)
            rep = indecomposable_rep(K2, d)
            for p in (2, 3, 5, 7):
                predicted = sum(c * p**i for i, c in enumerate(coeffs))
                assert predicted == subrep_count(rep_mod_p(rep, p), e)


def test_grassmannian_euler_char_small():
    assert grassmannian_euler_char(K2, (1, 1), (0, 1)) == 1
    assert grassmannian_euler_char(K2, (1, 1), (1, 0)) == 0
    assert grassmannian_euler_char(K2, (5, 6), (0, 0)) == 1
    assert grassmannian_euler_char(A3, (1, 1, 1), (0, 1, 1)) == 1


def test_grassmannian_euler_char_large_oracle():
    # Degree-6 counting polynomial 1 + 2q + 4q^2 + 4q^3 + 4q^4 + 2q^5 + q^6;
    # value 18 at q = 1.
    coeffs = grassmannian_counting_polynomial(K2, (5, 6), (2, 4))
    assert coeffs == (1, 2, 4, 4, 4, 2, 1)
    assert grassmannian_euler_char(K2, (5, 6), (2, 4)) == 18


KRONECKER_DIMS = [
    (d1, d2)
    for d1 in range(10)
    for d2 in range(10)
    if abs(d1 - d2) <= 1 and 0 < d1 + d2 <= 9
]


@pytest.mark.parametrize("d", KRONECKER_DIMS)
def test_fixed_point_chi_matches_counting_polynomial_kronecker(d):
    # Cells of the torus-fixed points against points over F_p, regular
    # (k, k) included: every subdimension vector of every indecomposable
    # up to total dimension 9.
    for e in product(range(d[0] + 1), range(d[1] + 1)):
        want = fp_oracle.grassmannian_counting_polynomial(K2, d, e)
        assert grassmannian_counting_polynomial(K2, d, e) == want, e
        assert grassmannian_euler_char(K2, d, e) == sum(want), e


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fixed_point_chi_matches_counting_polynomial_intervals(n):
    quiver = path_quiver(n)
    for lo in range(n):
        for hi in range(lo, n):
            d = tuple(int(lo <= i <= hi) for i in range(n))
            for e in product(*(range(x + 1) for x in d)):
                want = fp_oracle.grassmannian_counting_polynomial(quiver, d, e)
                got = grassmannian_counting_polynomial(quiver, d, e)
                assert got == want, (d, e)
                assert grassmannian_euler_char(quiver, d, e) == sum(want), (d, e)


def zigzag_chi(n: int, e1: int, e2: int) -> int:
    """Successor-closed sets of the (n, n+1) Kronecker string in closed
    form: e1 sources in k runs force e1 + k of the n + 1 sinks, and any of
    the other sinks may be added."""
    if e1 == 0:
        return comb(n + 1, e2)
    return sum(
        comb(e1 - 1, k - 1) * comb(n - e1 + 1, k) * comb(n + 1 - e1 - k, e2 - e1 - k)
        for k in range(1, e1 + 1)
        if e2 >= e1 + k
    )


@pytest.mark.parametrize("n", [5, 13, 20])
def test_fixed_point_chi_matches_zigzag_closed_form(n):
    # Reaches dimension vectors far beyond the F_p subspace ceiling.
    for e in product(range(n + 1), range(n + 2)):
        assert grassmannian_euler_char(K2, (n, n + 1), e) == zigzag_chi(n, *e), e


@pytest.mark.parametrize("n", [20, 30])
def test_cluster_character_matches_zigzag_closed_form(n):
    # Every coefficient comes from the one fixed-point table of (n, n + 1).
    d = (n, n + 1)
    cc = caldero_chapoton(K2, d)
    shift = tuple(-x for x in g_map(K2, d)) + (0, 0)
    eps = quiver_to_skew(K2)
    for e in product(range(n + 1), range(n + 2)):
        expo = vec_add(shift, tilde_p_star(eps, e + (0, 0)))
        assert cc.coefficient(expo) == zigzag_chi(n, *e), e


@pytest.mark.parametrize(
    "n, e, degree, chi", [(16, (3, 6), 39, 3640), (24, (4, 7), 62, 19950)]
)
def test_counting_polynomial_beyond_the_finite_field_oracle(n, e, degree, chi):
    # (n, n + 1) is rigid, so Gr_e is smooth and irreducible: its polynomial
    # is palindromic of degree <e, d - e> and sums to the number of fixed points
    d = (n, n + 1)
    coeffs = grassmannian_counting_polynomial(K2, d, e)
    assert len(coeffs) - 1 == euler_form(K2, e, vec_sub(d, e)) == degree
    assert coeffs == coeffs[::-1] and coeffs[0] == 1
    assert sum(coeffs) == zigzag_chi(n, *e) == chi


def _string_cases():
    """Walks of every shape :func:`quiver._string` builds, up to a size."""
    for n in range(9):
        yield K2, (n, n + 1)
        yield K2, (n + 1, n)
    for k in range(1, 5):
        yield K2, (k, k)
    for m in range(2, 6):
        for lo in range(m):
            for hi in range(lo, m):
                yield path_quiver(m), tuple(int(lo <= i <= hi) for i in range(m))


def test_cell_dimensions_match_the_elimination_oracle():
    # graph maps of positive degree against Hom(U, M/U) solved over Q, at
    # every fixed point of every e of every walk above
    cases = fixed_points = 0
    for q, d in _string_cases():
        walk = quiver_mod._string(q, d)
        for e in product(*(range(x + 1) for x in d)):
            completions = quiver_mod._completions(walk, e)
            masks = list(quiver_mod._fixed_points(walk, e, completions))
            want = list(cell_oracle.cell_dimensions(q, walk, masks))
            assert list(quiver_mod._cell_dimensions(walk, masks)) == want, (d, e)
            cases, fixed_points = cases + 1, fixed_points + len(masks)
    assert (cases, fixed_points) == (910, 13718)


@pytest.mark.parametrize(
    "d, e", [((200, 201), (0, 1)), ((201, 200), (0, 1)), ((200, 201), (1, 2))]
)
def test_cell_dimensions_on_a_long_string_match_the_oracle(d, e):
    # U of one or three nodes: M/U is two to four long runs, new at every
    # fixed point, whose image substrings mostly match no factor of U
    walk = quiver_mod._string(K2, d)
    masks = list(quiver_mod._fixed_points(walk, e, quiver_mod._completions(walk, e)))
    want = list(cell_oracle.cell_dimensions(K2, walk, masks))
    assert list(quiver_mod._cell_dimensions(walk, masks)) == want


def test_string_words_are_keyed_by_start_vertex_and_length():
    # the walk property the graph-map count keys on: the word of an interval
    # (its entries, the first node's edge left out) is fixed by its start
    # vertex and length, and no word longer than one node is a reversed word
    for q, d in _string_cases():
        walk = quiver_mod._string(q, d)
        words: dict[tuple[int, int], tuple] = {}
        reversed_words = set()
        for i in range(len(walk)):
            for j in range(i, len(walk)):
                word = ((walk[i][0], 0, 0),) + tuple(walk[i + 1 : j + 1])
                assert words.setdefault((walk[i][0], j - i), word) == word, (d, i, j)
                if j > i:
                    back = range(j, i, -1)
                    reversed_words.add(((walk[j][0], 0, 0),) + tuple(
                        (walk[k - 1][0], -walk[k][1], walk[k][2]) for k in back
                    ))
        assert not reversed_words & set(words.values()), d


def test_fixed_point_table_is_cached_and_read_only():
    table = quiver_mod._fixed_point_euler_chars(K2, (5, 6))
    assert quiver_mod._fixed_point_euler_chars(K2, (5, 6)) is table
    assert table[(2, 4)] == 18
    with pytest.raises(TypeError):
        table[(2, 4)] = 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: coxeter_translate(K2, (1, 2, 3)),
        lambda: coxeter_translate(K2, (-2, 3)),
        lambda: coxeter_translate(K2, (0, 0), "tau_inverse"),
        lambda: caldero_chapoton(K2, ()),
        lambda: caldero_chapoton(K2, (1, 2, 3)),
        lambda: grassmannian_euler_char(K2, (1, 2, 3), (0, 0, 0)),
    ],
    ids=["tau-length", "tau-negative", "tau-inverse-zero", "cc-empty",
         "cc-length", "grass-length"],
)
def test_dimension_vectors_checked_at_the_boundary(call):
    with pytest.raises(InputError):
        call()


def test_counting_polynomial_checks_limit_before_counting(monkeypatch):
    # D = (6, 5), e = (3, 4) enumerates the 1395 subspaces of dimension 3
    # of F_2^6; a ceiling of 1000 must stop the count before any of them.
    calls = []
    original = quiver_mod._subspaces_containing

    def enumerating(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quiver_mod, "_subspaces_containing", enumerating)
    monkeypatch.setattr(lattice, "BUDGET", lattice.Budget(subspaces=1000))
    rep = rep_mod_p(indecomposable_rep(K2, (6, 5)), 2)
    with pytest.raises(ResourceLimitError, match="1395 subspaces over F_2"):
        subrep_count(rep, (3, 4))
    assert calls == []


def test_counting_polynomial_checks_limit_before_enumerating(monkeypatch):
    # chi(Gr_(0,7)) of (14, 15) is 6435 fixed points, over a ceiling of 1000
    calls = []
    original = quiver_mod._fixed_points

    def enumerating(walk, e, completions):
        calls.append(e)
        return original(walk, e, completions)

    monkeypatch.setattr(quiver_mod, "_fixed_points", enumerating)
    monkeypatch.setattr(lattice, "BUDGET", lattice.Budget(subspaces=1000))
    with pytest.raises(ResourceLimitError, match="6435 torus-fixed points"):
        grassmannian_counting_polynomial(K2, (14, 15), (0, 7))
    assert calls == []


def test_square_counting_polynomial_matches_small_fields():
    # (5, 5) is regular, so Bialynicki-Birula does not cover its singular
    # fixed points: the cells are checked against counts over F_2 and F_3.
    model = indecomposable_rep(K2, (5, 5))
    for e in product(range(6), repeat=2):
        coeffs = grassmannian_counting_polynomial(K2, (5, 5), e)
        for p in (2, 3):
            count = subrep_count(rep_mod_p(model, p), e)
            assert sum(c * p**k for k, c in enumerate(coeffs)) == count, (e, p)


def test_caldero_chapoton_regular_one_one():
    got = caldero_chapoton(K2, (1, 1))
    assert got == LaurentPoly(
        {(1, -1, 0, 0): 1, (-1, -1, 0, 1): 1, (-1, 1, 1, 1): 1}
    )


def test_caldero_chapoton_zero_and_positivity():
    assert caldero_chapoton(K2, (0, 0)) == LaurentPoly.one(4)
    for d in [(1, 2), (2, 3), (1, 1), (2, 2)]:
        poly = caldero_chapoton(K2, d)
        assert all(c > 0 for c in poly.terms.values())


def test_caldero_chapoton_matches_cluster_variable():
    # Dual route: the cluster character of the one-arrow projective (1, 1)
    # must equal the cluster variable produced by the exchange dynamics
    # after mutating at 1 then 2.
    got = caldero_chapoton(A2, (1, 1))
    want = cluster_variable(initial_seed(rank2_exchange(1)), (1, 2), 2)
    assert got == want


@pytest.mark.parametrize("b", [3, 4])
def test_caldero_chapoton_of_wild_simples(b):
    # No explicit model exists for b >= 3, but a simple is one node on
    # any quiver; its cluster character is the variable of one mutation.
    seed = initial_seed(rank2_exchange(b))
    for k, d in ((1, (1, 0)), (2, (0, 1))):
        got = caldero_chapoton(kronecker_quiver(b), d)
        assert got == cluster_variable(seed, (k,), k)
