"""Golden values for the benchmark's independent references.

Run with ``python3 -m pytest perfbench`` from the repository root.  These
tests need neither the package nor a build: they pin the references
themselves, so a check that passes in a benchmark run means something.
"""

from __future__ import annotations

import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import _check_cc, _check_strata  # noqa: E402
from oracles import (  # noqa: E402
    _subspace_bases,
    central_ray,
    check_scatter,
    cluster_pairs,
    fp_count,
    kronecker_model,
    parse_qpoly,
    qpoly_at,
    successor_closed_counts,
    transport,
    wall_step,
)

README_STRATA = """\
wall-crossing strata, quiver kronecker2, D = (5,6), e = (2,4), endpoint = (2,1), order 6
broken lines ending at exponent (-1,-2,2,4): 2
line 1: bends (1,2)^2
  filtration: (1,2) x2
  poincare polynomial: q^6 + q^5 + 2*q^4 + 2*q^3 + 2*q^2 + q + 1
  value at q=1: 10
  stability phases: 10 + 8i | decreasing: yes
line 2: bends (2,3)^1, (0,1)^1
  filtration: (2,3) x1, (0,1) x1
  poincare polynomial: q^5 + 2*q^4 + 2*q^3 + 2*q^2 + q
  value at q=1: 8
  stability phases: 8 + 7i, 2 + 1i | decreasing: yes
total over strata: 18
finite-field Euler characteristic: 18
agreement: yes
"""


def test_central_ray_b2_is_inverse_square():
    assert central_ray(2, 8) == [k + 1 for k in range(9)]


def test_central_ray_b3():
    assert central_ray(3, 4) == [1, 3, 15, 91, 612]


def test_cluster_pairs_b3():
    assert cluster_pairs(3, 11) == {(0, 1), (1, 0), (1, 3), (3, 1), (3, 8), (8, 3)}


def _diagram(b: int, order: int) -> list:
    """A correct b=2 diagram built from the closed forms."""
    walls = [((1, 1), central_ray(b, order // 2))]
    k = 0
    while 2 * k + 1 <= order:
        walls += [((k, k + 1), [1, 1]), ((k + 1, k), [1, 1])]
        k += 1
    return [
        (normal, {tuple(j * s for s in wall_step(b, normal)): c for j, c in enumerate(f)})
        for normal, f in walls
    ]


def test_scatter_check_accepts_closed_form_and_rejects_a_changed_coefficient():
    walls = _diagram(2, 8)
    assert check_scatter(2, 8, walls) == []
    normal, function = walls[0]
    step = wall_step(2, normal)
    broken = dict(function)
    broken[tuple(2 * s for s in step)] += 1
    assert check_scatter(2, 8, [(normal, broken)] + walls[1:])
    assert check_scatter(2, 8, walls[:-1])  # a missing ray


def test_grassmannian_18_is_10_plus_8():
    assert successor_closed_counts((5, 6))[(2, 4)] == 18
    assert _check_strata((5, 6), (2, 4), 18, README_STRATA) == []
    values = [qpoly_at(parse_qpoly(p), 1) for p in (
        "q^6 + q^5 + 2*q^4 + 2*q^3 + 2*q^2 + q + 1",
        "q^5 + 2*q^4 + 2*q^3 + 2*q^2 + q",
    )]
    assert values == [10, 8]


def test_strata_check_rejects_a_wrong_total():
    assert _check_strata((5, 6), (2, 4), 18, README_STRATA.replace("value at q=1: 8", "value at q=1: 7"))


def test_parse_qpoly_signs():
    assert parse_qpoly("3*q^2 + q - 1") == {2: 3, 1: 1, 0: -1}
    assert parse_qpoly("-q^3 + 2") == {3: -1, 0: 2}


def _brute_count(d, e, p):
    """Subrepresentations by enumerating subspaces at both vertices."""
    a, b = kronecker_model(d)

    def subspaces(n, k):
        seen = set()
        for vecs in product(product(range(p), repeat=n), repeat=k):
            span = {tuple(0 for _ in range(n))}
            for v in vecs:
                span = {tuple((x + c * y) % p for x, y in zip(s, v)) for s in span for c in range(p)}
            if len(span) == p**k:
                seen.add(frozenset(span))
        return seen

    count = 0
    for u in subspaces(d[0], e[0]):
        images = {
            tuple(sum(m[i][j] * v[j] for j in range(d[0])) % p for i in range(d[1]))
            for m in (a, b)
            for v in u
        }
        count += sum(1 for w in subspaces(d[1], e[1]) if images <= w)
    return count


def test_fp_count_matches_enumeration_at_both_vertices():
    for d, e in (((1, 2), (1, 2)), ((2, 3), (1, 2)), ((2, 1), (1, 1)), ((2, 2), (1, 1))):
        for p in (2, 3):
            assert fp_count(d, e, p) == _brute_count(d, e, p), (d, e, p)


def test_successor_closed_counts_small():
    assert successor_closed_counts((1, 2)) == {(0, 0): 1, (0, 1): 2, (0, 2): 1, (1, 2): 1}
    # regular (3,3) with e = (1,2): chi is 4
    assert successor_closed_counts((3, 3))[(1, 2)] == 4


def test_projective_line_grassmannian():
    # Gr_(1,2) of the (2,3) preprojective is P^1: q + 1 points, chi 2.
    assert [fp_count((2, 3), (1, 2), p) for p in (2, 3)] == [3, 4]
    assert successor_closed_counts((2, 3))[(1, 2)] == 2


def test_transport_round_trip_and_single_crossing():
    wall = {"normal": (1, 0), "kind": "line", "direction": (0, 1), "series": [1, 1]}
    poly = {(1, 0, 0, 0): 1}
    moved = transport(poly, [wall], ("1", "1/2"), ("-1", "1/2"), 1, 4)
    assert moved == {(1, 0, 0, 0): 1, (1, 1, 1, 0): 1}
    assert transport(moved, [wall], ("-1", "1/2"), ("1", "1/2"), 1, 4) == poly


def test_cc_check_uses_counts_and_cluster_variable():
    counts = successor_closed_counts((1, 2))
    base = (3, -2)
    value = {
        (base[0] - 2 * e2, base[1] + 2 * e1, e1, e2): n for (e1, e2), n in counts.items()
    }
    assert _check_cc((1, 2), value, {base: value}) == []
    assert _check_cc((1, 2), value, {})
    wrong = dict(value)
    wrong[(base[0] - 2, base[1], 0, 1)] = 3
    assert _check_cc((1, 2), wrong, {base: wrong})


def test_subspace_enumeration_size():
    # 2-subspaces of F_3^4: the Gaussian binomial [4 choose 2]_3 = 130
    assert sum(1 for _ in _subspace_bases(4, 2, 3)) == 130
