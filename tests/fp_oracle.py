"""Finite-field oracle for counting polynomials.

An independent route to the counting polynomial of a quiver Grassmannian:
count subrepresentations over prime fields (on the two-arrow quiver by a
numpy-batched rank histogram over every source subspace, of the module
or of its dual, whichever has fewer) and fit the palindromic polynomial
whose degree is the expected dimension.  The
package computes the polynomial from torus-fixed points instead; tests
compare the two.  The numpy histogram has no subspace ceiling, but its
fallback to ``quiver.subrep_count`` is charged against ``lattice.BUDGET``
like any library call: tests choose inputs the oracle can count.
:func:`brute_gl_order` is the brute force for |GL_d(F_p)|: it counts the
invertible matrices by their determinants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from clusterscatter import quiver
from clusterscatter.errors import InputError, InterpolationError
from clusterscatter.lattice import vec_sub
from clusterscatter.quiver import (
    ExplicitRep,
    Quiver,
    euler_form,
    gaussian_binomial_int,
    indecomposable_rep,
    rep_mod_p,
)

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)

_NUMPY_CHUNK = 1 << 17


def _batch_rank_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a batch of small integer matrices over ``F_p``."""
    m = (mats % p).astype(np.int64)
    count, rows, cols = m.shape
    inv_table = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    lead = np.zeros(count, dtype=np.int64)
    row_idx = np.arange(rows)
    for col in range(cols):
        candidates = (m[:, :, col] != 0) & (row_idx[None, :] >= lead[:, None])
        has = candidates.any(axis=1)
        if not has.any():
            continue
        idx = np.nonzero(has)[0]
        piv = np.argmax(candidates[idx], axis=1)
        l = lead[idx]
        swap_a = m[idx, l, :].copy()
        m[idx, l, :] = m[idx, piv, :]
        m[idx, piv, :] = swap_a
        m[idx, l, :] = (m[idx, l, :] * inv_table[m[idx, l, col]][:, None]) % p
        below = row_idx[None, :] > l[:, None]
        factors = m[idx, :, col] * below
        m[idx] = (m[idx] - factors[:, :, None] * m[idx, l, None, :]) % p
        lead[idx] += 1
        if (lead >= rows).all():
            break
    return lead


def _two_vertex_rank_histogram(rep: ExplicitRep, e1: int) -> dict[int, int]:
    """For each source subspace of dimension ``e1``, the rank of the span
    of its arrow images at the sink; returns rank -> multiplicity."""
    p = rep.field
    d1, d2 = rep.dims
    total_cells = gaussian_binomial_int(d1, e1, p)
    if e1 == 0:
        return {0: 1}
    if d2 == 0 or not rep.maps:
        return {0: total_cells}
    mats = [np.array(mat, dtype=np.int64) % p for mat in rep.maps]
    hist: dict[int, int] = {}
    for pivots in combinations(range(d1), e1):
        free = [
            (r, c)
            for r in range(e1)
            for c in range(pivots[r] + 1, d1)
            if c not in pivots
        ]
        n_free = len(free)
        cell_count = p ** n_free
        weights = p ** np.arange(n_free, dtype=np.int64)
        for start in range(0, cell_count, _NUMPY_CHUNK):
            stop = min(start + _NUMPY_CHUNK, cell_count)
            idx = np.arange(start, stop, dtype=np.int64)
            if n_free:
                digits = (idx[:, None] // weights[None, :]) % p
            else:
                digits = np.zeros((len(idx), 0), dtype=np.int64)
            basis = np.zeros((len(idx), e1, d1), dtype=np.int64)
            for r, col in enumerate(pivots):
                basis[:, r, col] = 1
            for slot, (r, c) in enumerate(free):
                basis[:, r, c] = digits[:, slot]
            images = np.concatenate(
                [basis @ mat.T for mat in mats], axis=1
            )
            ranks = _batch_rank_mod_p(images, p)
            values, counts = np.unique(ranks, return_counts=True)
            for value, cnt in zip(values.tolist(), counts.tolist()):
                hist[value] = hist.get(value, 0) + cnt
    return hist


@lru_cache(maxsize=None)
def _cached_rank_histogram(rep: ExplicitRep, e1: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(_two_vertex_rank_histogram(rep, e1).items()))


def subrep_count(rep: ExplicitRep, e: Sequence[int]) -> int:
    """Number of subrepresentations with dimension vector ``e``: by the
    rank histogram on the two-arrow quiver, else by the package's count."""
    q = rep.quiver
    e = tuple(int(x) for x in e)
    if any(x < 0 or x > dx for x, dx in zip(e, rep.dims)):
        return 0
    if q.n_vertices == 2:  # counts are upper triangular: every arrow is 1 -> 2
        p = rep.field
        d1, d2 = rep.dims
        if gaussian_binomial_int(d2, e[1], p) < gaussian_binomial_int(d1, e[0], p):
            # Gr_e(M) is Gr_(d2 - e2, d1 - e1) of the dual, whose maps are the
            # transposes: count on the side with fewer source subspaces
            maps = tuple(
                tuple(tuple(row[j] for row in mat) for j in range(d1))
                for mat in rep.maps
            )
            rep, e = ExplicitRep(q, p, (d2, d1), maps), (d2 - e[1], d1 - e[0])
        hist = dict(_cached_rank_histogram(rep, e[0]))
        return sum(
            mult * gaussian_binomial_int(rep.dims[1] - rank, e[1] - rank, p)
            for rank, mult in hist.items()
        )
    return quiver.subrep_count(rep, e)


def _solve_fraction_system(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction]:
    n = len(rows)
    mat = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            raise InterpolationError("singular interpolation system")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = Fraction(1, 1) / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[i][n] for i in range(n)]


def grassmannian_counting_polynomial(
    q: Quiver, d: Sequence[int], e: Sequence[int]
) -> tuple[int, ...]:
    """Coefficients (low degree first) of the subrepresentation count.

    Counts points over enough primes to pin down a palindromic polynomial
    whose degree is the expected Grassmannian dimension, then checks the
    fit at one further prime.  Inconsistent counts raise
    ``InterpolationError`` ("polynomial-count violated").
    """
    d = tuple(int(x) for x in d)
    e = tuple(int(x) for x in e)
    if len(e) != len(d) or any(x < 0 or x > dx for x, dx in zip(e, d)):
        raise InputError("need 0 <= e <= d componentwise")
    model = indecomposable_rep(q, d)
    deg = max(0, euler_form(q, e, vec_sub(d, e)))
    unknowns = deg // 2 + 1
    primes = _PRIMES[: unknowns + 1]
    counts = [subrep_count(rep_mod_p(model, p), e) for p in primes]
    basis_exponents = [
        (i,) if 2 * i == deg else (i, deg - i) for i in range(unknowns)
    ]
    rows = [
        [
            Fraction(sum(p ** exp for exp in exps))
            for exps in basis_exponents
        ]
        for p in primes[:unknowns]
    ]
    rhs = [Fraction(c) for c in counts[:unknowns]]
    solution = _solve_fraction_system(rows, rhs)
    coeffs = [Fraction(0)] * (deg + 1)
    for value, exps in zip(solution, basis_exponents):
        for exp in exps:
            coeffs[exp] = value
    for coeff in coeffs:
        if coeff.denominator != 1 or coeff < 0:
            raise InterpolationError(
                f"polynomial-count violated: non-integral or negative "
                f"coefficient {coeff} for d={d}, e={e}"
            )
    for p, count in zip(primes[unknowns:], counts[unknowns:]):
        predicted = sum(int(c) * p ** i for i, c in enumerate(coeffs))
        if predicted != count:
            raise InterpolationError(
                f"polynomial-count violated: fit predicts {predicted} points "
                f"over F_{p} but counted {count} for d={d}, e={e}"
            )
    return tuple(int(c) for c in coeffs)


def brute_gl_order(d: int, p: int) -> int:
    """Count invertible d x d matrices over F_p by exhaustive determinant."""
    if d == 0:
        return 1
    n = p ** (d * d)
    idx = np.arange(n, dtype=np.int64)
    digits = []
    for _ in range(d * d):
        digits.append((idx % p).astype(np.int32))
        idx //= p
    m = np.stack(digits, axis=1).reshape(n, d, d)
    if d == 1:
        det = m[:, 0, 0]
    elif d == 2:
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    else:
        det = (
            m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
            - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
            + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
        )
    return int(np.count_nonzero(det % p))
