"""Seeds with principal coefficients, mutation, and g/c-vector duality.

A seed of rank ``n`` stores:

* ``eps_ext`` -- the ``2n x 2n`` skew matrix of the principally extended
  exchange pairing.  Initially this is ``[[eps, I], [-I, 0]]``; only the
  first ``n`` indices are mutable, frozen indices never mutate.
* ``variables`` -- the ``n`` mutable cluster variables as integer Laurent
  polynomials in the ``2n`` variables ``A1..An, X1..Xn`` (the frozen
  variables are always the coordinate monomials ``X1..Xn``).
* ``word`` -- the 1-based mutation word applied so far.

Sign conventions: the exchange relation at index ``k`` reads row ``k`` of
``eps_ext``, multiplying the variables with positive entries in one term
and those with negative entries in the other.  The c-vectors of a seed
are the rows of the top-right ``n x n`` block of the mutated ``eps_ext``
(the block pairing mutable rows with frozen columns); the c-matrix is
that block transposed, so it starts out as the identity.  Columns of the
g-matrix (one g-vector per variable) are then inverse-transpose to the
c-matrix, which :func:`check_tropical_duality` verifies.  Tropical
mutation at ``k`` (:func:`mutate_tropical`), with ``s`` the sign of
c-vector ``k``, sets ``g'_k = -g_k + sum_j max(s * eps_ext[j][k], 0) g_j``
and keeps the other g-vectors, the dual basis to the new c-vectors; the
chamber search uses it instead of cluster variables.

Some communities write the exchange matrix transposed ("b-matrix"
convention); transpose such data before passing it to
:func:`initial_seed`.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

from .errors import InputError
from .lattice import (
    LaurentPoly,
    Matrix,
    Vec,
    check_skew,
    identity_matrix,
    mat_mul,
    mat_transpose,
    principal_extension,
)


def mutate_matrix(mat: Sequence[Sequence[int]], k: int, n_mutable: int | None = None) -> Matrix:
    """Mutate a skew matrix at 1-based index ``k``.

    Entries with ``i == k`` or ``j == k`` flip sign; every other entry
    ``(i, j)`` gains ``(|m[i][k]| m[k][j] + m[i][k] |m[k][j]|) / 2``,
    i.e. ``+m[i][k] m[k][j]`` when both path factors through ``k`` are
    positive, ``-m[i][k] m[k][j]`` when both are negative, and zero
    otherwise.  This is the unique bump orientation for which c-vector
    rows stay sign-coherent, tropical duality holds, and every exchange
    division is exact; it matches the classical recursion on the
    transposed ("b-matrix") convention.  The update is an involution and
    preserves skew-symmetry, so only ``mat`` is checked.  ``n_mutable``
    (default: full size) bounds the allowed ``k``.
    """
    return _mutate_skew(check_skew(mat), k, n_mutable)


def _mutate_skew(mat: Matrix, k: int, n_mutable: int | None = None) -> Matrix:
    """:func:`mutate_matrix` of a matrix already known to be skew: a
    checked one, or the result of mutating one."""
    if n_mutable is None:
        n_mutable = len(mat)
    if not 1 <= k <= n_mutable:
        raise InputError(f"mutation index {k} out of range 1..{n_mutable}")
    ki = k - 1
    pivot = mat[ki]
    out = []
    for i, row in enumerate(mat):
        a = row[ki]
        if i == ki:
            row = tuple([-x for x in row])
        elif a:  # a row that is zero at k is left as it is
            new = [x + (abs(a) * b + a * abs(b)) // 2 for x, b in zip(row, pivot)]
            new[ki] = -a  # the pivot row is zero at k: only the sign flips
            row = tuple(new)
        out.append(row)
    return tuple(out)


def mutate_tropical(
    mat: Matrix, gens: tuple[Vec, ...], k: int
) -> tuple[Matrix, tuple[Vec, ...]]:
    """Mutate an extended matrix and its g-vectors at 1-based ``k``.  The
    matrix is a checked skew one (a seed's, checked where the search
    starts) or a mutation of one, so it is not checked again."""
    n, ki = len(gens), k - 1
    out = _mutate_skew(mat, k, n)
    sign = 1 if any(x > 0 for x in mat[ki][n:]) else -1
    weights = [max(sign * row[ki], 0) for row in mat[:n]]
    g = tuple(sum(w * x for w, x in zip(weights, col)) - col[ki] for col in zip(*gens))
    return out, gens[:ki] + (g,) + gens[ki + 1:]


class Seed(NamedTuple("Seed", [
    ("rank", int),
    ("eps_ext", Matrix),
    ("variables", tuple[LaurentPoly, ...]),
    ("word", tuple[int, ...]),
])):
    """A labeled seed with principal coefficients (see module docstring)."""

    __slots__ = ()

    def __new__(
        cls,
        rank: int,
        eps_ext: Matrix,
        variables: tuple[LaurentPoly, ...],
        word: tuple[int, ...] = (),
    ) -> "Seed":
        if len(eps_ext) != 2 * rank:
            raise InputError("extended matrix must have size 2n")
        if len(variables) != rank:
            raise InputError("seed must carry n mutable variables")
        return super().__new__(cls, rank, eps_ext, variables, word)

    # -- tropical data -----------------------------------------------------

    def c_vectors(self) -> tuple[Vec, ...]:
        """Rows of the top-right block of ``eps_ext`` (one per mutable index)."""
        n = self.rank
        return tuple(tuple(self.eps_ext[i][n + j] for j in range(n)) for i in range(n))

    def c_matrix(self) -> Matrix:
        """The c-vectors arranged as matrix columns (initially identity)."""
        return mat_transpose(self.c_vectors())

    def g_matrix(self) -> Matrix:
        """Matrix whose columns are the g-vectors of the variables."""
        cols = [g_vector(v, self.rank) for v in self.variables]
        return mat_transpose(cols)

    def is_sign_coherent(self) -> bool:
        """Each c-vector has all entries >= 0 or all entries <= 0."""
        for c in self.c_vectors():
            if any(x > 0 for x in c) and any(x < 0 for x in c):
                return False
        return True

    def exchange_block(self) -> Matrix:
        """The mutable ``n x n`` top-left block of ``eps_ext``."""
        n = self.rank
        return tuple(tuple(self.eps_ext[i][j] for j in range(n)) for i in range(n))


def initial_seed(eps: Sequence[Sequence[int]]) -> Seed:
    """The seed with variables ``A1..An`` and extended matrix
    ``[[eps, I], [-I, 0]]``."""
    mat = check_skew(eps)
    n = len(mat)
    variables = tuple(
        LaurentPoly.monomial(tuple(1 if j == i else 0 for j in range(2 * n)))
        for i in range(n)
    )
    return Seed(rank=n, eps_ext=principal_extension(mat), variables=variables)


def rank2_exchange(b: int) -> Matrix:
    """The rank-2 skew matrix ``[[0, b], [-b, 0]]`` of ``b >= 1`` arrows."""
    if b < 1:
        raise InputError("need at least one arrow")
    return ((0, b), (-b, 0))


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Mutate a seed at 1-based mutable index ``k``.

    The new variable is ``(M+ + M-) / A_k`` where ``M+`` multiplies the
    variables with positive entry in row ``k`` of ``eps_ext`` and ``M-``
    those with negative entry; the division is exact and verified.
    """
    n = seed.rank
    if not 1 <= k <= n:
        raise InputError(f"mutation index {k} out of range 1..{n}")
    ki = k - 1
    row = seed.eps_ext[ki]

    def side_product(sign: int) -> LaurentPoly:
        prod = LaurentPoly.one(2 * n)
        frozen_exp = [0] * (2 * n)
        for j in range(2 * n):
            if j == ki:
                continue
            e = row[j] * sign
            if e <= 0:
                continue
            if j < n:
                prod = prod * (seed.variables[j] ** e)
            else:
                frozen_exp[j] += e
        return prod.shift(tuple(frozen_exp))

    numerator = side_product(+1) + side_product(-1)
    new_var = numerator.exact_div(seed.variables[ki])
    new_vars = tuple(
        new_var if j == ki else seed.variables[j] for j in range(n)
    )
    return Seed(
        rank=n,
        eps_ext=mutate_matrix(seed.eps_ext, k, n_mutable=n),
        variables=new_vars,
        word=seed.word + (k,),
    )


def apply_word(seed: Seed, word: Sequence[int]) -> Seed:
    """Apply a mutation word (left to right)."""
    for k in word:
        seed = mutate_seed(seed, k)
    return seed


def cluster_variable(seed: Seed, word: Sequence[int], index: int) -> LaurentPoly:
    """The variable at 1-based ``index`` after applying ``word``."""
    s = apply_word(seed, word)
    if not 1 <= index <= s.rank:
        raise InputError(f"variable index {index} out of range 1..{s.rank}")
    return s.variables[index - 1]


def g_vector(variable: LaurentPoly, n: int) -> Vec:
    """Exponent of the unique term with trivial ``X``-part.

    Every well-formed cluster variable has exactly one term whose last
    ``n`` exponents are all zero, with coefficient 1; its first ``n``
    exponents are the g-vector.
    """
    hits = [
        (e, c)
        for e, c in variable.terms.items()
        if all(x == 0 for x in e[n:])
    ]
    if len(hits) != 1 or hits[0][1] != 1:
        raise InputError("malformed variable: no unique unit term with trivial X-part")
    return hits[0][0][:n]


def check_tropical_duality(seed: Seed) -> bool:
    """Verify that g-matrix transposed times c-matrix is the identity and
    that every c-vector is sign-coherent."""
    n = seed.rank
    gt = mat_transpose(seed.g_matrix())
    product = mat_mul(gt, seed.c_matrix())
    return product == identity_matrix(n) and seed.is_sign_coherent()


# ---------------------------------------------------------------------------
# JSON interchange


def seed_to_json(seed: Seed) -> dict[str, Any]:
    """Serializable summary of a seed (matrix, word, tropical data)."""
    return {
        "rank": seed.rank,
        "epsilon": [list(r) for r in seed.exchange_block()],
        "frozen": "principal",
        "word": list(seed.word),
        "c_matrix": [list(r) for r in seed.c_matrix()],
        "g_matrix": [list(r) for r in seed.g_matrix()],
    }
