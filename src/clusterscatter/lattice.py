"""Exact lattice and Laurent-polynomial arithmetic, and power series in
one monomial.

Conventions used throughout the package:

* Lattice vectors are plain tuples of Python ints (or ``Fraction`` for
  geometric points); no floats appear anywhere in the core.
* A rank-``n`` base lattice carries a skew-symmetric integer matrix
  ``eps`` with ``eps[i][j]`` the pairing of basis vectors ``i`` and ``j``.
* The principally extended lattice has rank ``2n``; its skew matrix is
  the block matrix ``[[eps, I], [-I, 0]]``, so the pairing of the two
  summands is the standard duality pairing.
* Monomial exponents live in the dual lattice and are stored as tuples:
  for the extended lattice, length ``2n`` with the ``A``-exponents first
  and the ``X``-exponents second, i.e.
  ``z^e = A1^e[0] .. An^e[n-1] * X1^e[n] .. Xn^e[2n-1]``.
* The series degree of an exponent is the sum of its ``X``-part.  Every
  wall function is a power series in one monomial ``t = z^step`` of
  positive series degree and is stored as its integer coefficients in
  ``t``; crossing corrections only ever add series degree, so
  truncation by this degree is well defined.
* Canonical text form: terms are sorted by ascending lexicographic order
  on the exponent tuple, and every monomial is printed as
  ``coeff * A1^a1 * ... * Xn^bn`` with unit coefficients and zero
  exponents suppressed.  The output is deterministic byte-for-byte.
"""

from __future__ import annotations

import os
from typing import Mapping, NamedTuple, Sequence

from .errors import InputError, ResourceLimitError

Vec = tuple[int, ...]
Matrix = tuple[Vec, ...]


class Budget(NamedTuple):
    """The resource ceilings: ``terms`` bounds polynomial products, wall
    crossings, series and the sizes the command line builds, ``subspaces``
    what a counting polynomial enumerates (subspaces over a prime field,
    torus-fixed points).  Pure-Python counting over F_2 takes about 150 us
    per subspace."""

    terms: int = 2_000_000
    subspaces: int = 20_000


#: The budget in force; the command line sets it for each job.
BUDGET = Budget()

_VARIABLES = {"terms": "CLUSTERSCATTER_MAX_TERMS",
              "subspaces": "CLUSTERSCATTER_SUBSPACE_LIMIT"}


def budget_from_env() -> Budget:
    """The budget the environment sets: each variable an integer >= 0, its
    field's default when unset or empty."""
    limits = []
    for kind, name in _VARIABLES.items():
        raw = os.environ.get(name, "")
        if raw and not raw.isdecimal():
            raise InputError(f"{name}={raw!r} is not an integer >= 0")
        limits.append(int(raw) if raw else Budget._field_defaults[kind])
    return Budget(*limits)


def charge(kind: str, what: str, count: int) -> None:
    """Raise :class:`ResourceLimitError` when ``count`` (of ``what``)
    exceeds the ``kind`` field of ``BUDGET``."""
    limit = getattr(BUDGET, kind)
    if count <= limit:
        return
    if kind == "terms":
        raise ResourceLimitError(
            f"{what} of {count} terms exceeds the term ceiling {limit} "
            f"({_VARIABLES[kind]})"
        )
    raise ResourceLimitError(
        f"{count} {what} exceed the configured enumeration limit {limit} "
        f"({_VARIABLES[kind]})"
    )


# ---------------------------------------------------------------------------
# small integer-vector helpers


def vec_add(a: Sequence[int], b: Sequence[int]) -> Vec:
    """Componentwise sum of two equal-length vectors."""
    if len(a) != len(b):
        raise InputError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence[int], b: Sequence[int]) -> Vec:
    """Componentwise difference ``a - b``."""
    if len(a) != len(b):
        raise InputError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: int, a: Sequence[int]) -> Vec:
    """Scalar multiple ``c * a``."""
    return tuple(c * x for x in a)


def vec_dot(a: Sequence[int], b: Sequence[int]) -> int:
    """Standard dot product."""
    if len(a) != len(b):
        raise InputError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def vec_str(v: Sequence) -> str:
    """A vector or point as messages and the command line print it: ``(0,1)``."""
    return "(" + ",".join(str(x) for x in v) + ")"


def vec_is_zero(a: Sequence[int]) -> bool:
    return all(x == 0 for x in a)


def vec_gcd(a: Sequence[int]) -> int:
    """Nonnegative gcd of the entries (0 for the zero vector)."""
    from math import gcd

    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def primitive(a: Sequence[int]) -> Vec:
    """The primitive vector on the ray through ``a`` (``a`` must be nonzero)."""
    g = vec_gcd(a)
    if g == 0:
        raise InputError("zero vector has no primitive representative")
    return tuple(x // g for x in a)


def mat_transpose(m: Sequence[Sequence[int]]) -> Matrix:
    return tuple(zip(*[tuple(row) for row in m])) if m else ()


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    bt = list(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# skew forms and the principal extension


def check_skew(eps: Sequence[Sequence[int]]) -> Matrix:
    """Validate and freeze a skew-symmetric integer matrix."""
    mat = tuple(tuple(int(x) for x in row) for row in eps)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise InputError("skew matrix must be square")
    for i in range(n):
        for j in range(n):
            if mat[i][j] != -mat[j][i]:
                raise InputError(f"matrix not skew-symmetric at ({i},{j})")
    return mat


def principal_extension(eps: Sequence[Sequence[int]]) -> Matrix:
    """The rank-``2n`` skew matrix ``[[eps, I], [-I, 0]]``.

    Rows/columns ``0..n-1`` index the base lattice, ``n..2n-1`` index the
    adjoined dual copy.  The pairing of base vector ``i`` with dual
    vector ``j`` is ``+delta_ij``.
    """
    mat = check_skew(eps)
    n = len(mat)
    top = tuple(mat[i] + tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    bot = tuple(
        tuple(-1 if j == i else 0 for j in range(n)) + (0,) * n for i in range(n)
    )
    return top + bot


def p_star(eps: Sequence[Sequence[int]], nvec: Sequence[int]) -> Vec:
    """The dual-lattice vector pairing as ``{nvec, .}``: the row vector
    ``nvec^T * eps``."""
    n = len(eps)
    if len(nvec) != n:
        raise InputError("vector length does not match form rank")
    return tuple(sum(nvec[i] * eps[i][j] for i in range(n)) for j in range(n))


def tilde_p_star(eps: Sequence[Sequence[int]], v: Sequence[int]) -> Vec:
    """``p_star`` of the principal extension, on a rank-``2n`` vector.

    For a base vector ``(n, 0)`` this returns ``(p_star(n), n)``, the
    exponent of the monomial attached to walls with normal ``n``.
    """
    return p_star(principal_extension(eps), v)


def dual_pair(mvec: Sequence[int], nvec: Sequence[int]) -> int:
    """Evaluation of a dual-lattice vector on a lattice vector.

    Both arguments have the same length (either ``n`` or ``2n``); for the
    extended lattice the pairing is the sum of the two standard pairings.
    """
    return vec_dot(mvec, nvec)


def x_degree(exponent: Sequence[int], n: int) -> int:
    """Series degree of an exponent: the sum of its ``X``-part
    (coordinates ``n..2n-1``)."""
    if len(exponent) != 2 * n:
        raise InputError(f"exponent length {len(exponent)} is not 2*{n}")
    return sum(exponent[n:])


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """An integer Laurent polynomial in finitely many variables.

    Represented as a mapping from exponent tuples to nonzero integer
    coefficients.  All exponent tuples in one polynomial have the same
    length (its *width*); the zero polynomial has no terms and any width.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Vec, int] | None = None):
        self.terms: dict[Vec, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = self.terms.get(tuple(e), 0) + c
            self.terms = {e: c for e, c in self.terms.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, exponent: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        p = cls()
        if coeff:
            p.terms[tuple(int(x) for x in exponent)] = int(coeff)
        return p

    @classmethod
    def one(cls, width: int) -> "LaurentPoly":
        return cls.monomial((0,) * width, 1)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    # -- basic queries -----------------------------------------------------

    def width(self) -> int | None:
        for e in self.terms:
            return len(e)
        return None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list[tuple[Vec, int]]:
        """Terms in ascending lexicographic exponent order (canonical)."""
        return sorted(self.terms.items())

    def coefficient(self, exponent: Sequence[int]) -> int:
        return self.terms.get(tuple(exponent), 0)

    # -- arithmetic --------------------------------------------------------

    def _check_width(self, other: "LaurentPoly") -> None:
        w1, w2 = self.width(), other.width()
        if w1 is not None and w2 is not None and w1 != w2:
            raise InputError(f"width mismatch: {w1} vs {w2}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_width(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def scale(self, c: int) -> "LaurentPoly":
        return LaurentPoly({e: c * v for e, v in self.terms.items()})

    def shift(self, exponent: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial ``z^exponent``."""
        e0 = tuple(exponent)
        return LaurentPoly({vec_add(e, e0): c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_width(other)
        out: dict[Vec, int] = {}
        limit = BUDGET.terms
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = vec_add(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
            if len(out) > limit:
                charge("terms", "a polynomial product", len(out))
        return LaurentPoly(out)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise InputError("negative powers need exact division or a series")
        w = self.width() or 0
        result = LaurentPoly.one(w)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division by another Laurent polynomial.

        Uses lexicographic leading-term elimination; raises
        :class:`InputError` if the division is not exact.
        """
        if divisor.is_zero():
            raise InputError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        self._check_width(divisor)
        width = self.width() or 0
        # For an exact division the quotient's Newton polytope is the
        # Minkowski difference of the operands', so every quotient
        # exponent lies in the componentwise box below.  A committed
        # exponent outside it proves the division inexact, and the box is
        # finite so the loop terminates.
        box_min = tuple(
            min(e[i] for e in self.terms) - min(e[i] for e in divisor.terms)
            for i in range(width)
        )
        box_max = tuple(
            max(e[i] for e in self.terms) - max(e[i] for e in divisor.terms)
            for i in range(width)
        )
        lead_d = max(divisor.terms)
        cd = divisor.terms[lead_d]
        remainder = dict(self.terms)
        quotient: dict[Vec, int] = {}
        while remainder:
            lead_r = max(remainder)
            cr = remainder[lead_r]
            if cr % cd != 0:
                raise InputError("division not exact (coefficient)")
            q_exp = vec_sub(lead_r, lead_d)
            if any(
                not box_min[i] <= q_exp[i] <= box_max[i] for i in range(width)
            ):
                raise InputError("division not exact (exponent outside quotient box)")
            q_coeff = cr // cd
            quotient[q_exp] = q_coeff
            charge("terms", "a quotient", len(quotient))
            for e, c in divisor.terms.items():
                e2 = vec_add(q_exp, e)
                nv = remainder.get(e2, 0) - q_coeff * c
                if nv:
                    remainder[e2] = nv
                else:
                    remainder.pop(e2, None)
        return LaurentPoly(quotient)

    # -- evaluation --------------------------------------------------------

    def evaluate_int(self, values: Sequence[int]) -> int:
        """Evaluate at integer variable values (all exponents must be
        nonnegative where the value is 0)."""
        total = 0
        for e, c in self.terms.items():
            term = c
            for x, v in zip(e, values):
                if x < 0:
                    if v in (1, -1):
                        term *= v ** (-x)
                    else:
                        raise InputError("negative exponent at non-unit value")
                else:
                    term *= v**x
            total += term
        return total

    # -- printing ----------------------------------------------------------

    def __repr__(self) -> str:
        w = self.width()
        names = default_names(w) if w is not None else []
        return f"LaurentPoly({poly_str(self, names)})"


def default_names(width: int) -> list[str]:
    """Variable names for a given exponent width: ``A1..An, X1..Xn`` for
    a positive even width 2n, and ``A1..Aw`` for any other width w.  Pass
    explicit names for other layouts (e.g. ``X``-only polynomials)."""
    if width % 2 == 0 and width > 0:
        n = width // 2
        return [f"A{i+1}" for i in range(n)] + [f"X{i+1}" for i in range(n)]
    return [f"A{i+1}" for i in range(width)]


def monomial_str(exponent: Sequence[int], coeff: int, names: Sequence[str]) -> str:
    """Canonical text form of a single monomial."""
    if len(exponent) != len(names):
        raise InputError("exponent width does not match variable names")
    factors = []
    for x, name in zip(exponent, names):
        if x == 0:
            continue
        factors.append(name if x == 1 else f"{name}^{x}")
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def poly_str(poly: LaurentPoly, names: Sequence[str]) -> str:
    """Canonical text form: terms ascending lexicographically, joined
    with explicit signs."""
    return terms_str(poly.sorted_terms(), names)


def terms_str(terms: Sequence[tuple[Vec, int]], names: Sequence[str]) -> str:
    """``(exponent, coefficient)`` pairs in the given order, joined with
    explicit signs; no terms give ``0``."""
    if not terms:
        return "0"
    parts: list[str] = []
    for e, c in terms:
        if not parts:
            parts.append(monomial_str(e, c, names))
        else:
            parts.append(("+ " if c > 0 else "- ") + monomial_str(e, abs(c), names))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# truncated series in one monomial


class GradedSeries:
    """A power series in one monomial ``t = z^step``, truncated at a
    series degree.

    ``step`` is an exponent of width ``2n`` with ``X``-degree at least 1;
    for a wall function it is the doubled monomial ``p~*(normal, 0)`` of
    the wall's primitive normal.  ``order`` is the truncation degree, and
    ``coeffs[k]`` is the coefficient of ``t^k`` for every ``k`` with
    ``k * deg(step) <= order``.  Powers are cached on the series, so every
    caller that raises one wall function to one power shares the work.
    """

    __slots__ = ("step", "order", "coeffs", "_powers")

    def __init__(self, step: Sequence[int], order: int, coeffs: Sequence[int]):
        if order < 0:
            raise InputError("truncation order must be nonnegative")
        self.step = tuple(int(x) for x in step)
        n = len(self.step) // 2
        if len(self.step) % 2 or x_degree(self.step, n) < 1:
            raise InputError(
                f"series step {self.step} must have X-degree at least 1"
            )
        self.order = order
        size = order // x_degree(self.step, n) + 1
        charge("terms", "a series", size)
        head = tuple(int(c) for c in coeffs[:size])
        self.coeffs = head + (0,) * (size - len(head))
        self._powers: dict[int, GradedSeries] = {}

    @property
    def poly(self) -> LaurentPoly:
        """The series as a Laurent polynomial in the full exponents."""
        return LaurentPoly(
            {vec_scale(k, self.step): c for k, c in enumerate(self.coeffs) if c}
        )

    def constant_term(self) -> int:
        return self.coeffs[0]

    def coefficient(self, k: int) -> int:
        """The coefficient of ``t^k`` (0 beyond the truncation)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (self.step, self.order, self.coeffs) == (
            other.step,
            other.order,
            other.coeffs,
        )

    def __hash__(self) -> int:
        return hash((self.step, self.order, self.coeffs))

    def _same_shape(self, coeffs: list[int]) -> "GradedSeries":
        """The series of this step and order with the given coefficients,
        one per power of ``t``: already integers, and of a size already
        charged, so the checks of ``__init__`` are skipped."""
        out = object.__new__(GradedSeries)
        out.step, out.order, out.coeffs = self.step, self.order, tuple(coeffs)
        out._powers = {}
        return out

    def __mul__(self, other: "GradedSeries") -> "GradedSeries":
        if self.step != other.step or self.order != other.order:
            raise InputError("series step/order mismatch")
        a, b = self.coeffs, other.coeffs
        return self._same_shape(
            [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]
        )

    def __pow__(self, p: int) -> "GradedSeries":
        """``self ** p`` for any integer ``p``; requires constant term 1.

        For ``g = f^p`` with ``f_0 = 1``, comparing coefficients in
        ``f g' = p f' g`` gives
        ``k g_k = sum_{i=1..k} ((p+1) i - k) f_i g_{k-i}``, exact over the
        integers.  The sum runs over the nonzero ``f_i`` only, so a
        binomial such as ``1 + t`` costs one term per coefficient.
        """
        power = self._powers.get(p)
        if power is None:
            f = self.coeffs
            if f[0] != 1:
                raise InputError("series powers require constant term 1")
            g = [1]
            nonzero = []
            for k in range(1, len(f)):
                if f[k]:
                    nonzero.append(k)
                total = sum(
                    ((p + 1) * i - k) * f[i] * g[k - i] for i in nonzero
                )
                g.append(total // k)
            power = self._powers[p] = self._same_shape(g)
        return power

    def truncate(self, order: int) -> "GradedSeries":
        if order > self.order:
            raise InputError("cannot extend a truncated series")
        if order == self.order:
            return self
        return GradedSeries(self.step, order, self.coeffs)

    def __repr__(self) -> str:
        names = default_names(len(self.step))
        return f"GradedSeries(order={self.order}, {poly_str(self.poly, names)})"
