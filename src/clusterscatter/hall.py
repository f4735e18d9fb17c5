"""Wall-crossing strata of broken lines, and the quiver side of theta
functions.

Each broken line contributing to a theta function refines, bend by bend,
into a filtration and a polynomial in ``q``: a stratum of the
subrepresentation Grassmannian of the quiver representation whose
negated weight covector is the line's initial exponent.  This module
implements the polynomial layer of that refinement:

* Gaussian binomials and the point count of a general linear group over
  a ``q``-element field, as one-variable integer Laurent polynomials in
  ``q`` (exponent tuples ``(k,)``);
* one quantum bend rule (the quantum broken lines of Davison and
  Mandel, arXiv:1910.12915).  A bend that keeps the ``t^j`` term of
  ``func^k``, where ``k = |<E_m, n>|`` pairs the incoming exponent with
  the wall normal ``n``, contributes a polynomial in ``v``, with
  ``q = v^2``, read off the wall's function alone:

  - on a wall ``1 + t``: ``v^(-j(k-j)) [k choose j]_q``
  - on the two-arrow quiver's central wall ``(1 - t)^(-2)``, at
    ``k = 1``: ``v^(-j(2k-1)) [2k+j-1 choose j]_q``

  Any other wall function, or the central wall at ``k >= 2``, is
  refused.  No Hom or Ext data enters, so a wall with a regular normal
  is handled like a wall with a rigid one;
* the strata of a whole broken line: the filtration of its bends'
  ``(normal, power)`` and ``v^<e, d-e>`` times the product of its bend
  polynomials, a polynomial in ``q`` whose value at ``q = 1`` is the
  line's coefficient.  Summed over the lines to one final exponent, the
  polynomials are compared with the counting polynomial of the
  Grassmannian (Rupel's quantum cluster characters, arXiv:1003.2652);
  ``strata`` prints that comparison;
* the Grassmannian-sum evaluation of a theta function (the integrated
  wall-crossing identity): once its endpoint and cluster-complex checks
  pass (decided for representation-finite and two-vertex quivers only),
  it is the cluster character, whose Euler characteristics come from
  one walk along the string module; and
* exact stability values ``Z(f) = (g(d) - p*(e)).f + i (endpoint.f)``
  on the steps of a filtration, with a flag saying whether their phases
  strictly decrease.  The flag is reported, not assured: it reads false
  on some lines, and nothing here certifies a Harder-Narasimhan
  filtration.

Everything is exact: polynomials have integer coefficients, phases are
compared by rational cross products, and ``q = 1`` values are plain
polynomial evaluations, never limits of rational functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple, Sequence

from .brokenlines import BrokenLine
from .errors import InputError, UnsupportedInputError
from .lattice import (
    GradedSeries,
    LaurentPoly,
    Vec,
    dual_pair,
    p_star,
    terms_str,
    vec_dot,
    vec_scale,
    vec_str,
    vec_sub,
)
from .quiver import (
    Quiver,
    caldero_chapoton,
    dim_vector,
    euler_form,
    g_map,
    quiver_to_skew,
    tits_positive_definite,
)

__all__ = [
    "Filtration",
    "StabilityValue",
    "HNPhases",
    "qbinom",
    "gl_poincare",
    "q_power",
    "q_str",
    "bend_polynomial",
    "broken_line_strata",
    "positive_endpoint",
    "hall_theta_chi",
    "hn_phases",
]


# ---------------------------------------------------------------------------
# Polynomials in q: one-variable Laurent polynomials with exponents ``(k,)``


def q_power(k: int) -> LaurentPoly:
    """The monomial ``q^k``."""
    return LaurentPoly.monomial((k,))


def q_str(poly: LaurentPoly) -> str:
    """A polynomial in ``q`` with exponents descending: ``q^2 + 2*q - 1``."""
    return terms_str(sorted(poly.terms.items(), reverse=True), ("q",))


@lru_cache(maxsize=None)
def qbinom(a: int, b: int) -> LaurentPoly:
    """Gaussian binomial coefficient as a genuine polynomial in ``q``.

    Counts ``b``-dimensional subspaces of an ``a``-dimensional space over
    a ``q``-element field; zero outside ``0 <= b <= a``.  At ``q = 1``
    it evaluates to the ordinary binomial coefficient.
    """
    a = int(a)
    b = int(b)
    if b < 0 or b > a:
        return LaurentPoly.zero()
    if b == 0 or b == a:
        return q_power(0)
    return qbinom(a - 1, b - 1) + q_power(b) * qbinom(a - 1, b)


def gl_poincare(d: int) -> LaurentPoly:
    """Point count of the rank-``d`` general linear group as a polynomial:
    ``q^(d(d-1)/2) * prod_{k=1}^{d} (q^k - 1)``.

    At any prime power ``q = p`` this is the order of ``GL_d(F_p)``.
    """
    d = int(d)
    if d < 0:
        raise InputError("general linear rank must be nonnegative")
    result = q_power(d * (d - 1) // 2)
    for k in range(1, d + 1):
        result = result * (q_power(k) - q_power(0))
    return result


# ---------------------------------------------------------------------------
# Filtrations


class Filtration(NamedTuple("Filtration", [
    ("steps", tuple[tuple[Vec, int], ...]),
])):
    """Chain of subrepresentations with semisimple-like subquotients.

    ``steps`` is a sequence of ``(c_j, lambda_j)`` meaning the ``j``-th
    subquotient is the ``lambda_j``-fold sum of an indecomposable with
    dimension vector ``c_j``.  The total dimension vector of the chain
    is the weighted sum of the steps.
    """

    __slots__ = ()

    def __new__(cls, steps: Sequence) -> "Filtration":
        clean = []
        for entry in steps:
            try:
                c, lam = entry
            except (TypeError, ValueError):
                raise InputError("each filtration step must be a (vector, multiplicity) pair")
            c, lam = tuple(int(x) for x in c), int(lam)
            if clean and len(c) != len(clean[0][0]):
                raise InputError("filtration steps have mismatched vector lengths")
            if lam < 1:
                raise InputError("step multiplicities must be positive")
            if any(x < 0 for x in c) or all(x == 0 for x in c):
                raise InputError("step vectors must be nonzero and nonnegative")
            clean.append((c, lam))
        return super().__new__(cls, tuple(clean))

    def dimension(self) -> Vec:
        """Weighted sum of the step vectors (empty chain gives ``()``)."""
        return tuple(map(sum, zip(*(vec_scale(lam, c) for c, lam in self.steps))))


# ---------------------------------------------------------------------------
# Quantum bend coefficients


def _in_v(poly: LaurentPoly, shift: int) -> LaurentPoly:
    """``v^shift`` times a polynomial in ``q``, written in ``v`` with
    ``q = v^2``."""
    return LaurentPoly({(2 * k + shift,): c for (k,), c in poly.terms.items()})


def bend_polynomial(func: GradedSeries, k: int, j: int) -> LaurentPoly:
    """Quantum coefficient, a polynomial in ``v`` with ``q = v^2``, of a
    bend that keeps the ``t^j`` term of ``func^k``; ``k`` is the pairing
    ``|<E_m, n>|`` of the incoming exponent with the wall normal ``n``.

    The wall is named by its function, read off the coefficients it
    keeps below its truncation:

    * ``1 + t``: ``v^(-j(k-j)) [k choose j]_q``
    * ``(1 - t)^(-2)``, the central wall of the two-arrow quiver, at
      ``k = 1``: ``v^(-j(2k-1)) [2k+j-1 choose j]_q``

    At ``v = 1`` each is the ``t^j`` coefficient of ``func^k``.  Any
    other function, or the central wall at ``k >= 2``, is refused.
    """
    coeffs = func.coeffs
    size = len(coeffs)
    if coeffs == (1, 1, *(0,) * size)[:size]:
        return _in_v(qbinom(k, j), -j * (k - j))
    if k == 1 and coeffs == tuple(range(1, size + 1)):
        return _in_v(qbinom(2 * k + j - 1, j), -j * (2 * k - 1))
    normal = func.step[len(func.step) // 2:]
    raise UnsupportedInputError(
        f"no quantum bend rule for the wall with normal {vec_str(normal)} "
        f"at pairing k = {k}: only walls 1 + t, and the wall (1 - t)^(-2) "
        "at k = 1, have one"
    )


def broken_line_strata(
    bl: BrokenLine, q: Quiver, d: Sequence[int]
) -> tuple[Filtration, LaurentPoly]:
    """Filtration and ``q``-polynomial of one broken line.

    The line's initial exponent must be the negated weight covector of
    ``d`` (zero-padded into the doubled lattice).  The filtration has one
    step per bend, in order along the line: the wall normal, with the
    bend power as multiplicity.  The polynomial is ``v^<e, d-e>`` times
    the product of the bends' :func:`bend_polynomial`, where ``e`` is the
    last ``n`` coordinates of the final exponent and ``<, >`` the Euler
    form; it must have even powers of ``v`` only, and is returned in
    ``q``.  At ``q = 1`` it is the line's coefficient.  A bend-free line
    ends at ``e = 0`` and gives the empty chain and 1.
    """
    d = dim_vector(q, d, "ambient dimension vector")
    n = q.n_vertices
    expected = tuple(-x for x in g_map(q, d)) + (0,) * n
    if tuple(bl.initial_exponent) != expected:
        raise InputError(
            f"broken line starts at exponent {tuple(bl.initial_exponent)}, "
            f"not at the negated weight covector {expected} of {d}"
        )
    e = bl.final_exponent[n:]
    total = LaurentPoly.monomial((euler_form(q, e, vec_sub(d, e)),))
    for prev, seg in zip(bl.segments, bl.segments[1:]):
        k = abs(dual_pair(prev.exponent[:n], seg.bend_wall.normal))
        total = total * bend_polynomial(seg.bend_wall.func, k, seg.bend_power)
    if any(x % 2 for (x,) in total.terms):
        raise UnsupportedInputError(
            f"the broken line to {vec_str(bl.final_exponent)} has odd powers "
            "of v, so no polynomial in q"
        )
    filt = Filtration((wall.normal, power) for wall, power in bl.bends())
    return filt, LaurentPoly({(x // 2,): c for (x,), c in total.terms.items()})


# ---------------------------------------------------------------------------
# Theta functions through the integrated wall-crossing identity


def _require_cluster_complex(q: Quiver, d: Vec) -> None:
    """Certify that the negated weight covector of ``d`` lies in the
    closure of the cluster complex; otherwise raise.

    Representation-finite quivers have a complete fan, so everything is
    accepted.  In rank two the complement of the closure is exactly the
    open cone of dimension vectors with negative Tits form, an exact
    sign test; on the boundary only the primitive isotropic vector is
    kept (its generic representation is still indecomposable, and the
    Grassmannian sum still equals the theta function there — for proper
    multiples it provably does not).  Any other quiver is rejected.
    """
    if tits_positive_definite(q):
        return
    if q.n_vertices != 2:
        raise UnsupportedInputError(
            "the cluster complex is decided only for representation-finite "
            "quivers and quivers on two vertices"
        )
    tits = euler_form(q, d, d)
    if tits < 0:
        raise UnsupportedInputError(
            f"the direction opposite the weight covector of {d} lies "
            "outside the cluster complex (negative Tits form)"
        )
    if tits == 0 and gcd(*d) > 1:
        raise UnsupportedInputError(
            f"{d} is an imprimitive isotropic vector; its theta "
            "function is not a Grassmannian sum"
        )


def positive_endpoint(endpoint: Sequence, n: int) -> tuple[Fraction, ...]:
    """The endpoint as exact rationals, checked to have length ``n`` and
    to lie in the open positive chamber: every coordinate positive."""
    pt = tuple(Fraction(x) for x in endpoint)
    if len(pt) != n:
        raise InputError(f"endpoint must have length {n}, got {len(pt)}")
    if any(x <= 0 for x in pt):
        raise InputError(f"endpoint {vec_str(pt)} lies outside the positive chamber")
    return pt


def hall_theta_chi(
    q: Quiver, d: Sequence[int], endpoint: Sequence
) -> LaurentPoly:
    """Theta function of the negated weight covector of ``d``, evaluated
    through the integrated wall-crossing identity.

    The value is the Grassmannian sum: over every subdimension vector
    ``e`` of ``d``, the Euler characteristic of the subrepresentation
    Grassmannian times the doubled-lattice monomial shifted by the
    negated weight covector.  That is the cluster character of ``d``, so
    after checking the endpoint and the cluster complex this delegates
    to :func:`~clusterscatter.quiver.caldero_chapoton`, which reads
    every Euler characteristic off one walk along the string module.
    Measured at any endpoint in the positive chamber, it also equals the
    broken-line theta function.  The endpoint is validated but the sum
    does not depend on it.
    """
    d = dim_vector(q, d, "dimension vector")
    n = q.n_vertices
    positive_endpoint(endpoint, n)
    if all(x == 0 for x in d):
        return LaurentPoly.one(2 * n)
    _require_cluster_complex(q, d)
    return caldero_chapoton(q, d)


# ---------------------------------------------------------------------------
# Stability phases


class StabilityValue(NamedTuple("StabilityValue", [
    ("re", Fraction),
    ("im", Fraction),
])):
    """Exact stability value in the open upper half plane."""

    __slots__ = ()

    def __new__(cls, re, im) -> "StabilityValue":
        re, im = Fraction(re), Fraction(im)
        if im <= 0:
            raise InputError(
                f"stability value {re} + {im}i must lie in the "
                "open upper half plane (zero objects carry no phase)"
            )
        return super().__new__(cls, re, im)

    def phase_cross(self, other: "StabilityValue") -> Fraction:
        """Cross product; negative exactly when ``other`` has the
        strictly smaller phase (both live in the upper half plane)."""
        return self.re * other.im - self.im * other.re

    def __str__(self) -> str:
        return f"{self.re} + {self.im}i"


class HNPhases(NamedTuple):
    """Stability values of a chain's subquotients plus the phase test."""

    values: tuple[StabilityValue, ...]
    decreasing: bool


def hn_phases(
    filt: Filtration,
    endpoint: Sequence,
    q: Quiver,
    d: Sequence[int],
    e: Sequence[int],
) -> HNPhases:
    """Stability values of a filtration's steps, and whether their phases
    strictly decrease.

    Each step with dimension vector ``f`` receives the value
    ``Z(f) = (g(d) - p*(e)) . f  +  i (endpoint . f)`` — exact real and
    imaginary parts.  ``e`` must be the chain's total dimension vector.
    ``decreasing`` holds when consecutive phases strictly decrease,
    compared via rational cross products (no floating point, no
    arctangents).  It is reported, not assured: a broken line's chain can
    fail it, and a chain that passes it is not thereby certified as a
    Harder-Narasimhan filtration.
    """
    if q.n_vertices != 2:
        raise UnsupportedInputError(
            "stability phases are implemented for rank-2 quivers only"
        )
    d = dim_vector(q, d, "ambient dimension vector")
    e = dim_vector(q, e, "subrepresentation dimension vector")
    if any(x > dx for x, dx in zip(e, d)):
        raise InputError(f"need e <= d componentwise, got e={e}, d={d}")
    if not isinstance(filt, Filtration):
        raise InputError("hn_phases needs a Filtration")
    pt = positive_endpoint(endpoint, 2)
    if filt.steps and filt.dimension() != e:
        raise InputError(
            f"filtration resolves {filt.dimension()}, not the requested {e}"
        )
    eps = quiver_to_skew(q)
    slope_covector = vec_sub(g_map(q, d), p_star(eps, e))
    values = []
    for c, lam in filt.steps:
        f = vec_scale(lam, c)
        re = Fraction(vec_dot(slope_covector, f))
        im = pt[0] * f[0] + pt[1] * f[1]
        values.append(StabilityValue(re, im))
    decreasing = all(
        a.phase_cross(b) < 0 for a, b in zip(values, values[1:])
    )
    return HNPhases(tuple(values), decreasing)
