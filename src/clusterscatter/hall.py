"""Wall-crossing stratification algebra for quiver Grassmannians.

Each broken line contributing to a theta function refines, bend by bend,
into a stratum of the subrepresentation Grassmannian of the quiver
representation whose negated weight covector is the line's initial
exponent.  This module implements the polynomial layer of that
refinement:

* Gaussian binomials and the point count of a general linear group over
  a ``q``-element field, as one-variable integer Laurent polynomials in
  ``q`` (exponent tuples ``(k,)``);
* per-bend strata — an affine power of ``q`` times a Gaussian binomial —
  together with the filtration steps they append, for the first bend and
  for every later bend over a wall with rigid indecomposable normal;
* the stratification of a whole broken line, whose product polynomial
  evaluated at ``q = 1`` recovers the line's monomial coefficient;
* the Grassmannian-sum evaluation of a theta function (the integrated
  wall-crossing identity): once its endpoint and cluster-complex checks
  pass (decided for representation-finite and two-vertex quivers only),
  it is the cluster character, whose Euler characteristics come from
  one walk along the string module; and
* exact stability phases attached to the subquotients of a filtration,
  with the strictly-decreasing phase test that every produced filtration
  satisfies.

Everything is exact: polynomials have integer coefficients, phases are
compared by rational cross products, and ``q = 1`` values are plain
polynomial evaluations, never limits of rational functions.

Bends over walls whose normal is a regular (non-rigid) dimension vector
are rejected: no closed stratum formula is available for those, and the
completed diagrams only need them on the central wall, which cluster
chambers never border.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple, Sequence

from .brokenlines import BrokenLine
from .errors import InputError, UnsupportedInputError
from .lattice import (
    LaurentPoly,
    Vec,
    p_star,
    terms_str,
    vec_dot,
    vec_scale,
    vec_sub,
)
from .quiver import (
    Quiver,
    caldero_chapoton,
    classify_indecomposable,
    dim_vector,
    euler_form,
    g_map,
    hom_ext_dims,
    quiver_to_skew,
    tits_positive_definite,
)

__all__ = [
    "Filtration",
    "Stratum",
    "StabilityValue",
    "HNPhases",
    "qbinom",
    "gl_poincare",
    "q_power",
    "q_str",
    "first_bending",
    "next_bending",
    "broken_line_strata",
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
# Filtrations and strata


class Filtration(NamedTuple("Filtration", [
    ("steps", tuple[tuple[Vec, int], ...]),
])):
    """Chain of subrepresentations with semisimple-like subquotients.

    ``steps`` is a sequence of ``(c_j, lambda_j)`` meaning the ``j``-th
    subquotient is the ``lambda_j``-fold sum of the indecomposable with
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


class Stratum(NamedTuple):
    """One bend's contribution to the Grassmannian stratification.

    ``qpoly`` is ``q^affine_exponent`` times the Gaussian binomial with
    parameters ``grass_params = (subspace_dim, ambient_dim)``; its value
    at ``q = 1`` is the binomial coefficient (zero when the Grassmannian
    is empty).
    """

    affine_exponent: int
    grass_params: tuple[int, int]
    qpoly: LaurentPoly

    @classmethod
    def from_params(cls, affine: int, lam: int, ambient: int) -> "Stratum":
        poly = q_power(affine) * qbinom(ambient, lam)
        return cls(int(affine), (int(lam), int(ambient)), poly)


def _rigid_normal(q: Quiver, c: Vec) -> None:
    """Reject walls whose normal is a regular dimension vector."""
    node = classify_indecomposable(q, c)
    if node.component == "R":
        raise UnsupportedInputError(
            f"bending over the wall with regular normal {c} has no stratum "
            "formula; only preprojective and preinjective normals are supported"
        )


def _generic_summands(q: Quiver, rem: Vec) -> tuple[tuple[Vec, int], ...]:
    """Generic (rigid-as-possible) decomposition of a dimension vector on a
    two-vertex quiver, as ``(summand, multiplicity)`` pairs.

    Multiples of a single indecomposable vector stay aggregated (the
    classification and the Euler form are additive on them).  Otherwise
    the vector splits over two adjacent orbit members on its side of the
    regular cone; vectors inside the non-real cone of a wild two-vertex
    quiver admit no such decomposition and are rejected.
    """
    if all(x == 0 for x in rem):
        return ()
    try:
        classify_indecomposable(q, rem)
        return ((rem, 1),)
    except InputError:
        pass
    g = gcd(*(abs(x) for x in rem))
    if g > 1:
        base = tuple(x // g for x in rem)
        try:
            classify_indecomposable(q, base)
            return ((base, g),)
        except InputError:
            pass
    if q.n_vertices != 2:
        raise UnsupportedInputError(
            f"no generic decomposition available for {rem} on this quiver"
        )
    width = q.counts[0][1]
    u, v = rem
    # Walk the translate orbit on the appropriate side and express the
    # vector over two adjacent orbit members.
    if u < v:
        prev, cur = (0, 1), (1, width)
    else:
        prev, cur = (1, 0), (width, 1)
    for _ in range(max(u, v) + 2):
        det = prev[0] * cur[1] - prev[1] * cur[0]
        x = (u * cur[1] - v * cur[0]) // det if det else None
        y = (prev[0] * v - prev[1] * u) // det if det else None
        if (
            det
            and prev[0] * x + cur[0] * y == u
            and prev[1] * x + cur[1] * y == v
            and x >= 0
            and y >= 0
        ):
            parts = []
            if x:
                parts.append((prev, x))
            if y:
                parts.append((cur, y))
            return tuple(parts)
        prev, cur = cur, (
            width * cur[0] - prev[0],
            width * cur[1] - prev[1],
        )
    raise UnsupportedInputError(
        f"{rem} has no rigid generic decomposition on this quiver"
    )


def _generic_hom(q: Quiver, c: Vec, rem: Vec) -> int:
    """Morphism dimension from the indecomposable ``c`` into the generic
    representation of dimension vector ``rem``; additive over the generic
    summands."""
    return sum(
        mult * hom_ext_dims(q, c, part).hom
        for part, mult in _generic_summands(q, rem)
    )


def first_bending(
    q: Quiver, d: Sequence[int], c1: Sequence[int], lam1: int
) -> tuple[Stratum, Filtration]:
    """Stratum and filtration step opened by the first bend of a line.

    The bend chooses a ``lam1``-dimensional subspace of the morphism
    space from the indecomposable with dimension vector ``c1`` into the
    ambient representation of dimension vector ``d``; the stratum is the
    Gaussian binomial of that choice, with no affine factor.  A zero
    multiplicity contributes the trivial stratum and no step.
    """
    d = dim_vector(q, d, "ambient dimension vector")
    c1 = dim_vector(q, c1, "bend normal")
    lam1 = int(lam1)
    if lam1 < 0:
        raise InputError("bend multiplicity must be nonnegative")
    if all(x == 0 for x in c1):
        raise InputError("bend normal must be nonzero")
    _rigid_normal(q, c1)
    hom = hom_ext_dims(q, c1, d).hom
    if hom <= 0:
        raise InputError(
            f"no bending over normal {c1} is possible: the morphism space "
            f"into dimension {d} vanishes"
        )
    if lam1 == 0:
        return Stratum.from_params(0, 0, hom), Filtration(())
    return Stratum.from_params(0, lam1, hom), Filtration(((c1, lam1),))


def next_bending(
    q: Quiver,
    d: Sequence[int],
    filt: Filtration,
    cj: Sequence[int],
    lamj: int,
) -> tuple[Stratum, Filtration]:
    """Stratum appended by a later bend, given the chain built so far.

    Admissibility requires no morphisms from any earlier subquotient to
    the new one (the chain ascends the translate-orbit order).  The
    ambient count ``eta`` is the morphism dimension from the new normal
    into the generic representation of what remains of ``d`` after the
    chain; the affine correction ``gamma`` is the multiplicity-weighted
    extension dimension of the chain against the new normal, computed
    additively.  The stratum is ``q^(lamj * gamma)`` times the Gaussian
    binomial choosing ``lamj`` from ``eta - gamma``; when
    ``eta - gamma < lamj`` the Grassmannian is empty and the stratum
    polynomial is zero.
    """
    d = dim_vector(q, d, "ambient dimension vector")
    cj = dim_vector(q, cj, "bend normal")
    if not isinstance(filt, Filtration):
        raise InputError("next_bending needs the Filtration built by earlier bends")
    lamj = int(lamj)
    if lamj < 0:
        raise InputError("bend multiplicity must be nonnegative")
    if all(x == 0 for x in cj):
        raise InputError("bend normal must be nonzero")
    _rigid_normal(q, cj)
    gamma = 0
    for cl, lam in filt.steps:
        earlier_to_new = hom_ext_dims(q, cl, cj)
        if earlier_to_new.hom != 0:
            raise InputError(
                f"inadmissible bend order: step {cl} admits morphisms to "
                f"the new normal {cj}"
            )
        gamma += lam * earlier_to_new.ext
    used = filt.dimension()
    if used:
        remainder = vec_sub(d, used)
        if any(x < 0 for x in remainder):
            raise InputError(
                f"chain dimension {used} exceeds the ambient dimension {d}"
            )
    else:
        remainder = d
    eta = _generic_hom(q, cj, remainder)
    if lamj == 0:
        return Stratum.from_params(0, 0, eta - gamma), filt
    stratum = Stratum.from_params(lamj * gamma, lamj, eta - gamma)
    return stratum, Filtration(filt.steps + ((cj, lamj),))


def broken_line_strata(
    bl: BrokenLine, q: Quiver, d: Sequence[int]
) -> tuple[Filtration, LaurentPoly]:
    """Filtration and product ``q``-polynomial refining one broken line.

    The line's initial exponent must be the negated weight covector of
    ``d`` (zero-padded into the doubled lattice).  Each bend, taken in
    order along the line, appends a filtration step whose vector is the
    wall normal and whose multiplicity is the bend power; the product of
    the per-bend strata evaluated at ``q = 1`` equals the line's monomial
    coefficient.  Bend-free lines give the empty chain and polynomial 1.
    """
    d = dim_vector(q, d, "ambient dimension vector")
    n = q.n_vertices
    expected = tuple(-x for x in g_map(q, d)) + (0,) * n
    if tuple(bl.initial_exponent) != expected:
        raise InputError(
            f"broken line starts at exponent {tuple(bl.initial_exponent)}, "
            f"not at the negated weight covector {expected} of {d}"
        )
    filt = Filtration(())
    total = q_power(0)
    for index, (wall, power) in enumerate(bl.bends()):
        normal = tuple(wall.normal)
        if len(normal) != n:
            raise InputError(
                f"wall normal {normal} does not live in the rank-{n} lattice"
            )
        if index == 0:
            stratum, filt = first_bending(q, d, normal, power)
        else:
            stratum, filt = next_bending(q, d, filt, normal, power)
        total = total * stratum.qpoly
    return filt, total


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
    pt = tuple(Fraction(x) for x in endpoint)
    if len(pt) != n:
        raise InputError(f"endpoint must have length {n}, got {len(pt)}")
    if any(x <= 0 for x in pt):
        raise InputError(
            f"endpoint {tuple(endpoint)} lies outside the positive chamber"
        )
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
    """Stability phases of a filtration's subquotients, with the
    strictly-decreasing check that characterizes admissible chains.

    Each subquotient with dimension vector ``f`` receives the value
    ``(g(d) - p*(e)) . f  +  i (endpoint . f)`` — exact real and
    imaginary parts.  ``e`` must be the chain's total dimension vector.
    The check holds when consecutive phases strictly decrease, compared
    via rational cross products (no floating point, no arctangents).
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
    pt = tuple(Fraction(x) for x in endpoint)
    if len(pt) != 2:
        raise InputError(f"endpoint must have length 2, got {len(pt)}")
    if any(x <= 0 for x in pt):
        raise InputError(
            f"endpoint {tuple(endpoint)} lies outside the positive chamber"
        )
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
