"""Reference strata: the paper's per-bend formula from Hom and Ext.

An independent route to the polynomial of a broken line.  Each bend over
a wall with rigid indecomposable normal ``c`` opens a stratum: ``q`` to
an affine power times a Gaussian binomial, whose parameters are Hom and
Ext dimensions between indecomposables and of a generic remainder of the
ambient dimension vector.  The first bend chooses ``lam`` dimensions of
``Hom(c, M)``; a later bend chooses them from what the chain leaves,
twisted by the chain's extensions against ``c``.  Walls with a regular
normal have no such formula and are refused, as is a first bend with no
morphisms into ``M``.

The package reads each bend's polynomial off the wall function instead
(``hall.bend_polynomial``), with no Hom or Ext data; tests compare the
two on every line this module can stratify.  Nothing here shares code
with that rule: the Euler form, the Gaussian binomials and the
polynomials, coefficient tuples indexed by the power of ``q``, are this
module's own.  Only the classification of indecomposables comes from the
package.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from clusterscatter.errors import InputError, UnsupportedInputError
from clusterscatter.quiver import Quiver, classify_indecomposable

Vec = tuple[int, ...]
#: A polynomial in ``q`` as its coefficients, constant first, with no
#: trailing zero: ``()`` is 0.
Poly = tuple[int, ...]
Steps = tuple[tuple[Vec, int], ...]

_COMPONENT_ORDER = {"P": 0, "R": 1, "I": 2}


def euler_form(q: Quiver, c: Sequence[int], d: Sequence[int]) -> int:
    """``sum(c_i d_i) - sum over arrows i -> j of c_i d_j``."""
    arrows = sum(
        q.counts[i][j] * c[i] * d[j]
        for i in range(q.n_vertices) for j in range(q.n_vertices)
    )
    return sum(x * y for x, y in zip(c, d)) - arrows


def gaussian_binomial(a: int, b: int) -> Poly:
    """The ``b``-dimensional subspaces of ``F_q^a``, by the q-Pascal rule."""
    if b < 0 or b > a:
        return ()
    if b in (0, a):
        return (1,)
    low, high = gaussian_binomial(a - 1, b - 1), gaussian_binomial(a - 1, b)
    high = (0,) * b + high
    width = max(len(low), len(high))
    return tuple(
        (low[i] if i < len(low) else 0) + (high[i] if i < len(high) else 0)
        for i in range(width)
    )


def poly_mul(f: Poly, g: Poly) -> Poly:
    """The product of two coefficient tuples."""
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return tuple(out)


class HomExt(NamedTuple):
    """Dimension pair ``(hom, ext)`` of the morphism and extension spaces."""

    hom: int
    ext: int


def hom_ext_dims(q: Quiver, c: Sequence[int], d: Sequence[int]) -> HomExt:
    """Dimensions ``(hom, ext)`` between indecomposables with these vectors.

    Within a single preprojective or preinjective component the pair is
    ``(max(chi, 0), max(-chi, 0))`` with ``chi`` the Euler form.  Across
    components ordered preprojective < regular < preinjective, maps only
    exist forward and extensions only backward, so the earlier argument
    gives ``(chi, 0)`` and the later gives ``(0, -chi)``.  Two regular
    vectors are rejected: dimension vectors cannot tell tubes apart.
    """
    c = tuple(int(x) for x in c)
    d = tuple(int(x) for x in d)
    chi = euler_form(q, c, d)
    nc = classify_indecomposable(q, c)
    nd = classify_indecomposable(q, d)
    if nc.component == "R" and nd.component == "R":
        raise UnsupportedInputError(
            "hom/ext between two regular dimension vectors is not determined "
            "by the vectors alone"
        )
    if nc.component == nd.component:
        return HomExt(max(chi, 0), max(-chi, 0))
    if _COMPONENT_ORDER[nc.component] < _COMPONENT_ORDER[nd.component]:
        if chi < 0:
            raise InputError(
                f"negative Euler form {chi} contradicts the component ordering "
                f"for {c} before {d}"
            )
        return HomExt(chi, 0)
    if chi > 0:
        raise InputError(
            f"positive Euler form {chi} contradicts the component ordering "
            f"for {c} after {d}"
        )
    return HomExt(0, -chi)


class Stratum(NamedTuple):
    """One bend's contribution to the Grassmannian stratification.

    ``qpoly`` is ``q^affine_exponent`` times the Gaussian binomial with
    parameters ``grass_params = (subspace_dim, ambient_dim)``; its value
    at ``q = 1`` is the binomial coefficient (zero when the Grassmannian
    is empty).
    """

    affine_exponent: int
    grass_params: tuple[int, int]
    qpoly: Poly

    @classmethod
    def from_params(cls, affine: int, lam: int, ambient: int) -> "Stratum":
        poly = poly_mul((0,) * affine + (1,), gaussian_binomial(ambient, lam))
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


def chain_dimension(steps: Steps) -> Vec:
    """Weighted sum of the step vectors (the empty chain gives ``()``)."""
    return tuple(map(sum, zip(*(tuple(lam * x for x in c) for c, lam in steps))))


def first_bending(
    q: Quiver, d: Sequence[int], c1: Sequence[int], lam1: int
) -> tuple[Stratum, Steps]:
    """Stratum and filtration step opened by the first bend of a line.

    The bend chooses a ``lam1``-dimensional subspace of the morphism
    space from the indecomposable with dimension vector ``c1`` into the
    ambient representation of dimension vector ``d``; the stratum is the
    Gaussian binomial of that choice, with no affine factor.  A zero
    multiplicity contributes the trivial stratum and no step.
    """
    d, c1 = tuple(d), tuple(c1)
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
        return Stratum.from_params(0, 0, hom), ()
    return Stratum.from_params(0, lam1, hom), ((c1, lam1),)


def next_bending(
    q: Quiver,
    d: Sequence[int],
    steps: Steps,
    cj: Sequence[int],
    lamj: int,
) -> tuple[Stratum, Steps]:
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
    d, cj = tuple(d), tuple(cj)
    lamj = int(lamj)
    if lamj < 0:
        raise InputError("bend multiplicity must be nonnegative")
    if all(x == 0 for x in cj):
        raise InputError("bend normal must be nonzero")
    _rigid_normal(q, cj)
    gamma = 0
    for cl, lam in steps:
        earlier_to_new = hom_ext_dims(q, cl, cj)
        if earlier_to_new.hom != 0:
            raise InputError(
                f"inadmissible bend order: step {cl} admits morphisms to "
                f"the new normal {cj}"
            )
        gamma += lam * earlier_to_new.ext
    used = chain_dimension(steps)
    if used:
        remainder = tuple(x - y for x, y in zip(d, used))
        if any(x < 0 for x in remainder):
            raise InputError(
                f"chain dimension {used} exceeds the ambient dimension {d}"
            )
    else:
        remainder = d
    eta = _generic_hom(q, cj, remainder)
    if lamj == 0:
        return Stratum.from_params(0, 0, eta - gamma), steps
    stratum = Stratum.from_params(lamj * gamma, lamj, eta - gamma)
    return stratum, steps + ((cj, lamj),)


def line_strata(
    q: Quiver, d: Sequence[int], bends: Sequence[tuple[Vec, int]]
) -> tuple[Steps, Poly]:
    """Chain and product polynomial of a line with these ``(normal,
    power)`` bends, in order along the line, into dimension ``d``."""
    steps: Steps = ()
    total: Poly = (1,)
    for index, (normal, power) in enumerate(bends):
        if index == 0:
            stratum, steps = first_bending(q, d, normal, power)
        else:
            stratum, steps = next_bending(q, d, steps, normal, power)
        total = poly_mul(total, stratum.qpoly)
    return steps, total
