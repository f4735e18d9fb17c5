"""Reference broken-line search: the all-wall scan.

An independent route to the lines of ``brokenlines.theta_function``.  At
every node of the backward search it computes the crossing of the
backward ray with every wall, bend point included, polices the two
degeneracies (a ray inside a support line, a ray through the origin)
inside that scan, and rebuilds the segment's exponent from ``m0``.  The
package instead walks the walls' half-lines in angular order from the
segment's point towards its exponent, checks for degeneracy only when a
ray is parallel to its point, and skips search states already known to
find no line; tests compare the two line for line, and error for error.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm

from clusterscatter.brokenlines import (
    BrokenLine,
    Segment,
    _sort_key,
)
from clusterscatter.errors import DegenerateBrokenLineError
from clusterscatter.lattice import (
    dual_pair,
    p_star,
    tilde_p_star,
    vec_add,
    vec_scale,
    vec_str,
    x_degree,
)
from clusterscatter.scattering import ensure_generic

# Crossings of one scan share D, so their ray parameters s = c / (D * denom)
# compare as the integer pairs (|c|, |denom|), by cross-multiplying.
_NEAREST_FIRST = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def backward_crossings(point, velocity, walls):
    """Wall crossings of the backward ray ``{point - s*velocity : s > 0}``.

    ``point`` is ``(X, Y, D)`` with ``D > 0``, standing for ``(X/D, Y/D)``,
    and each crossing's bend point comes in the same reduced form.
    Returned nearest-first.  Raises when the ray runs inside a support
    line or passes through the origin.
    """
    X, Y, D = point
    vx, vy = velocity
    found = []
    for wall in walls:
        d0, d1 = wall.direction()
        denom = d0 * vy - d1 * vx
        c = d0 * Y - d1 * X
        if denom == 0:
            if c == 0:
                raise DegenerateBrokenLineError(
                    "runs along the support line of the wall with normal "
                    f"{vec_str(wall.normal)}"
                )
            continue
        # s = c / (D * denom) must be positive
        if c * denom <= 0:
            continue
        x, y, w = X * denom - c * vx, Y * denom - c * vy, D * denom
        if x == 0 and y == 0:
            raise DegenerateBrokenLineError("passes through the origin")
        if w < 0:
            x, y, w = -x, -y, -w
        if wall.kind == "ray" and d0 * x + d1 * y < 0:
            continue
        g = gcd(x, y, w)
        found.append((abs(c), abs(denom), wall, (x // g, y // g, w // g)))
    found.sort(key=_NEAREST_FIRST)
    return [(wall, x) for _, _, wall, x in found]


def reference_lines(m0, endpoint, diagram, k) -> tuple[BrokenLine, ...]:
    """The broken lines of degree at most ``k`` from ``m0`` to
    ``endpoint``, in the order of ``theta_function(...).lines``.  A slice
    exponent ``(p*(v), v)`` reads its endpoint in the plane of the last
    two coordinates, so the lines end at its image under ``p*``."""
    m0 = tuple(int(x) for x in m0)
    given = tuple(Fraction(x) for x in endpoint)
    eps = diagram.seed.exchange_block()
    on_slice = m0[:2] == p_star(eps, m0[2:])
    q = tuple(Fraction(x) for x in p_star(eps, given)) if on_slice else given
    ensure_generic(diagram, q, given=given)
    s1, s2 = (tilde_p_star(eps, unit) for unit in ((1, 0, 0, 0), (0, 1, 0, 0)))

    def exponent(c):
        return tuple(m + c[0] * a + c[1] * b for m, a, b in zip(m0, s1, s2))

    def assemble(rev_bends):
        segments = [Segment(1, m0, None, None, 0)]
        c, coeff = (0, 0), 1
        for wall, (x, y, w), j, factor in reversed(rev_bends):
            c = vec_add(c, vec_scale(j, wall.normal))
            coeff *= factor
            start = (Fraction(x, w), Fraction(y, w))
            segments.append(Segment(coeff, exponent(c), start, wall, j))
        return BrokenLine(m0, q, tuple(segments))

    lines = []

    def descend(c_cur, point, rev_bends):
        expo = exponent(c_cur)
        vel = (-expo[0], -expo[1])
        if vel == (0, 0):
            return
        crossings = backward_crossings(point, vel, diagram.walls)
        if all(x == 0 for x in c_cur):
            lines.append(assemble(rev_bends))
            return
        c1, c2 = c_cur
        for wall, x in crossings:
            n1, n2 = wall.normal
            pairing = abs(dual_pair(expo[:2], wall.normal))
            if pairing == 0:
                continue
            j = 1
            while c1 >= j * n1 and c2 >= j * n2:
                factor = (wall.func ** pairing).coefficient(j)
                if factor:
                    rev_bends.append((wall, x, j, factor))
                    descend((c1 - j * n1, c2 - j * n2), x, rev_bends)
                    rev_bends.pop()
                j += 1

    den = lcm(*(t.denominator for t in q))
    point = (*(t.numerator * (den // t.denominator) for t in q), den)
    budget = k - x_degree(m0, 2)
    for c1 in range(budget + 1):
        for c2 in range(budget + 1 - c1):
            descend((c1, c2), point, [])
    return tuple(sorted(lines, key=_sort_key))
