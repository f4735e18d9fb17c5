"""Reference rank-2 completion: degree by degree.

An independent route to ``scattering.complete_rank2``.  At each degree
``d`` it crosses every wall of a full loop at order ``d``, reads the
degree-``d`` defect of the unit base monomials, and cancels each defect
term ``z^(p~*(c, 0))`` by a binomial factor ``(1 + z^(p~*(c, 0)))^t`` on
the ray in direction ``-p*(c)``.  Its crossing is the direct per-term
expansion.  The package instead peels the rays off the product of the
incoming lines at the full order, one slope at a time, with a crossing
kernel tuned for that; tests compare the two wall for wall.

Its loops keep their own angular order: a comparator that sorts the
supports by their anticlockwise angle from the loop's base direction.
The package instead rotates one ring, sorted once per diagram by exact
angle keys from ``(1, 0)``; :func:`reference_path_crossings` checks its
paths against this sweep.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cmp_to_key
from math import comb

from clusterscatter.errors import GenericPositionError, InputError
from clusterscatter.lattice import (
    GradedSeries,
    LaurentPoly,
    dual_pair,
    p_star,
    primitive,
    tilde_p_star,
    vec_gcd,
    vec_scale,
    vec_sub,
    x_degree,
)
from clusterscatter.scattering import (
    ScatteringDiagram,
    Wall,
    _ccw_sign,
    support_directions,
)

BASE_DIR = (-1, 1)


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _sector(base, u):
    """0 = same direction, 1 = strictly anticlockwise side (0, pi),
    2 = opposite, 3 = clockwise side (pi, 2 pi)."""
    cr = _cross(base, u)
    if cr == 0:
        return 0 if base[0] * u[0] + base[1] * u[1] > 0 else 2
    return 1 if cr > 0 else 3


def _angle_from(base):
    """Sort key of a direction (or point): its anticlockwise angle from
    ``base``, where ``base`` itself comes first."""

    def compare(u1, u2):
        s1, s2 = _sector(base, u1), _sector(base, u2)
        if s1 != s2:
            return s1 - s2
        return -_cross(u1, u2)

    return cmp_to_key(compare)


def ccw_crossings(walls, base_dir):
    """Every (support direction, wall, anticlockwise crossing sign) of a
    full anticlockwise loop starting just after ``base_dir``, in crossing
    order; a full line yields one entry per direction.  Walls sharing a
    direction keep their order in ``walls``."""
    if tuple(base_dir) == (0, 0):
        raise GenericPositionError("loop base at the origin")
    events = []
    for wall in walls:
        for v in support_directions(wall):
            if _sector(base_dir, v) == 0:
                raise GenericPositionError("loop base direction lies on a support")
            events.append((v, wall, _ccw_sign(v, wall.normal)))
    angle = _angle_from(base_dir)
    return sorted(events, key=lambda event: angle(event[0]))


def reference_path_crossings(path, diagram):
    """The (wall, sign) crossings of an angular path by the comparator
    sweep: the loop from the start, split where the end's angle from the
    start falls among its events."""
    ccw_crossings(diagram.walls, path.end)  # rejects an end on a support
    events = ccw_crossings(diagram.walls, path.start)
    angle = _angle_from(path.start)
    split = bisect_left(events, angle(path.end), key=lambda event: angle(event[0]))
    loop = [(wall, sign) for _, wall, sign in events]
    ccw = loop[:split]
    cw = [(wall, -sign) for wall, sign in reversed(loop[split:])]
    if path.turn == "auto":
        tail = ccw if len(ccw) <= len(cw) else cw
    else:
        tail = ccw if path.turn == "ccw" else cw
    return loop * path.full_loops + tail


def reference_cross(poly, wall, sign, order):
    """``z^e -> z^e * func^(-sign * <e_m, normal>)`` term by term,
    truncated at the order."""
    func = wall.func
    n = len(wall.normal)
    deg = x_degree(func.step, n)
    out = {}
    for expo, coeff in poly.terms.items():
        room = order - x_degree(expo, n)
        if room < 0:
            continue
        power = -sign * dual_pair(expo[:n], wall.normal)
        coeffs = (func ** power).coeffs if power else (1,)
        for k, c in enumerate(coeffs[: min(room, order) // deg + 1]):
            if c:
                e = tuple(x + k * s for x, s in zip(expo, func.step))
                out[e] = out.get(e, 0) + coeff * c
    return LaurentPoly(out)


def reference_loop(walls, poly, order):
    """``poly`` pushed through a full anticlockwise loop from just after
    ``BASE_DIR``."""
    for _, wall, sign in ccw_crossings(walls, BASE_DIR):
        poly = reference_cross(poly, wall, sign, order)
    return poly


def _merge_ray(walls, normal, ray_dir, factor):
    out = []
    merged = False
    for wall in walls:
        if wall.kind == "ray" and wall.direction() == ray_dir:
            func = wall.func * factor
            out.append(Wall(wall.normal, wall.kind, wall.span, func, wall.incoming))
            merged = True
        else:
            out.append(wall)
    if not merged:
        out.append(Wall(normal, "ray", (ray_dir,), factor, incoming=False))
    return out


def reference_completion(diagram, order):
    """The completed diagram, its rays in order of first appearance:
    by degree, then by exponent ``c``."""
    seed = diagram.seed
    n = seed.rank
    eps = seed.exchange_block()
    walls = [
        Wall(w.normal, w.kind, w.span, w.func.truncate(order), w.incoming)
        for w in diagram.walls
    ]
    units = [tuple(int(j == i) for j in range(2 * n)) for i in range(n)]
    for degree in range(1, order + 1):
        coeff_by_c = {}
        for unit in units:
            # a crossing never lowers the degree, so order ``degree``
            # keeps every term the degree-``degree`` defect reads
            image = reference_loop(walls, LaurentPoly.monomial(unit), degree)
            defect = image - LaurentPoly.monomial(unit)
            for expo, coeff in defect.terms.items():
                rel = vec_sub(expo, unit)
                if x_degree(rel, n) != degree:
                    continue
                c = rel[n:]
                if any(x < 0 for x in c) or rel[:n] != p_star(eps, c):
                    raise InputError(
                        f"defect term {rel} is not a doubled normal monomial"
                    )
                # the loop defect is a sum of ray derivations; each pairs
                # monomials against the primitive normal of its ray
                pairing = dual_pair(unit[:n], primitive(c))
                if pairing == 0:
                    continue
                value, rem = divmod(coeff, pairing)
                if rem:
                    raise InputError(
                        f"defect coefficient {coeff} not divisible by "
                        f"pairing {pairing} at degree {degree}"
                    )
                prev = coeff_by_c.setdefault(c, value)
                if prev != value:
                    raise InputError(
                        f"inconsistent defect readings {prev} vs {value} "
                        f"for normal {c}"
                    )
        for c in sorted(coeff_by_c):
            if coeff_by_c[c] == 0:
                continue
            ray_dir = primitive(vec_scale(-1, p_star(eps, c)))
            normal = primitive(c)
            # the inserted ray contributes -s*t per unit pairing to the
            # loop defect, so t = a_c * s cancels the measured a_c
            t = coeff_by_c[c] * _ccw_sign(ray_dir, normal)
            if t <= 0:
                raise InputError(
                    f"completion produced a nonpositive exponent {t} for "
                    f"normal {c}; positivity violated"
                )
            g = vec_gcd(c)
            step = tilde_p_star(eps, normal + (0,) * n)
            size = order // x_degree(step, n) + 1
            factor = GradedSeries(
                step,
                order,
                [comb(t, k // g) if k % g == 0 else 0 for k in range(size)],
            )
            walls = _merge_ray(walls, normal, ray_dir, factor)
    for unit in units:
        mono = LaurentPoly.monomial(unit)
        if reference_loop(walls, mono, order) != mono:
            raise InputError("completion failed to make the loop product trivial")
    return ScatteringDiagram(seed, order, tuple(walls))
