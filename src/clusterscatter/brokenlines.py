"""Broken lines and theta functions over rank-2 scattering diagrams.

A broken line is a piecewise-straight path in the plane of the first two
coordinates, the plane the diagram's walls are stored in (Gross, Hacking,
Keel and Kontsevich, arXiv:1411.1394).  Each straight piece carries a
monomial ``coeff * z^E`` with ``E`` in the doubled exponent lattice and
travels with velocity ``-E_m``, minus the first two coordinates of ``E``.
The path comes in from infinity carrying ``z^{m0}`` with coefficient 1,
may bend wherever it crosses a wall by selecting a non-constant term of
the wall-crossing image of its monomial, and stops at a generic
endpoint.  The theta function with initial exponent ``m0`` is the sum of
the final monomials over all such paths.

Endpoints.  A slice exponent ``(p*(v), v)`` reads its endpoint ``Q`` in
the plane of the last two coordinates, where its lines would travel with
velocity ``-v``.  In rank 2, ``p*`` is invertible and carries that
picture onto this one, so :func:`theta_function` and
:func:`theta_via_path` map ``Q`` to ``p*(Q)`` once, at entry, and work in
this plane from there on; a wall-position error still names ``Q``.
Every other exponent reads its endpoint in the plane of the first two
coordinates.

Crossing algebra.  A segment with exponent ``E`` crossing a wall with
normal ``d`` multiplies its monomial by ``func ** |<E_m, d>|``; the
absolute value is correct because the functional is oriented to be
negative on the incoming velocity, which makes the exponent positive for
every transversal crossing.  Bending means keeping the ``j``-th power
term: the exponent shifts by ``j`` times the wall's step vector
``(p*(d), d)`` and the coefficient multiplies by that term's series
coefficient.

The search runs backward from the endpoint in exact integer arithmetic:
points are homogeneous integer coordinates ``(X, Y, D)`` with ``D > 0``,
velocities are integer vectors, and each crossing is decided by integer
cross products.  Each call sorts the walls' supports as half-lines from
the origin, a line giving two and a ray one, anticlockwise by exact
integer comparison, half-lines of one direction by wall index.  The
backward ray ``P + s*E_m`` from a point ``P`` turns monotonically from
the direction of ``P`` towards that of ``E_m``, through less than a
half-turn, so it crosses exactly the half-lines strictly between the
two, in angular order.  A node walks them from its own half-line (the
endpoint from its slot between two) in the sense of ``cross(P, E_m)``
and stops at the first half-line not before ``E_m``; half-lines of one
direction are crossed at one point and taken in wall-index order either
way round.  A segment with bend weight ``c`` left bends only on walls
with normal at most ``c`` that pair nonzero with its exponent, reading
the powers' coefficients off the wall function's series.  A segment can
run along a support line or through the origin only when its point is
parallel to its velocity, so only then are all walls checked.  A node
carries its bend weight ``c`` and its point; the segment's exponent
``m0 + p~*(c)`` is built in full only when a finished line is assembled,
and its bend points become ``Fraction`` pairs only then.  Validation
(:func:`validate_broken_line`) keeps rational geometry and the endpoint
check runs :func:`on_support`, so they re-check the integer search by a
second route.

Dead states.  Every wall is a cone from the origin, so scaling a point
by ``t > 0`` scales every backward ray from it, and with it every later
crossing, by ``t``: the search below a point finds the same lines, up to
scaling, and raises the same errors.  A bend point on a wall lies on one
ray of its support, so the wall's index, the side of the support and the
bend weight ``c`` left, which fixes the exponent, determine that search.
Each call keeps the set of such states whose search ended with no line
and no error, and does not enter them again; an error ends the whole
call, so none is skipped.  A state with bend weight left whose first
half-line ahead, in the sense its own ray turns, is already past its
exponent crosses nothing: it joins the set without being entered, and
its bend point is never built.  (A state whose exponent is parallel to
its half-line is always entered, since it may raise.)  The set lives in
the engine of one call and nothing is cached from one call to the next.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .errors import (
    DegenerateBrokenLineError,
    GenericPositionError,
    InputError,
    UnsupportedInputError,
)
from .lattice import (
    LaurentPoly,
    Vec,
    dual_pair,
    p_star,
    vec_add,
    vec_scale,
    vec_str,
    x_degree,
)
from .scattering import (
    _ORIGIN,
    CrossingPath,
    Point,
    ScatteringDiagram,
    Wall,
    _cross,
    _dot,
    cluster_complex_chambers,
    ensure_generic,
    find_chamber,
    homogeneous,
    on_support,
    path_ordered_product,
)

HPoint = tuple[int, int, int]


# ---------------------------------------------------------------------------
# Endpoints


def _as_point(raw: Sequence) -> Point:
    pt = tuple(Fraction(x) for x in raw)
    if len(pt) != 2:
        raise UnsupportedInputError("broken lines are drawn in two dimensions")
    return pt


def _plane_endpoint(diagram: ScatteringDiagram, m0: Vec, q: Point) -> Point:
    """The endpoint ``q`` of lines from ``m0`` in the plane of the first two
    coordinates: ``p*(q)`` for a slice exponent ``(p*(v), v)``, whose
    endpoint is read in the plane of the last two, and ``q`` otherwise."""
    eps = diagram.seed.exchange_block()
    n = len(m0) // 2
    return p_star(eps, q) if m0[:n] == p_star(eps, m0[n:]) else q


def _half_line_rings(
    walls: Sequence[Wall], point: HPoint
) -> tuple[list[tuple], list[tuple], tuple]:
    """The walls' supports as half-lines from the origin, a line giving
    two and a ray one, in the two orders a backward ray meets them, and
    the slot of ``point``, which lies on none of them.

    A half-line is ``(hx, hy, n1, n2, [wall index, side, wall, slot])``:
    its direction, the wall's normal, whether it is the wall's direction
    rather than its opposite, and the slot of the points on it.  The
    first ring holds the half-lines anticlockwise from ``(1, 0)``, the
    second clockwise, with half-lines of one direction in wall-index
    order in both; each ring is listed twice, so that a walk of one lap
    is a slice.  A slot ``(ccw, cw)`` is where a point's walk starts in
    each ring: at the first half-line past the point's direction."""
    halves = []
    for index, wall in enumerate(walls):
        (d0, d1), (n1, n2) = wall.direction(), wall.normal
        halves.append((d0, d1, n1, n2, [index, True, wall, None]))
        if wall.kind == "line":
            halves.append((-d0, -d1, n1, n2, [index, False, wall, None]))
    if not halves:
        return [], [], (0, 0)
    # The angle is ordered by the half-plane, then by the cotangent -x/y,
    # which rises with the angle in either half: over a common denominator
    # the order is exact.
    scale = lcm(point[1] or 1, *(half[1] for half in halves if half[1]))

    def angle(x: int, y: int) -> tuple[bool, bool, int]:
        return (y < 0 or (y == 0 and x < 0), y != 0, -x * (scale // y) if y else 0)

    groups: list[list[tuple]] = []
    keys: list[tuple] = []
    for key, _, half in sorted((angle(h[0], h[1]), h[4][0], h) for h in halves):
        if keys and keys[-1] == key:
            groups[-1].append(half)
        else:
            keys.append(key)
            groups.append([half])
    # A point past the first i groups walks from starts[i] anticlockwise
    # and, as the clockwise ring lists the groups last to first, from
    # total - starts[i] clockwise (total is where the second listing
    # starts); a point on group i is past i + 1 of them anticlockwise.
    starts = list(accumulate(map(len, groups), initial=0))
    total = starts[-1]
    for i, group in enumerate(groups):
        here = starts[i + 1], total - starts[i]
        for half in group:
            half[4][3] = here
    ccw = [half for group in groups for half in group]
    cw = [half for group in reversed(groups) for half in group]
    after = bisect_left(keys, angle(point[0], point[1]))
    return ccw + ccw, cw + cw, (starts[after], total - starts[after])


def _bend_point(point: HPoint, d0: int, d1: int, e1: int, e2: int) -> HPoint:
    """Where the backward ray ``point + s*(e1, e2)`` crosses the line of
    direction ``(d0, d1)``, in reduced homogeneous coordinates."""
    X, Y, D = point
    denom = d1 * e1 - d0 * e2
    c = d0 * Y - d1 * X
    x, y, w = X * denom + c * e1, Y * denom + c * e2, D * denom
    if w < 0:
        x, y, w = -x, -y, -w
    g = gcd(x, y, w)
    return x // g, y // g, w // g


def _check_collinear_ray(point: HPoint, velocity: Vec, bends: Sequence[tuple]) -> None:
    """Reject the backward ray ``{point - s*velocity : s > 0}`` of a point
    parallel to its velocity if it runs inside a support line or passes
    through the origin.  The first wall of ``bends`` decides: one whose
    support is parallel to the velocity contains the ray, and any other
    meets it at the origin when the ray leads there."""
    X, Y, _ = point
    vx, vy = velocity
    toward_origin = X * vx + Y * vy > 0
    for n1, n2, d0, d1, *_ in bends:
        if d0 * vy == d1 * vx:
            raise DegenerateBrokenLineError(
                "runs along the support line of the wall with normal "
                f"{vec_str((n1, n2))}"
            )
        if toward_origin:
            raise DegenerateBrokenLineError("passes through the origin")


# ---------------------------------------------------------------------------
# Broken lines


class Segment(NamedTuple):
    """One straight piece of a broken line, in travel order.

    ``start`` is the bend point where the piece begins (``None`` for the
    unbounded first piece), ``bend_wall``/``bend_power`` describe the
    bend that created it: the wall crossed there and the power term kept
    from the crossing series.  ``coefficient`` is cumulative, so the
    last segment carries the line's contribution to the theta function.
    """

    coefficient: int
    exponent: Vec
    start: Point | None
    bend_wall: Wall | None
    bend_power: int


class BrokenLine(NamedTuple):
    """A broken line in the plane of the first two coordinates: its bend
    points and endpoint lie there."""

    initial_exponent: Vec
    endpoint: Point
    segments: tuple[Segment, ...]

    @property
    def final_exponent(self) -> Vec:
        return self.segments[-1].exponent

    @property
    def coefficient(self) -> int:
        return self.segments[-1].coefficient

    def bends(self) -> tuple[tuple[Wall, int], ...]:
        """The (wall, power) pairs in bend order along the line."""
        return tuple((seg.bend_wall, seg.bend_power) for seg in self.segments[1:])


class ThetaResult(NamedTuple):
    """A theta function, its broken lines, and their common endpoint in
    the plane of the first two coordinates."""

    value: LaurentPoly
    lines: tuple[BrokenLine, ...]
    order: int
    endpoint: Point


def _sort_key(line: BrokenLine):
    return (
        line.final_exponent,
        len(line.segments),
        tuple(
            (seg.bend_wall.normal, seg.bend_power, seg.start)
            for seg in line.segments[1:]
        ),
    )


class _Engine:
    """Backward depth-first search for the broken lines from ``m0`` to
    ``endpoint``, collected in ``lines``."""

    def __init__(self, diagram: ScatteringDiagram, m0: Vec, endpoint: Point):
        if diagram.rank != 2:
            raise UnsupportedInputError("broken lines implemented for rank-2 diagrams")
        self.m0, self.endpoint = m0, endpoint
        self.lines: list[BrokenLine] = []
        # The exponent m0 + c1*p~*(e1, 0) + c2*p~*(e2, 0) is linear in c,
        # and p~*(e_i, 0) is row i of [[eps, I], [-I, 0]]: its first two
        # coordinates, E_m, which gives velocities and pairings, come from
        # row i of eps, and its last two are e_i.
        (p11, p12), (p21, p22) = diagram.seed.exchange_block()
        self._plane = (m0[0], p11, p21, m0[1], p12, p22)
        # Per wall, in index order: normal and support direction.
        self._walls = [(*w.normal, *w.direction()) for w in diagram.walls]
        self.point = homogeneous(endpoint)
        self._ccw, self._cw, self.slot = _half_line_rings(diagram.walls, self.point)
        self._lap = len(self._ccw) // 2
        # (wall index, side of its support, c1, c2) of the bend points whose
        # search found no line.
        self._dead: set[tuple[int, bool, int, int]] = set()

    def exponent(self, c1: int, c2: int) -> Vec:
        m1, a1, b1, m2, a2, b2 = self._plane
        _, _, m3, m4 = self.m0
        return m1 + c1 * a1 + c2 * b1, m2 + c1 * a2 + c2 * b2, m3 + c1, m4 + c2

    def descend(
        self, c1: int, c2: int, point: HPoint, slot: tuple, rev_bends: list
    ) -> None:
        """Collect the lines whose segment into ``point`` leaves bend weight
        ``(c1, c2)``, before the bends ``rev_bends``; ``slot`` is the slot
        of ``point`` among the half-lines (:func:`_half_line_rings`)."""
        m1, a1, b1, m2, a2, b2 = self._plane
        e1, e2 = m1 + c1 * a1 + c2 * b1, m2 + c1 * a2 + c2 * b2
        if not (e1 or e2):
            return
        X, Y, D = point
        # The backward ray point + s*E_m turns from point towards E_m, in
        # the sense of `turn`, through less than a half-turn.
        turn = X * e2 - Y * e1
        if not turn:
            # Only a ray parallel to its point can be degenerate; the
            # bend-free initial segment is checked too.  One that leads
            # away from the origin crosses nothing.
            _check_collinear_ray(point, (-e1, -e2), self._walls)
        if not (c1 or c2):
            self.lines.append(self._assemble(rev_bends))
            return
        if not turn:
            return
        # With the sense folded in, a half-line is crossed when it lies
        # strictly anticlockwise of (px, py) and clockwise of (qx, qy).
        if turn > 0:
            ring, start, px, py, qx, qy = self._ccw, slot[0], X, Y, e1, e2
        else:
            ring, start, px, py, qx, qy = self._cw, slot[1], -X, -Y, -e1, -e2
        dead, lines = self._dead, self.lines
        # It crosses, nearest first, exactly the half-lines strictly between
        # the directions of point and E_m; one lap at most, for a diagram
        # whose half-lines all lie in that open half-plane.
        for hx, hy, n1, n2, rest in ring[start:start + self._lap]:
            if px * hy <= py * hx or hx * qy <= hy * qx:
                break
            # only a wall with normal <= c leaves a nonnegative budget
            if n1 > c1 or n2 > c2:
                continue
            # The pairing is the same before the bend: a bend adds
            # multiples of p*(normal) to E_m, and the form is skew.
            pairing = abs(e1 * n1 + e2 * n2)
            if not pairing:
                continue
            index, side, wall, here = rest
            coeffs = (wall.func ** pairing).coeffs
            bend = None
            # bending back by j steps leaves r = c - j*normal, which must
            # stay nonnegative
            r1, r2 = c1, c2
            for j in range(1, len(coeffs)):
                r1 -= n1
                r2 -= n2
                if r1 < 0 or r2 < 0:
                    break
                factor = coeffs[j]
                if not factor:
                    continue
                state = (index, side, r1, r2)
                if state in dead:
                    continue
                if r1 or r2:
                    f1, f2 = m1 + r1 * a1 + r2 * b1, m2 + r1 * a2 + r2 * b2
                    t = hx * f2 - hy * f1
                    if t:
                        # the first half-line of its sweep is past E_m(r)
                        ahead = self._ccw[here[0]] if t > 0 else self._cw[here[1]]
                        nx, ny = ahead[0], ahead[1]
                        if (hx * ny - hy * nx) * t <= 0 or (nx * f2 - ny * f1) * t <= 0:
                            dead.add(state)
                            continue
                if bend is None:
                    bend = _bend_point(point, hx, hy, e1, e2)
                rev_bends.append((wall, bend, j, factor, c1, c2))
                before = len(lines)
                self.descend(r1, r2, bend, here, rev_bends)
                rev_bends.pop()
                if len(lines) == before:
                    dead.add(state)

    def _assemble(self, rev_bends: list) -> BrokenLine:
        segments = [Segment(1, self.m0, None, None, 0)]
        coeff = 1
        for wall, (x, y, w), j, factor, c1, c2 in reversed(rev_bends):
            coeff *= factor
            start = (Fraction(x, w), Fraction(y, w))
            segments.append(Segment(coeff, self.exponent(c1, c2), start, wall, j))
        return BrokenLine(self.m0, self.endpoint, tuple(segments))


def enumerate_broken_lines(
    m0: Sequence[int],
    endpoint: Sequence,
    diagram: ScatteringDiagram,
    k: int,
    *,
    final_filter: Sequence[int | None] | None = None,
) -> tuple[BrokenLine, ...]:
    """All broken lines with initial exponent ``m0`` ending at ``endpoint``:
    the lines of :func:`theta_function`."""
    return theta_function(m0, endpoint, diagram, k, final_filter=final_filter).lines


def theta_function(
    m0: Sequence[int],
    endpoint: Sequence,
    diagram: ScatteringDiagram,
    k: int,
    *,
    final_filter: Sequence[int | None] | None = None,
) -> ThetaResult:
    """Sum of final monomials over all broken lines of degree at most ``k``.

    ``k`` bounds the series degree of the final exponent.  The optional
    ``final_filter`` keeps only lines whose final exponent matches every
    non-``None`` entry.  A slice exponent's endpoint is read in the plane
    of the last two coordinates and mapped by ``p*`` (see the module
    docstring); the lines and the result carry the mapped endpoint.
    Endpoints on the diagram's support raise
    :class:`GenericPositionError`, and endpoints reached by a segment
    through the origin or along a support line raise its subclass
    :class:`DegenerateBrokenLineError`.
    """
    m0 = tuple(int(x) for x in m0)
    n = diagram.rank
    if len(m0) != 2 * n:
        raise InputError(f"initial exponent must have length {2 * n}")
    if all(x == 0 for x in m0):
        raise InputError("initial exponent must be nonzero")
    if k < 0:
        raise InputError("degree bound must be nonnegative")
    budget = k - x_degree(m0, n)
    if budget > diagram.order:
        raise InputError(
            f"degree bound {k} needs bend weight up to {budget}, beyond the "
            f"diagram's series order {diagram.order}; complete a deeper diagram"
        )
    q = _as_point(endpoint)
    pt = _plane_endpoint(diagram, m0, q)
    ensure_generic(diagram, pt, given=q)
    engine = _Engine(diagram, m0, pt)
    if not any(m0[:n]):
        raise UnsupportedInputError(f"initial exponent {m0} has no direction")
    if final_filter is not None and len(final_filter) != 2 * n:
        raise InputError(f"final filter must have length {2 * n}")
    for c1 in range(budget + 1):
        for c2 in range(budget + 1 - c1):
            if final_filter is not None and any(
                want is not None and have != want
                for have, want in zip(engine.exponent(c1, c2), final_filter)
            ):
                continue
            engine.descend(c1, c2, engine.point, engine.slot, [])
    lines = sorted(engine.lines, key=_sort_key)
    value: dict[Vec, int] = {}
    for line in lines:
        expo = line.final_exponent
        value[expo] = value.get(expo, 0) + line.coefficient
    return ThetaResult(LaurentPoly(value), tuple(lines), k, pt)


# ---------------------------------------------------------------------------
# Validation


class Validation:
    """Boolean-like validation outcome carrying a diagnostic reason."""

    __slots__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: str = ""):
        self.ok = ok
        self.reason = reason

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"Validation({self.ok}, {self.reason!r})"


def _fail(reason: str) -> Validation:
    return Validation(False, reason)


def validate_broken_line(line: BrokenLine, diagram: ScatteringDiagram) -> Validation:
    """Re-check a broken line's geometry and algebra against the diagram."""
    n = diagram.rank
    if n != 2:
        return _fail("validation implemented for rank-2 diagrams")
    segs = line.segments
    if not segs:
        return _fail("a broken line needs at least one segment")
    first = segs[0]
    if first.coefficient != 1:
        return _fail("the initial segment must have coefficient 1")
    if tuple(first.exponent) != tuple(line.initial_exponent):
        return _fail("the initial segment must carry the initial exponent")
    if first.start is not None or first.bend_wall is not None:
        return _fail("the initial segment comes in from infinity, with no bend")
    try:
        ensure_generic(diagram, line.endpoint)
    except GenericPositionError as exc:
        return _fail(str(exc))
    walls = set(diagram.walls)
    for i, seg in enumerate(segs):
        vel = (-seg.exponent[0], -seg.exponent[1])
        if vel == (0, 0):
            return _fail(f"segment {i} has a direction-free monomial")
        end = segs[i + 1].start if i + 1 < len(segs) else line.endpoint
        if end is None:
            return _fail(f"segment {i + 1} is missing its bend point")
        if seg.start is not None:
            delta = (end[0] - seg.start[0], end[1] - seg.start[1])
            if _cross(delta, vel) != 0 or _dot(delta, vel) <= 0:
                return _fail(
                    f"segment {i} does not travel with velocity {vel} "
                    f"from {seg.start} to {end}"
                )
        if i == 0:
            continue
        prev = segs[i - 1]
        if seg.bend_wall is None or seg.bend_power < 1:
            return _fail(f"segment {i} must record the bend that created it")
        if seg.bend_wall not in walls:
            return _fail(f"segment {i} bends on a wall absent from the diagram")
        if seg.start == _ORIGIN or not on_support(seg.bend_wall, seg.start):
            return _fail(
                f"bend point {seg.start} of segment {i} is off the wall with "
                f"normal {seg.bend_wall.normal}"
            )
        shift = vec_scale(seg.bend_power, seg.bend_wall.func.step)
        if tuple(seg.exponent) != vec_add(prev.exponent, shift):
            return _fail(
                f"segment {i} exponent is not the previous exponent plus "
                f"{seg.bend_power} wall steps"
            )
        pairing = dual_pair(prev.exponent[:n], seg.bend_wall.normal)
        if pairing == 0:
            return _fail(f"segment {i - 1} meets its bend wall tangentially")
        factor = (seg.bend_wall.func ** abs(pairing)).coefficient(seg.bend_power)
        if factor == 0 or seg.coefficient != prev.coefficient * factor:
            return _fail(
                f"segment {i} coefficient does not match the crossing series"
            )
    return Validation(True)


# ---------------------------------------------------------------------------
# Chamber transport route


def theta_via_path(
    m0: Sequence[int],
    endpoint: Sequence,
    diagram: ScatteringDiagram,
    *,
    depth: int = 8,
) -> LaurentPoly:
    """Transport ``z^{m0}`` from its chamber to the endpoint.

    Works when the first-two-coordinates direction of ``m0`` lies in a
    chamber of the mutation fan (explored to ``depth``); there the theta
    function is the bare monomial, and the path-ordered product moves it
    to the requested endpoint, read as :func:`theta_function` reads it.
    """
    m0 = tuple(int(x) for x in m0)
    n = diagram.rank
    if n != 2:
        raise UnsupportedInputError("chamber transport implemented for rank 2")
    if len(m0) != 2 * n:
        raise InputError(f"initial exponent must have length {2 * n}")
    direction = m0[:n]
    if all(x == 0 for x in direction):
        raise UnsupportedInputError("initial exponent has no chamber direction")
    chambers = cluster_complex_chambers(diagram.seed, depth)
    try:
        chamber = find_chamber(chambers, direction)
    except InputError as exc:
        raise UnsupportedInputError(
            f"direction {direction} lies outside the explored mutation fan"
        ) from exc
    q = _as_point(endpoint)
    end = _plane_endpoint(diagram, m0, q)
    ensure_generic(diagram, end, given=q)
    path = CrossingPath(start=chamber.interior_point(), end=end)
    action = path_ordered_product(path, diagram)
    return action.apply(LaurentPoly.monomial(m0))


def restrict_to_A(theta: ThetaResult | LaurentPoly) -> LaurentPoly:
    """Set every series variable to 1: keep only first-half exponents."""
    poly = theta.value if isinstance(theta, ThetaResult) else theta
    width = poly.width()
    if width is None:
        return LaurentPoly.zero()
    if width % 2:
        raise InputError("expected exponents in a doubled lattice")
    n = width // 2
    folded: dict[Vec, int] = {}
    for expo, coeff in poly.terms.items():
        key = expo[:n]
        folded[key] = folded.get(key, 0) + coeff
    return LaurentPoly(folded)
