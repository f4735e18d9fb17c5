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
not reduced, velocities are integer vectors, and each crossing is
decided by integer cross products.  It walks the diagram's ring
(:attr:`ScatteringDiagram.ring`): the walls' supports as half-lines from
the origin, in the one angular order that :mod:`scattering` sorts once
per diagram and every path reads.  The ring's slot of the endpoint
places it between two half-lines, or finds it on one, and so not
generic.  The backward ray ``P + s*E_m`` from a point ``P`` turns
monotonically from the direction of ``P`` towards that of ``E_m``,
through less than a half-turn, so it crosses exactly the half-lines
strictly between the two, in angular order.  A segment with bend weight
``c`` left bends only on walls with normal at most ``c``, so for each
``c`` the index keeps, once built, the sub-ring of those half-lines and
where each slot falls in it; weights whose walls are the same share one
sub-ring.  A node walks that sub-ring from its own half-line (the
endpoint from its slot between two) in the sense of ``cross(P, E_m)``
and stops at the first half-line not before ``E_m``; half-lines of one
direction are crossed at one point and taken in wall-index order either
way round.  A wall bends the segment only if it pairs nonzero with the
exponent, and the index keeps the coefficients of its function's powers
once read.  A segment can run along a support line or through the origin
only when its point is parallel to its velocity, so only then are all
walls checked.  A node carries its bend weight ``c`` and its point; the
segment's exponent ``m0 + p~*(c)`` is built in full only when a finished
line is assembled, and its bend points become ``Fraction`` pairs only
then.  Validation (:func:`validate_broken_line`) keeps rational geometry
and the endpoint check runs :func:`on_support`, so they re-check the
integer search by a second route.

Dead states.  Every wall is a cone from the origin, so scaling a point
by ``t > 0`` scales every backward ray from it, and with it every later
crossing, by ``t``: the search below a point finds the same lines, up to
scaling, and raises the same errors.  A bend point on a wall lies on one
ray of its support, so the wall's index, the side of the support and the
bend weight ``c`` left, which fixes the exponent, determine that search.
Each call keeps the set of such states whose search ended with no line
and no error, and does not enter them again; an error ends the whole
call, so none is skipped.  A state with bend weight left whose first
half-line ahead that it could bend on, in the sense its own ray turns,
is already past its exponent crosses nothing it can bend on, so it
finds no line and raises nothing: it joins the set without being
entered, and its bend point is never built.  Each top-level search from
the endpoint, one per final bend weight, is tested the same way before
it starts.  (A state whose exponent is parallel to its point is always
entered, since it may raise.)  The search state, the set included, lives
in the engine of one call; only the ring and the index, which depend on
the walls alone, are kept from one call to the next.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress
from operator import or_
from typing import NamedTuple, Sequence

from .errors import (
    DegenerateBrokenLineError,
    GenericPositionError,
    InputError,
    UnsupportedInputError,
)
from .lattice import (
    LaurentPoly,
    Matrix,
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


def _plane_endpoint(eps: Matrix, m0: Vec, q: Point) -> Point:
    """The endpoint ``q`` of lines from ``m0`` in the plane of the first two
    coordinates, for the exchange block ``eps``: ``p*(q)`` for a slice
    exponent ``(p*(v), v)``, whose endpoint is read in the plane of the
    last two, and ``q`` otherwise."""
    n = len(m0) // 2
    return p_star(eps, q) if m0[:n] == p_star(eps, m0[n:]) else q


class _SearchIndex(dict):
    """What the broken-line search adds to the ring of a rank-2 diagram's
    half-lines (:attr:`ScatteringDiagram.ring`), built once per diagram
    (:func:`_search_index`).

    ``walls`` holds each wall's normal and support direction, in index
    order.  A half-line is ``(hx, hy, n1, n2, wall index, side, wall,
    powers, slot)``: the ring's half-line with its wall's normal, the
    coefficients of the powers of the wall function read so far, by
    exponent, and the slot of the points on it.  ``ccw`` holds the ring,
    anticlockwise from ``(1, 0)``, and ``cw`` its direction groups last to
    first, so that half-lines of one direction keep wall-index order in
    both.  A slot ``(ccw, cw)`` is where a point's walk starts in each: at
    the first half-line past the point's direction.  A segment with bend
    weight ``c`` left can bend only on the walls with normal at most
    ``c``, as bits by wall index ``kept[0][c1] & kept[1][c2]``; as a dict,
    the index maps those bits to the half-lines of those walls, filled on
    first use (:meth:`__missing__`), so weights that keep the same walls
    share them."""

    __slots__ = ("walls", "ccw", "cw", "kept")

    def __init__(self, diagram: ScatteringDiagram):
        self.walls = [(*wall.normal, *wall.direction()) for wall in diagram.walls]
        powers: list[dict[int, tuple[int, ...]]] = [{} for _ in self.walls]
        ring = diagram.ring
        starts, total = ring.starts, len(ring.ring)
        # A point past the first i groups walks from starts[i] anticlockwise
        # and, as the clockwise ring lists the groups last to first, from
        # total - starts[i] clockwise; a point on a group is past it too.
        groups = [
            [
                (hx, hy, *wall.normal, i, side, wall, powers[i], (end, total - begin))
                for hx, hy, i, side, wall in ring.ring[begin:end]
            ]
            for begin, end in zip(starts, starts[1:])
        ]
        self.ccw = [half for group in groups for half in group]
        self.cw = [half for group in reversed(groups) for half in group]
        # The walls with n1 <= c, and those with n2 <= c, for c up to the
        # diagram's order, which bounds every bend weight of a search.
        self.kept = []
        for axis in (0, 1):
            bits = [0] * (diagram.order + 1)
            for index, wall in enumerate(self.walls):
                if wall[axis] <= diagram.order:
                    bits[wall[axis]] |= 1 << index
            self.kept.append(list(accumulate(bits, or_)))

    def __missing__(self, kept: int) -> tuple:
        """The half-lines of the walls ``kept``, as bits by wall index:
        ``(ccw, ccw_at, cw, cw_at, lap)``.
        Each ring is listed twice, so that a walk of one lap, ``lap``
        half-lines, is a slice, and a point of slot ``(s, t)`` walks from
        ``ccw_at[s]`` anticlockwise and from ``cw_at[t]`` clockwise."""
        parts = []
        for full in (self.ccw, self.cw):
            keep = [kept >> half[4] & 1 for half in full]
            sub = list(compress(full, keep))
            parts += sub + sub, list(accumulate(keep, initial=0))
        rings = self[kept] = (*parts, len(parts[0]) // 2)
        return rings


def _search_index(diagram: ScatteringDiagram) -> _SearchIndex:
    """The diagram's search index, built on first use and kept in the
    diagram's instance dict: its walls never change.  The search state of
    a call stays with that call's engine."""
    kept = vars(diagram)
    index = kept.get("search_index")
    if index is None:
        index = kept["search_index"] = _SearchIndex(diagram)
    return index


def _crosses_nothing(
    rings: tuple, slot: tuple[int, int], px: int, py: int, e1: int, e2: int, turn: int
) -> bool:
    """Whether the backward ray from a point of direction ``(px, py)`` and
    slot ``slot`` misses every half-line of ``rings`` (the half-lines a
    bend weight can bend on, :meth:`_SearchIndex.__missing__`), for an
    exponent with ``E_m = (e1, e2)`` and ``turn = cross(point, E_m)``
    nonzero.  The ray crosses the half-lines strictly between its point
    and ``E_m``, in the sense of ``turn``, so it misses them all unless the
    first one ahead lies there; then it finds no line and raises nothing."""
    ccw, ccw_at, cw, cw_at, lap = rings
    if not lap:
        return True
    ahead = ccw[ccw_at[slot[0]]] if turn > 0 else cw[cw_at[slot[1]]]
    nx, ny = ahead[0], ahead[1]
    return (px * ny - py * nx) * turn <= 0 or (nx * e2 - ny * e1) * turn <= 0


def _bend_point(point: HPoint, d0: int, d1: int, e1: int, e2: int) -> HPoint:
    """Where the backward ray ``point + s*(e1, e2)`` crosses the line of
    direction ``(d0, d1)``, in homogeneous coordinates with ``w > 0``.
    They are not reduced: the search reads only signs of cross products
    from them, and an assembled line's ``Fraction``s reduce them."""
    X, Y, D = point
    denom = d1 * e1 - d0 * e2
    c = d0 * Y - d1 * X
    x, y, w = X * denom + c * e1, Y * denom + c * e2, D * denom
    return (-x, -y, -w) if w < 0 else (x, y, w)


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
    ``endpoint``, collected in ``lines``.  ``point`` is the endpoint in
    homogeneous coordinates and ``slot`` its slot in ``index``.  The
    engine counts the nodes it enters in ``entered``, and in ``pruned``
    the states it marks dead without entering them."""

    def __init__(
        self, index: _SearchIndex, eps: Matrix, m0: Vec, endpoint: Point,
        point: HPoint, slot: tuple[int, int],
    ):
        self.m0, self.endpoint, self.point, self.slot = m0, endpoint, point, slot
        self._index = index
        self.lines: list[BrokenLine] = []
        # The exponent m0 + c1*p~*(e1, 0) + c2*p~*(e2, 0) is linear in c,
        # and p~*(e_i, 0) is row i of [[eps, I], [-I, 0]]: its first two
        # coordinates, E_m, which gives velocities and pairings, come from
        # row i of eps, and its last two are e_i.
        (p11, p12), (p21, p22) = eps
        self._plane = (m0[0], p11, p21, m0[1], p12, p22)
        # (wall index, side of its support, c1, c2) of the bend points whose
        # search found no line.
        self._dead: set[tuple[int, bool, int, int]] = set()
        self.entered = self.pruned = 0

    def exponent(self, c1: int, c2: int) -> Vec:
        m1, a1, b1, m2, a2, b2 = self._plane
        _, _, m3, m4 = self.m0
        return m1 + c1 * a1 + c2 * b1, m2 + c1 * a2 + c2 * b2, m3 + c1, m4 + c2

    def run(self, budget: int, final_filter: Sequence[int | None] | None) -> None:
        """Collect the lines whose last segment leaves a bend weight ``c``
        with ``c1 + c2 <= budget`` at the endpoint, and whose final
        exponent matches ``final_filter``."""
        m1, a1, b1, m2, a2, b2 = self._plane
        X, Y, _ = point = self.point
        index, slot = self._index, self.slot
        first, second = index.kept
        for c1 in range(budget + 1):
            for c2 in range(budget + 1 - c1):
                if final_filter is not None and any(
                    want is not None and have != want
                    for have, want in zip(self.exponent(c1, c2), final_filter)
                ):
                    continue
                e1, e2 = m1 + c1 * a1 + c2 * b1, m2 + c1 * a2 + c2 * b2
                turn = X * e2 - Y * e1
                if turn and (c1 or c2) and _crosses_nothing(
                    index[first[c1] & second[c2]], slot, X, Y, e1, e2, turn
                ):
                    self.pruned += 1
                    continue
                self.descend(c1, c2, point, slot, [])

    def descend(
        self, c1: int, c2: int, point: HPoint, slot: tuple, rev_bends: list
    ) -> bool:
        """Collect the lines whose segment into ``point`` leaves bend weight
        ``(c1, c2)``, before the bends ``rev_bends``, and tell whether there
        are any; ``slot`` is the slot of ``point`` among the half-lines
        (:class:`_SearchIndex`)."""
        self.entered += 1
        m1, a1, b1, m2, a2, b2 = self._plane
        e1, e2 = m1 + c1 * a1 + c2 * b1, m2 + c1 * a2 + c2 * b2
        if not (e1 or e2):
            return False
        X, Y, D = point
        # The backward ray point + s*E_m turns from point towards E_m, in
        # the sense of `turn`, through less than a half-turn.
        turn = X * e2 - Y * e1
        if not turn:
            # Only a ray parallel to its point can be degenerate; the
            # bend-free initial segment is checked too.  One that leads
            # away from the origin crosses nothing.
            _check_collinear_ray(point, (-e1, -e2), self._index.walls)
        if not (c1 or c2):
            self.lines.append(self._assemble(rev_bends))
            return True
        if not turn:
            return False
        # Only a wall with normal <= c leaves a nonnegative budget, so the
        # walk visits only those.  With the sense folded in, a half-line is
        # crossed when it lies strictly anticlockwise of (px, py) and
        # clockwise of (qx, qy).
        index = self._index
        first, second = index.kept
        ccw, ccw_at, cw, cw_at, lap = index[first[c1] & second[c2]]
        if turn > 0:
            ring, start, px, py, qx, qy = ccw, ccw_at[slot[0]], X, Y, e1, e2
        else:
            ring, start, px, py, qx, qy = cw, cw_at[slot[1]], -X, -Y, -e1, -e2
        dead = self._dead
        found = False
        # It crosses, nearest first, exactly the half-lines strictly between
        # the directions of point and E_m; one lap at most, for a diagram
        # whose half-lines all lie in that open half-plane.
        for hx, hy, n1, n2, i, side, wall, powers, here in ring[start:start + lap]:
            if px * hy <= py * hx or hx * qy <= hy * qx:
                break
            # The pairing is the same before the bend: a bend adds
            # multiples of p*(normal) to E_m, and the form is skew.
            pairing = abs(e1 * n1 + e2 * n2)
            if not pairing:
                continue
            coeffs = powers.get(pairing)
            if coeffs is None:
                coeffs = powers[pairing] = (wall.func ** pairing).coeffs
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
                state = (i, side, r1, r2)
                if state in dead:
                    continue
                if r1 or r2:
                    # The bend point lies on the half-line, so its ray
                    # turns from there.
                    f1, f2 = m1 + r1 * a1 + r2 * b1, m2 + r1 * a2 + r2 * b2
                    t = hx * f2 - hy * f1
                    if t and _crosses_nothing(
                        index[first[r1] & second[r2]], here, hx, hy, f1, f2, t
                    ):
                        self.pruned += 1
                        dead.add(state)
                        continue
                if bend is None:
                    bend = _bend_point(point, hx, hy, e1, e2)
                rev_bends.append((wall, bend, j, factor, c1, c2))
                if self.descend(r1, r2, bend, here, rev_bends):
                    found = True
                else:
                    dead.add(state)
                rev_bends.pop()
        return found

    def _assemble(self, rev_bends: list) -> BrokenLine:
        segments = [Segment(1, self.m0, None, None, 0)]
        coeff = 1
        exponent = self.exponent
        for wall, (x, y, w), j, factor, c1, c2 in reversed(rev_bends):
            coeff *= factor
            start = (Fraction(x, w), Fraction(y, w))
            segments.append(Segment(coeff, exponent(c1, c2), start, wall, j))
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
    stats: dict[str, int] | None = None,
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
    :class:`DegenerateBrokenLineError`.  When ``stats`` is given, the
    search's counts are added to its ``entered`` (nodes searched) and
    ``pruned`` (states found dead without a search) entries.
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
    if n != 2:
        raise UnsupportedInputError("broken lines implemented for rank-2 diagrams")
    if not any(m0[:n]):
        raise UnsupportedInputError(f"initial exponent {m0} has no direction")
    if final_filter is not None and len(final_filter) != 2 * n:
        raise InputError(f"final filter must have length {2 * n}")
    q = _as_point(endpoint)
    eps = diagram.seed.exchange_block()
    pt = _plane_endpoint(eps, m0, q)
    point = homogeneous(pt)
    # Every support is a cone, so the endpoint lies on one exactly when
    # its direction is a half-line's; ensure_generic names the wall.
    at = diagram.ring.slot(point[0], point[1]) if pt != _ORIGIN else None
    if at is None:
        ensure_generic(diagram, pt, given=q)
    index = _search_index(diagram)
    engine = _Engine(index, eps, m0, pt, point, (at, len(index.ccw) - at))
    engine.run(budget, final_filter)
    if stats is not None:
        stats["entered"] = stats.get("entered", 0) + engine.entered
        stats["pruned"] = stats.get("pruned", 0) + engine.pruned
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
    end = _plane_endpoint(diagram.seed.exchange_block(), m0, q)
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
