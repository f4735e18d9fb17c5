"""Walls, wall-crossing automorphisms, consistency completion in rank 2,
and cluster-complex wall fans in any rank.

Geometry conventions
--------------------
* All rank-2 geometry lives in one plane: the plane of the first two
  coordinates of an exponent, where a point pairs with a wall normal
  coordinatewise.  Walls, angular paths, broken lines and the pictures
  all use it, with every wall support exactly as the diagram stores it.
* Every wall support passes through the origin, so a path between two
  generic points is, up to homotopy avoiding the origin, an angular
  sweep; paths are therefore specified by start/end points plus a turn
  direction, and all angle comparisons use exact cross products.
* The angular order of the supports is decided in one place, the
  diagram's ring (:attr:`ScatteringDiagram.ring`): its walls' supports as
  half-lines from the origin, a line giving two and a ray one, sorted
  once anticlockwise from ``(1, 0)`` by an exact angle key, half-lines of
  one direction by wall index.  A direction on no half-line has a slot,
  the number of half-lines before it.  A full anticlockwise loop from
  just after a direction is the ring rotated at its slot.  An
  anticlockwise path is that loop from its start cut at the end's slot,
  a clockwise path is the rest reversed with the signs flipped, and a
  loop (of a path, of the completion or of its check) is all of it; the
  broken-line search in :mod:`brokenlines` walks the same ring.
* :func:`on_support` tells whether a point lies on a given wall's
  support, and :func:`ensure_generic` applies it to name the wall under
  a path's or a broken line's endpoint; validating a broken line uses
  them as a second route to the ring's slots.
* A wall stores a primitive normal with nonnegative entries, a support
  ("line" through the origin, "ray" from the origin, or a "cone" spanned
  by chamber generators in higher rank), a crossing function — a power
  series with constant term 1 in the single doubled-lattice monomial
  ``t = z^(p~*(normal, 0))``, stored as its coefficients in ``t`` — and
  an incoming flag.
* Crossing signs: a crossing is positive when the pairing with the wall
  normal increases along the travel direction.  The crossing function is
  applied as ``z^e -> z^e * f^{s * <e_m, normal>}`` where ``s`` is -1 for
  a positive crossing and +1 for a negative one (the signed normal pairs
  negatively with the travel direction), and ``e_m`` is the base-lattice
  part of the exponent.  :func:`wall_cross` is the one crossing kernel:
  paths, completion and its check all push polynomials through it.

Rank-2 completion
-----------------
The outgoing rays of a consistent rank-2 diagram sit in one open sector
that the incoming lines do not enter, so their ordered product equals the
lines crossed the other way round the origin, and it factors uniquely in
slope order (Kontsevich-Soibelman; Gross-Pandharipande-Siebert).
:func:`complete_rank2` peels the rays off that product at the full order,
last slope first, and checks the result with one full loop on the ring
the completed diagram keeps.

Positive crossings
------------------
In the mutation fan (Gross-Hacking-Keel-Kontsevich, arXiv:1411.1394) a
path out of a chamber through its facet ``k`` crosses positively iff the
``k``-th c-vector is nonpositive.  A positive-crossing pair ``(w1, w2)``
is crossed positively in turn, out of ``C0`` and then out of the next
chamber, with ``-p*(n1)`` strictly inside the crossed facet: every other
c-vector of ``C0`` pairs with it to more than 0.  Allowing the closed
facet makes many pairs fail the paper's theorem (:func:`ar_order_check`).
A4 has no pair: of its 84 positive crossings (42 chambers) none has
``-p*(n1)`` in the open facet and 35 in the closed one (A5: 330, 0, 126).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, mul
from typing import NamedTuple, Sequence

from . import lattice
from .cluster import Seed, mutate_tropical
from .errors import (
    GenericPositionError,
    InputError,
    NonTransversalCrossingError,
    UnsupportedInputError,
)
from .lattice import (
    GradedSeries,
    LaurentPoly,
    Vec,
    check_skew,
    dual_pair,
    p_star,
    primitive,
    tilde_p_star,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_str,
)
from .quiver import (
    Quiver,
    classify_indecomposable,
    euler_form,
    is_predecessor,
    quiver_to_skew,
)

DEFAULT_ORDER = 8

Point = tuple[Fraction, Fraction]


def _cross(a: Sequence, b: Sequence):
    """Exact 2D cross product, of integer or rational vectors."""
    return a[0] * b[1] - a[1] * b[0]


def _dot(a: Sequence, b: Sequence):
    return a[0] * b[0] + a[1] * b[1]


_ORIGIN = (Fraction(0), Fraction(0))


# ---------------------------------------------------------------------------
# Walls and diagrams


class Wall(NamedTuple("Wall", [
    ("normal", Vec),
    ("kind", str),
    ("span", tuple[Vec, ...]),
    ("func", GradedSeries),
    ("incoming", bool),
])):
    """One wall of a scattering diagram.

    ``normal`` is primitive with nonnegative entries.  ``kind`` is
    "line" (full line through the origin, rank 2), "ray" (from the
    origin, rank 2), or "cone" (facet spanned by ``span`` in rank >= 3);
    for the 2D kinds ``span`` holds the single primitive direction.
    ``func`` is a power series with constant term 1 in the one monomial
    ``t = z^(p~*(normal, 0))``, so its step ends with the normal.
    """

    __slots__ = ()

    def __new__(
        cls,
        normal: Vec,
        kind: str,
        span: tuple[Vec, ...],
        func: GradedSeries,
        incoming: bool,
    ) -> "Wall":
        if any(x < 0 for x in normal) or vec_is_zero(normal):
            raise InputError("wall normal must be nonzero with nonnegative entries")
        if normal != primitive(normal):
            raise InputError("wall normal must be primitive")
        if kind not in ("line", "ray", "cone"):
            raise InputError(f"unknown wall kind {kind!r}")
        if func.constant_term() != 1:
            raise InputError("wall function must have constant term 1")
        if func.step[len(normal):] != normal:
            raise InputError(
                "wall function must be a series in the monomial of the normal"
            )
        return super().__new__(cls, normal, kind, span, func, incoming)

    def direction(self) -> Vec:
        if self.kind == "cone":
            raise InputError("cone walls have no single direction")
        return self.span[0]


def support_directions(wall: Wall) -> tuple[Vec, ...]:
    """The directions of a 2D wall's support from the origin: two for a
    full line, one for a ray."""
    u = wall.direction()
    return (u, vec_scale(-1, u)) if wall.kind == "line" else (u,)


class ScatteringDiagram(NamedTuple("ScatteringDiagram", [
    ("seed", Seed),
    ("order", int),
    ("walls", tuple[Wall, ...]),
])):
    """A finite-order collection of walls attached to a seed.

    It declares no ``__slots__``: its instance dict keeps what is derived
    from the walls once, the ring of a rank-2 diagram's half-lines
    (:attr:`ring`) and the broken-line search's index on it
    (:mod:`clusterscatter.brokenlines`), which are written into it
    directly and take no part in equality.  Assignment is refused.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: a diagram is immutable")

    @property
    def rank(self) -> int:
        return self.seed.rank

    @cached_property
    def ring(self) -> "_Ring":
        """The half-lines of a rank-2 diagram in angular order, sorted on
        first use and kept in the instance dict: the walls never change."""
        return _Ring(self.walls)


def initial_diagram(seed: Seed, order: int = DEFAULT_ORDER) -> ScatteringDiagram:
    """One incoming wall per seed direction: the coordinate hyperplane of
    each unit normal, with function ``1 + z^(doubled unit monomial)``."""
    n = seed.rank
    eps = seed.exchange_block()
    walls = []
    for i in range(n):
        unit = tuple(int(j == i) for j in range(n))
        func = GradedSeries(tilde_p_star(eps, unit + (0,) * n), order, (1, 1))
        if n == 2:
            span: tuple[Vec, ...] = ((0, 1) if i == 0 else (1, 0),)
            kind = "line"
        else:
            span = tuple(
                tuple(int(k == j) for k in range(n)) for j in range(n) if j != i
            )
            kind = "cone"
        walls.append(Wall(unit, kind, span, func, incoming=True))
    return ScatteringDiagram(seed, order, tuple(walls))


# ---------------------------------------------------------------------------
# Wall crossing


def wall_cross(
    poly: LaurentPoly, wall: Wall, sign: int, order: int
) -> LaurentPoly:
    """Push a Laurent polynomial through one wall crossing.

    ``sign`` is the crossing sign (+1 when the normal pairing increases
    along the travel direction).  Each monomial ``z^e`` becomes
    ``z^e * func^{-sign * <e_m, normal>}`` truncated at the series
    order: the ``k``-th coefficient of that power lands on
    ``e + k * step`` while both ``k * deg(step)`` and the degree of the
    result stay within the order.  The multiples of the step are built
    once per call, and each distinct power is looked up once.
    """
    if sign not in (1, -1):
        raise NonTransversalCrossingError(
            "crossing sign must be +1 or -1 (tangential crossings are invalid)"
        )
    func = wall.func
    if order > func.order:
        raise InputError("cannot extend a truncated series")
    normal = wall.normal
    n = len(normal)
    width = poly.width()
    if width is not None and width != 2 * n:
        raise InputError(f"exponent length {width} is not 2*{n}")
    step = func.step
    deg = sum(step[n:])
    multiples = [tuple(k * s for s in step) for k in range(order // deg + 1)]
    powers: dict[int, tuple[int, ...]] = {}
    out: dict[Vec, int] = {}
    get = out.get
    limit = lattice.BUDGET.terms
    for expo, coeff in poly.terms.items():
        room = order - sum(expo[n:])
        if room < 0:
            continue
        out[expo] = get(expo, 0) + coeff
        power = -sign * sum(map(mul, expo, normal))
        if power and room >= deg:
            coeffs = powers.get(power)
            if coeffs is None:
                coeffs = powers[power] = (func ** power).coeffs
            for k in range(1, min(room, order) // deg + 1):
                c = coeffs[k]
                if c:
                    e = tuple(map(add, expo, multiples[k]))
                    out[e] = get(e, 0) + coeff * c
        if len(out) > limit:
            lattice.charge("terms", "a wall crossing", len(out))
    result = LaurentPoly()
    result.terms = {e: c for e, c in out.items() if c}
    return result


# ---------------------------------------------------------------------------
# Supports


def on_support(wall: Wall, pt: Point) -> bool:
    """Whether the point lies on the 2D support of the wall."""
    d = wall.direction()
    if _cross(d, pt) != 0:
        return False
    return wall.kind == "line" or _dot(d, pt) >= 0


def homogeneous(pt: Sequence) -> tuple[int, int, int]:
    """Integer coordinates ``(X, Y, D)`` with ``D > 0`` of the rational
    point ``(X/D, Y/D)``."""
    x, y = Fraction(pt[0]), Fraction(pt[1])
    den = lcm(x.denominator, y.denominator)
    return (
        x.numerator * (den // x.denominator),
        y.numerator * (den // y.denominator),
        den,
    )


def ensure_generic(
    diagram: ScatteringDiagram, pt: Point, *, given: Point | None = None
) -> None:
    """Reject a point on the diagram's support.  The message names
    ``given``, the point as the caller wrote it, when ``pt`` is its image
    in the plane."""
    if pt == _ORIGIN:
        raise GenericPositionError("endpoint at the origin is never generic")
    # Every support is a cone, so the positive multiple (X, Y) of pt lies
    # on the same ones and the test runs on integers.
    scaled = homogeneous(pt)[:2]
    for wall in diagram.walls:
        if on_support(wall, scaled):
            raise GenericPositionError(
                f"endpoint {vec_str(pt if given is None else given)} lies on "
                f"the wall with normal {vec_str(wall.normal)}; perturb it off "
                "the support"
            )


# ---------------------------------------------------------------------------
# Angular paths


class _Ring:
    """The supports of rank-2 walls as half-lines from the origin, in one
    anticlockwise order from ``(1, 0)``.

    A half-line is ``(x, y, wall index, side, wall)``: its direction and
    whether that is the wall's direction rather than its opposite.
    ``ring`` lists them by exact angle key, half-lines of one direction by
    wall index, and ``starts`` holds where each direction's group begins,
    then their number."""

    __slots__ = ("ring", "starts", "_scale", "_keys")

    def __init__(self, walls: Sequence[Wall]):
        halves = [
            (*u, index, u == wall.direction(), wall)
            for index, wall in enumerate(walls)
            for u in support_directions(wall)
        ]
        # Over a common denominator of the half-lines' cotangents, an
        # angle's key is integral for them; a point's may be a fraction.
        self._scale = lcm(*(half[1] for half in halves if half[1]))
        self.ring, self.starts, self._keys = [], [], []
        for key, _, half in sorted((self.angle(*h[:2]), h[2], h) for h in halves):
            if not self._keys or self._keys[-1] != key:
                self._keys.append(key)
                self.starts.append(len(self.ring))
            self.ring.append(half)
        self.starts.append(len(self.ring))

    def angle(self, x, y) -> tuple:
        """The anticlockwise angle of ``(x, y)`` from ``(1, 0)``, as an exact
        key: the half-plane, then the cotangent ``-x/y``, which rises with
        the angle in either half."""
        if not y:
            return x < 0, False, 0
        cot = -x * self._scale
        return y < 0, True, cot // y if cot % y == 0 else Fraction(cot, y)

    def slot(self, x, y) -> int | None:
        """The number of half-lines before the direction of a point other
        than the origin, or ``None`` when the point lies on one."""
        key = self.angle(x, y)
        after = bisect_left(self._keys, key)
        if after < len(self._keys) and self._keys[after] == key:
            return None
        return self.starts[after]

    def loop(self, at: int | None) -> list[tuple[Wall, int]]:
        """The (wall, anticlockwise crossing sign) of a full anticlockwise
        loop from a direction of slot ``at``, in crossing order: the ring
        rotated there."""
        if at is None:
            raise GenericPositionError("loop base direction lies on a support")
        return [
            (wall, _ccw_sign((hx, hy), wall.normal))
            for hx, hy, _, _, wall in self.ring[at:] + self.ring[:at]
        ]


class CrossingPath(NamedTuple("CrossingPath", [
    ("start", Point),
    ("end", Point),
    ("turn", str),
    ("full_loops", int),
])):
    """An origin-avoiding path between two generic points, encoded as an
    angular sweep: start point, end point, turn direction, and a number
    of extra full anticlockwise loops."""

    __slots__ = ()

    def __new__(
        cls, start: Point, end: Point, turn: str = "auto", full_loops: int = 0
    ) -> "CrossingPath":
        if turn not in ("auto", "ccw", "cw"):
            raise InputError('turn must be "auto", "ccw" or "cw"')
        if full_loops < 0:
            raise InputError("full_loops must be nonnegative")
        return super().__new__(cls, start, end, turn, full_loops)


def path_crossings(
    path: CrossingPath, diagram: ScatteringDiagram
) -> list[tuple[Wall, int]]:
    """The ordered (wall, sign) crossing list of an angular path.

    Every path reads the full anticlockwise loop from its start: an
    anticlockwise sweep is the part of the loop before the end direction,
    a clockwise sweep is the rest reversed with the signs flipped, and
    ``"auto"`` takes the shorter (anticlockwise on a tie).
    """
    if diagram.rank != 2:
        raise UnsupportedInputError("angular paths need a rank-2 diagram")
    ring = diagram.ring
    # The ring gives the origin a slot and a point on a support none;
    # ensure_generic rejects the one and names the wall under the other.
    start, end = (
        ring.slot(*pt) if any(pt) else None for pt in (path.start, path.end)
    )
    if start is None or end is None:
        ensure_generic(diagram, path.start)
        ensure_generic(diagram, path.end)
    loop = ring.loop(start)
    # the end direction is on no support, so it splits the loop in two
    split = end - start
    if split < 0 or not split and ring.angle(*path.end) < ring.angle(*path.start):
        split += len(loop)
    ccw = loop[:split]
    cw = [(wall, -sign) for wall, sign in reversed(loop[split:])]
    if path.turn == "auto":
        tail = ccw if len(ccw) <= len(cw) else cw
    else:
        tail = ccw if path.turn == "ccw" else cw
    return loop * path.full_loops + tail


def _ccw_sign(u: Vec, normal: Vec) -> int:
    """Sign of an anticlockwise crossing at direction ``u``: the normal
    paired with the tangent ``(-u[1], u[0])``, which is ``u x normal``."""
    s = _cross(u, normal)
    if s == 0:
        raise NonTransversalCrossingError(
            f"support direction {u} is tangent to its own normal pairing"
        )
    return 1 if s > 0 else -1


class PathAction:
    """The composite wall-crossing automorphism of a path, truncated."""

    def __init__(self, crossings: list[tuple[Wall, int]], order: int):
        self.crossings = crossings
        self.order = order

    def apply(self, poly: LaurentPoly) -> LaurentPoly:
        out = poly
        for wall, sign in self.crossings:
            out = wall_cross(out, wall, sign, self.order)
        return out


def path_ordered_product(path: CrossingPath, diagram: ScatteringDiagram) -> PathAction:
    return PathAction(path_crossings(path, diagram), diagram.order)


# ---------------------------------------------------------------------------
# Rank-2 consistency completion


def complete_rank2(
    diagram: ScatteringDiagram, order: int
) -> ScatteringDiagram:
    """Add outgoing rays until every loop around the origin acts as the
    identity modulo the given order.

    ``diagram`` must be the :func:`initial_diagram` of its seed: the two
    incoming lines.  The outgoing rays lie in the open sector from
    ``-p*(1, 0)`` anticlockwise to ``-p*(0, 1)``, which no line enters, so
    a loop that is the identity makes their product ``R``, crossed
    anticlockwise, equal to the lines crossed the other way round the
    origin.  That gives the images of the unit base monomials under ``R``
    (a crossing reads only the base part of an exponent, so they fix
    ``R``), and the rays are peeled off them, last first:

    * Every term of an image is ``z^(unit + p~*(c, 0))`` with ``c >= 0``
      a sum of ray normals, and ``c -> -p*(c)`` keeps the anticlockwise
      order.  Only the ray crossed last reaches its own direction: each
      ray multiplies by a series in the monomial of its normal, so a term
      that an earlier ray touched carries a positive multiple of that
      earlier normal, which comes strictly before the last one.  The terms
      on the last direction are therefore the last ray's function to the
      power ``-s <unit, normal>``, with ``s`` its crossing sign, and a
      Bezout combination of the two units' readings gives the function.
    * One inverse :func:`wall_cross` divides the ray off both images; this
      repeats until both are bare monomials.

    Each ray's function must split as a product of ``(1 + u^g)^t`` with
    positive integers ``t``, ``u`` the monomial of its primitive normal;
    anything else is an inconsistency and raises.  The rays come out in
    order of their first factor's exponent ``g * normal``: by degree, then
    lexicographically.  A full loop at the order checks the result.
    """
    seed = diagram.seed
    if seed.rank != 2:
        raise UnsupportedInputError("completion is implemented in rank 2 only")
    if diagram.walls != initial_diagram(seed, diagram.order).walls:
        raise UnsupportedInputError(
            "completion starts from the initial diagram of its seed"
        )
    eps = seed.exchange_block()
    lines = [
        Wall(w.normal, w.kind, w.span, w.func.truncate(order), w.incoming)
        for w in diagram.walls
    ]
    # -p*(1, 1) lies inside the sector of the rays and p*(1, 1) opposite it
    inside = vec_scale(-1, p_star(eps, (1, 1)))
    ring = _Ring(lines)
    around = PathAction(
        [(wall, -sign) for wall, sign in reversed(ring.loop(ring.slot(*inside)))], order
    )
    # a crossing multiplies z^m by the wall function to the power
    # <m, normal>, which reads only the base part of m, so the coefficient
    # units never move and only the base units are measured
    units = [(1, 0, 0, 0), (0, 1, 0, 0)]
    images = [around.apply(LaurentPoly.monomial(unit)) for unit in units]
    rays = []
    done = None
    while True:
        last = None
        for image in images:
            for expo in image.terms:
                c = expo[2:]
                if c != (0, 0) and (last is None or _cross(last, c) > 0):
                    last = c
        if last is None:
            break
        # a ray that failed to divide off would be read again forever
        if done is not None and _cross(last, done) <= 0:
            raise InputError("completion failed to factor the ray product")
        normal = done = primitive(last)
        ray_dir = primitive(vec_scale(-1, p_star(eps, normal)))
        sign = _ccw_sign(ray_dir, normal)
        step = tilde_p_star(eps, normal + (0, 0))
        readings = [
            GradedSeries(step, order, [
                image.coefficient(vec_add(unit, vec_scale(k, step)))
                for k in range(order // sum(normal) + 1)
            ])
            for image, unit in zip(images, units)
        ]
        x, y = _bezout(*normal)
        wall = Wall(
            normal, "ray", (ray_dir,),
            (readings[0] ** x * readings[1] ** y) ** -sign, incoming=False,
        )
        rays.append((_first_factor(wall), wall))
        images = [wall_cross(image, wall, -sign, order) for image in images]
    rays = [wall for _, wall in sorted(rays, key=lambda ray: ray[0])]
    completed = ScatteringDiagram(seed, order, tuple(lines + rays))
    # the check reads the ring the diagram keeps, so no later use sorts
    ring = completed.ring
    loop = PathAction(ring.loop(ring.slot(*p_star(eps, (1, 1)))), order)
    for unit in units:
        mono = LaurentPoly.monomial(unit)
        if loop.apply(mono) != mono:
            raise InputError("completion failed to make the loop product trivial")
    return completed


def _bezout(a: int, b: int) -> tuple[int, int]:
    """Integers ``(x, y)`` with ``x * a + y * b == 1``, for coprime
    ``a, b >= 0``."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0


def _first_factor(ray: Wall) -> tuple[int, Vec]:
    """Degree and exponent ``g * normal`` of the first factor of the ray's
    function ``prod_g (1 + u^g)^(t_g)``; raises unless every ``t_g`` is a
    positive integer or 0."""
    func = ray.func
    rest, first = func, None
    for g in range(1, len(func.coeffs)):
        t = rest.coeffs[g]
        if not t:
            continue
        c = vec_scale(g, ray.normal)
        if t < 0:
            raise InputError(
                f"completion produced a nonpositive exponent {t} for "
                f"normal {c}; positivity violated"
            )
        first = first or (sum(c), c)
        binomial = GradedSeries(func.step, func.order, [1] + [0] * (g - 1) + [1])
        rest = rest * binomial ** -t
    return first


# ---------------------------------------------------------------------------
# Cluster-complex walls in any rank


class Chamber(NamedTuple):
    """A mutation-reachable chamber: generator columns, the c-vectors
    dual to them (``<c_j, g_k> = [j == k]``, Nakanishi-Zelevinsky
    arXiv:1101.3736), and the word that reaches its seed."""

    generators: tuple[Vec, ...]
    c_vectors: tuple[Vec, ...]
    word: tuple[int, ...]

    @property
    def normals(self) -> tuple[Vec, ...]:
        return tuple(map(_positive_rep, self.c_vectors))

    def facet(self, k: int) -> tuple[Vec, ...]:
        """The sorted generators of the facet without generator ``k``."""
        return tuple(sorted(self.generators[:k] + self.generators[k + 1:]))

    def interior_point(self) -> Vec:
        return tuple(map(sum, zip(*self.generators)))


def _positive_rep(v: Vec) -> Vec:
    if all(x <= 0 for x in v):
        return vec_scale(-1, v)
    if all(x >= 0 for x in v):
        return v
    raise InputError(f"vector {v} has mixed signs; coherence violated")


def cluster_complex_chambers(seed: Seed, depth: int) -> list[Chamber]:
    """Breadth-first mutation search recording each distinct chamber; only
    the extended matrix and the g-vectors mutate (:func:`mutate_tropical`),
    and the c-vectors are read off the extended matrix.  Mutation is an
    involution, so a chamber is not mutated at the letter that made it:
    that leads back to its parent, already recorded a level up."""
    if depth < 0:
        raise InputError("depth must be nonnegative")
    n = seed.rank
    seen: dict[frozenset[Vec], Chamber] = {}
    gens = tuple(zip(*seed.g_matrix()))
    current = [(check_skew(seed.eps_ext), gens, seed.word, None)]
    for level in range(depth + 1):
        nxt = []
        for mat, gens, word, last in current:
            if frozenset(gens) in seen:
                continue
            cvecs = tuple(row[n:] for row in mat[:n])
            seen[frozenset(gens)] = Chamber(gens, cvecs, word)
            if level < depth:
                nxt += [
                    mutate_tropical(mat, gens, k) + (word + (k,), k)
                    for k in range(1, n + 1)
                    if k != last
                ]
        current = nxt
    return list(seen.values())


def _fan(seed: Seed, depth: int):
    """The chambers of the mutation fan explored to ``depth``, and by
    facet the normal of its wall (the facet's c-vector made positive) and
    the explored chambers on it."""
    chambers = cluster_complex_chambers(seed, depth)
    facets: dict[tuple[Vec, ...], tuple[Vec, list[Chamber]]] = {}
    for chamber in chambers:
        for k, normal in enumerate(chamber.normals):
            span = chamber.facet(k)
            if span not in facets:
                facets[span] = normal, []
            facets[span][1].append(chamber)
    return chambers, facets


def _fan_wall(seed: Seed, span: tuple[Vec, ...], normal: Vec, order: int) -> Wall:
    """The wall on a facet of the mutation fan: function
    ``1 + z^(p~*(normal, 0))``."""
    step = p_star(seed.exchange_block(), normal) + normal  # p~*(normal, 0)
    kind = "ray" if seed.rank == 2 else "cone"
    return Wall(normal, kind, span, GradedSeries(step, order, (1, 1)), incoming=False)


def cluster_complex_diagram(
    seed: Seed, depth: int, order: int = DEFAULT_ORDER
) -> ScatteringDiagram:
    """Walls separating adjacent chambers of the mutation fan, one per
    facet of an explored chamber."""
    walls = [
        _fan_wall(seed, span, normal, order)
        for span, (normal, _) in _fan(seed, depth)[1].items()
    ]
    walls.sort(key=lambda wall: (wall.normal, wall.span))
    return ScatteringDiagram(seed, order, tuple(walls))


def find_chamber(chambers: Sequence[Chamber], point: Sequence) -> Chamber:
    """The first chamber whose c-vectors all pair with the point to >= 0."""
    for chamber in chambers:
        if all(dual_pair(c, point) >= 0 for c in chamber.c_vectors):
            return chamber
    raise InputError(f"point {point} lies in no explored chamber")


# ---------------------------------------------------------------------------
# Positive-crossing order theorem check


def positive_crossing_pairs(seed: Seed, depth: int) -> list[tuple[Wall, Wall]]:
    """The positive-crossing pairs (module notes) between explored chambers."""
    eps = seed.exchange_block()
    chambers, facets = _fan(seed, depth)
    # Walls are built only for the facets of the pairs returned.
    walls: dict[tuple[Vec, ...], Wall] = {}

    def wall(span):
        if span not in walls:
            walls[span] = _fan_wall(seed, span, facets[span][0], DEFAULT_ORDER)
        return walls[span]

    def crossings(chamber):
        for k, c in enumerate(chamber.c_vectors):
            if max(c) <= 0:
                span = chamber.facet(k)
                sides = facets[span][1]
                yield from ((k, span, c1) for c1 in sides if c1 is not chamber)

    pairs = []
    for c0 in chambers:
        for k, s1, c1 in crossings(c0):
            x = p_star(eps, c0.c_vectors[k])  # -p*(n1), as n1 = -c_k
            if all(dual_pair(c, x) > 0 for j, c in enumerate(c0.c_vectors) if j != k):
                pairs += [(wall(s1), wall(s2)) for _, s2, _ in crossings(c1)]
    return pairs


def ar_order_check(w1: Wall, w2: Wall, q: Quiver) -> bool:
    """The paper's theorem on a positive-crossing pair (module notes): the
    indecomposable of ``w2``'s normal precedes that of ``w1``'s.
    Regular-regular pairs are unsupported.  As a cross-check, the skew
    pairing identity relating the two normals' bilinear forms is asserted.
    """
    c1, c2 = w1.normal, w2.normal
    if c1 == c2:
        return True
    node1 = classify_indecomposable(q, c1)
    node2 = classify_indecomposable(q, c2)
    if node1.component == "R" and node2.component == "R":
        raise UnsupportedInputError(
            "order check between two regular normals is not determined"
        )
    eps = quiver_to_skew(q)
    lhs = dual_pair(vec_scale(-1, p_star(eps, c1)), c2)
    rhs = euler_form(q, c1, c2) - euler_form(q, c2, c1)
    if lhs != rhs:
        raise InputError(
            f"pairing identity failed: {lhs} != {rhs} for normals {c1}, {c2}"
        )
    return is_predecessor(q, node2, node1)


# ---------------------------------------------------------------------------
# Serialization


def diagram_to_json(diagram: ScatteringDiagram) -> dict:
    walls = []
    for wall in diagram.walls:
        walls.append(
            {
                "normal": list(wall.normal),
                "kind": wall.kind,
                "span": [list(v) for v in wall.span],
                "incoming": wall.incoming,
                "function": {
                    ",".join(str(x) for x in expo): coeff
                    for expo, coeff in wall.func.poly.sorted_terms()
                },
            }
        )
    return {"order": diagram.order, "rank": diagram.rank, "walls": walls}
