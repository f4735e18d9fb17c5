"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``clusterscatter``: every value is recomputed from
the mathematics, so a wrong answer from the program cannot agree with its
own check by sharing code.  Conventions read off the program's documented
output format:

* exponents have four entries ``(A1, A2, X1, X2)``; the series degree of
  a term is ``X1 + X2``;
* a rank-2 wall with primitive normal ``d = (d1, d2)`` on the diagram of
  ``--b b`` carries a series in ``t = z^(-b*d2, b*d1, d1, d2)``;
* on the two-arrow Kronecker quiver both arrows run from vertex 1 to
  vertex 2, and a cluster character term ``chi * z^E`` has ``E``'s
  ``X``-part equal to the subdimension vector ``e``.

References: the central ray is Gross--Pandharipande--Siebert, "The
tropical vertex" (arXiv:0902.0779); Euler characteristics of string-module
Grassmannians count successor-closed subsets of the coefficient quiver
(Cerulli Irelli, arXiv:0910.2592).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb

Poly = dict  # exponent tuple -> int coefficient


# ---------------------------------------------------------------------------
# Univariate integer power series (coefficient lists, constant term first)


def series_mul(f: list[int], g: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, a in enumerate(f[: n + 1]):
        if a:
            for j, b in enumerate(g[: n + 1 - i]):
                out[i + j] += a * b
    return out


def series_pow(f: list[int], k: int, n: int) -> list[int]:
    """``f ** k`` through ``t^n`` for ``f`` with constant term 1; ``k`` may
    be negative."""
    if f[0] != 1:
        raise ValueError("series power needs constant term 1")
    base = list(f[: n + 1]) + [0] * max(0, n + 1 - len(f))
    if k < 0:
        inv = [1] + [0] * n
        for i in range(1, n + 1):
            inv[i] = -sum(base[j] * inv[i - j] for j in range(1, i + 1))
        base, k = inv, -k
    out = [1] + [0] * n
    for _ in range(k):
        out = series_mul(out, base, n)
    return out


def central_ray(b: int, n: int) -> list[int]:
    """``(sum_k C((b-1)^2 k, k) / ((b^2-2b) k + 1) t^k) ** b`` through
    ``t^n``: the function on the ray of normal (1, 1) for ``b >= 2``."""
    inner = []
    for k in range(n + 1):
        value = Fraction(comb((b - 1) ** 2 * k, k), (b * b - 2 * b) * k + 1)
        if value.denominator != 1:
            raise ValueError(f"non-integral central-ray coefficient at k={k}")
        inner.append(int(value))
    return series_pow(inner, b, n)


# ---------------------------------------------------------------------------
# Rank-2 scattering diagrams


def wall_step(b: int, normal: tuple[int, int]) -> tuple[int, int, int, int]:
    d1, d2 = normal
    return (-b * d2, b * d1, d1, d2)


def wall_series(b: int, normal, function: dict) -> list[int]:
    """Coefficient list in ``t`` of a wall function given as
    ``{exponent tuple: coeff}``; raises if a term is not a power of ``t``."""
    step = wall_step(b, tuple(normal))
    coeffs: dict[int, int] = {}
    for expo, c in function.items():
        j, rem = divmod(expo[2] + expo[3], step[2] + step[3])
        if rem or tuple(expo) != tuple(j * s for s in step):
            raise ValueError(f"term {expo} is not a power of the wall monomial")
        coeffs[j] = c
    top = max(coeffs, default=0)
    return [coeffs.get(j, 0) for j in range(top + 1)]


def cluster_pairs(b: int, order: int) -> set[tuple[int, int]]:
    """Normals ``(x_k, x_k+1)`` and ``(x_k+1, x_k)`` of degree at most
    ``order`` for the sequence ``x_0 = 0, x_1 = 1, x_k+1 = b x_k - x_k-1``
    (``b >= 3``)."""
    out = set()
    x0, x1 = 0, 1
    while x0 + x1 <= order:
        out.add((x0, x1))
        out.add((x1, x0))
        x0, x1 = x1, b * x1 - x0
    return out


def check_scatter(b: int, order: int, walls: list) -> list[str]:
    """Problems found in a completed diagram given as ``(normal,
    {exponent: coeff})`` pairs (empty when correct)."""
    problems = []
    series = {}
    for normal, function in walls:
        try:
            f = wall_series(b, normal, function)
        except ValueError as exc:
            problems.append(f"wall {normal}: {exc}")
            continue
        if f[0] != 1 or any(c <= 0 for c in f):
            problems.append(f"wall {normal}: coefficients {f} not 1 + positive")
        if normal in series:
            problems.append(f"normal {normal} appears twice")
        series[normal] = f
    for (p, q), f in series.items():
        if series.get((q, p)) != f:
            problems.append(f"normals {(p, q)} and {(q, p)} differ")
    normals = set(series)
    if b == 1 and len(walls) != 3:
        problems.append(f"b=1 gave {len(walls)} walls, not 3")
    if b == 2:
        want = {(1, 0), (0, 1)} | ({(1, 1)} if order >= 2 else set())
        k = 1
        while 2 * k + 1 <= order:
            want |= {(k, k + 1), (k + 1, k)}
            k += 1
        if normals != want:
            problems.append(f"b=2 normals {sorted(normals)} != {sorted(want)}")
    if b >= 3:
        outside = {(p, q) for p, q in normals if q * q - b * p * q + p * p > 0}
        if outside != cluster_pairs(b, order):
            problems.append(f"b={b} normals outside the cone: {sorted(outside)}")
    for normal in normals:
        on_cluster_ray = b == 2 and normal != (1, 1) or (
            b >= 3 and normal[1] ** 2 - b * normal[0] * normal[1] + normal[0] ** 2 > 0
        )
        if on_cluster_ray and series[normal] != [1, 1]:
            problems.append(f"cluster ray {normal} has function {series[normal]}")
    if b >= 2 and order >= 2:
        want_central = central_ray(b, order // 2)
        if series.get((1, 1)) != want_central:
            problems.append(
                f"central ray {series.get((1, 1))} != formula {want_central}"
            )
    return problems


# ---------------------------------------------------------------------------
# Laurent polynomials and wall-crossing transport (rank 2, view "m")


def x_degree(expo) -> int:
    return expo[2] + expo[3]


def truncate(poly: Poly, k: int) -> Poly:
    return {e: c for e, c in poly.items() if x_degree(e) <= k and c}


def crossings(walls: list[dict], start, end) -> list[tuple[dict, int]]:
    """Walls met by the straight segment ``start -> end`` in order, each
    with its crossing sign (+1 when the pairing with the normal grows).

    ``walls`` hold ``normal``, ``kind`` ("line" or "ray") and the support
    ``direction``.  Raises when the segment passes through the origin or
    meets two walls at one point.
    """
    sx, sy = Fraction(start[0]), Fraction(start[1])
    ex, ey = Fraction(end[0]), Fraction(end[1])
    if sx * ey - sy * ex == 0:
        raise ValueError("transport segment is collinear with the origin")
    hits = []
    for wall in walls:
        n1, n2 = wall["normal"]
        a, z = sx * n1 + sy * n2, ex * n1 + ey * n2
        if a == 0 or z == 0:
            raise ValueError("transport endpoint on a wall support")
        if (a > 0) == (z > 0):
            continue
        s = a / (a - z)
        px, py = sx + s * (ex - sx), sy + s * (ey - sy)
        u = wall["direction"]
        if wall["kind"] == "ray" and px * u[0] + py * u[1] <= 0:
            continue
        hits.append((s, wall, 1 if z > a else -1))
    hits.sort(key=lambda h: h[0])
    if len({h[0] for h in hits}) != len(hits):
        raise ValueError("transport segment meets two walls at one point")
    return [(wall, sign) for _, wall, sign in hits]


def transport(poly: Poly, walls: list[dict], start, end, b: int, k: int) -> Poly:
    """Apply the wall crossings of ``start -> end`` to ``poly``, keeping
    terms of series degree at most ``k``.  Each wall carries its ``series``
    (coefficients in its ``t``); ``z^E`` crossing with sign ``s`` becomes
    ``z^E * f^(-s <E_A, normal>)``."""
    out = truncate(poly, k)
    for wall, sign in crossings(walls, start, end):
        normal = tuple(wall["normal"])
        step = wall_step(b, normal)
        new: Poly = {}
        for expo, c in out.items():
            power = -sign * (expo[0] * normal[0] + expo[1] * normal[1])
            room = (k - x_degree(expo)) // (normal[0] + normal[1])
            f = series_pow(wall["series"], power, room) if power else [1]
            for j, a in enumerate(f[: room + 1]):
                if a:
                    key = tuple(x + j * s for x, s in zip(expo, step))
                    new[key] = new.get(key, 0) + c * a
        out = {e: c for e, c in new.items() if c}
    return out


# ---------------------------------------------------------------------------
# Kronecker string modules over F_p and their coefficient quivers


def kronecker_model(d: tuple[int, int]):
    """Arrow matrices ``(A, B)`` (rows index vertex 2) of the indecomposable
    string module of dimension ``d`` on the two-arrow quiver.  For the
    regular ``(k, k)`` the second arrow is already replaced by ``B - A``,
    a single nilpotent Jordan block; both pairs have the same
    subrepresentations."""
    d1, d2 = d
    if d2 == d1 + 1:
        a = [[int(i == j) for j in range(d1)] for i in range(d2)]
        b = [[int(i == j + 1) for j in range(d1)] for i in range(d2)]
    elif d1 == d2 + 1:
        a = [[int(i == j) for j in range(d1)] for i in range(d2)]
        b = [[int(i + 1 == j) for j in range(d1)] for i in range(d2)]
    elif d1 == d2:
        a = [[int(i == j) for j in range(d1)] for i in range(d2)]
        b = [[int(j == i + 1) for j in range(d1)] for i in range(d2)]
    else:
        raise ValueError(f"{d} is not a Kronecker string dimension vector")
    return a, b


def successor_closed_counts(d: tuple[int, int]) -> dict[tuple[int, int], int]:
    """For every ``e``, the number of successor-closed subsets of the
    coefficient quiver of the string module with dimension ``d``: the Euler
    characteristic of its quiver Grassmannian ``Gr_e``."""
    d1, d2 = d
    a, b = kronecker_model(d)
    succ = [
        [i for i in range(d2) if a[i][j] or b[i][j]] for j in range(d1)
    ]
    counts: dict[tuple[int, int], int] = {}
    for mask in range(1 << d1):
        src = [j for j in range(d1) if mask >> j & 1]
        forced = {i for j in src for i in succ[j]}
        free = d2 - len(forced)
        for extra in range(free + 1):
            e = (len(src), len(forced) + extra)
            counts[e] = counts.get(e, 0) + comb(free, extra)
    return counts


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _subspace_bases(n: int, k: int, p: int):
    """Reduced row-echelon bases of every ``k``-subspace of ``F_p^n``."""
    for pivots in combinations(range(n), k):
        free = [
            (r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots
        ]
        for values in product(range(p), repeat=len(free)):
            basis = [[0] * n for _ in range(k)]
            for r, c in enumerate(pivots):
                basis[r][c] = 1
            for (r, c), v in zip(free, values):
                basis[r][c] = v
            yield basis


def fp_count(d: tuple[int, int], e: tuple[int, int], p: int) -> int:
    """Subrepresentations of dimension ``e`` of the string module ``d``
    over ``F_p``: every ``e1``-subspace ``U`` at the source is enumerated,
    and the ``e2``-subspaces at the sink containing ``A U + B U`` are
    counted by a Gaussian binomial."""
    d1, d2 = d
    e1, e2 = e
    if not (0 <= e1 <= d1 and 0 <= e2 <= d2):
        return 0
    a, b = kronecker_model(d)
    total = 0
    for basis in _subspace_bases(d1, e1, p):
        images = [
            [sum(m[i][j] * v[j] for j in range(d1)) for i in range(d2)]
            for m in (a, b)
            for v in basis
        ]
        r = _rank_mod_p(images, p) if images and d2 else 0
        total += gaussian_binomial(d2 - r, e2 - r, p)
    return total


# ---------------------------------------------------------------------------
# q-polynomials as printed by ``strata``


def parse_qpoly(text: str) -> dict[int, int]:
    """Parse ``3*q^2 + q - 1`` style text into ``{exponent: coeff}``."""
    terms: dict[int, int] = {}
    sign = 1
    for token in text.split():
        if token in "+-":
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -sign, token[1:]
        coeff, _, var = token.rpartition("*") if "*" in token else ("", "", token)
        if var.startswith("q"):
            expo = int(var[2:]) if var.startswith("q^") else 1
            c = int(coeff) if coeff else 1
        else:
            expo, c = 0, int(var)
        terms[expo] = terms.get(expo, 0) + sign * c
        sign = 1
    return terms


def qpoly_at(terms: dict[int, int], q: int) -> int:
    return sum(c * q**e for e, c in terms.items())
