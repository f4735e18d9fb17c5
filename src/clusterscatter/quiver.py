"""Acyclic quiver representations and their homological combinatorics.

Provides the Euler form, the weight covector of a dimension vector, the
translate on dimension vectors via the Coxeter matrix, classification of
indecomposables into preprojective / regular / preinjective components
(Kac's theorem rejects every vector of Tits form above 1), mesh graphs of
translate orbits with irreducible-map arrows, one model per
indecomposable as a string (the simples of every quiver, the intervals of
the linear quivers and the indecomposables of the two-arrow quiver) with
its arrow matrices read off the string, exact subrepresentation counting
over prime fields, Euler characteristics of subrepresentation
Grassmannians as counts of torus-fixed points on the string's
coefficient quiver (Cerulli Irelli, arXiv:0910.2592), counting
polynomials as sums of ``q^(cell dimension)`` over the same fixed points,
each cell dimension a count of graph maps between the strings of the
fixed point and its quotient (Crawley-Boevey), with no linear algebra,
and the cluster-character Laurent polynomial built from those Euler
characteristics.

Conventions
-----------
* Vertices are numbered ``1..n``.  A quiver is its strictly upper
  triangular matrix ``counts`` of arrow multiplicities (``counts[s-1][t-1]``
  arrows ``s -> t``), so quivers are acyclic by construction.
* ``Quiver.arrows`` expands ``counts`` into one ``(s, t)`` per arrow in
  lexicographic order, the order of an explicit representation's maps;
  only code that needs one map per arrow reads it.
* ``euler_form(Q, c, d)`` is ``sum(c_i d_i) - sum_{arrows i->j} c_i d_j``;
  on dimension vectors of representations it equals
  ``dim Hom - dim Ext1``.
* The skew matrix attached to a quiver is
  ``eps[i][j] = #arrows(i->j) - #arrows(j->i)``.  Callers who start from
  an exchange matrix should already have passed to the opposite quiver;
  this module never flips orientations on its own.
* Arrow matrices act on column vectors: the matrix for ``s->t`` has shape
  ``(dim_t, dim_s)``.
* A field marker of ``0`` on an explicit representation means exact
  integer entries; a prime ``p`` means entries are taken mod ``p``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, product
from math import prod
from types import MappingProxyType
from typing import Iterator, NamedTuple, Sequence

from .errors import InputError, TranslateUndefinedError, UnsupportedInputError
from .lattice import (
    LaurentPoly,
    Matrix,
    Vec,
    charge,
    check_skew,
    mat_mul,
    mat_transpose,
    tilde_p_star,
    vec_add,
    vec_sub,
)

# ---------------------------------------------------------------------------
# Quivers


class Quiver(NamedTuple("Quiver", [
    ("n_vertices", int),
    ("counts", Matrix),
])):
    """An acyclic quiver on vertices ``1..n_vertices`` with
    ``counts[s-1][t-1]`` arrows ``s -> t``.

    Representation invariant: ``counts`` is an ``n x n`` matrix of
    integers ``>= 0`` that vanishes on and below the diagonal, which forces
    acyclicity and fixes the topological order to be the vertex numbering.
    """

    __slots__ = ()

    def __new__(cls, n_vertices: int, counts: Sequence[Sequence[int]]) -> "Quiver":
        if n_vertices < 1:
            raise InputError("quiver needs at least one vertex")
        n, counts = n_vertices, tuple(tuple(row) for row in counts)
        if len(counts) != n or any(len(row) != n for row in counts):
            raise InputError(f"arrow counts must form a {n}x{n} matrix")
        for s, row in enumerate(counts, start=1):
            for t, m in enumerate(row, start=1):
                if not isinstance(m, int) or m < 0:
                    raise InputError(
                        f"arrow count {m!r} of ({s}, {t}) must be an integer >= 0"
                    )
                if m and s >= t:
                    raise InputError(
                        f"arrow ({s}, {t}) must satisfy 1 <= source < target <= {n}"
                    )
        return super().__new__(cls, n_vertices, counts)

    @property
    def arrows(self) -> tuple[tuple[int, int], ...]:
        """One ``(s, t)`` per arrow, in lexicographic order."""
        return tuple(
            (s, t)
            for s, row in enumerate(self.counts, start=1)
            for t, m in enumerate(row, start=1)
            for _ in range(m)
        )


def kronecker_quiver(b: int) -> Quiver:
    """Two vertices joined by ``b`` parallel arrows ``1 -> 2``."""
    if b < 1:
        raise InputError("need at least one arrow")
    return Quiver(2, ((0, b), (0, 0)))


def path_quiver(n: int) -> Quiver:
    """Linear quiver ``1 -> 2 -> ... -> n``."""
    if n < 1:
        raise InputError("need at least one vertex")
    return Quiver(n, tuple(tuple(int(t == s + 1) for t in range(n)) for s in range(n)))


def quiver_to_skew(q: Quiver) -> Matrix:
    """Skew matrix ``eps[i][j] = #arrows(i->j) - #arrows(j->i)``."""
    n, c = q.n_vertices, q.counts
    return check_skew([[c[i][j] - c[j][i] for j in range(n)] for i in range(n)])


def dim_vector(q: Quiver, v: Sequence[int], what: str = "dimension vector") -> Vec:
    """``v`` as a tuple, checked to be a nonnegative vector on ``q``'s vertices."""
    vec = tuple(int(x) for x in v)
    if len(vec) != q.n_vertices:
        raise InputError(f"{what} must have length {q.n_vertices}, got {len(vec)}")
    if any(x < 0 for x in vec):
        raise InputError(f"{what} must be nonnegative, got {vec}")
    return vec


# ---------------------------------------------------------------------------
# Euler form, weight covector, translate matrices


@lru_cache(maxsize=None)
def euler_matrix(q: Quiver) -> Matrix:
    """Upper unitriangular matrix ``E`` with ``euler_form = c E d``."""
    n = q.n_vertices
    return tuple(tuple(int(i == j) - q.counts[i][j] for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def _euler_inverse(q: Quiver) -> Matrix:
    """Exact integer inverse of the unitriangular Euler matrix.

    Its ``(i, j)`` entry counts paths from vertex ``i+1`` to vertex
    ``j+1``, so row ``i`` is the unit vector plus the rows of the targets
    of the arrows out of ``i+1``, one per arrow; the rows are filled from
    the last vertex up.
    """
    n = q.n_vertices
    rows: list[Vec] = [()] * n
    for i in reversed(range(n)):
        row = [int(i == j) for j in range(n)]
        for j, m in enumerate(q.counts[i]):
            if m:
                row = [x + m * y for x, y in zip(row, rows[j])]
        rows[i] = tuple(row)
    return tuple(rows)


def euler_form(q: Quiver, c: Sequence[int], d: Sequence[int]) -> int:
    """Bilinear form ``sum(c_i d_i) - sum_{arrows i->j} c_i d_j``."""
    n = q.n_vertices
    if len(c) != n or len(d) != n:
        raise InputError("vector length must match the number of vertices")
    return sum(ci * di for ci, di in zip(c, d)) - sum(
        ci * m * dj for ci, row in zip(c, q.counts) for m, dj in zip(row, d)
    )


def g_map(q: Quiver, d: Sequence[int]) -> Vec:
    """Weight covector of ``d``: entry ``i`` is ``d_i - sum_{arrows i->t} d_t``."""
    if len(d) != q.n_vertices:
        raise InputError("vector length must match the number of vertices")
    return tuple(di - sum(m * dj for m, dj in zip(row, d)) for di, row in zip(d, q.counts))


@lru_cache(maxsize=None)
def projective_dims(q: Quiver) -> tuple[Vec, ...]:
    """Dimension vector of the projective at each vertex (path counts out)."""
    inv = _euler_inverse(q)
    return tuple(tuple(inv[a][i] for i in range(q.n_vertices)) for a in range(q.n_vertices))


@lru_cache(maxsize=None)
def injective_dims(q: Quiver) -> tuple[Vec, ...]:
    """Dimension vector of the injective at each vertex (path counts in)."""
    inv = _euler_inverse(q)
    return tuple(tuple(inv[i][a] for i in range(q.n_vertices)) for a in range(q.n_vertices))


@lru_cache(maxsize=None)
def coxeter_matrix(q: Quiver) -> Matrix:
    """Integer matrix implementing the forward translate on dimension vectors."""
    e = euler_matrix(q)
    inv = _euler_inverse(q)
    return tuple(
        tuple(-x for x in row) for row in mat_mul(inv, mat_transpose(e))
    )


@lru_cache(maxsize=None)
def coxeter_inverse(q: Quiver) -> Matrix:
    e = euler_matrix(q)
    inv_t = mat_transpose(_euler_inverse(q))
    return tuple(tuple(-x for x in row) for row in mat_mul(inv_t, e))


def _apply(mat: Matrix, d: Sequence[int]) -> Vec:
    return tuple(sum(row[j] * d[j] for j in range(len(d))) for row in mat)


def coxeter_translate(q: Quiver, d: Sequence[int], direction: str = "tau") -> Vec:
    """Translate a dimension vector forward (``tau``) or backward.

    Callers must pass the dimension vector of an indecomposable that is
    not projective (forward) resp. not injective (backward); projective /
    injective inputs raise ``TranslateUndefinedError``.
    """
    d = dim_vector(q, d)
    if not any(d):
        raise InputError("need a nonzero dimension vector")
    if direction == "tau":
        if d in projective_dims(q):
            raise TranslateUndefinedError(
                f"{d} is a projective dimension vector; forward translate undefined"
            )
        out = _apply(coxeter_matrix(q), d)
    elif direction == "tau_inverse":
        if d in injective_dims(q):
            raise TranslateUndefinedError(
                f"{d} is an injective dimension vector; backward translate undefined"
            )
        out = _apply(coxeter_inverse(q), d)
    else:
        raise InputError('direction must be "tau" or "tau_inverse"')
    return out


@lru_cache(maxsize=None)
def tits_positive_definite(q: Quiver) -> bool:
    """True when the symmetrized Euler form is positive definite.

    Positive definiteness characterizes the representation-finite
    (Dynkin) case; quivers failing it have infinite regular components.
    One symmetric Gaussian elimination over the rationals decides it:
    the form is positive definite exactly when every pivot is positive.
    """
    e = euler_matrix(q)
    n = q.n_vertices
    sym = [[Fraction(e[i][j] + e[j][i]) for j in range(n)] for i in range(n)]
    for k in range(n):
        if sym[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            if sym[i][k]:
                f = sym[i][k] / sym[k][k]
                for j in range(k + 1, n):
                    sym[i][j] -= f * sym[k][j]
    return True


# ---------------------------------------------------------------------------
# Component classification


class ARNode(NamedTuple):
    """A classified indecomposable: component tag plus orbit coordinates.

    ``component`` is "P", "R" or "I".  For "P", the module is the
    ``steps``-fold backward translate of the projective at ``base``; for
    "I" it is the ``steps``-fold forward translate of the injective at
    ``base``; for "R" both label fields are None.
    """

    component: str
    base: int | None
    steps: int | None
    dim: Vec


def _require_root(q: Quiver, d: Vec) -> int:
    """Reject ``d`` where Kac's theorem rules out an indecomposable: a
    root is nonzero and has Tits form at most 1.  Returns the form."""
    if not any(d):
        raise InputError("need a nonzero dimension vector")
    form = euler_form(q, d, d)
    if form > 1:
        raise InputError(
            f"{d} has Tits form {form} > 1, so no indecomposable has this "
            "dimension vector"
        )
    return form


# the longest orbit walk on a quiver that is neither Dynkin nor on two vertices
_ORBIT_STEPS = 64


def classify_indecomposable(q: Quiver, d: Sequence[int]) -> ARNode:
    """Locate an indecomposable's translate orbit.

    Translates keep the Tits form and every projective and injective has
    form 1, so a vector of another form is regular.  A vector of form 1
    is walked along the forward translate looking for a projective
    (component "P"), then along the backward translate looking for an
    injective (component "I"); a walk ends where it leaves the positive
    cone.  On a Dynkin quiver both walks run to their end, which comes
    within the Coxeter number of steps.  On two vertices and not Dynkin,
    ``(d1, d2)`` is preprojective when ``d1 < d2`` and preinjective
    otherwise, so only that walk runs, to its end.  On any other quiver
    each walk stops after ``_ORBIT_STEPS`` steps, and a vector that
    neither reaches is regular.
    """
    d = dim_vector(q, d)
    form = _require_root(q, d)
    dynkin = tits_positive_definite(q)
    if form == 1:
        walks = [
            ("P", projective_dims(q), coxeter_matrix(q)),
            ("I", injective_dims(q), coxeter_inverse(q)),
        ]
        two_vertex = not dynkin and q.n_vertices == 2
        bound = None if dynkin or two_vertex else _ORBIT_STEPS
        if two_vertex:
            # the smaller coordinate drops at every step: by 2 on two
            # arrows, to below half on more, which bounds the walk
            small = min(d)
            charge("terms", "a translate orbit",
                   small if q.counts[0][1] == 2 else small.bit_length())
            walks = walks[:1] if d[0] < d[1] else walks[1:]
        for component, ends, step in walks:
            x = d
            for t in count() if bound is None else range(bound + 1):
                if x in ends:
                    return ARNode(component, ends.index(x) + 1, t, d)
                x = _apply(step, x)
                if any(v < 0 for v in x):
                    break
    if not dynkin:
        return ARNode("R", None, None, d)
    raise InputError(f"could not classify {d} on a representation-finite quiver")


_COMPONENT_ORDER = {"P": 0, "R": 1, "I": 2}


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


# ---------------------------------------------------------------------------
# Mesh graphs of translate orbits


class ARGraph(NamedTuple):
    """Directed graph of classified indecomposables with irreducible-map
    arrows; parallel edges are repeated entries of ``edges``."""

    nodes: tuple[ARNode, ...]
    edges: tuple[tuple[int, int], ...]

    def to_dot(self) -> str:
        lines = ["digraph component {", "  rankdir=LR;"]
        for i, node in enumerate(self.nodes):
            dim = ",".join(str(x) for x in node.dim)
            label = f"{node.component}({node.base}) t={node.steps} dim=({dim})"
            lines.append(f'  n{i} [label="{label}"];')
        for s, t in self.edges:
            lines.append(f"  n{s} -> n{t};")
        lines.append("}")
        return "\n".join(lines)


def ar_component(q: Quiver, side: str, bound: int) -> ARGraph:
    """Mesh graph of the projective (``side="P"``) or injective side.

    Nodes are the translate orbits of the projectives (resp. injectives)
    up to ``bound`` translate steps, stopping early where the translate
    becomes undefined.  For each quiver arrow ``u -> v`` (with
    multiplicity) the graph carries the slice edge from the ``v``-node to
    the ``u``-node and the mesh edge into the next slice.  The nodes, and
    then the edges, are charged against the ``terms`` budget before they
    are built.
    """
    if side not in ("P", "I"):
        raise InputError('side must be "P" or "I"')
    if bound < 0:
        raise InputError("bound must be nonnegative")
    n = q.n_vertices
    charge("terms", "an AR component", n * (bound + 1))
    starts = projective_dims(q) if side == "P" else injective_dims(q)
    stops = injective_dims(q) if side == "P" else projective_dims(q)
    step_mat = coxeter_inverse(q) if side == "P" else coxeter_matrix(q)
    index: dict[tuple[int, int], int] = {}
    nodes: list[ARNode] = []
    for a in range(1, n + 1):
        x = starts[a - 1]
        for t in range(bound + 1):
            index[(a, t)] = len(nodes)
            nodes.append(ARNode(side, a, t, x))
            if x in stops:
                break
            x = _apply(step_mat, x)
    slices = max(node.steps for node in nodes) + 1
    runs = []  # the edges of one arrow u -> v, and the number of arrows u -> v
    for u, v in combinations(range(1, n + 1), 2):
        if not q.counts[u - 1][v - 1]:
            continue
        run = []
        for t in range(slices):
            mesh = ((u, t), (v, t + 1)) if side == "P" else ((u, t + 1), (v, t))
            for a, b in (((v, t), (u, t)), mesh):
                if a in index and b in index:
                    run.append((index[a], index[b]))
        runs.append((run, q.counts[u - 1][v - 1]))
    charge("terms", "an AR edge list", sum(len(run) * m for run, m in runs))
    return ARGraph(tuple(nodes), tuple(edge for run, m in runs for edge in run * m))


def is_predecessor(q: Quiver, v: ARNode, w: ARNode) -> bool:
    """True when a chain of nonzero non-isomorphisms leads from v to w.

    Same component: strict reachability in the mesh graph.  Different
    components: preprojectives precede regulars precede preinjectives.
    """
    if v.component != w.component:
        return _COMPONENT_ORDER[v.component] < _COMPONENT_ORDER[w.component]
    if v.component == "R":
        raise UnsupportedInputError(
            "predecessor order inside regular components is not determined "
            "by dimension vectors"
        )
    bound = max(v.steps or 0, w.steps or 0)
    graph = ar_component(q, v.component, bound)
    try:
        src = graph.nodes.index(ARNode(v.component, v.base, v.steps, v.dim))
        dst = graph.nodes.index(ARNode(w.component, w.base, w.steps, w.dim))
    except ValueError as exc:
        raise InputError(f"node not present in the mesh graph: {exc}") from exc
    adjacency: dict[int, set[int]] = {}
    for s, t in graph.edges:
        adjacency.setdefault(s, set()).add(t)
    seen: set[int] = set()
    stack = sorted(adjacency.get(src, ()))
    while stack:
        cur = stack.pop()
        if cur == dst:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(adjacency.get(cur, ()))
    return False


# ---------------------------------------------------------------------------
# Explicit representations


class ExplicitRep(NamedTuple("ExplicitRep", [
    ("quiver", Quiver),
    ("field", int),
    ("dims", Vec),
    ("maps", tuple[Matrix, ...]),
])):
    """A representation given by explicit arrow matrices.

    ``field`` is 0 for exact integer entries or a prime ``p`` for entries
    mod ``p``.  ``maps[i]`` is the matrix of ``quiver.arrows[i]`` with
    shape ``(dim_target, dim_source)``; zero-sized matrices are stored as
    empty tuples of the appropriate outer length.
    """

    __slots__ = ()

    def __new__(
        cls, quiver: Quiver, field: int, dims: Vec, maps: tuple[Matrix, ...]
    ) -> "ExplicitRep":
        if len(dims) != quiver.n_vertices:
            raise InputError("dimension vector length must match the quiver")
        if any(x < 0 for x in dims):
            raise InputError("dimensions must be nonnegative")
        if len(maps) != sum(map(sum, quiver.counts)):
            raise InputError("need exactly one matrix per arrow")
        for (s, t), mat in zip(quiver.arrows, maps):
            rows, cols = dims[t - 1], dims[s - 1]
            if len(mat) != rows or any(len(row) != cols for row in mat):
                raise InputError(
                    f"matrix for arrow ({s}, {t}) must be {rows}x{cols}"
                )
        return super().__new__(cls, quiver, field, dims, maps)


def rep_mod_p(rep: ExplicitRep, p: int) -> ExplicitRep:
    """Reduce an exact representation mod the prime ``p``."""
    maps = tuple(
        tuple(tuple(x % p for x in row) for row in mat) for mat in rep.maps
    )
    return ExplicitRep(rep.quiver, p, rep.dims, maps)


def indecomposable_rep(q: Quiver, d: Sequence[int]) -> ExplicitRep:
    """Exact model of the indecomposable with dimension vector ``d``.

    The matrices are read off the string :func:`_string` walks: one entry
    1 per edge of the walk, in the matrix of that edge's arrow, at the
    row and column of its end nodes (the nodes at a vertex are numbered
    in walk order); every other entry is 0.  A simple module exists on
    every quiver, so its arrows are charged against the ``terms`` budget
    before their zero maps are built.
    """
    d = dim_vector(q, d)
    walk = _string(q, d)
    if len(walk) == 1:
        charge("terms", "an arrow map list", sum(map(sum, q.counts)))
    maps = [[[0] * d[s - 1] for _ in range(d[t - 1])] for s, t in q.arrows]
    seen = [0] * q.n_vertices
    index = []  # each node's position among the nodes at its vertex
    for v, _, _ in walk:
        index.append(seen[v])
        seen[v] += 1
    for node, (_, orientation, arrow) in enumerate(walk[1:], start=1):
        source, target = (node - 1, node) if orientation == 1 else (node, node - 1)
        maps[arrow][index[target]][index[source]] = 1
    return ExplicitRep(q, 0, d, tuple(tuple(map(tuple, mat)) for mat in maps))


# ---------------------------------------------------------------------------
# Counting subrepresentations over prime fields


def gaussian_binomial_int(n: int, k: int, q: int) -> int:
    """Number of ``k``-dimensional subspaces of an ``n``-space over ``F_q``."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def _rref_mod_p(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns."""
    mat = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots


def _subspace_bases(p: int, d: int, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ``k``-dimensional subspaces of ``F_p^d`` as reduced-echelon bases."""
    if k < 0 or k > d:
        return
    if k == 0:
        yield ()
        return
    for pivots in combinations(range(d), k):
        free = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, d)
            if c not in pivots
        ]
        for values in product(range(p), repeat=len(free)):
            rows = [[0] * d for _ in range(k)]
            for r, col in enumerate(pivots):
                rows[r][col] = 1
            for (r, c), val in zip(free, values):
                rows[r][c] = val
            yield tuple(tuple(row) for row in rows)


def _subspaces_containing(
    p: int, d: int, w_rref: list[list[int]], w_pivots: list[int], k: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ``k``-dimensional subspaces of ``F_p^d`` containing a fixed one.

    Enumerates subspaces of the quotient by the fixed subspace and lifts
    them through the non-pivot coordinates; the particular lift does not
    matter because the fixed rows are always included.
    """
    w = len(w_rref)
    if k < w:
        return
    non_pivots = [c for c in range(d) if c not in w_pivots]
    base = tuple(tuple(row) for row in w_rref)
    for quot_rows in _subspace_bases(p, d - w, k - w):
        lifted = []
        for qrow in quot_rows:
            row = [0] * d
            for val, col in zip(qrow, non_pivots):
                row[col] = val
            lifted.append(tuple(row))
        yield base + tuple(lifted)


def _image_rows(mat: Matrix, basis: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Images of basis row vectors under a column-action matrix, as rows."""
    out = []
    for vec in basis:
        out.append([sum(row[j] * vec[j] for j in range(len(vec))) % p for row in mat])
    return out


def subrep_count(rep: ExplicitRep, e: Sequence[int]) -> int:
    """Exact number of subrepresentations with dimension vector ``e``.

    A subrepresentation assigns each vertex a subspace of the prescribed
    dimension such that every arrow maps the source subspace into the
    target subspace.  Enumeration runs over reduced-echelon bases vertex
    by vertex; at sinks the count of admissible subspaces containing the
    accumulated image span is a Gaussian binomial, no enumeration needed.
    The product of the Gaussian binomials at the other vertices, the
    number of subspaces enumerated, is charged against the ``subspaces``
    budget before any is.
    """
    q = rep.quiver
    p = rep.field
    if p < 2:
        raise InputError("subrepresentation counting needs a prime field")
    e = tuple(int(x) for x in e)
    if len(e) != q.n_vertices:
        raise InputError("dimension vector length must match the quiver")
    if any(x < 0 or x > dx for x, dx in zip(e, rep.dims)):
        return 0
    n = q.n_vertices
    is_sink = [not any(row) for row in q.counts]
    enumerated = (
        gaussian_binomial_int(rep.dims[v], e[v], p)
        for v in range(n)
        if not is_sink[v]
    )
    charge("subspaces", f"subspaces over F_{p}", prod(enumerated))
    arrow_maps = tuple(zip(q.arrows, rep.maps))
    bases: dict[int, tuple[tuple[int, ...], ...]] = {}

    def recurse(v: int) -> int:
        if v > n:
            return 1
        forced: list[list[int]] = []
        for (s, t), mat in arrow_maps:
            if t == v and s in bases:
                forced.extend(_image_rows(mat, bases[s], p))
        w_rref, w_pivots = _rref_mod_p(forced, p)
        w = len(w_rref)
        if e[v - 1] < w:
            return 0
        if is_sink[v - 1]:
            factor = gaussian_binomial_int(
                rep.dims[v - 1] - w, e[v - 1] - w, p
            )
            return factor * recurse(v + 1) if factor else 0
        total = 0
        for basis in _subspaces_containing(
            p, rep.dims[v - 1], w_rref, w_pivots, e[v - 1]
        ):
            bases[v] = basis
            total += recurse(v + 1)
        bases.pop(v, None)
        return total

    return recurse(1)


# ---------------------------------------------------------------------------
# Euler characteristics and the cluster character


def _string(q: Quiver, d: Vec) -> list[tuple[int, int, int]]:
    """The model of ``d`` as a string: its coefficient quiver, a path
    walked from one end.

    The coefficient quiver has one node per basis vector and one edge per
    entry 1 of an arrow matrix.  Returns one ``(vertex, orientation,
    arrow)`` per node in path order: the 0-based vertex, +1 when the edge
    from the previous node points here and -1 when it points back (0 at
    the start), and the index of that edge's arrow in ``q.arrows`` (0 at
    the start).  The models:

    * a simple module is one node, on any quiver;
    * an interval of the linear quiver climbs one arrow per node;
    * the two-arrow quiver zigzags between its vertices, starting at
      vertex 2 for ``(n, n+1)`` and at vertex 1 otherwise; with ``s = 1``
      for ``(n, n+1)`` and 0 otherwise, entering vertex 2 is ``(+1, s)``
      and entering vertex 1 is ``(-1, 1 - s)``.  So the two arrows send
      basis vector ``j`` to ``j`` and ``j + 1`` for ``(n, n+1)``, to
      ``j`` and ``j - 1`` for ``(n+1, n)``, and ``(k, k)`` is
      ``(I, J_k(0))``.

    On every one of these walks the word of an interval, its
    ``(vertex, orientation, arrow)`` entries with the first node's edge
    left out, depends only on its start vertex and its length, and no
    word longer than one node equals the reverse of a word of the walk
    (its own included); :func:`_cell_dimensions` keys graph maps on this.
    ``d`` is checked by :func:`_require_root`; other quivers raise
    ``UnsupportedInputError``.
    """
    _require_root(q, d)
    if sum(d) == 1:
        return [(d.index(1), 0, 0)]
    if q == path_quiver(q.n_vertices):  # kronecker_quiver(1) is path_quiver(2)
        lo = d.index(1)
        return [(lo, 0, 0)] + [(v, 1, v - 1) for v in range(lo + 1, lo + sum(d))]
    if q == kronecker_quiver(2):
        s = int(d[1] == d[0] + 1)
        walk = [(s, 0, 0)]
        for _ in range(sum(d) - 1):
            walk.append((0, -1, 1 - s) if walk[-1][0] else (1, 1, s))
        return walk
    raise UnsupportedInputError(
        "no explicit indecomposable model for this quiver shape"
    )


@lru_cache(maxsize=128)
def _fixed_point_euler_chars(q: Quiver, d: Vec) -> MappingProxyType[Vec, int]:
    """Euler characteristics of every ``Gr_e`` of the string module ``d``.

    Returns ``{e: chi(Gr_e)}`` for every ``e`` with ``chi > 0``.  On the
    path that :func:`_string` walks, the torus-fixed subrepresentations
    are the successor-closed node sets (``x`` in ``S`` and ``x -> y``
    imply ``y`` in ``S``), so the Euler characteristic is the number of
    such sets with dimension vector ``e`` (Cerulli Irelli,
    arXiv:0910.2592).

    One walk along the path yields the whole table: it keeps the number
    of partial sets for each (previous node in ``S``, dimension vector so
    far), and the final dimension vectors are the ``e``.  Its states
    range over every ``e <= d``, so only :func:`caldero_chapoton`, which
    needs them all, reads it; one ``e`` costs a pass bounded by ``e``
    (:func:`_completions`).  The table is cached per ``(q, d)`` and
    read-only.
    """
    states = {(False, (0,) * len(d)): 1}
    for v, orientation, _ in _string(q, d):
        nxt: dict[tuple[bool, Vec], int] = {}
        for (prev_in, dims), count in states.items():
            for take in (False, True):
                if not _keeps_closed(orientation, prev_in, take):
                    continue
                if take:
                    key = (True, dims[:v] + (dims[v] + 1,) + dims[v + 1 :])
                else:
                    key = (False, dims)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    table: dict[Vec, int] = {}
    for (_, dims), count in states.items():
        table[dims] = table.get(dims, 0) + count
    return MappingProxyType(table)


def _keeps_closed(orientation: int, prev_in: bool, take: bool) -> bool:
    """Whether taking the node (or not) keeps the set successor-closed
    across the edge to the previous node on the walk."""
    if orientation == 1:  # previous -> node
        return take or not prev_in
    if orientation == -1:  # node -> previous
        return prev_in or not take
    return True


def _completions(
    walk: list[tuple[int, int, int]], e: Vec
) -> list[dict[tuple[bool, Vec], int]]:
    """Backward pass over the walk: entry ``i`` counts, per state (node
    ``i - 1`` taken, nodes still needed at each vertex), the ways positions
    ``i..`` complete a successor-closed set with dimension vector ``e``.

    A state needs at most ``e``, so the pass stays bounded by ``e`` however
    long the walk is.  Entry 0 at ``(False, e)`` is the number of fixed
    points, the Euler characteristic of ``Gr_e``; a state is present only
    when it has a completion.
    """
    zero = (0,) * len(e)
    counts = [{(False, zero): 1, (True, zero): 1}]
    for v, orientation, _ in reversed(walk):
        here: dict[tuple[bool, Vec], int] = {}
        for (taken, after), ways in counts[-1].items():
            if after[v] + taken <= e[v]:
                need = after[:v] + (after[v] + taken,) + after[v + 1 :]
                for prev_in in (False, True):
                    if _keeps_closed(orientation, prev_in, taken):
                        here[prev_in, need] = here.get((prev_in, need), 0) + ways
        counts.append(here)
    return counts[::-1]


def _fixed_points(
    walk: list[tuple[int, int, int]], e: Vec, completions: list[dict]
) -> Iterator[int]:
    """The successor-closed node sets of the walk with dimension vector
    ``e``, as bit masks over the path positions.

    ``completions`` is the backward pass of :func:`_completions`, so the
    forward enumeration never enters a state with no completion.
    """
    n = len(walk)
    stack = [(0, 0, e)] if (False, e) in completions[0] else []
    while stack:
        i, mask, need = stack.pop()
        if i == n:
            yield mask
            continue
        v, orientation, _ = walk[i]
        prev_in = i > 0 and bool(mask >> (i - 1) & 1)
        for take in (False, True):
            rest = need[:v] + (need[v] - take,) + need[v + 1 :]
            if _keeps_closed(orientation, prev_in, take) and (
                (take, rest) in completions[i + 1]
            ):
                stack.append((i + 1, mask | take << i, rest))


def _cell_dimensions(
    walk: list[tuple[int, int, int]], masks: Iterator[int]
) -> Iterator[int]:
    """Dimension of the Bialynicki-Birula cell of each fixed point ``U``
    (a node set given as a bit mask): the positive-weight part of the
    tangent space ``Hom_Q(U, M/U)``, as a count of graph maps.

    A node's weight is the signed sum of the arrow indices along the path
    to it, so the arrow with index ``a`` has degree ``a``.  ``U`` and
    ``M/U`` are the sums of the string modules on their maximal runs of
    path positions, and Hom between string modules has a basis of graph
    maps (Crawley-Boevey, "Maps between representations of zero-relation
    algebras", J. Algebra 1989): a factor substring of a run of ``U``
    (the run's edges at its two ends, where it has them, point out of
    it) identified with an image substring of a run of ``M/U`` (they
    point into it) whose word is the same or reversed.  By the walk
    property in :func:`_string` these are the pairs with equal (start
    vertex, length) keys, and never reversed, so the map from a factor
    starting at node ``i`` to an image starting at node ``j`` sends node
    ``i + k`` to node ``j + k`` and has the one degree ``w(j) - w(i)``.
    The cell dimension is the number of graph maps of positive degree.
    """
    n = len(walk)
    weight = [0] * n
    for node in range(1, n):
        weight[node] = weight[node - 1] + walk[node][1] * walk[node][2]
    has_next = (1 << (n - 1)) - 1  # the positions before the last
    # (key, first weight) of the factor substrings of a run of U, by
    # (start, stop, longest length that can match)
    substrings: dict[tuple[int, int, int], list[tuple[tuple[int, int], int]]] = {}
    # by key, the first nodes of the image substrings with both end edges
    # on the walk and pointing into them
    inner: dict[tuple[int, int], list[int]] = {}
    # by (start, stop) and key, the first weights of a run's image substrings
    images: dict[tuple[int, int], dict[tuple[int, int], list[int]]] = {}
    for mask in masks:
        runs = []  # the maximal runs [start, stop) of positions in or out of U
        # bit i of `ends` is set where position i + 1 starts a new run
        ends = (mask ^ mask >> 1) & has_next
        start = 0
        while ends:
            stop = (ends & -ends).bit_length()
            runs.append((start, stop, mask >> start & 1))
            start = stop
            ends &= ends - 1
        runs.append((start, n, mask >> start & 1))
        # a substring longer than every run on the other side matches none
        longest = min(
            max((b - a for a, b, inside in runs if inside == side), default=0)
            for side in (0, 1)
        )
        factors: dict[tuple[int, int], list[int]] = {}
        for start, stop, inside in runs:
            if not inside:
                continue
            run = (start, stop, longest)
            if run not in substrings:
                # a factor's end edges, where it has them, point out of it
                substrings[run] = [
                    ((walk[i][0], j - i), weight[i])
                    for i in range(start, stop)
                    if i == start or walk[i][1] == -1
                    for j in range(i, min(stop, i + longest))
                    if j == stop - 1 or walk[j + 1][1] == 1
                ]
            for key, x in substrings[run]:
                factors.setdefault(key, []).append(x)
        # only the image substrings with a factor's key are listed
        pairs = []
        for start, stop, inside in runs:
            if inside:
                continue
            run = images.get((start, stop))
            if run is None:
                run = images[start, stop] = {}
            for key, xs in factors.items():
                ws = run.get(key)
                if ws is None:
                    ws = _image_weights(walk, weight, inner, start, stop, key)
                    run[key] = ws
                if ws:
                    pairs.append((ws, xs))
        yield sum(w > x for ws, xs in pairs for w in ws for x in xs)


def _image_weights(
    walk: list[tuple[int, int, int]],
    weight: list[int],
    inner: dict[tuple[int, int], list[int]],
    start: int,
    stop: int,
    key: tuple[int, int],
) -> list[int]:
    """The first weights of the image substrings with ``key`` (start
    vertex, length) of the run ``[start, stop)`` of ``M/U``: those whose
    end edges, where the run has them, point into the substring.
    ``inner`` keeps, by key, the first nodes of such substrings of the
    whole walk with both end edges on it."""
    vertex, length = key
    if key not in inner:
        inner[key] = [
            i for i in range(1, len(walk) - length - 1)
            if walk[i][0] == vertex and walk[i][1] == 1
            and walk[i + length + 1][1] == -1
        ]
    last = stop - 1 - length  # the last first node that fits in the run
    if last < start:
        return []
    firsts = inner[key]
    found = firsts[bisect_right(firsts, start):bisect_left(firsts, last)]
    # the run's first node has no edge before it in the run, and its
    # last node none after it
    if walk[start][0] == vertex and (
        start == last or walk[start + length + 1][1] == -1
    ):
        found.insert(0, start)
    if last > start and walk[last][0] == vertex and walk[last][1] == 1:
        found.append(last)
    return [weight[i] for i in found]


def _subdimension(d: Vec, e: Sequence[int]) -> Vec:
    """``e`` as a tuple, checked to lie between 0 and ``d``."""
    e = tuple(int(x) for x in e)
    if len(e) != len(d) or any(x < 0 or x > dx for x, dx in zip(e, d)):
        raise InputError("need 0 <= e <= d componentwise")
    return e


def grassmannian_euler_char(q: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """Euler characteristic of the subrepresentation Grassmannian.

    The number of torus-fixed points of ``Gr_e`` on the string
    :func:`_string` of ``d``, counted by the backward pass of
    :func:`_completions`, whose states are bounded by ``e``; no
    finite-field counting is involved.
    """
    d = dim_vector(q, d)
    e = _subdimension(d, e)
    if all(x == 0 for x in e) or e == d:
        return 1
    return _completions(_string(q, d), e)[0].get((False, e), 0)


def grassmannian_counting_polynomial(
    q: Quiver, d: Sequence[int], e: Sequence[int]
) -> tuple[int, ...]:
    """Coefficients (low degree first) of the counting polynomial of
    ``Gr_e`` of the string module of ``d`` (:func:`_string`).

    The sum of ``q^dim cell(U)`` over the torus-fixed points ``U`` (the
    successor-closed node sets of :func:`_string` with dimension vector
    ``e``), each cell being the positive-weight part of its tangent space
    under the torus that gives a node the signed sum of the arrow indices
    along the path to it (Cerulli Irelli-Esposito-Franzen-Reineke, cell
    decompositions of quiver Grassmannians).  Its dimension is the number
    of graph maps of positive degree from ``U`` to ``M/U``, read off the
    walk's substrings by their (start vertex, length) keys
    (:func:`_cell_dimensions`, which relies on the walk property stated in
    :func:`_string`).  For a rigid ``d`` the Grassmannian is smooth and
    Bialynicki-Birula gives the count.  For a square Kronecker ``d``, whose
    model is ``(I, J_k(0))``, some fixed points are singular and the
    theorem does not apply; there the cells are verified by tests against
    counts over finite fields, not proven.  The tuple has length at least
    ``max(0, <e, d - e>) + 1``.  One backward pass (:func:`_completions`)
    counts the fixed points, which is the Euler characteristic, and guides
    their enumeration; the count is charged against the ``subspaces``
    budget before any fixed point is enumerated.
    """
    d = dim_vector(q, d)
    e = _subdimension(d, e)
    walk = _string(q, d)
    completions = _completions(walk, e)
    charge("subspaces", "torus-fixed points", completions[0].get((False, e), 0))
    coeffs = [0] * (max(0, euler_form(q, e, vec_sub(d, e))) + 1)
    for k in _cell_dimensions(walk, _fixed_points(walk, e, completions)):
        coeffs.extend([0] * (k + 1 - len(coeffs)))
        coeffs[k] += 1
    return tuple(coeffs)


def caldero_chapoton(q: Quiver, d: Sequence[int]) -> LaurentPoly:
    """Cluster-character Laurent polynomial of the indecomposable ``d``.

    The one chi-sum of the package: over the table of Euler
    characteristics of subrepresentation Grassmannians that one walk
    along the string yields (see :func:`_fixed_point_euler_chars`), the
    skew-form monomial of each subdimension vector, shifted by the
    weight covector.  The exponents live in the doubled lattice
    (coefficient variables appended).
    """
    d = dim_vector(q, d)
    n = q.n_vertices
    eps = quiver_to_skew(q)
    if all(x == 0 for x in d):
        return LaurentPoly.one(2 * n)
    classify_indecomposable(q, d)  # rejects d that are not indecomposable
    shift = tuple(-x for x in g_map(q, d)) + (0,) * n
    chis = _fixed_point_euler_chars(q, d)
    charge("terms", "a cluster character", len(chis))
    terms: dict[Vec, int] = {}
    for e, chi in chis.items():
        expo = vec_add(shift, tilde_p_star(eps, e + (0,) * n))
        terms[expo] = terms.get(expo, 0) + chi
    return LaurentPoly(terms)


def _startup_self_test() -> None:
    """Convention lock: the forward translate must send (2, 3) to (0, 1)
    on the two-arrow quiver."""
    q = kronecker_quiver(2)
    got = _apply(coxeter_matrix(q), (2, 3))
    if got != (0, 1):
        raise AssertionError(
            f"translate convention broken: expected (0, 1), got {got}"
        )


_startup_self_test()
