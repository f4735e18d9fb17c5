"""Reference cell dimensions: the tangent space solved by elimination.

An independent route to the cells of ``quiver.grassmannian_counting_polynomial``.
For each torus-fixed point ``U`` of a string module ``M`` it writes out the
linear equations of ``Hom_Q(U, M/U)`` in positive degree, one unknown per
pair of nodes at one vertex, and takes the number of unknowns minus their
exact rank over Q.  The package instead counts the graph maps of positive
degree (Crawley-Boevey's basis of Hom between string modules), with no
linear algebra; tests compare the two at every fixed point.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator

from clusterscatter.quiver import Quiver


def rank_over_q(rows: list[dict[int, int]]) -> int:
    """Exact rank over Q of sparse integer rows ``{column: coefficient}``,
    by fraction-free elimination that divides out each row's gcd."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        while row:
            col = min(row)
            pivot = pivots.setdefault(col, row)
            if pivot is row:
                break
            a, b = pivot[col], row[col]
            row = {c: a * row.get(c, 0) - b * pivot.get(c, 0) for c in row | pivot}
            g = gcd(*row.values()) or 1
            row = {c: x // g for c, x in row.items() if x}
    return len(pivots)


def cell_dimensions(
    q: Quiver, walk: list[tuple[int, int, int]], masks: Iterator[int]
) -> Iterator[int]:
    """Dimension of the Bialynicki-Birula cell of each fixed point ``U``
    (a node set given as a bit mask): the positive-weight part of the
    tangent space ``Hom_Q(U, M/U)``.

    A node's weight is the signed sum of the arrow indices along the path
    to it, so the arrow with index ``a`` has degree ``a``.  A hom of
    degree ``lam`` sends a node ``x`` of ``U`` to nodes ``y`` outside it
    at the same vertex with ``w(y) - w(x) = lam``.  Its coefficients
    ``phi(y, x)`` commute with every arrow ``a``: for ``x`` in ``U`` at
    the source and ``z`` outside at the target, the sum of
    ``phi(z, x')`` over ``x -a-> x'`` equals the sum of ``phi(y, x)``
    over ``y -a-> z`` with ``y`` outside ``U``; both sides have degree
    ``w(z) - w(x) - a``.  The dimension is the number of unknowns of
    positive degree minus the exact rank of their equations.  Both sides
    vanish for an arrow with no edge on the walk, so only the walk's
    arrows are visited.
    """
    n = len(walk)
    weight = [0] * n
    succ: dict[tuple[int, int], list[int]] = {}
    pred: dict[tuple[int, int], list[int]] = {}
    ends: dict[int, tuple[int, int]] = {}  # arrow index -> 0-based (source, target)
    for node, (_, orientation, arrow) in enumerate(walk[1:], start=1):
        weight[node] = weight[node - 1] + orientation * arrow
        source, target = (node - 1, node) if orientation == 1 else (node, node - 1)
        succ.setdefault((arrow, source), []).append(target)
        pred.setdefault((arrow, target), []).append(source)
        ends[arrow] = (walk[source][0], walk[target][0])
    arrows = sorted(ends.items())
    for mask in masks:
        within = [[] for _ in range(q.n_vertices)]
        outside = [[] for _ in range(q.n_vertices)]
        for node, (v, _, _) in enumerate(walk):
            (within if mask >> node & 1 else outside)[v].append(node)
        unknowns = sum(
            weight[y] > weight[x]
            for v in range(q.n_vertices)
            for x in within[v]
            for y in outside[v]
        )
        rows = []
        for arrow, (s, t) in arrows:
            for x in within[s]:
                for z in outside[t]:
                    if weight[z] - weight[x] - arrow <= 0:
                        continue
                    row: dict[int, int] = {}  # phi(y, x) is column y * n + x
                    for x2 in succ.get((arrow, x), ()):
                        row[z * n + x2] = row.get(z * n + x2, 0) + 1
                    for y in pred.get((arrow, z), ()):
                        if not mask >> y & 1:
                            row[y * n + x] = row.get(y * n + x, 0) - 1
                    rows.append(row)
        yield unknowns - rank_over_q(rows)
