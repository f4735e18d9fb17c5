"""The fixed inputs of each workload and how ``--seed`` varies them.

A seed never changes how much work a run does.  For the CLI workloads
it fixes the order of the jobs in a round; for ``theta-basis`` it also
scales every endpoint by a positive rational, which maps each broken
line onto a broken line of the same shape (every wall is a cone from the
origin), so the theta functions and their line counts stay the same.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

KRONECKER = ("--quiver", "kronecker2")


def _scatter(b: int, order: int) -> tuple[str, ...]:
    return ("scatter", "--b", str(b), "--order", str(order), "--json")


def _grass(d, e, *fmt: str) -> tuple[str, ...]:
    return ("grass", *KRONECKER, "--D", f"{d[0]},{d[1]}", "--e", f"{e[0]},{e[1]}", *fmt)


def _cc(d) -> tuple[str, ...]:
    return ("cc", *KRONECKER, "--D", f"{d[0]},{d[1]}", "--json")


def _strata(d, e) -> tuple[str, ...]:
    return (
        "strata", *KRONECKER, "--D", f"{d[0]},{d[1]}", "--e", f"{e[0]},{e[1]}",
        "--endpoint", "2,1",
    )


#: (b, order) grid of ``scatter-grid``: completion only, no quiver code.
SCATTER_JOBS = tuple(
    _scatter(b, order)
    for b, order in (
        (1, 6), (1, 9), (2, 6), (2, 10), (3, 6), (3, 8), (4, 6), (4, 7), (5, 5), (5, 6),
    )
)

#: ``grass --json`` pairs of ``counting-poly``: F_p counting at every prime.
#: (5,5) and (3,3), (4,4) are regular; the rest are rigid.
COUNTING_JOBS = tuple(
    _grass(d, e, "--json")
    for d, e in (
        ((5, 6), (3, 5)), ((5, 5), (2, 3)), ((5, 6), (2, 3)), ((6, 5), (2, 1)),
        ((4, 5), (2, 3)), ((5, 4), (3, 2)), ((4, 4), (2, 2)), ((3, 3), (1, 2)),
        ((2, 3), (1, 1)), ((3, 4), (2, 2)), ((4, 3), (2, 1)),
    )
)

#: ``cc``, text ``grass`` and ``strata`` jobs of ``chi-sweep`` on rigid
#: dimension vectors; the first is the README's strata example.
CHI_JOBS = (
    _strata((5, 6), (2, 4)),
    _strata((3, 4), (1, 2)),
    _strata((4, 3), (2, 1)),
    _strata((5, 4), (3, 2)),
    _cc((1, 2)),
    _cc((3, 4)),
    _cc((4, 5)),
    _grass((4, 5), (2, 3)),
    _grass((5, 4), (3, 2)),
    _grass((5, 6), (2, 3)),
)

#: Diagrams completed during the set-up of ``theta-basis``: (b, order).
THETA_DIAGRAMS = ((2, 10), (3, 8))

#: Base endpoints: one in the positive chamber, one past the outgoing rays.
ENDPOINTS = {
    "positive": (Fraction(157, 100), Fraction(83, 100)),
    "past-rays": (Fraction(1), Fraction(-29, 20)),
}

#: (b, initial A-exponent, degree).  Cluster-variable g-vectors have few
#: broken lines; the directions near (1, -1) have many.  Each exponent is
#: evaluated at both base endpoints.
THETA_EXPONENTS = (
    (2, (1, -2), 10), (2, (2, -3), 8), (2, (7, -6), 10),
    (2, (1, -1), 8), (2, (3, -3), 8), (2, (4, -4), 10),
    (3, (-1, 0), 6), (3, (1, -3), 8), (3, (3, -8), 8), (3, (8, -3), 6),
    (3, (21, -8), 8), (3, (2, -2), 8), (3, (3, -2), 6),
)

#: Mutation depth per b for the cluster-variable reference.
MUTATION_DEPTH = {2: 10, 3: 4}


def theta_calls(seed: int) -> list[dict]:
    """The seeded call list of ``theta-basis``."""
    rng = random.Random(seed)
    calls = []
    for b, g, k in THETA_EXPONENTS:
        for name, (x, y) in ENDPOINTS.items():
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            calls.append(
                {
                    "b": b,
                    "m0": [*g, 0, 0],
                    "k": k,
                    "endpoint": name,
                    "point": [str(x * scale), str(y * scale)],
                }
            )
    rng.shuffle(calls)
    return calls


def cli_jobs(workload: str, seed: int) -> list[tuple[str, ...]]:
    jobs = {"scatter-grid": SCATTER_JOBS, "counting-poly": COUNTING_JOBS, "chi-sweep": CHI_JOBS}
    return random.Random(seed).sample(jobs[workload], len(jobs[workload]))


def more_rounds(rounds: list[float], elapsed: float, seconds: float) -> bool:
    """Start another whole round if it is expected to end nearer to
    ``seconds`` than stopping now would; ``rounds`` are the durations of
    the rounds so far, ``elapsed`` the time since the first began."""
    return elapsed + statistics.median(rounds) / 2 < seconds


def call_key(call: dict) -> str:
    """Name of a theta call that does not depend on the seed."""
    return f"theta b={call['b']} m0={call['m0']} k={call['k']} at {call['endpoint']}"
