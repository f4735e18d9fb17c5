"""In-process worker of the ``theta-basis`` workload.

Usage: ``python perfbench/theta_worker.py TRACE`` with the package on
``PYTHONPATH``; ``TRACE`` is 0 or 1.  The worker imports the CLI module,
completes the diagrams of ``workloads.THETA_DIAGRAMS`` and prints
``ready``: that is its set-up.  It then reads one line from standard
input: ``exit``, or a JSON object ``{"seconds": S, "calls": [...]}``.
Given calls, it evaluates ``theta_function`` on each, in whole rounds,
for about ``S`` seconds, and prints one JSON object with the
round times, the first round's values and the diagrams' walls.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from fractions import Fraction

from tracer import Tracer
from workloads import THETA_DIAGRAMS, more_rounds


def _terms(poly) -> list:
    return [[list(e), c] for e, c in sorted(poly.terms.items())]


def _evaluate(theta_function, d, m0, pt, k):
    """One theta call; an exception is returned so that the parent counts
    the call as failed instead of losing the run."""
    try:
        return theta_function(m0, pt, d, k)
    except Exception as exc:  # noqa: BLE001
        return exc


def _summary(result) -> list:
    if isinstance(result, Exception):
        return [None, f"{type(result).__name__}: {result}"]
    return [_terms(result.value), len(result.lines)]


def main(argv: list[str]) -> int:
    trace = argv[0] == "1"
    t0 = time.perf_counter()
    import clusterscatter.cli  # noqa: F401  (the import every CLI user pays)

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    if trace:
        tracer.install()
    from clusterscatter.brokenlines import theta_function
    from clusterscatter.cluster import initial_seed, rank2_exchange
    from clusterscatter.scattering import complete_rank2, initial_diagram

    diagrams = {}
    for b, order in THETA_DIAGRAMS:
        seed = initial_seed(rank2_exchange(b))
        diagrams[b] = complete_rank2(initial_diagram(seed, order), order)
    print("ready", flush=True)
    request = sys.stdin.readline().strip()
    if request in ("", "exit"):
        return 0
    spec = json.loads(request)
    calls = [
        (diagrams[b], tuple(m0), tuple(Fraction(x) for x in pt), k)
        for b, m0, pt, k in spec["calls"]
    ]
    setup_spans = tracer.snapshot()
    rounds, cpu, digests, spans, first = [], [], [], [], None
    start = time.perf_counter()
    while not rounds or more_rounds(rounds, time.perf_counter() - start, spec["seconds"]):
        before = tracer.snapshot()
        t, c = time.perf_counter(), time.process_time()
        results = [_evaluate(theta_function, d, m0, pt, k) for d, m0, pt, k in calls]
        rounds.append(time.perf_counter() - t)
        cpu.append(time.process_time() - c)
        spans.append([before, tracer.snapshot()])
        values = [_summary(r) for r in results]
        digests.append(hashlib.sha256(json.dumps(values).encode()).hexdigest())
        first = first or values
    walls = {
        str(b): [
            {
                "normal": list(w.normal),
                "kind": w.kind,
                "direction": list(w.direction()),
                "function": _terms(w.func.poly),
            }
            for w in d.walls
        ]
        for b, d in diagrams.items()
    }
    json.dump(
        {
            "import_s": import_s,
            "rounds": rounds,
            "round_cpu": cpu,
            "digests": digests,
            "values": first,
            "walls": walls,
            "setup_spans": setup_spans,
            "round_spans": spans,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
