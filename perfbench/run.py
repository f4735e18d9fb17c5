"""Benchmark of the clusterscatter CLI and library.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --update-hashes

A run sets up, then repeats whole rounds of its workload's fixed job list
until ``S`` seconds have passed, checks every output against an
independent reference, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` every job runs with spans around the program's public
functions and the metrics are the per-layer ones.  ``--update-hashes``
runs one round of every workload and rewrites ``reference_hashes.json``.

Bytecode goes to the usual ``__pycache__`` directories; everything else
the benchmark writes goes under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import UNREADABLE, broken_lines_in, check_job, check_theta, walls_in  # noqa: E402
from oracles import check_scatter  # noqa: E402
from workloads import (  # noqa: E402
    MUTATION_DEPTH,
    THETA_DIAGRAMS,
    call_key,
    cli_jobs,
    more_rounds,
    theta_calls,
)

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
HASHES = HERE / "reference_hashes.json"
WORKLOADS = ("scatter-grid", "theta-basis", "counting-poly", "chi-sweep")
#: ``theta-basis`` workers per run; each sets up once.
THETA_WORKERS = 4
JOB_TIMEOUT = 150


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Proc:
    """One finished child process: wall time, exit code, output, peak RSS
    and CPU time, taken from ``wait4`` on that child alone."""

    def __init__(self, argv: list[str]):
        out_path, err_path = BUILD / "job.stdout", BUILD / "job.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
            killer = threading.Timer(JOB_TIMEOUT, proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - t0
            killer.cancel()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.stdout = out_path.read_text(encoding="utf-8")
        self.stderr = err_path.read_text(encoding="utf-8")
        self.rss_mb = usage.ru_maxrss / 1024
        self.cpu = usage.ru_utime + usage.ru_stime


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def _build() -> None:
    """Compile the package and the benchmark to bytecode before any timing."""
    proc = Proc(_python("-m", "compileall", "-q", str(ROOT / "src" / "clusterscatter"), str(HERE)))
    if proc.code:
        raise SystemExit(f"bytecode compilation failed:\n{proc.stdout}{proc.stderr}")


def cluster_variables() -> dict:
    """``{b: {g-vector: Laurent polynomial}}`` found by mutating the rank-2
    seed with principal coefficients along both alternating words, up to
    ``MUTATION_DEPTH[b]`` steps.  This route uses only the ``cluster``
    module (exchange relations and exact division), none of the scattering
    or broken-line code, so it is an independent reference for theta
    functions and cluster characters.  It runs in this process, after the
    timed rounds."""
    sys.path.insert(0, str(ROOT / "src"))
    from clusterscatter.cluster import g_vector, initial_seed, mutate_seed, rank2_exchange

    out = {}
    for b, depth in MUTATION_DEPTH.items():
        seed0 = initial_seed(rank2_exchange(b))
        found = {g_vector(v, 2): dict(v.terms) for v in seed0.variables}
        for first in (1, 2):
            seed, k = seed0, first
            for _ in range(depth):
                seed = mutate_seed(seed, k)
                var = seed.variables[k - 1]
                found[g_vector(var, 2)] = dict(var.terms)
                k = 3 - k
        out[b] = found
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics from span snapshots


def _layer_values(snap: dict) -> dict:
    out = {"cli.self_s": snap["self"].get("cli.main", 0.0)}
    for key, total in snap["inclusive"].items():
        out[f"{key}.s"] = total
    for key, calls in snap["calls"].items():
        out[f"{key}.calls"] = calls
    out.update(snap["counts"])
    return out


def _delta(after: dict, before: dict) -> dict:
    return {
        part: {k: v - before[part].get(k, 0) for k, v in after[part].items()}
        for part in after
    }


def _per_layer(rounds: list[dict], setup: dict, names: list[str]) -> dict:
    """Median over rounds of each layer value, plus the one-time set-up.
    ``median_low`` keeps counts whole."""
    return {
        name: setup.get(name, 0) + statistics.median_low([r.get(name, 0) for r in rounds])
        for name in names
    }


# ---------------------------------------------------------------------------
# CLI workloads: each job is a fresh ``python -m clusterscatter.cli``


def _checked(args, stdout: str, variables: dict) -> list[str]:
    try:
        return check_job(args, stdout, variables)
    except UNREADABLE as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_cli(workload: str, seed: int, seconds: float, trace: bool, result: dict) -> None:
    jobs = cli_jobs(workload, seed)
    spans_path = BUILD / "job.spans.json"
    outputs: dict[tuple, list] = {}
    round_walls, round_spans, round_layers, import_times = [], [], [], []
    start = time.perf_counter()
    while not round_spans or more_rounds(round_spans, time.perf_counter() - start, seconds):
        layers: dict = {"cpu_s": 0.0}
        wall, t0 = 0.0, time.perf_counter()
        for args in jobs:
            # A set-up sample before every job spreads the samples over the
            # whole run, so their median does not hang on one moment of it.
            setup = Proc(_python("-c", "import clusterscatter.cli"))
            if setup.code:
                raise SystemExit(f"importing clusterscatter.cli failed:\n{setup.stderr}")
            result["setup"].append(setup.wall)
            result["rss"].append(setup.rss_mb)
            if trace:
                proc = Proc(_python(str(HERE / "trace_job.py"), str(spans_path), "--", *args))
            else:
                proc = Proc(_python("-m", "clusterscatter.cli", *args))
            wall += proc.wall
            result["rss"].append(proc.rss_mb)
            result["attempted"] += 1
            outputs.setdefault(args, []).append((proc.code, proc.stdout, proc.stderr))
            layers["cpu_s"] += proc.cpu
            if trace:
                snap = json.loads(spans_path.read_text())
                import_times.append(snap.pop("import_s"))
                for key, value in _layer_values(snap).items():
                    layers[key] = layers.get(key, 0) + value
        round_walls.append(wall)
        round_spans.append(time.perf_counter() - t0)
        round_layers.append(layers)
    result["rounds"] = round_walls
    result["layers"] = round_layers
    result["import_s"] = _median(import_times)
    variables = cluster_variables() if workload == "chi-sweep" else {}
    work = {"jobs": len(jobs), "walls": 0, "theta_calls": 0, "broken_lines": 0}
    verdicts: dict[tuple, list[str]] = {}
    for args, seen in outputs.items():
        key = " ".join(args)
        for outcome in seen:
            if outcome not in verdicts:
                code, stdout, stderr = outcome
                verdicts[outcome] = (
                    [f"exit {code}: {stderr.strip()}"] if code else _checked(args, stdout, variables)
                )
            if verdicts[outcome]:
                result["failed"] += 1
                result["failures"][key] = verdicts[outcome]
        if len(set(seen)) > 1:
            result["failures"].setdefault(key, []).append("output differs between rounds")
        code, stdout, _ = seen[0]
        if not verdicts[seen[0]]:
            result["hashes"][key] = _sha(stdout)
            work["walls"] += walls_in(args, stdout)
            work["broken_lines"] += broken_lines_in(args, stdout)
    result["work"] = work


# ---------------------------------------------------------------------------
# theta-basis: one process builds the diagrams, then evaluates theta functions


class ThetaWorker:
    """A ``theta_worker.py`` process; ``setup`` is the time from its launch
    until it reports the diagrams complete."""

    def __init__(self, trace: bool):
        self.err_path = BUILD / "theta.stderr"
        self.err = open(self.err_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            _python(str(HERE / "theta_worker.py"), "1" if trace else "0"),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
            env=_env(), cwd=ROOT, text=True,
        )
        self.killer = threading.Timer(JOB_TIMEOUT, self.proc.kill)
        self.killer.start()
        ready = self.proc.stdout.readline()
        self.setup = time.perf_counter() - t0
        if ready.strip() != "ready":
            self.finish()
            raise SystemExit(f"theta worker failed during set-up:\n{self.err_path.read_text()}")

    def finish(self, request: str = "exit") -> tuple[str, float]:
        """Send the request, read the reply and reap the worker; returns
        the reply and the worker's peak RSS in MB."""
        try:
            try:
                self.proc.stdin.write(request + "\n")
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            reply = self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            self.killer.cancel()
            self.err.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.returncode:
            raise SystemExit(f"theta worker exited {self.proc.returncode}:\n{self.err_path.read_text()}")
        return reply, usage.ru_maxrss / 1024


def run_theta(seed: int, seconds: float, trace: bool, result: dict) -> None:
    """Several workers each set up and then share the measuring time, so
    no single process's speed decides the result."""
    calls = theta_calls(seed)
    request = json.dumps({
        "seconds": seconds / THETA_WORKERS,
        "calls": [[c["b"], c["m0"], c["point"], c["k"]] for c in calls],
    })
    replies = []
    for _ in range(THETA_WORKERS):
        worker = ThetaWorker(trace)
        result["setup"].append(worker.setup)
        reply, rss = worker.finish(request)
        result["rss"].append(rss)
        replies.append(json.loads(reply))
    data = replies[0]
    result["rounds"] = [t for d in replies for t in d["rounds"]]
    result["import_s"] = _median([d["import_s"] for d in replies])
    setups = [_layer_values(d["setup_spans"]) for d in replies]
    result["setup_layers"] = {
        k: statistics.median_low([s.get(k, 0) for s in setups]) for k in setups[0]
    }
    result["layers"] = [
        {**_layer_values(_delta(after, before)), "cpu_s": cpu}
        for d in replies
        for (before, after), cpu in zip(d["round_spans"], d["round_cpu"])
    ]
    rounds = len(result["rounds"])
    result["attempted"] = rounds * len(calls)
    variables = cluster_variables()
    diagram_problems = []
    for b, order in THETA_DIAGRAMS:
        try:
            walls = [
                (tuple(w["normal"]), {tuple(e): c for e, c in w["function"]})
                for w in data["walls"][str(b)]
            ]
            problems = check_scatter(b, order, walls)
        except UNREADABLE as exc:
            problems = [f"unreadable walls: {type(exc).__name__}: {exc}"]
        diagram_problems += [f"diagram b={b}: {p}" for p in problems]
    per_call = check_theta(calls, data["values"], data["walls"], variables)
    for call, problems, (terms, _) in zip(calls, per_call, data["values"]):
        key = call_key(call)
        if problems or diagram_problems:
            result["failures"][key] = problems + diagram_problems
        result["hashes"][key] = _sha(json.dumps(terms))
    if len({h for d in replies for h in d["digests"]}) > 1 or any(
        d["walls"] != data["walls"] for d in replies
    ):
        result["failures"]["rounds"] = ["outputs differ between rounds or workers"]
    result["failed"] = rounds * len([c for c in calls if call_key(c) in result["failures"]])
    result["work"] = {
        "jobs": len(calls),
        "walls": sum(len(ws) for ws in data["walls"].values()),
        "theta_calls": len(calls),
        "broken_lines": sum(n for terms, n in data["values"] if terms is not None),
    }


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": 0, "failed": 0, "failures": {}, "hashes": {},
        "setup": [], "rss": [], "setup_layers": {},
    }
    if name == "theta-basis":
        run_theta(seed, seconds, trace, result)
    else:
        run_cli(name, seed, seconds, trace, result)
    return result


def _metrics(result: dict, spec: dict, trace: bool) -> dict:
    if not trace:
        values = {
            "setup_s": _median(result["setup"]),
            # The mean, not the median, of the rounds: when the machine's
            # speed switches between two levels during a run, the median
            # jumps to whichever level held most rounds.
            "wall_s": statistics.fmean(result["rounds"]),
            "peak_rss_mb": max(result["rss"]),
        }
        entries = spec["end_to_end"]
    else:
        names = [m["name"] for m in spec["per_layer"]]
        values = _per_layer(result["layers"], result["setup_layers"], names)
        values["cli.import_s"] = result["import_s"]
        values["trace.wall_s"] = statistics.fmean(result["rounds"])
        entries = spec["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries}


def _compare_hashes(result: dict) -> list[str]:
    reference = json.loads(HASHES.read_text()).get(result["workload"], {})
    return sorted(k for k, h in result["hashes"].items() if reference.get(k) != h)


def update_hashes() -> None:
    table = {}
    for name in WORKLOADS:
        result = run_workload(name, 0, 0, False)
        if result["failures"]:
            raise SystemExit(f"{name} has failing outputs: {result['failures']}")
        table[name] = dict(sorted(result["hashes"].items()))
        print(f"{name}: {len(table[name])} hashes", flush=True)
    HASHES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-hashes", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "clusterscatter" / "cli.py").is_file():
        print("error: run from the repository root (src/clusterscatter is missing)", file=sys.stderr)
        return 2
    if not args.update_hashes and not args.workload:
        parser.error("--workload is required")
    BUILD.mkdir(exist_ok=True)
    _build()
    if args.update_hashes:
        update_hashes()
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    changed = _compare_hashes(result)
    record = BUILD / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    record.write_text(json.dumps({**result, "changed_hashes": changed}, indent=1, default=str))
    print(f"{args.workload} seed {args.seed}: {len(result['rounds'])} rounds, record in {record.relative_to(ROOT)}")
    print("work per round: " + json.dumps(result["work"], sort_keys=True))
    print(f"output hashes: {len(result['hashes']) - len(changed)} match the reference, {len(changed)} changed")
    for key in changed:
        print(f"  changed: {key}")
    for key, problems in result["failures"].items():
        print(f"  FAILED {key}: {'; '.join(problems)}")
    summary = {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _metrics(result, spec, trace),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
