"""Check each job's output against the references in ``oracles``.

Every function returns a list of problems; an empty list means the output
is correct.  ``variables`` maps ``b`` to ``{g-vector: Laurent polynomial}``,
the cluster variables found by seed mutation (``run.cluster_variables``).
"""

from __future__ import annotations

import json
import re

from oracles import (
    check_scatter,
    fp_count,
    parse_qpoly,
    qpoly_at,
    successor_closed_counts,
    transport,
    truncate,
    wall_series,
)


def _vec(args, flag: str) -> tuple[int, ...]:
    return tuple(int(x) for x in args[args.index(flag) + 1].split(","))


def _poly(doc: dict) -> dict:
    return {tuple(int(x) for x in k.split(",")): v for k, v in doc.items()}


def broken_lines_in(args, stdout: str) -> int:
    """Broken lines reported by a ``strata`` job (0 for other commands)."""
    match = re.search(r"^broken lines ending at exponent \S+: (\d+)$", stdout, re.M)
    return int(match.group(1)) if args[0] == "strata" and match else 0


def walls_in(args, stdout: str) -> int:
    """Walls reported by a ``scatter --json`` job (0 for other commands)."""
    return len(json.loads(stdout)["diagram"]["walls"]) if args[0] == "scatter" else 0


def check_job(args, stdout: str, variables: dict) -> list[str]:
    cmd = args[0]
    if cmd == "scatter":
        walls = [
            (tuple(w["normal"]), _poly(w["function"]))
            for w in json.loads(stdout)["diagram"]["walls"]
        ]
        return check_scatter(_vec(args, "--b")[0], _vec(args, "--order")[0], walls)
    d = _vec(args, "--D")
    if cmd == "cc":
        return _check_cc(d, _poly(json.loads(stdout)["value"]), variables[2])
    e = _vec(args, "--e")
    chi = successor_closed_counts(d).get(e, 0)
    if cmd == "grass" and "--json" in args:
        doc = json.loads(stdout)
        poly = dict(enumerate(doc["counting_polynomial"]))
        want = {1: chi, 2: fp_count(d, e, 2), 3: fp_count(d, e, 3)}
        problems = [
            f"P({q}) = {qpoly_at(poly, q)}, expected {n}"
            for q, n in want.items()
            if qpoly_at(poly, q) != n
        ]
        if doc["euler_characteristic"] != chi:
            problems.append(f"chi {doc['euler_characteristic']} != {chi}")
        return problems
    if cmd == "grass":
        return [] if stdout.strip() == str(chi) else [f"chi {stdout.strip()} != {chi}"]
    if cmd == "strata":
        return _check_strata(d, e, chi, stdout)
    return [f"no check for command {cmd}"]


def _check_cc(d, value: dict, variables: dict) -> list[str]:
    """Coefficients are successor-closed counts; the whole character is the
    cluster variable with the same g-vector."""
    counts = successor_closed_counts(d)
    base = next((expo[:2] for expo in value if expo[2:] == (0, 0)), None)
    if base is None:
        return ["no term with trivial X-part"]
    want = {
        (base[0] - 2 * e2, base[1] + 2 * e1, e1, e2): n
        for (e1, e2), n in counts.items()
        if n
    }
    problems = [] if value == want else [f"cc terms differ from counts for D={d}"]
    variable = variables.get(base)
    if variable is None:
        problems.append(f"no cluster variable with g-vector {base}")
    elif variable != value:
        problems.append(f"cc of {d} differs from the cluster variable {base}")
    return problems


def _check_strata(d, e, chi: int, stdout: str) -> list[str]:
    polys = [
        parse_qpoly(m) for m in re.findall(r"^  poincare polynomial: (.*)$", stdout, re.M)
    ]
    values = [int(v) for v in re.findall(r"^  value at q=1: (-?\d+)$", stdout, re.M)]
    summary = dict(re.findall(r"^(total over strata|finite-field Euler characteristic): (-?\d+)$", stdout, re.M))
    problems = []
    if len(polys) != len(values) or [qpoly_at(p, 1) for p in polys] != values:
        problems.append("stratum values do not match their polynomials at q=1")
    if sum(values) != chi:
        problems.append(f"strata sum {sum(values)} != chi {chi}")
    if summary.get("total over strata") != str(sum(values)):
        problems.append("printed total differs from the sum of the strata")
    if summary.get("finite-field Euler characteristic") != str(chi):
        problems.append(f"printed chi differs from {chi}")
    for q in (2, 3):
        got = sum(qpoly_at(p, q) for p in polys)
        if got != fp_count(d, e, q):
            problems.append(f"strata at q={q} sum to {got}, F_{q} count {fp_count(d, e, q)}")
    return problems


#: What a check raises when an output does not have the expected form.
UNREADABLE = (ValueError, KeyError, IndexError, TypeError)


def check_theta(calls: list[dict], values: list, walls: dict, variables: dict) -> list[list[str]]:
    """Problems per theta call: positivity, cluster variables in the
    positive chamber, and transport from the positive chamber.  A call
    whose output cannot be checked gets that as its problem."""
    try:
        series_walls = {
            int(b): [
                {**w, "series": wall_series(int(b), w["normal"], {tuple(e): c for e, c in w["function"]})}
                for w in ws
            ]
            for b, ws in walls.items()
        }
    except UNREADABLE as exc:
        return [[f"walls unreadable: {type(exc).__name__}: {exc}"] for _ in calls]
    polys = [{tuple(e): c for e, c in terms or ()} for terms, _ in values]
    at_positive = {
        (c["b"], tuple(c["m0"]), c["k"]): (c, p)
        for c, p in zip(calls, polys)
        if c["endpoint"] == "positive"
    }
    out = []
    for call, poly, (terms, n_lines) in zip(calls, polys, values):
        if terms is None:
            out.append([f"raised {n_lines}"])
            continue
        try:
            out.append(_theta_problems(call, poly, n_lines, series_walls, at_positive, variables))
        except UNREADABLE as exc:
            out.append([f"unreadable output: {type(exc).__name__}: {exc}"])
    return out


def _theta_problems(call, poly, n_lines, series_walls, at_positive, variables) -> list[str]:
    b, m0, k = call["b"], tuple(call["m0"]), call["k"]
    problems = []
    if not poly or n_lines < len(poly) or any(c <= 0 for c in poly.values()):
        problems.append("theta is empty or has a nonpositive coefficient")
    variable = variables[b].get(m0[:2])
    if call["endpoint"] == "positive" and variable is not None:
        if truncate(variable, k) != poly:
            problems.append(f"theta differs from the cluster variable {m0[:2]}")
    if call["endpoint"] != "positive":
        start, start_poly = at_positive[(b, m0, k)]
        moved = transport(start_poly, series_walls[b], start["point"], call["point"], b, k)
        if moved != truncate(poly, k):
            problems.append("theta differs from the transported positive-chamber theta")
    return problems
