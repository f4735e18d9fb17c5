"""Command-line front end.

One executable, eight subcommands (``mutate``, ``scatter``, ``theta``,
``cc``, ``grass``, ``strata``, ``ar``, ``check``), all exact arithmetic.
``_COMMANDS`` is the one table of what each takes: the flags, the parser,
the validation of jobs and the dispatch all derive from it.

Inputs accept exact rationals written ``p/q``; no floating-point parsing
anywhere.  A negative vector or point may follow its flag as a separate
word (``--m -1,1,0,0``) or be attached with ``=``.  Jobs may also be
supplied as JSON documents (``run --job``).  A job gives exactly one of
``b`` and ``quiver`` (and ``ar`` exactly one action), every input its
command requires and no other, each of the kind the table lists, and an
``order`` only to a command that takes one.
Exit status: 0 success, 2 bad input (including schema violations), 3 a
resource ceiling was hit.  Output is deterministic: identical inputs give
identical bytes.

Resource ceilings come from the environment: ``CLUSTERSCATTER_MAX_TERMS``
bounds series/polynomial term counts, the arrow counts of ``a<n>`` and the
nodes and edges of an ``ar`` component, and
``CLUSTERSCATTER_SUBSPACE_LIMIT`` bounds what the counting polynomial of
``grass --json`` and ``strata`` enumerates: its torus-fixed points, and
for ``grass --json`` the subspaces counted over F_2 to check it at q = 2.
Each must be an integer >= 0 (empty means the default).  Both are read
once per command into ``lattice.BUDGET``, before any job runs, so a bad
value exits 2 whatever the command.  Library calls charge that budget
and read no environment.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Sequence

from . import lattice
from .brokenlines import (
    BrokenLine,
    enumerate_broken_lines,
    restrict_to_A,
    theta_function,
    theta_via_path,
    validate_broken_line,
)
from .cluster import (
    Seed,
    apply_word,
    check_tropical_duality,
    cluster_variable,
    g_vector,
    initial_seed,
    mutate_seed,
    rank2_exchange,
    seed_to_json,
)
from .errors import (
    DegenerateBrokenLineError,
    GenericPositionError,
    InputError,
    InterpolationError,
    ResourceLimitError,
    TranslateUndefinedError,
    UnsupportedInputError,
)
from .hall import (
    Filtration,
    StabilityValue,
    broken_line_strata,
    gl_poincare,
    hall_theta_chi,
    hn_phases,
    q_str,
    qbinom,
)
from .lattice import (
    GradedSeries,
    LaurentPoly,
    charge,
    default_names,
    monomial_str,
    poly_str,
    tilde_p_star,
    vec_add,
    vec_str,
    vec_sub,
    x_degree,
)
from .quiver import (
    Quiver,
    ar_component,
    caldero_chapoton,
    classify_indecomposable,
    coxeter_translate,
    dim_vector,
    g_map,
    grassmannian_counting_polynomial,
    grassmannian_euler_char,
    indecomposable_rep,
    kronecker_quiver,
    path_quiver,
    projective_dims,
    quiver_to_skew,
    rep_mod_p,
    subrep_count,
)
from .scattering import (
    CrossingPath,
    ScatteringDiagram,
    Wall,
    ar_order_check,
    cluster_complex_chambers,
    cluster_complex_diagram,
    complete_rank2,
    diagram_to_json,
    initial_diagram,
    path_ordered_product,
    positive_crossing_pairs,
    support_directions,
)

FORMATS = ("text", "json", "svg", "dot", "tikz")


# ---------------------------------------------------------------------------
# Exact input parsing


def parse_int_vec(text: str, what: str = "vector") -> tuple[int, ...]:
    """Parse ``"5,6"`` into ``(5, 6)``; only integer literals allowed."""
    parts = [p.strip() for p in str(text).split(",")]
    if not parts or parts == [""]:
        raise InputError(f"{what} must be a comma-separated integer list")
    out = []
    for p in parts:
        try:
            out.append(int(p, 10))
        except ValueError:
            raise InputError(f"{what} entry {p!r} is not an integer") from None
    return tuple(out)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal ``p`` or ``p/q`` (never a float)."""
    raw = str(text).strip()
    if any(ch in raw for ch in (".", "e", "E")):
        raise InputError(
            f"rational {raw!r} must be written as p/q; floats are not accepted"
        )
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{raw!r} is not a rational p/q literal") from None


def parse_point(text: str, what: str = "endpoint") -> tuple[Fraction, ...]:
    parts = [p.strip() for p in str(text).split(",")]
    if not parts or parts == [""]:
        raise InputError(f"{what} must be a comma-separated rational list")
    return tuple(parse_rational(p) for p in parts)


def named_quiver(label: str) -> Quiver:
    """Resolve built-in quiver names ``kronecker{b}`` and ``a{n}``; the
    ``n * n`` arrow counts of ``a{n}`` are charged against the term
    ceiling."""
    name = str(label).strip().lower()
    if name.startswith("kronecker"):
        try:
            b = int(name[len("kronecker"):], 10)
        except ValueError:
            raise InputError(f"unknown quiver name {label!r}") from None
        return kronecker_quiver(b)
    if name.startswith("a") and name[1:].isdigit():
        n = int(name[1:], 10)
        charge("terms", "a skew matrix", n * n)
        return path_quiver(n)
    raise InputError(
        f"unknown quiver name {label!r}; expected kronecker<b> or a<n>"
    )


def _endpoint(inputs: dict) -> tuple[Fraction, ...]:
    """The job's endpoint, a point of the plane broken lines are drawn in."""
    pt = tuple(parse_rational(x) for x in inputs["endpoint"])
    if len(pt) != 2:
        raise InputError(
            f"endpoint must have length 2 (broken lines are drawn in the "
            f"plane), got {len(pt)}"
        )
    return pt


def _quiver_for(inputs: dict) -> tuple[Quiver, str]:
    """The quiver a job names by exactly one of ``b`` or ``quiver``."""
    if "b" in inputs:
        return kronecker_quiver(inputs["b"]), f"kronecker{inputs['b']}"
    return named_quiver(inputs["quiver"]), inputs["quiver"]


def _seed_for(inputs: dict) -> tuple[Seed, str]:
    """The initial seed of the job's quiver, with a display label."""
    q, label = _quiver_for(inputs)
    label = f"b={inputs['b']}" if "b" in inputs else f"quiver {label}"
    return initial_seed(quiver_to_skew(q)), label


# ---------------------------------------------------------------------------
# Jobs


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_rational(value) -> bool:
    """An integer or a Fraction, or a string that ``parse_rational`` reads
    (a malformed one raises, naming itself)."""
    if isinstance(value, str):
        parse_rational(value)
        return True
    return _is_int(value) or isinstance(value, Fraction)


def _list_of(ok: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda v: isinstance(v, (list, tuple)) and bool(v) and all(map(ok, v))


#: Input kinds: (description of the job form, test of the job form,
#: parser of the flag's text or None when argparse's ``type`` converts it).
_KINDS: dict[str, tuple[str, Callable[[object], bool], Callable | None]] = {
    "int": ("an integer", _is_int, None),
    "str": ("a string", lambda v: isinstance(v, str), None),
    "ints": (
        "a list of integers (at least one)",
        _list_of(_is_int),
        lambda text, flag: list(parse_int_vec(text, flag)),
    ),
    "point": (
        'a list of rationals (integers or "p/q" strings, at least one)',
        _list_of(_is_rational),
        lambda text, flag: [str(x) for x in parse_point(text, flag)],
    ),
}


class Input(NamedTuple):
    """One input of a command: its job key, which is also its flag
    (``--key``, with ``-`` for ``_``), and what it may hold.  ``required``
    is True, False, or a group name: a job gives exactly one of a group.
    """

    key: str
    kind: str
    required: bool | str = False
    help: str | None = None
    choices: tuple[str, ...] | None = None


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


#: Marks a ``JobSpec`` built without inputs; each such job gets a fresh dict.
_NO_INPUTS = object()


class JobSpec(NamedTuple("JobSpec", [
    ("command", str),
    ("inputs", dict),
    ("output_format", str),
    ("order", int | None),
])):
    """A validated unit of work: command, parsed inputs, format, order.

    The command's entry in ``_COMMANDS`` lists every input it takes, with
    its kind, and the formats and order it accepts; anything else is an
    ``InputError``.
    """

    __slots__ = ()

    def __new__(
        cls,
        command: str,
        inputs: dict = _NO_INPUTS,
        output_format: str = "text",
        order: int | None = None,
    ) -> "JobSpec":
        if inputs is _NO_INPUTS:
            inputs = {}
        spec = _COMMANDS.get(command) if isinstance(command, str) else None
        if spec is None:
            raise InputError(
                f"unknown command {command!r}; expected one of {COMMANDS}"
            )
        if output_format not in spec.formats:
            raise InputError(
                f"output format {output_format!r} is not available for "
                f"command {command!r}; expected one of {spec.formats}"
            )
        if order is not None:
            if spec.order is None:
                raise InputError(f"command {command!r} takes no order")
            if not _is_int(order) or order < 1:
                raise InputError("order must be a positive integer")
        elif spec.order == "required":
            raise InputError(f"command {command!r} requires an order")
        if not isinstance(inputs, dict):
            raise InputError("job inputs must be an object")
        unknown = sorted(set(inputs) - {inp.key for inp in spec.inputs})
        if unknown:
            raise InputError(f"command {command!r} takes no input {unknown[0]!r}")
        groups: dict[str, list[str]] = {}
        for inp in spec.inputs:
            if isinstance(inp.required, str):
                groups.setdefault(inp.required, []).append(inp.key)
            if inp.key not in inputs:
                if inp.required is True:
                    raise InputError(f"{command} needs {_flag(inp.key)}")
                continue
            value = inputs[inp.key]
            what, ok = _KINDS[inp.kind][:2]
            if not ok(value):
                raise InputError(
                    f"job input {inp.key!r} must be {what}, got {value!r}"
                )
            if inp.choices and value not in inp.choices:
                raise InputError(
                    f"job input {inp.key!r} must be one of {inp.choices}, "
                    f"got {value!r}"
                )
        for keys in groups.values():
            if sum(key in inputs for key in keys) != 1:
                raise InputError(
                    f"{command} needs exactly one of "
                    + ", ".join(_flag(key) for key in keys)
                )
        return super().__new__(cls, command, inputs, output_format, order)


def job_from_json(data: dict) -> JobSpec:
    """Validate a JSON job document into a JobSpec."""
    if not isinstance(data, dict):
        raise InputError("job document must be a JSON object")
    unknown = set(data) - {"command", "inputs", "output_format", "order"}
    if unknown:
        raise InputError(f"unknown job keys: {sorted(unknown)}")
    if "command" not in data:
        raise InputError("job document is missing 'command'")
    return JobSpec(**data)


def canonical_json(obj) -> str:
    """Canonical JSON bytes: sorted keys, tight separators, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _poly_json(poly: LaurentPoly) -> dict:
    return {
        ",".join(str(x) for x in expo): coeff
        for expo, coeff in poly.sorted_terms()
    }


# ---------------------------------------------------------------------------
# SVG / TikZ emission

_SCALE = 55
_RADIUS = 270
_PALETTE = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")


def _escape(text: str) -> str:
    """SVG text content: ``&``, ``<`` and ``>`` as entities, quotes kept."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _px(value) -> str:
    return f"{float(value):.2f}"


def _label_text(wall: Wall) -> str:
    """A short deterministic label: leading terms of the wall function."""
    names = default_names(len(wall.func.step))
    terms = wall.func.poly.sorted_terms()
    shown = LaurentPoly(dict(terms[:3]))
    text = poly_str(shown, names)
    if len(terms) > 3:
        text += " + ..."
    return text


def _extend(direction: Sequence[int]) -> tuple[float, float]:
    scale = _RADIUS / max(abs(direction[0]), abs(direction[1]))
    return direction[0] * scale, direction[1] * scale


def _line_points(line: BrokenLine) -> list[tuple[Fraction, Fraction]]:
    """Drawn vertices: synthetic entry point, bend points, endpoint."""
    bends = [seg.start for seg in line.segments[1:]]
    first_known = bends[0] if bends else line.endpoint
    vx, vy = (Fraction(-x) for x in line.initial_exponent[:2])
    speed = max(abs(vx), abs(vy))
    reach = Fraction(5) + max(abs(first_known[0]), abs(first_known[1]))
    t = reach / speed
    entry = (first_known[0] - t * vx, first_known[1] - t * vy)
    return [entry, *bends, line.endpoint]


def emit_svg(
    diagram: ScatteringDiagram | None,
    lines: Sequence[BrokenLine] | None = None,
) -> str:
    """Render a rank-2 diagram (and optional broken lines) as SVG.

    Walls are segments from the origin with function labels; broken
    lines are coloured polylines with circles at bend points and a
    monomial label on each straight piece.  ``None`` or an empty diagram
    renders the axes only.
    """
    if diagram is not None and diagram.rank != 2:
        raise InputError("SVG rendering is two-dimensional")
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="560" height="560" '
        'viewBox="-280 -280 560 560">',
        '<rect x="-280" y="-280" width="560" height="560" fill="white"/>',
        '<g class="axes" stroke="#cccccc" stroke-width="1">',
        '<line x1="-280" y1="0" x2="280" y2="0"/>',
        '<line x1="0" y1="-280" x2="0" y2="280"/>',
        "</g>",
    ]
    if diagram is not None and diagram.walls:
        out.append('<g class="walls" stroke="#333333" stroke-width="1.5">')
        for wall in diagram.walls:
            label = _escape(_label_text(wall))
            for direction in support_directions(wall):
                x, y = _extend(direction)
                out.append(
                    f'<line class="ray" x1="0" y1="0" '
                    f'x2="{_px(x)}" y2="{_px(-y)}"/>'
                )
                lx, ly = 0.82 * x + 6, -0.82 * y - 6
                out.append(
                    f'<text class="wall-label" x="{_px(lx)}" y="{_px(ly)}" '
                    f'font-size="10" stroke="none" fill="#333333">'
                    f"{label}</text>"
                )
        out.append("</g>")
    if lines:
        names = default_names(len(lines[0].initial_exponent))
        out.append('<g class="lines" fill="none" stroke-width="2">')
        for i, line in enumerate(lines):
            color = _PALETTE[i % len(_PALETTE)]
            pts = _line_points(line)
            coords = " ".join(
                f"{_px(_SCALE * x)},{_px(-_SCALE * y)}" for x, y in pts
            )
            out.append(
                f'<polyline class="broken-line" stroke="{color}" '
                f'points="{coords}"/>'
            )
            for x, y in pts[1:-1]:
                out.append(
                    f'<circle class="bend" cx="{_px(_SCALE * x)}" '
                    f'cy="{_px(-_SCALE * y)}" r="3" fill="{color}" '
                    'stroke="none"/>'
                )
            for seg, (a, b) in zip(line.segments, zip(pts, pts[1:])):
                mx = _SCALE * (a[0] + b[0]) / 2
                my = -_SCALE * (a[1] + b[1]) / 2
                label = _escape(monomial_str(seg.exponent, seg.coefficient, names))
                out.append(
                    f'<text class="segment-label" x="{_px(mx + 4)}" '
                    f'y="{_px(my - 4)}" font-size="9" stroke="none" '
                    f'fill="{color}">{label}</text>'
                )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _tex_math(text: str) -> str:
    """Rewrite the plain-text polynomial syntax into TeX math."""
    tex = re.sub(r"([AX])(\d)", r"\1_{\2}", text.replace("*", " "))
    return re.sub(r"\^(-?\d*)", r"^{\1}", tex)


def emit_tikz(
    diagram: ScatteringDiagram | None,
    lines: Sequence[BrokenLine] | None = None,
) -> str:
    """TikZ picture with the same content as :func:`emit_svg`."""
    if diagram is not None and diagram.rank != 2:
        raise InputError("TikZ rendering is two-dimensional")
    out = [
        "\\begin{tikzpicture}[scale=1.0]",
        "  \\draw[lightgray] (-5,0) -- (5,0);",
        "  \\draw[lightgray] (0,-5) -- (0,5);",
    ]
    if diagram is not None:
        for wall in diagram.walls:
            label = _tex_math(_label_text(wall))
            for direction in support_directions(wall):
                scale = Fraction(9, 2) / max(abs(direction[0]), abs(direction[1]))
                x, y = scale * direction[0], scale * direction[1]
                out.append(
                    f"  \\draw (0,0) -- ({float(x):.3f},{float(y):.3f}) "
                    f"node[font=\\tiny] {{${label}$}};"
                )
    if lines:
        names = default_names(len(lines[0].initial_exponent))
        for line in lines:
            pts = _line_points(line)
            path = " -- ".join(
                f"({float(x):.3f},{float(y):.3f})" for x, y in pts
            )
            out.append(f"  \\draw[thick] {path};")
            for x, y in pts[1:-1]:
                out.append(
                    f"  \\fill ({float(x):.3f},{float(y):.3f}) circle (2pt);"
                )
            final = _tex_math(
                monomial_str(
                    line.final_exponent, line.coefficient, names
                )
            )
            ex, ey = pts[-1]
            out.append(
                f"  \\node[font=\\tiny, right] at "
                f"({float(ex):.3f},{float(ey):.3f}) {{${final}$}};"
            )
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Command implementations: each returns its output text, or for the json
# format the fields of its document, which ``run`` writes out.


_PICTURES = {"svg": emit_svg, "tikz": emit_tikz}


def _completed_diagram(seed: Seed, order: int) -> ScatteringDiagram:
    return complete_rank2(initial_diagram(seed, order), order)


def _cmd_mutate(job: JobSpec) -> str | dict:
    seed, label = _seed_for(job.inputs)
    word = tuple(job.inputs["word"])
    mutated = apply_word(seed, word)
    if job.output_format == "json":
        return {"seed": seed_to_json(mutated)}
    names = default_names(2 * mutated.rank)
    lines = [f"seed {label} after word {vec_str(word)}:"]
    for i, var in enumerate(mutated.variables):
        lines.append(f"  A{i + 1}' = {poly_str(var, names)}")
    for kind, mat in (("g", mutated.g_matrix()), ("c", mutated.c_matrix())):
        cols = (vec_str([row[j] for row in mat]) for j in range(mutated.rank))
        lines.append(f"  {kind}-vectors: " + ", ".join(cols))
    coherent = "yes" if mutated.is_sign_coherent() else "no"
    lines.append(f"  c-vectors sign-coherent: {coherent}")
    return "\n".join(lines) + "\n"


def _cmd_scatter(job: JobSpec) -> str | dict:
    seed, label = _seed_for(job.inputs)
    diagram = _completed_diagram(seed, job.order)
    if job.output_format == "json":
        return {"diagram": diagram_to_json(diagram)}
    if job.output_format in _PICTURES:
        return _PICTURES[job.output_format](diagram)
    names = default_names(2 * diagram.rank)
    lines = [
        f"scattering diagram {label}, order {diagram.order}: "
        f"{len(diagram.walls)} walls"
    ]
    for wall in diagram.walls:
        role = "incoming" if wall.incoming else "outgoing"
        lines.append(
            f"  {wall.kind:<4} normal {vec_str(wall.normal)} "
            f"direction {vec_str(wall.direction())} {role:<8} "
            f"f = {poly_str(wall.func.poly, names)}"
        )
    return "\n".join(lines) + "\n"


def _theta_with_fallback(m0, pt, diagram, order):
    """Theta at the endpoint; on a wall, or where a broken line to it
    degenerates (passes through the origin or runs along a wall's support
    line), agree the two one-sided limits."""
    try:
        return theta_function(m0, pt, diagram, order), None
    except GenericPositionError as exc:
        if isinstance(exc, DegenerateBrokenLineError):
            where = f"a broken line to endpoint {vec_str(pt)} {exc.degeneracy}"
        else:
            where = f"endpoint {vec_str(pt)} lies on a wall"
        for denom in (9973, 99991):
            # off a horizontal wall vertically, off any other horizontally
            step = (0, Fraction(1, denom)) if pt[1] == 0 else (Fraction(1, denom), 0)
            plus, minus = vec_add(pt, step), vec_sub(pt, step)
            try:
                t_plus = theta_function(m0, plus, diagram, order)
                t_minus = theta_function(m0, minus, diagram, order)
            except GenericPositionError:
                continue
            if t_plus.value != t_minus.value:
                raise InputError(
                    f"{where} and the theta function jumps across it; pick "
                    f"an endpoint off the walls (e.g. {vec_str(plus)})"
                ) from None
            note = f"note: {where}; the one-sided limits agree and are shown"
            return t_plus, note
        raise exc


def _line_summary(line: BrokenLine, names) -> str:
    if len(line.segments) == 1:
        shape = "straight"
    else:
        shape = "bends " + ", ".join(
            f"{vec_str(wall.normal)}^{power}" for wall, power in line.bends()
        )
    final = monomial_str(line.final_exponent, line.coefficient, names)
    return f"{final}  ({shape})"


def _line_json(line: BrokenLine) -> dict:
    return {
        "final_exponent": list(line.final_exponent),
        "coefficient": line.coefficient,
        "bends": [
            {"normal": list(wall.normal), "power": power}
            for wall, power in line.bends()
        ],
    }


def _cmd_theta(job: JobSpec) -> str | dict:
    seed, label = _seed_for(job.inputs)
    m0 = tuple(job.inputs["m"])
    if len(m0) != 2 * seed.rank:
        raise InputError(
            f"initial exponent must have length {2 * seed.rank}, got {len(m0)}"
        )
    pt = _endpoint(job.inputs)
    # Negative-degree initial exponents need walls beyond the truncation
    # order, because a broken line may climb that far before bending back.
    depth = job.order + max(0, -x_degree(m0, seed.rank))
    diagram = _completed_diagram(seed, depth)
    theta, note = _theta_with_fallback(m0, pt, diagram, job.order)
    if job.output_format == "json":
        doc = {
            "m0": list(m0),
            "endpoint": [str(x) for x in pt],
            "order": job.order,
            "value": _poly_json(theta.value),
            "lines": [_line_json(line) for line in theta.lines],
        }
        if note:
            doc["note"] = note
        return doc
    if job.output_format in _PICTURES:
        return _PICTURES[job.output_format](diagram, theta.lines)
    names = default_names(2 * seed.rank)
    out = [
        f"theta {label}, m0 = {vec_str(m0)}, endpoint = {vec_str(pt)}, "
        f"order {job.order}"
    ]
    if note:
        out.append(note)
    out.append(f"value = {poly_str(theta.value, names)}")
    out.append(f"broken lines: {len(theta.lines)}")
    for i, line in enumerate(theta.lines, start=1):
        out.append(f"  [{i}] {_line_summary(line, names)}")
    return "\n".join(out) + "\n"


def _cmd_cc(job: JobSpec) -> str | dict:
    q, label = _quiver_for(job.inputs)
    d = tuple(job.inputs["D"])
    value = caldero_chapoton(q, d)
    if job.output_format == "json":
        return {"quiver": label, "D": list(d), "value": _poly_json(value)}
    names = default_names(2 * q.n_vertices)
    return (
        f"cluster character, quiver {label}, D = {vec_str(d)}\n"
        f"value = {poly_str(value, names)}\n"
    )


def _cmd_grass(job: JobSpec) -> str | dict:
    q, label = _quiver_for(job.inputs)
    d, e = tuple(job.inputs["D"]), tuple(job.inputs["e"])
    chi = grassmannian_euler_char(q, d, e)
    if job.output_format == "json":
        # Counted first, so the subspace ceiling fires before any cell work;
        # the cells of a square D are tested, not proven, so q = 2 checks them.
        over_f2 = subrep_count(rep_mod_p(indecomposable_rep(q, d), 2), e)
        counting = grassmannian_counting_polynomial(q, d, e)
        for at, route, want in (
            (1, "the fixed-point count gives", chi),
            (2, "counting over F_2 gives", over_f2),
        ):
            got = sum(c * at**k for k, c in enumerate(counting))
            if got != want:
                raise InterpolationError(
                    f"polynomial-count violated: the counting polynomial gives "
                    f"{got} at q={at} but {route} {want} for d={d}, e={e}"
                )
        return {
            "quiver": label,
            "D": list(d),
            "e": list(e),
            "euler_characteristic": chi,
            "counting_polynomial": list(counting),
        }
    return f"{chi}\n"


def _strata_lines(q, d, e, pt, order):
    seed = initial_seed(quiver_to_skew(q))
    diagram = _completed_diagram(seed, order)
    m0 = tuple(-x for x in g_map(q, d)) + (0,) * q.n_vertices
    if x_degree(m0, q.n_vertices) + order > diagram.order:
        raise InputError("order too small for the requested initial exponent")
    target = vec_add(m0, tilde_p_star(seed.exchange_block(), e + (0,) * q.n_vertices))
    lines = enumerate_broken_lines(m0, pt, diagram, order, final_filter=target)
    return m0, target, lines


def _cmd_strata(job: JobSpec) -> str | dict:
    q, label = _quiver_for(job.inputs)
    if q.n_vertices != 2:
        raise InputError("strata are implemented for rank-2 quivers")
    d = tuple(job.inputs["D"])
    e = dim_vector(q, job.inputs["e"], "subdimension vector")
    if classify_indecomposable(q, d).component == "R":
        raise UnsupportedInputError(
            f"strata need a preprojective or preinjective dimension vector; "
            f"{d} is regular"
        )
    pt = _endpoint(job.inputs)
    order = job.order if job.order is not None else max(sum(e), 2)
    if order < sum(e):
        raise InputError(
            f"order {order} is below |e| = {sum(e)}, the final exponent's bend weight"
        )
    m0, target, lines = _strata_lines(q, d, e, pt, order)
    chi = grassmannian_euler_char(q, d, e)
    counting = LaurentPoly(
        {(k,): c for k, c in enumerate(grassmannian_counting_polynomial(q, d, e))}
    )
    out = [
        f"wall-crossing strata, quiver {label}, D = {vec_str(d)}, "
        f"e = {vec_str(e)}, endpoint = {vec_str(pt)}, order {order}",
        f"broken lines ending at exponent {vec_str(target)}: {len(lines)}",
    ]
    doc_lines = []
    strata_sum = LaurentPoly.zero()
    for idx, line in enumerate(lines, start=1):
        filt, qpoly = broken_line_strata(line, q, d)
        value = qpoly.evaluate_int((1,))
        strata_sum = strata_sum + qpoly
        entry = {
            "bends": [
                {"normal": list(w.normal), "power": p} for w, p in line.bends()
            ],
            "filtration": [
                {"vector": list(c), "multiplicity": lam} for c, lam in filt.steps
            ],
            "poincare": {str(k): coeff for (k,), coeff in qpoly.terms.items()},
            "value_at_one": value,
        }
        bends = ", ".join(f"{vec_str(w.normal)}^{p}" for w, p in line.bends())
        out.append(f"line {idx}: bends {bends if bends else '(none)'}")
        steps = ", ".join(f"{vec_str(c)} x{lam}" for c, lam in filt.steps)
        out.append(f"  filtration: {steps if steps else '(trivial)'}")
        out.append(f"  poincare polynomial: {q_str(qpoly)}")
        out.append(f"  value at q=1: {value}")
        if filt.steps:
            phases = hn_phases(filt, pt, q, d, e)
            entry["hn"] = {
                "values": [[str(z.re), str(z.im)] for z in phases.values],
                "decreasing": phases.decreasing,
            }
            shown = ", ".join(str(z) for z in phases.values)
            flag = "yes" if phases.decreasing else "NO"
            out.append(f"  stability phases: {shown} | decreasing: {flag}")
        doc_lines.append(entry)
    total = strata_sum.evaluate_int((1,))
    if job.output_format == "json":
        return {
            "quiver": label,
            "D": list(d),
            "e": list(e),
            "endpoint": [str(x) for x in pt],
            "order": order,
            "final_exponent": list(target),
            "lines": doc_lines,
            "total": total,
            "euler_characteristic": chi,
            "match": strata_sum == counting,
        }
    out.append(f"total over strata: {total}")
    out.append(f"finite-field Euler characteristic: {chi}")
    out.append(f"agreement: {'yes' if strata_sum == counting else 'NO'}")
    return "\n".join(out) + "\n"


def _cmd_ar(job: JobSpec) -> str | dict:
    q, label = _quiver_for(job.inputs)
    action = next(
        k for k in ("tau", "tau_inv", "classify", "component") if k in job.inputs
    )
    if action in ("tau", "tau_inv"):
        d = tuple(job.inputs[action])
        direction = "tau" if action == "tau" else "tau_inverse"
        image = coxeter_translate(q, d, direction)
        if job.output_format == "json":
            return {
                "quiver": label,
                "action": direction,
                "input": list(d),
                "output": list(image),
            }
        arrow = "tau" if action == "tau" else "tau^-1"
        return f"{arrow} {vec_str(d)} = {vec_str(image)}\n"
    if action == "classify":
        d = tuple(job.inputs["classify"])
        node = classify_indecomposable(q, d)
        if job.output_format == "json":
            return {
                "quiver": label,
                "action": "classify",
                "input": list(d),
                "component": node.component,
                "base": node.base,
                "steps": node.steps,
            }
        return (
            f"dim {vec_str(d)}: component {node.component}, "
            f"orbit of vertex {node.base}, translate steps {node.steps}\n"
        )
    side = job.inputs["component"]
    bound = job.inputs.get("bound", 4)
    graph = ar_component(q, side, bound)
    if job.output_format == "dot":
        return graph.to_dot() + "\n"
    if job.output_format == "json":
        return {
            "quiver": label,
            "action": "component",
            "side": side,
            "bound": bound,
            "nodes": [node._asdict() for node in graph.nodes],
            "edges": [list(edge) for edge in graph.edges],
        }
    out = [f"AR component {side} of quiver {label}, bound {bound}:"]
    for i, node in enumerate(graph.nodes):
        out.append(
            f"  [{i}] {node.component}({node.base}) t={node.steps} "
            f"dim={vec_str(node.dim)}"
        )
    for s, t in graph.edges:
        out.append(f"  [{s}] -> [{t}]")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# The reproduction suite behind `check`


def _b_diagram(b: int, order: int) -> ScatteringDiagram:
    return _completed_diagram(initial_seed(rank2_exchange(b)), order)


def _three_term(depth: int = 8):
    """Theta of (1,-1) at (3/2, 1) for b=2, to degree 8."""
    return theta_function((1, -1, 0, 0), (Fraction(3, 2), 1), _b_diagram(2, depth), 8)


def _five_term():
    """Theta of (2,-2) at (1, -3/2) for b=2, to degree 8."""
    return theta_function((2, -2, -1, -1), (1, Fraction(-3, 2)), _b_diagram(2, 10), 8)


def _square_identity() -> bool:
    """On the A-variables, theta of (2,-2) is theta of (1,-1) squared, minus 2."""
    single = restrict_to_A(_three_term(depth=10))
    return restrict_to_A(_five_term()) == single * single - LaurentPoly({(0, 0): 2})


def _loop_moved(b: int) -> list:
    """Unit monomials that a full loop round the b diagram moves."""
    start = (Fraction(-1), Fraction(1))
    loop = CrossingPath(start, start, full_loops=1)
    action = path_ordered_product(loop, _b_diagram(b, 8))
    units = [LaurentPoly.monomial(tuple(int(j == i) for j in range(4)))
             for i in range(4)]
    return [unit for unit in units if action.apply(unit) != unit]


def _strata_values() -> list[int]:
    q = kronecker_quiver(2)
    lines = _strata_lines(q, (5, 6), (2, 4), (Fraction(2), Fraction(1)), 6)[2]
    return sorted(
        broken_line_strata(line, q, (5, 6))[1].evaluate_int((1,)) for line in lines
    )


def _tau_undefined() -> list:
    """The projectives of the two-arrow quiver on which tau raises."""
    q = kronecker_quiver(2)
    undefined = []
    for proj in projective_dims(q):
        try:
            coxeter_translate(q, proj)
        except TranslateUndefinedError:
            undefined.append(proj)
    return undefined


def _duality_failures(label: str) -> list:
    """Words of four mutations, six seeds kept a round, whose seed is not
    sign-coherent or breaks G^T = C^-1."""
    frontier = [initial_seed(quiver_to_skew(named_quiver(label)))]
    failures = []
    for _ in range(4):
        frontier = [mutate_seed(s, k) for s in frontier for k in range(1, s.rank + 1)]
        failures += [
            m.word for m in frontier
            if not (m.is_sign_coherent() and check_tropical_duality(m))
        ]
        frontier = frontier[:6]
    return failures


def _ar_order(first, second) -> bool:
    """The paper's theorem on the walls of the b=2 mutation fan with these
    normals, crossed positively in this order."""
    fan = cluster_complex_diagram(initial_seed(rank2_exchange(2)), 5, order=4)
    walls = {wall.normal: wall for wall in fan.walls}
    return ar_order_check(walls[first], walls[second], kronecker_quiver(2))


def _ar_order_failures() -> tuple[int, list]:
    """How many positive-crossing pairs the depth-6 mutation fans of a2,
    a3 and kronecker2-4 have, and those against the paper's theorem."""
    labels = ("a2", "a3", "kronecker2", "kronecker3", "kronecker4")
    pairs = [
        (q, *pair) for q in map(named_quiver, labels)
        for pair in positive_crossing_pairs(initial_seed(quiver_to_skew(q)), 6)
    ]
    return len(pairs), [
        (w1.normal, w2.normal) for q, w1, w2 in pairs if not ar_order_check(w1, w2, q)
    ]


def _transport_mismatches(b: int) -> tuple[int, list]:
    """How many generators the depth-4 mutation fan of b has, and those
    whose theta by chamber transport to (157/100, 83/100) differs from
    the broken-line sum there."""
    diagram = _b_diagram(b, 8)
    chambers = cluster_complex_chambers(diagram.seed, 4)
    gens = sorted({g for chamber in chambers for g in chamber.generators})
    pt = (Fraction(157, 100), Fraction(83, 100))
    wrong = [
        g for g in gens
        if theta_function((*g, 0, 0), pt, diagram, 8).value
        != theta_via_path((*g, 0, 0), pt, diagram, depth=6)
    ]
    return len(gens), wrong


def _invalid_lines() -> tuple[int, list]:
    """How many lines the three- and five-term theta functions have, and
    why any of them breaks the bending rules of Gross-Hacking-Keel-
    Kontsevich (arXiv:1411.1394), re-checked line by line."""
    lines, reasons = 0, []
    for theta, depth in ((_three_term(), 8), (_five_term(), 10)):
        diagram = _b_diagram(2, depth)
        lines += len(theta.lines)
        reasons += [
            check.reason for line in theta.lines
            if not (check := validate_broken_line(line, diagram))
        ]
    return lines, reasons


def _hall_theta_is_broken_line_theta() -> bool:
    """The Hall-algebra theta function of (5,6) at (2,1) equals the sum of
    the broken lines of its initial exponent (7,-6) there."""
    hall = hall_theta_chi(kronecker_quiver(2), (5, 6), (2, 1))
    lines = theta_function((7, -6, 0, 0), (2, 1), _b_diagram(2, 11), 11)
    return hall == lines.value


def _exact_phases() -> tuple:
    """The stability values at (2,1) of the filtration (2,3), (0,1) of
    D=(5,6), e=(2,4), the types of their parts, and whether the phases
    strictly decrease."""
    filt = Filtration((((2, 3), 1), ((0, 1), 1)))
    values, decreasing = hn_phases(filt, (2, 1), kronecker_quiver(2), (5, 6), (2, 4))
    parts = {type(part).__name__ for z in values for part in (z.re, z.im)}
    return values, parts, decreasing


def _seven_mutations() -> LaurentPoly:
    return cluster_variable(initial_seed(rank2_exchange(2)), (1, 2, 1, 2, 1, 2, 1), 1)


class Golden(NamedTuple):
    """One case of a check: ``compute()`` must equal ``expected``."""

    check: str
    case: str
    compute: Callable[[], object]
    expected: object


#: The reproduction suite: ``check`` runs it, and the acceptance tests
#: run every row.  A check passes when all of its cases do.
GOLDEN: tuple[Golden, ...] = (
    *(Golden("loop-consistency-b123", f"b={b}", partial(_loop_moved, b), [])
      for b in (1, 2, 3)),
    Golden("wall-functions-b1-b2", "b=1: one outgoing ray, 1 + t on (1,1)",
           lambda: [(w.normal, w.func) for w in _b_diagram(1, 8).walls
                    if not w.incoming],
           [((1, 1), GradedSeries((-1, 1, 1, 1), 8, (1, 1)))]),
    # (1 - t)^-2 on the central ray: t = z^(-2,2,1,1) has series degree 2
    Golden("wall-functions-b1-b2", "b=2: central ray (1 - t)^-2, rays 1 + t",
           lambda: {w.normal: w.func for w in _b_diagram(2, 8).walls
                    if w.normal in ((1, 1), (1, 2), (2, 1), (2, 3))},
           {(1, 1): GradedSeries((-2, 2, 1, 1), 8, (1, 2, 3, 4, 5)),
            (1, 2): GradedSeries((-4, 2, 1, 2), 8, (1, 1)),
            (2, 1): GradedSeries((-2, 4, 2, 1), 8, (1, 1)),
            (2, 3): GradedSeries((-6, 4, 2, 3), 8, (1, 1))}),
    Golden("three-term-theta", "value", lambda: _three_term().value,
           LaurentPoly({(1, -1, 0, 0): 1, (-1, -1, 0, 1): 1, (-1, 1, 1, 1): 1})),
    Golden("three-term-theta", "broken lines", lambda: len(_three_term().lines), 3),
    Golden("five-term-theta-square-identity", "value", lambda: _five_term().value,
           LaurentPoly({(2, -2, -1, -1): 1, (-2, 2, 1, 1): 1, (-2, -2, -1, 1): 1,
                        (0, -2, -1, 0): 2, (-2, 0, 0, 1): 2})),
    Golden("five-term-theta-square-identity", "coefficients",
           lambda: sorted(c for _, c in _five_term().value.sorted_terms()),
           [1, 1, 1, 2, 2]),
    Golden("five-term-theta-square-identity", "theta^2 - 2", _square_identity, True),
    Golden("kronecker-56-strata-10-8", "strata at q=1", _strata_values, [8, 10]),
    Golden("kronecker-56-strata-10-8", "chi",
           lambda: grassmannian_euler_char(kronecker_quiver(2), (5, 6), (2, 4)), 18),
    Golden("stability-phases-exact", "Z(2,3) = 8+7i, Z(0,1) = 2+i, decreasing",
           _exact_phases,
           ((StabilityValue(8, 7), StabilityValue(2, 1)), {"Fraction"}, True)),
    Golden("kronecker-translate", "tau(2,3)",
           lambda: coxeter_translate(kronecker_quiver(2), (2, 3)), (0, 1)),
    Golden("kronecker-translate", "undefined on projectives", _tau_undefined,
           [(1, 2), (0, 1)]),
    Golden("gl-poincare-orders", "|GL_d(F_p)| at (d, p)", lambda: {
        (d, p): gl_poincare(d).evaluate_int((p,))
        for d, p in ((1, 2), (1, 3), (2, 2), (2, 3))
    }, {(1, 2): 1, (1, 3): 2, (2, 2): 6, (2, 3): 48}),
    Golden("gl-poincare-orders", "binomial(5,2) at 1",
           lambda: qbinom(5, 2).evaluate_int((1,)), 10),
    *(Golden("tropical-duality-sign-coherence", label,
             partial(_duality_failures, label), [])
      for label in ("a2", "a3", "kronecker2")),
    Golden("ar-order-positive-crossing", "(1,2) then (0,1)",
           partial(_ar_order, (1, 2), (0, 1)), True),
    Golden("ar-order-positive-crossing", "(0,1) then (1,2)",
           partial(_ar_order, (0, 1), (1, 2)), False),
    Golden("ar-order-positive-crossing", "every pair of a2, a3, kronecker2-4",
           _ar_order_failures, (29, [])),
    Golden("theta-via-path", "b=1", partial(_transport_mismatches, 1), (5, [])),
    Golden("theta-via-path", "b=2", partial(_transport_mismatches, 2), (10, [])),
    Golden("cc-equals-cluster-variable", "D=(7,6) vs word 1,2,1,2,1,2,1",
           lambda: caldero_chapoton(kronecker_quiver(2), (7, 6)) == _seven_mutations(),
           True),
    Golden("cc-equals-cluster-variable", "g-vector",
           lambda: g_vector(_seven_mutations(), 2), (5, -6)),
    Golden("broken-lines-validate", "three- and five-term theta",
           _invalid_lines, (8, [])),
    Golden("hall-theta-equals-broken-lines", "D=(5,6) at (2,1), order 11",
           _hall_theta_is_broken_line_theta, True),
)


def _golden_failure(row: Golden) -> str:
    """Why a golden case fails, or "" when it holds."""
    try:
        got = row.compute()
    except InputError as exc:
        return f"{row.case}: {exc}"
    if got != row.expected:
        return f"{row.case}: got {got!r}, expected {row.expected!r}"
    return ""


def _cmd_check(job: JobSpec) -> str | dict:
    names = list(dict.fromkeys(row.check for row in GOLDEN))
    only = job.inputs.get("only")
    if only is not None and only not in names:
        raise InputError(f"unknown check {only!r}; known checks: {', '.join(names)}")
    results = {name: "" for name in names if only in (None, name)}
    for row in GOLDEN:
        if row.check in results and not results[row.check]:
            results[row.check] = _golden_failure(row)
    failures = [name for name, detail in results.items() if detail]
    if job.output_format == "json":
        checks = [
            {"name": name, "ok": not detail, **({"detail": detail} if detail else {})}
            for name, detail in results.items()
        ]
        return {"checks": checks, "pass": not failures}
    out = [f"FAIL {name}: {d}" if d else f"ok   {name}" for name, d in results.items()]
    out.append(
        f"PASS ({len(results)} checks)" if not failures else
        f"FAIL ({len(failures)} of {len(results)} checks failed)"
    )
    text = "\n".join(out) + "\n"
    if failures:
        raise InputError("reproduction suite failed:\n" + text.rstrip())
    return text


class Command(NamedTuple):
    """One subcommand: everything the parser, the job validation and the
    dispatch know about it.  ``order`` is "required", "optional" or None
    (the command takes no ``--order``)."""

    help: str
    handler: Callable[[JobSpec], str | dict]
    inputs: tuple[Input, ...]
    formats: tuple[str, ...] = ("text", "json")
    order: str | None = None


_SOURCE = (
    Input("b", "int", "source", "rank-2 exchange parameter"),
    Input("quiver", "str", "source", "named quiver: kronecker<b> or a<n>"),
)
_D = Input("D", "ints", True, "dimension vector")
_E = Input("e", "ints", True, "subdimension vector")
_ENDPOINT = Input("endpoint", "point", True, "rational point, e.g. 1,-3/2")
_DRAWN = ("text", "json", *_PICTURES)

#: The subcommands of ``clusterscatter`` (``run`` reads a job of one).
_COMMANDS: dict[str, Command] = {
    "mutate": Command(
        "mutate a seed along a word; print variables, g- and c-vectors",
        _cmd_mutate,
        (*_SOURCE, Input("word", "ints", True, "comma-separated 1-based vertices")),
    ),
    "scatter": Command(
        "complete a rank-2 scattering diagram and render it",
        _cmd_scatter, _SOURCE, _DRAWN, "required",
    ),
    "theta": Command(
        "sum broken lines into a theta function",
        _cmd_theta,
        (*_SOURCE, Input("m", "ints", True, "initial exponent, length 2n"), _ENDPOINT),
        _DRAWN, "required",
    ),
    "cc": Command(
        "cluster character of a quiver dimension vector", _cmd_cc, (*_SOURCE, _D)
    ),
    "grass": Command(
        "Euler characteristic of a quiver Grassmannian",
        _cmd_grass, (*_SOURCE, _D, _E),
    ),
    "strata": Command(
        "wall-crossing strata of broken lines, with stability phases",
        _cmd_strata, (*_SOURCE, _D, _E, _ENDPOINT), order="optional",
    ),
    "ar": Command(
        "Auslander-Reiten translate, classification or component graph",
        _cmd_ar,
        (
            *_SOURCE,
            Input("tau", "ints", "action", "translate this dimension vector"),
            Input("tau_inv", "ints", "action", "inverse-translate this vector"),
            Input("classify", "ints", "action", "classify this indecomposable"),
            Input("component", "str", "action", "emit a translate-orbit graph",
                  ("P", "I")),
            Input("bound", "int", help="translate steps of --component (4)"),
        ),
        ("text", "json", "dot"),
    ),
    "check": Command(
        "run the built-in reproduction suite",
        _cmd_check, (Input("only", "str", help="run a single named check"),),
    ),
}
COMMANDS = tuple(_COMMANDS)


def run(job: JobSpec) -> str:
    """Execute a validated job and return its full output text."""
    out = _COMMANDS[job.command].handler(job)
    if isinstance(out, dict):
        return canonical_json({"command": job.command, **out})
    return out


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterscatter",
        description="Exact cluster scattering diagrams, theta functions, "
        "AR data, and wall-crossing strata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for inp in spec.inputs:
            p.add_argument(
                _flag(inp.key), dest=inp.key, required=inp.required is True,
                type=int if inp.kind == "int" else None, choices=inp.choices,
                help=inp.help,
            )
        if spec.order:
            p.add_argument("--order", type=int, required=spec.order == "required")
        p.add_argument(
            "--format", choices=FORMATS, default="text", dest="output_format"
        )
        for fmt in FORMATS[1:]:
            p.add_argument(
                f"--{fmt}",
                action="store_const",
                const=fmt,
                dest="output_format",
                help=f"shorthand for --format {fmt}",
            )
    p = sub.add_parser("run", help="execute a JSON job document")
    p.add_argument("--job", required=True,
                   help="path to a JobSpec JSON file, or - for stdin")
    return parser


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    if args.command == "run":
        if args.job == "-":
            raw = sys.stdin.read()
        else:
            try:
                with open(args.job, "r", encoding="utf-8") as fh:
                    raw = fh.read()
            except OSError as exc:
                raise InputError(f"cannot read job file: {exc}") from None
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(f"job file is not valid JSON: {exc}") from None
        return job_from_json(data)
    inputs: dict = {}
    for inp in _COMMANDS[args.command].inputs:
        value = getattr(args, inp.key)
        if value is not None:
            parse = _KINDS[inp.kind][2]
            inputs[inp.key] = parse(value, _flag(inp.key)) if parse else value
    return JobSpec(
        command=args.command,
        inputs=inputs,
        output_format=args.output_format,
        order=getattr(args, "order", None),
    )


#: Flags whose value is a vector or a point and may start with a minus sign.
_VECTOR_FLAGS = {
    _flag(inp.key) for spec in _COMMANDS.values() for inp in spec.inputs
    if inp.kind in ("ints", "point")
}


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--m -1,1,0,0`` as ``--m=-1,1,0,0``: argparse would read a
    value that starts with ``-`` and a digit as an unknown flag."""
    out: list[str] = []
    for arg in argv:
        negative = arg[:1] == "-" and arg[1:2].isdigit()
        if negative and out and out[-1] in _VECTOR_FLAGS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv)
    )
    budget = lattice.BUDGET
    try:
        # both ceilings are read once, before any job runs
        lattice.BUDGET = lattice.budget_from_env()
        output = run(_job_from_args(args))
    except ResourceLimitError as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        lattice.BUDGET = budget
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
