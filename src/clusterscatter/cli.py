"""Command-line front end.

One executable, eight subcommands, all exact arithmetic:

* ``mutate``  -- mutate a seed along a word, print variables and tropical data
* ``scatter`` -- complete a rank-2 scattering diagram and render it
* ``theta``   -- sum broken lines into a theta function
* ``cc``      -- cluster character of a quiver dimension vector
* ``grass``   -- Euler characteristic of a quiver Grassmannian
* ``strata``  -- per-broken-line wall-crossing strata with stability phases
* ``ar``      -- Auslander-Reiten translate / classification / component graph
* ``check``   -- run the built-in reproduction suite

Inputs accept exact rationals written ``p/q``; no floating-point parsing
anywhere.  A negative vector or point may follow its flag as a separate
word (``--m -1,1,0,0``) or be attached with ``=``.  Jobs may also be
supplied as JSON documents (``run --job``), whose inputs are type-checked.
Exit status: 0 success, 2 bad input (including schema violations), 3 a
resource ceiling was hit.  Output is deterministic: identical inputs give
identical bytes.

Resource ceilings come from the environment: ``CLUSTERSCATTER_MAX_TERMS``
bounds series/polynomial term counts and ``CLUSTERSCATTER_SUBSPACE_LIMIT``
bounds finite-field subspace enumeration, which only the counting
polynomial of ``grass --json`` performs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence
from xml.sax.saxutils import escape

from . import lattice
from .brokenlines import (
    BrokenLine,
    enumerate_broken_lines,
    restrict_to_A,
    theta_function,
)
from .cluster import Seed, apply_word, initial_seed, rank2_exchange, seed_to_json
from .errors import (
    GenericPositionError,
    InputError,
    InterpolationError,
    ResourceLimitError,
    TranslateUndefinedError,
    UnsupportedInputError,
)
from .hall import broken_line_strata, gl_poincare, hn_phases, qbinom
from .lattice import (
    LaurentPoly,
    default_names,
    monomial_str,
    poly_str,
    tilde_p_star,
    vec_add,
    x_degree,
)
from .quiver import (
    Quiver,
    ar_component,
    caldero_chapoton,
    classify_indecomposable,
    coxeter_translate,
    g_map,
    grassmannian_counting_polynomial,
    grassmannian_euler_char,
    kronecker_quiver,
    path_quiver,
    quiver_to_skew,
)
from .scattering import (
    ScatteringDiagram,
    Wall,
    complete_rank2,
    diagram_to_json,
    initial_diagram,
)

COMMANDS = ("mutate", "scatter", "theta", "cc", "grass", "strata", "ar", "check")
FORMATS = ("text", "json", "svg", "dot", "tikz")

#: Which output formats each command can honour.
_FORMAT_SUPPORT = {
    "mutate": ("text", "json"),
    "scatter": ("text", "json", "svg", "tikz"),
    "theta": ("text", "json", "svg", "tikz"),
    "cc": ("text", "json"),
    "grass": ("text", "json"),
    "strata": ("text", "json"),
    "ar": ("text", "json", "dot"),
    "check": ("text", "json"),
}


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
    """Resolve built-in quiver names ``kronecker{b}`` and ``a{n}``."""
    name = str(label).strip().lower()
    if name.startswith("kronecker"):
        try:
            b = int(name[len("kronecker"):], 10)
        except ValueError:
            raise InputError(f"unknown quiver name {label!r}") from None
        return kronecker_quiver(b)
    if name.startswith("a") and name[1:].isdigit():
        return path_quiver(int(name[1:], 10))
    raise InputError(
        f"unknown quiver name {label!r}; expected kronecker<b> or a<n>"
    )


def _seed_for(inputs: dict) -> tuple[Seed, str]:
    """Initial seed from ``b`` or ``quiver`` inputs, with a display label."""
    if inputs.get("b") is not None:
        b = int(inputs["b"])
        if b < 1:
            raise InputError("b must be a positive integer")
        return initial_seed(rank2_exchange(b)), f"b={b}"
    if inputs.get("quiver"):
        label = str(inputs["quiver"])
        q = named_quiver(label)
        return initial_seed(quiver_to_skew(q)), f"quiver {label}"
    raise InputError("need either --b or --quiver")


def _quiver_for(inputs: dict) -> tuple[Quiver, str]:
    if inputs.get("quiver"):
        label = str(inputs["quiver"])
        return named_quiver(label), label
    if inputs.get("b") is not None:
        b = int(inputs["b"])
        if b < 1:
            raise InputError("b must be a positive integer")
        return kronecker_quiver(b), f"kronecker{b}"
    raise InputError("need either --quiver or --b")


# ---------------------------------------------------------------------------
# Jobs


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_INT = ("an integer", _is_int)
_STR = ("a string", lambda v: isinstance(v, str))
_INTS = (
    "a list of integers",
    lambda v: isinstance(v, (list, tuple)) and all(_is_int(x) for x in v),
)
# rational strings are parsed by the command, which rejects bad ones
_RATIONALS = (
    'a list of rationals (integers or "p/q" strings)',
    lambda v: isinstance(v, (list, tuple)) and all(
        _is_int(x) or isinstance(x, (str, Fraction)) for x in v
    ),
)

#: The type of every known job input, as (description, predicate).
_INPUT_TYPES: dict[str, tuple[str, Callable[[object], bool]]] = {
    **dict.fromkeys(("b", "bound"), _INT),
    **dict.fromkeys(("quiver", "component", "only"), _STR),
    **dict.fromkeys(
        ("D", "e", "m", "word", "tau", "tau_inv", "classify"), _INTS
    ),
    "endpoint": _RATIONALS,
}


@dataclass(frozen=True)
class JobSpec:
    """A validated unit of work: command, parsed inputs, format, order.

    Every known input must have the type ``_INPUT_TYPES`` lists for it.
    """

    command: str
    inputs: dict = field(default_factory=dict)
    output_format: str = "text"
    order: int | None = None

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise InputError(
                f"unknown command {self.command!r}; expected one of {COMMANDS}"
            )
        if self.output_format not in FORMATS:
            raise InputError(
                f"unknown output format {self.output_format!r}; "
                f"expected one of {FORMATS}"
            )
        if self.output_format not in _FORMAT_SUPPORT[self.command]:
            raise InputError(
                f"output format {self.output_format!r} is not available for "
                f"command {self.command!r}"
            )
        if self.order is not None and (
            not isinstance(self.order, int) or self.order < 1
        ):
            raise InputError("order must be a positive integer")
        if self.command in ("scatter", "theta") and self.order is None:
            raise InputError(f"command {self.command!r} requires an order")
        if not isinstance(self.inputs, dict):
            raise InputError("job inputs must be an object")
        for key, value in self.inputs.items():
            if key in _INPUT_TYPES:
                what, ok = _INPUT_TYPES[key]
                if not ok(value):
                    raise InputError(
                        f"job input {key!r} must be {what}, got {value!r}"
                    )


def job_from_json(data: dict) -> JobSpec:
    """Validate a JSON job document into a JobSpec."""
    if not isinstance(data, dict):
        raise InputError("job document must be a JSON object")
    unknown = set(data) - {"command", "inputs", "output_format", "order"}
    if unknown:
        raise InputError(f"unknown job keys: {sorted(unknown)}")
    if "command" not in data:
        raise InputError("job document is missing 'command'")
    order = data.get("order")
    if order is not None and not isinstance(order, int):
        raise InputError("order must be an integer")
    return JobSpec(
        command=data["command"],
        inputs=data.get("inputs", {}),
        output_format=data.get("output_format", "text"),
        order=order,
    )


def canonical_json(obj) -> str:
    """Canonical JSON bytes: sorted keys, tight separators, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _poly_json(poly: LaurentPoly) -> dict:
    return {
        ",".join(str(x) for x in expo): coeff
        for expo, coeff in poly.sorted_terms()
    }


def _fmt_vec(v: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _fmt_point(pt: Sequence[Fraction]) -> str:
    return "(" + ",".join(str(Fraction(x)) for x in pt) + ")"


# ---------------------------------------------------------------------------
# SVG / TikZ emission

_SCALE = 55
_RADIUS = 270
_PALETTE = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")


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


def _ray_pieces(wall: Wall) -> list[tuple[int, int]]:
    """Unit directions of the drawn ray pieces of a 2D wall."""
    d = wall.direction()
    if wall.kind == "line":
        return [d, (-d[0], -d[1])]
    return [d]


def _extend(direction: Sequence[int]) -> tuple[float, float]:
    scale = _RADIUS / max(abs(direction[0]), abs(direction[1]))
    return direction[0] * scale, direction[1] * scale


def _line_points(line: BrokenLine) -> list[tuple[Fraction, Fraction]]:
    """Drawn vertices: synthetic entry point, bend points, endpoint."""
    bends = [seg.start for seg in line.segments[1:]]
    first_known = bends[0] if bends else line.endpoint
    n = len(line.initial_exponent) // 2
    expo = line.segments[0].exponent
    part = expo[:n] if line.view == "m" else expo[n:]
    vx, vy = Fraction(-part[0]), Fraction(-part[1])
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
            label = escape(_label_text(wall))
            for direction in _ray_pieces(wall):
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
                label = escape(
                    monomial_str(seg.exponent, seg.coefficient, names)
                )
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
    tex = text.replace("*", " ")
    for i in range(9, 0, -1):
        tex = tex.replace(f"A{i}", f"A_{{{i}}}").replace(f"X{i}", f"X_{{{i}}}")
    out = []
    k = 0
    while k < len(tex):
        if tex[k] == "^":
            k += 1
            exp = ""
            if k < len(tex) and tex[k] == "-":
                exp += "-"
                k += 1
            while k < len(tex) and tex[k].isdigit():
                exp += tex[k]
                k += 1
            out.append(f"^{{{exp}}}")
        else:
            out.append(tex[k])
            k += 1
    return "".join(out)


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
            for direction in _ray_pieces(wall):
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
# Command implementations (each returns the full output string)


def _completed_diagram(seed: Seed, order: int) -> ScatteringDiagram:
    return complete_rank2(initial_diagram(seed, order), order)


def _cmd_mutate(job: JobSpec) -> str:
    seed, label = _seed_for(job.inputs)
    word = tuple(job.inputs.get("word", ()))
    if not word:
        raise InputError("mutate needs a nonempty --word of 1-based vertices")
    mutated = apply_word(seed, word)
    if job.output_format == "json":
        return canonical_json({"command": "mutate", "seed": seed_to_json(mutated)})
    names = default_names(2 * mutated.rank)
    lines = [f"seed {label} after word {_fmt_vec(word)}:"]
    for i, var in enumerate(mutated.variables):
        lines.append(f"  A{i + 1}' = {poly_str(var, names)}")
    gcols = [
        _fmt_vec(tuple(row[j] for row in mutated.g_matrix()))
        for j in range(mutated.rank)
    ]
    ccols = [
        _fmt_vec(tuple(row[j] for row in mutated.c_matrix()))
        for j in range(mutated.rank)
    ]
    lines.append("  g-vectors: " + ", ".join(gcols))
    lines.append("  c-vectors: " + ", ".join(ccols))
    coherent = "yes" if mutated.is_sign_coherent() else "no"
    lines.append(f"  c-vectors sign-coherent: {coherent}")
    return "\n".join(lines) + "\n"


def _cmd_scatter(job: JobSpec) -> str:
    seed, label = _seed_for(job.inputs)
    diagram = _completed_diagram(seed, job.order)
    if job.output_format == "json":
        return canonical_json(
            {"command": "scatter", "diagram": diagram_to_json(diagram)}
        )
    if job.output_format == "svg":
        return emit_svg(diagram)
    if job.output_format == "tikz":
        return emit_tikz(diagram)
    names = default_names(2 * diagram.rank)
    lines = [
        f"scattering diagram {label}, order {diagram.order}: "
        f"{len(diagram.walls)} walls"
    ]
    for wall in diagram.walls:
        role = "incoming" if wall.incoming else "outgoing"
        lines.append(
            f"  {wall.kind:<4} normal {_fmt_vec(wall.normal)} "
            f"direction {_fmt_vec(wall.direction())} {role:<8} "
            f"f = {poly_str(wall.func.poly, names)}"
        )
    return "\n".join(lines) + "\n"


def _nudge_candidates(pt: tuple[Fraction, ...]):
    for denom in (9973, 99991):
        delta = Fraction(1, denom)
        yield (pt[0] + delta, pt[1]), (pt[0] - delta, pt[1])


def _theta_with_fallback(m0, pt, diagram, order):
    """Theta at the endpoint; on a wall, agree the two one-sided limits."""
    try:
        return theta_function(m0, pt, diagram, order), None
    except GenericPositionError as exc:
        for plus, minus in _nudge_candidates(pt):
            try:
                t_plus = theta_function(m0, plus, diagram, order)
                t_minus = theta_function(m0, minus, diagram, order)
            except GenericPositionError:
                continue
            if t_plus.value != t_minus.value:
                raise InputError(
                    f"endpoint {_fmt_point(pt)} lies on a wall and the theta "
                    "function jumps across it; pick an endpoint off the "
                    f"walls (e.g. {_fmt_point(plus)})"
                ) from None
            note = (
                f"note: endpoint {_fmt_point(pt)} lies on a wall; "
                "the one-sided limits agree and are shown"
            )
            return t_plus, note
        raise exc


def _line_summary(line: BrokenLine, names) -> str:
    if len(line.segments) == 1:
        shape = "straight"
    else:
        shape = "bends " + ", ".join(
            f"{_fmt_vec(wall.normal)}^{power}" for wall, power in line.bends()
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


def _cmd_theta(job: JobSpec) -> str:
    seed, label = _seed_for(job.inputs)
    if "m" not in job.inputs:
        raise InputError("theta needs --m, the initial exponent")
    m0 = tuple(int(x) for x in job.inputs["m"])
    if len(m0) != 2 * seed.rank:
        raise InputError(
            f"initial exponent must have length {2 * seed.rank}, got {len(m0)}"
        )
    if "endpoint" not in job.inputs:
        raise InputError("theta needs --endpoint")
    pt = tuple(parse_rational(x) for x in job.inputs["endpoint"])
    # Negative-degree initial exponents need walls beyond the truncation
    # order, because a broken line may climb that far before bending back.
    depth = job.order + max(0, -x_degree(m0, seed.rank))
    diagram = _completed_diagram(seed, depth)
    theta, note = _theta_with_fallback(m0, pt, diagram, job.order)
    if job.output_format == "json":
        doc = {
            "command": "theta",
            "m0": list(m0),
            "endpoint": [str(x) for x in pt],
            "order": job.order,
            "value": _poly_json(theta.value),
            "lines": [_line_json(line) for line in theta.lines],
        }
        if note:
            doc["note"] = note
        return canonical_json(doc)
    if job.output_format == "svg":
        return emit_svg(diagram, theta.lines)
    if job.output_format == "tikz":
        return emit_tikz(diagram, theta.lines)
    names = default_names(2 * seed.rank)
    out = [
        f"theta {label}, m0 = {_fmt_vec(m0)}, endpoint = {_fmt_point(pt)}, "
        f"order {job.order}"
    ]
    if note:
        out.append(note)
    out.append(f"value = {poly_str(theta.value, names)}")
    out.append(f"broken lines: {len(theta.lines)}")
    for i, line in enumerate(theta.lines, start=1):
        out.append(f"  [{i}] {_line_summary(line, names)}")
    return "\n".join(out) + "\n"


def _cmd_cc(job: JobSpec) -> str:
    q, label = _quiver_for(job.inputs)
    if "D" not in job.inputs:
        raise InputError("cc needs --D, the dimension vector")
    d = tuple(int(x) for x in job.inputs["D"])
    value = caldero_chapoton(q, d)
    if job.output_format == "json":
        return canonical_json(
            {
                "command": "cc",
                "quiver": label,
                "D": list(d),
                "value": _poly_json(value),
            }
        )
    names = default_names(2 * q.n_vertices)
    return (
        f"cluster character, quiver {label}, D = {_fmt_vec(d)}\n"
        f"value = {poly_str(value, names)}\n"
    )


def _cmd_grass(job: JobSpec) -> str:
    q, label = _quiver_for(job.inputs)
    for key in ("D", "e"):
        if key not in job.inputs:
            raise InputError(f"grass needs --{key}")
    d = tuple(int(x) for x in job.inputs["D"])
    e = tuple(int(x) for x in job.inputs["e"])
    chi = grassmannian_euler_char(q, d, e)
    if job.output_format == "json":
        counting = grassmannian_counting_polynomial(q, d, e)
        if sum(counting) != chi:
            raise InterpolationError(
                f"polynomial-count violated: the counting polynomial gives "
                f"{sum(counting)} at q=1 but the fixed-point count gives {chi} "
                f"for d={d}, e={e}"
            )
        return canonical_json(
            {
                "command": "grass",
                "quiver": label,
                "D": list(d),
                "e": list(e),
                "euler_characteristic": chi,
                "counting_polynomial": list(counting),
            }
        )
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


def _cmd_strata(job: JobSpec) -> str:
    q, label = _quiver_for(job.inputs)
    if q.n_vertices != 2:
        raise InputError("strata are implemented for rank-2 quivers")
    for key in ("D", "e", "endpoint"):
        if key not in job.inputs:
            raise InputError(f"strata needs --{key}")
    d = tuple(int(x) for x in job.inputs["D"])
    e = tuple(int(x) for x in job.inputs["e"])
    if classify_indecomposable(q, d).component == "R":
        raise UnsupportedInputError(
            f"strata need a preprojective or preinjective dimension vector; "
            f"{d} is regular"
        )
    pt = tuple(parse_rational(x) for x in job.inputs["endpoint"])
    order = job.order if job.order is not None else max(sum(e), 2)
    m0, target, lines = _strata_lines(q, d, e, pt, order)
    chi = grassmannian_euler_char(q, d, e)
    records = []
    total = 0
    for line in lines:
        filt, qpoly = broken_line_strata(line, q, d)
        value = qpoly(1)
        total += value
        phases = (
            hn_phases(filt, pt, q, d, e) if filt.steps else None
        )
        records.append((line, filt, qpoly, value, phases))
    if job.output_format == "json":
        doc_lines = []
        for line, filt, qpoly, value, phases in records:
            entry = {
                "bends": [
                    {"normal": list(w.normal), "power": p}
                    for w, p in line.bends()
                ],
                "filtration": [
                    {"vector": list(c), "multiplicity": lam}
                    for c, lam in filt.steps
                ],
                "poincare": {
                    str(expo): coeff for expo, coeff in qpoly.sorted_terms()
                },
                "value_at_one": value,
            }
            if phases is not None:
                entry["hn"] = {
                    "values": [[str(z.re), str(z.im)] for z in phases.values],
                    "decreasing": phases.decreasing,
                }
            doc_lines.append(entry)
        return canonical_json(
            {
                "command": "strata",
                "quiver": label,
                "D": list(d),
                "e": list(e),
                "endpoint": [str(x) for x in pt],
                "order": order,
                "final_exponent": list(target),
                "lines": doc_lines,
                "total": total,
                "euler_characteristic": chi,
                "match": total == chi,
            }
        )
    out = [
        f"wall-crossing strata, quiver {label}, D = {_fmt_vec(d)}, "
        f"e = {_fmt_vec(e)}, endpoint = {_fmt_point(pt)}, order {order}",
        f"broken lines ending at exponent {_fmt_vec(target)}: {len(lines)}",
    ]
    for idx, (line, filt, qpoly, value, phases) in enumerate(records, start=1):
        bends = ", ".join(
            f"{_fmt_vec(w.normal)}^{p}" for w, p in line.bends()
        )
        out.append(f"line {idx}: bends {bends if bends else '(none)'}")
        steps = ", ".join(f"{_fmt_vec(c)} x{lam}" for c, lam in filt.steps)
        out.append(f"  filtration: {steps if steps else '(trivial)'}")
        out.append(f"  poincare polynomial: {qpoly}")
        out.append(f"  value at q=1: {value}")
        if phases is not None:
            shown = ", ".join(str(z) for z in phases.values)
            flag = "yes" if phases.decreasing else "NO"
            out.append(f"  stability phases: {shown} | decreasing: {flag}")
    out.append(f"total over strata: {total}")
    out.append(f"finite-field Euler characteristic: {chi}")
    out.append(f"agreement: {'yes' if total == chi else 'NO'}")
    return "\n".join(out) + "\n"


def _cmd_ar(job: JobSpec) -> str:
    q, label = _quiver_for(job.inputs)
    actions = [
        k for k in ("tau", "tau_inv", "classify", "component") if k in job.inputs
    ]
    if len(actions) != 1:
        raise InputError(
            "ar needs exactly one of --tau, --tau-inv, --classify, --component"
        )
    action = actions[0]
    if action in ("tau", "tau_inv"):
        d = tuple(int(x) for x in job.inputs[action])
        direction = "tau" if action == "tau" else "tau_inverse"
        image = coxeter_translate(q, d, direction)
        if job.output_format == "json":
            return canonical_json(
                {
                    "command": "ar",
                    "quiver": label,
                    "action": direction,
                    "input": list(d),
                    "output": list(image),
                }
            )
        arrow = "tau" if action == "tau" else "tau^-1"
        return f"{arrow} {_fmt_vec(d)} = {_fmt_vec(image)}\n"
    if action == "classify":
        d = tuple(int(x) for x in job.inputs["classify"])
        node = classify_indecomposable(q, d)
        if job.output_format == "json":
            return canonical_json(
                {
                    "command": "ar",
                    "quiver": label,
                    "action": "classify",
                    "input": list(d),
                    "component": node.component,
                    "base": node.base,
                    "steps": node.steps,
                }
            )
        return (
            f"dim {_fmt_vec(d)}: component {node.component}, "
            f"orbit of vertex {node.base}, translate steps {node.steps}\n"
        )
    side = str(job.inputs["component"])
    bound = int(job.inputs.get("bound", 4))
    graph = ar_component(q, side, bound)
    if job.output_format == "dot":
        return graph.to_dot() + "\n"
    if job.output_format == "json":
        return canonical_json(
            {
                "command": "ar",
                "quiver": label,
                "action": "component",
                "side": side,
                "bound": bound,
                "nodes": [
                    {
                        "component": n.component,
                        "base": n.base,
                        "steps": n.steps,
                        "dim": list(n.dim),
                    }
                    for n in graph.nodes
                ],
                "edges": [list(edge) for edge in graph.edges],
            }
        )
    out = [f"AR component {side} of quiver {label}, bound {bound}:"]
    for i, node in enumerate(graph.nodes):
        out.append(
            f"  [{i}] {node.component}({node.base}) t={node.steps} "
            f"dim={_fmt_vec(node.dim)}"
        )
    for s, t in graph.edges:
        out.append(f"  [{s}] -> [{t}]")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# The reproduction suite behind `check`


def _check_loop_consistency() -> None:
    from .scattering import CrossingPath, path_ordered_product

    for b in (1, 2, 3):
        seed = initial_seed(rank2_exchange(b))
        diagram = _completed_diagram(seed, 6)
        loop = CrossingPath(
            (Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(1)), full_loops=1
        )
        action = path_ordered_product(loop, diagram)
        for i in range(4):
            unit = tuple(int(j == i) for j in range(4))
            mono = LaurentPoly.monomial(unit)
            if action.apply(mono) != mono:
                raise InputError(f"loop action moved z^{unit} for b={b}")


def _check_three_term_theta() -> None:
    seed = initial_seed(rank2_exchange(2))
    diagram = _completed_diagram(seed, 8)
    theta = theta_function(
        (1, -1, 0, 0), (Fraction(3, 2), Fraction(1)), diagram, 8
    )
    expected = LaurentPoly(
        {(1, -1, 0, 0): 1, (-1, -1, 0, 1): 1, (-1, 1, 1, 1): 1}
    )
    if theta.value != expected or len(theta.lines) != 3:
        raise InputError("three-term theta reproduction failed")


def _check_five_term_theta() -> None:
    seed = initial_seed(rank2_exchange(2))
    diagram = _completed_diagram(seed, 10)
    pt = (1, Fraction(-3, 2))
    doubled = theta_function((2, -2, -1, -1), pt, diagram, 8)
    if sorted(c for _, c in doubled.value.sorted_terms()) != [1, 1, 1, 2, 2]:
        raise InputError("five-term theta coefficients are off")
    single = theta_function(
        (1, -1, 0, 0), (Fraction(3, 2), Fraction(1)), diagram, 8
    )
    lhs = restrict_to_A(doubled)
    square = restrict_to_A(single)
    if lhs != square * square - LaurentPoly({(0, 0): 2}):
        raise InputError("A-restriction identity theta^2 - 2 failed")


def _check_strata_sum() -> None:
    q = kronecker_quiver(2)
    pt = (Fraction(2), Fraction(1))
    _, _, lines = _strata_lines(q, (5, 6), (2, 4), pt, 6)
    values = sorted(broken_line_strata(line, q, (5, 6))[1](1) for line in lines)
    if values != [8, 10]:
        raise InputError(f"strata values {values} != [8, 10]")
    if grassmannian_euler_char(q, (5, 6), (2, 4)) != 18:
        raise InputError("Grassmannian Euler characteristic is not 18")


def _check_tau() -> None:
    q = kronecker_quiver(2)
    if coxeter_translate(q, (2, 3)) != (0, 1):
        raise InputError("tau(2,3) != (0,1)")
    try:
        coxeter_translate(q, (0, 1))
    except TranslateUndefinedError:
        return
    raise InputError("tau of a projective did not raise")


def _check_gl_orders() -> None:
    orders = {(1, 2): 1, (1, 3): 2, (2, 2): 6, (2, 3): 48}
    for (d, p), expected in orders.items():
        if gl_poincare(d)(p) != expected:
            raise InputError(f"|GL_{d}(F_{p})| != {expected}")
    if qbinom(5, 2)(1) != 10:
        raise InputError("binomial specialisation failed")


def _check_tropical_duality() -> None:
    from .cluster import check_tropical_duality, mutate_seed

    for label in ("a2", "a3", "kronecker2"):
        q = named_quiver(label)
        seed = initial_seed(quiver_to_skew(q))
        frontier = [seed]
        for _ in range(4):
            nxt = []
            for s in frontier:
                for k in range(1, s.rank + 1):
                    m = mutate_seed(s, k)
                    if not (m.is_sign_coherent() and check_tropical_duality(m)):
                        raise InputError(
                            f"tropical duality failed for {label} "
                            f"after word {m.word}"
                        )
                    nxt.append(m)
            frontier = nxt[:6]


_CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("loop-consistency-b123", _check_loop_consistency),
    ("three-term-theta", _check_three_term_theta),
    ("five-term-theta-square-identity", _check_five_term_theta),
    ("kronecker-56-strata-10-8", _check_strata_sum),
    ("kronecker-translate", _check_tau),
    ("gl-poincare-orders", _check_gl_orders),
    ("tropical-duality-sign-coherence", _check_tropical_duality),
)


def _cmd_check(job: JobSpec) -> str:
    only = job.inputs.get("only")
    selected = [
        (name, fn) for name, fn in _CHECKS if only is None or name == only
    ]
    if not selected:
        known = ", ".join(name for name, _ in _CHECKS)
        raise InputError(f"unknown check {only!r}; known checks: {known}")
    results = []
    failures = []
    for name, fn in selected:
        try:
            fn()
        except InputError as exc:
            results.append((name, False, str(exc)))
            failures.append(name)
        else:
            results.append((name, True, ""))
    if job.output_format == "json":
        return canonical_json(
            {
                "command": "check",
                "checks": [
                    {"name": name, "ok": ok, **({"detail": d} if d else {})}
                    for name, ok, d in results
                ],
                "pass": not failures,
            }
        )
    out = []
    for name, ok, detail in results:
        out.append(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    out.append(
        f"PASS ({len(results)} checks)" if not failures else
        f"FAIL ({len(failures)} of {len(results)} checks failed)"
    )
    text = "\n".join(out) + "\n"
    if failures:
        raise InputError("reproduction suite failed:\n" + text.rstrip())
    return text


_HANDLERS = {
    "mutate": _cmd_mutate,
    "scatter": _cmd_scatter,
    "theta": _cmd_theta,
    "cc": _cmd_cc,
    "grass": _cmd_grass,
    "strata": _cmd_strata,
    "ar": _cmd_ar,
    "check": _cmd_check,
}


def run(job: JobSpec) -> str:
    """Execute a validated job and return its full output text."""
    return _HANDLERS[job.command](job)


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterscatter",
        description="Exact cluster scattering diagrams, theta functions, "
        "AR data, and wall-crossing strata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=FORMATS, default="text", dest="output_format"
        )
        for fmt in ("json", "svg", "dot", "tikz"):
            p.add_argument(
                f"--{fmt}",
                action="store_const",
                const=fmt,
                dest="output_format",
                help=f"shorthand for --format {fmt}",
            )

    def add_source(p):
        p.add_argument("--b", type=int, default=None,
                       help="rank-2 exchange parameter")
        p.add_argument("--quiver", default=None,
                       help="named quiver: kronecker<b> or a<n>")

    p = sub.add_parser("mutate", help="mutate a seed along a word")
    add_source(p)
    p.add_argument("--word", required=True,
                   help="comma-separated 1-based vertex indices")
    add_format(p)

    p = sub.add_parser("scatter", help="complete a rank-2 diagram")
    add_source(p)
    p.add_argument("--order", type=int, required=True)
    add_format(p)

    p = sub.add_parser("theta", help="theta function via broken lines")
    add_source(p)
    p.add_argument("--m", required=True, help="initial exponent, length 2n")
    p.add_argument("--endpoint", required=True, help="rational point, e.g. 1,-3/2")
    p.add_argument("--order", type=int, required=True)
    add_format(p)

    p = sub.add_parser("cc", help="cluster character of a dimension vector")
    add_source(p)
    p.add_argument("--D", required=True, help="dimension vector")
    add_format(p)

    p = sub.add_parser("grass", help="quiver Grassmannian Euler characteristic")
    add_source(p)
    p.add_argument("--D", required=True)
    p.add_argument("--e", required=True)
    add_format(p)

    p = sub.add_parser("strata", help="wall-crossing strata of broken lines")
    add_source(p)
    p.add_argument("--D", required=True)
    p.add_argument("--e", required=True)
    p.add_argument("--endpoint", required=True)
    p.add_argument("--order", type=int, default=None)
    add_format(p)

    p = sub.add_parser("ar", help="Auslander-Reiten data")
    add_source(p)
    p.add_argument("--tau", default=None, help="translate this dimension vector")
    p.add_argument("--tau-inv", default=None, dest="tau_inv",
                   help="inverse-translate this dimension vector")
    p.add_argument("--classify", default=None,
                   help="classify this indecomposable dimension vector")
    p.add_argument("--component", choices=("P", "I"), default=None,
                   help="emit a translate-orbit component graph")
    p.add_argument("--bound", type=int, default=4)
    add_format(p)

    p = sub.add_parser("check", help="run the reproduction suite")
    p.add_argument("--only", default=None, help="run a single named check")
    add_format(p)

    p = sub.add_parser("run", help="execute a JSON job document")
    p.add_argument("--job", required=True,
                   help="path to a JobSpec JSON file, or - for stdin")
    return parser


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    cmd = args.command
    inputs: dict = {}
    if cmd == "run":
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
    if hasattr(args, "b") and args.b is not None:
        inputs["b"] = args.b
    if getattr(args, "quiver", None):
        inputs["quiver"] = args.quiver
    if getattr(args, "word", None):
        inputs["word"] = list(parse_int_vec(args.word, "word"))
    if getattr(args, "m", None):
        inputs["m"] = list(parse_int_vec(args.m, "initial exponent"))
    for key in ("D", "e"):
        if getattr(args, key, None):
            inputs[key] = list(parse_int_vec(getattr(args, key), key))
    if getattr(args, "endpoint", None):
        inputs["endpoint"] = [
            str(x) for x in parse_point(args.endpoint)
        ]
    for key in ("tau", "tau_inv", "classify"):
        if getattr(args, key, None):
            inputs[key] = list(parse_int_vec(getattr(args, key), key))
    if getattr(args, "component", None):
        inputs["component"] = args.component
        inputs["bound"] = args.bound
    if getattr(args, "only", None):
        inputs["only"] = args.only
    return JobSpec(
        command=cmd,
        inputs=inputs,
        output_format=getattr(args, "output_format", "text"),
        order=getattr(args, "order", None),
    )


def _apply_resource_env() -> None:
    raw = os.environ.get("CLUSTERSCATTER_MAX_TERMS")
    if raw:
        try:
            lattice.MAX_TERMS = int(raw)
        except ValueError:
            raise InputError(
                f"CLUSTERSCATTER_MAX_TERMS={raw!r} is not an integer"
            ) from None


#: Flags whose value is a vector or a point and may start with a minus sign.
_VECTOR_FLAGS = (
    "--m", "--endpoint", "--word", "--D", "--e", "--tau", "--tau-inv",
    "--classify",
)


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
    try:
        _apply_resource_env()
        job = _job_from_args(args)
        output = run(job)
    except ResourceLimitError as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
