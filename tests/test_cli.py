"""Tests for the command-line front end."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

import clusterscatter
import fp_oracle
from clusterscatter import cli as cli_mod
from clusterscatter import lattice
from clusterscatter.brokenlines import enumerate_broken_lines
from clusterscatter.cli import (
    JobSpec,
    canonical_json,
    emit_svg,
    emit_tikz,
    job_from_json,
    main,
    named_quiver,
    parse_int_vec,
    parse_point,
    parse_rational,
    run,
)
from clusterscatter.cluster import (
    cluster_variable,
    g_vector,
    initial_seed,
    rank2_exchange,
)
from clusterscatter.errors import InputError
from clusterscatter.hall import qbinom
from clusterscatter.quiver import (
    caldero_chapoton,
    grassmannian_counting_polynomial,
    grassmannian_euler_char,
    kronecker_quiver,
    path_quiver,
    quiver_to_skew,
)
from clusterscatter.scattering import complete_rank2, initial_diagram


#: A valid job for every command: its inputs and its order.
VALID_INPUTS = {
    "mutate": ({"b": 2, "word": [1, 2]}, None),
    "scatter": ({"b": 2}, 4),
    "theta": ({"b": 2, "m": [1, -1, 0, 0], "endpoint": ["3/2", 1]}, 4),
    "cc": ({"quiver": "kronecker2", "D": [1, 2]}, None),
    "grass": ({"quiver": "kronecker2", "D": [1, 2], "e": [0, 1]}, None),
    "strata": (
        {"quiver": "kronecker2", "D": [5, 6], "e": [2, 4], "endpoint": [2, 1]},
        None,
    ),
    "ar": ({"quiver": "kronecker2", "component": "P", "bound": 3}, None),
    "check": ({}, None),
}
#: A value of the wrong kind for each input kind of the command table.
MISTYPED = {"int": "2", "str": 2, "ints": "1,2", "point": [1.5]}
TABLE_INPUTS = [
    (command, inp.key, inp.kind)
    for command, spec in cli_mod._COMMANDS.items()
    for inp in spec.inputs
]


def run_args(cli, tmp_path, args):
    """Run an argument list, or a job document given as a dict."""
    if isinstance(args, dict):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(args), encoding="utf-8")
        args = ["run", "--job", str(path)]
    return cli(*args)


@pytest.fixture()
def cli(capsys):
    def invoke(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def restore_budget():
    saved = lattice.BUDGET
    yield
    lattice.BUDGET = saved


class TestParsing:
    def test_int_vec(self):
        assert parse_int_vec("5,6") == (5, 6)
        assert parse_int_vec(" 1 , -2 ") == (1, -2)
        with pytest.raises(InputError):
            parse_int_vec("1,two")
        with pytest.raises(InputError):
            parse_int_vec("")

    def test_rational_exact_only(self):
        assert parse_rational("-3/2") == Fraction(-3, 2)
        assert parse_rational("7") == 7
        with pytest.raises(InputError):
            parse_rational("1.5")
        with pytest.raises(InputError):
            parse_rational("1e3")
        with pytest.raises(InputError):
            parse_rational("1/0")

    def test_point(self):
        assert parse_point("1,-3/2") == (Fraction(1), Fraction(-3, 2))

    def test_named_quivers(self):
        assert named_quiver("kronecker2") == kronecker_quiver(2)
        assert named_quiver("kronecker13") == kronecker_quiver(13)
        assert named_quiver("a3") == path_quiver(3)
        with pytest.raises(InputError):
            named_quiver("d4")
        with pytest.raises(InputError):
            named_quiver("kroneckerx")


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(InputError, match="unknown command"):
            JobSpec(command="dance")
        with pytest.raises(InputError, match="output format"):
            JobSpec(command="grass", output_format="wav")
        with pytest.raises(InputError, match="not available"):
            JobSpec(command="grass", output_format="svg")
        with pytest.raises(InputError, match="requires an order"):
            JobSpec(command="scatter")
        with pytest.raises(InputError, match="positive integer"):
            JobSpec(command="scatter", order=0)

    def test_job_from_json(self):
        job = job_from_json(
            {"command": "grass", "inputs": {"b": 2, "D": [1, 2], "e": [0, 1]}}
        )
        assert job.command == "grass"
        assert job.output_format == "text"
        with pytest.raises(InputError, match="unknown job keys"):
            job_from_json({"command": "grass", "extra": 1})
        with pytest.raises(InputError, match="missing"):
            job_from_json({"inputs": {}})


class TestGrassCommand:
    def test_worked_example(self, cli):
        code, out, err = cli("grass", "--quiver", "kronecker2", "--D", "5,6",
                             "--e", "2,4")
        assert (code, out, err) == (0, "18\n", "")

    def test_empty_grassmannian(self, cli):
        code, out, _ = cli("grass", "--quiver", "kronecker2", "--D", "1,2",
                           "--e", "1,1")
        assert (code, out) == (0, "0\n")

    def test_json_document(self, cli):
        code, out, _ = cli("grass", "--quiver", "kronecker2", "--D", "5,6",
                           "--e", "2,4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["euler_characteristic"] == 18
        coeffs = doc["counting_polynomial"]
        assert sum(coeffs) == 18
        assert coeffs == coeffs[::-1]

    def test_json_simple_module_of_any_quiver(self, cli):
        # the F_2 check models the simple module with zero maps
        code, out, err = cli("grass", "--json", "--b", "3", "--D", "1,0",
                             "--e", "1,0")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["euler_characteristic"] == 1
        assert doc["counting_polynomial"] == [1]

    def test_missing_argument_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["grass", "--quiver", "kronecker2", "--D", "5,6"])
        assert info.value.code == 2

    def test_json_routes_must_agree(self, cli, monkeypatch):
        # A counting polynomial that disagrees with the fixed-point count
        # is an error naming both values, not an output.
        monkeypatch.setattr(
            cli_mod, "grassmannian_counting_polynomial",
            lambda q, d, e: (1, 2, 4, 4, 4, 2, 2),
        )
        code, out, err = cli("grass", "--quiver", "kronecker2", "--D", "5,6",
                             "--e", "2,4", "--json")
        assert (code, out) == (2, "")
        assert "polynomial-count violated" in err
        assert "19" in err and "18" in err

    def test_json_checks_the_polynomial_at_two(self, cli, monkeypatch):
        # the right value 18 at q = 1, but 277 at q = 2 where F_2 has 245
        monkeypatch.setattr(
            cli_mod, "grassmannian_counting_polynomial",
            lambda q, d, e: (1, 2, 4, 4, 4, 1, 2),
        )
        code, out, err = cli("grass", "--quiver", "kronecker2", "--D", "5,6",
                             "--e", "2,4", "--json")
        assert (code, out) == (2, "")
        assert "polynomial-count violated" in err and "q=2" in err
        assert "277" in err and "245" in err
        assert err.count("\n") == 1

    def test_json_past_the_old_fit(self, cli):
        # Gr_(0,7) of (14, 15) is the Grassmannian of 7-planes in 15-space
        code, out, err = cli("grass", "--quiver", "kronecker2", "--D", "14,15",
                             "--e", "0,7", "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["euler_characteristic"] == 6435
        want = qbinom(15, 7)
        assert doc["counting_polynomial"] == [
            want.coefficient((k,)) for k in range(7 * 8 + 1)
        ]

    def test_json_fixed_point_ceiling_exit_three(self, cli, monkeypatch):
        # one subspace over F_2 (e1 = 0) but 6435 fixed points
        monkeypatch.setenv("CLUSTERSCATTER_SUBSPACE_LIMIT", "1000")
        code, out, err = cli("grass", "--quiver", "kronecker2", "--D", "14,15",
                             "--e", "0,7", "--json")
        assert (code, out) == (3, "")
        assert "6435 torus-fixed points" in err
        assert "limit 1000 (CLUSTERSCATTER_SUBSPACE_LIMIT)" in err


class TestCcCommand:
    def test_seven_six_equals_cluster_variable(self, cli):
        # Counting this D over F_p would pass the default subspace ceiling;
        # the variable with g-vector (5, -6) comes from seven mutations of
        # the b=2 seed.
        code, out, err = cli("cc", "--quiver", "kronecker2", "--D", "7,6",
                             "--json")
        assert (code, err) == (0, "")
        want = cluster_variable(
            initial_seed(rank2_exchange(2)), (1, 2, 1, 2, 1, 2, 1), 1
        )
        assert g_vector(want, 2) == (5, -6)
        assert json.loads(out)["value"] == {
            ",".join(str(x) for x in expo): coeff
            for expo, coeff in want.sorted_terms()
        }


THREE_TERM_TEXT = """\
theta b=2, m0 = (1,-1,0,0), endpoint = (3/2,1), order 8
value = A1^-1*A2^-1*X2 + A1^-1*A2*X1*X2 + A1*A2^-1
broken lines: 3
  [1] A1^-1*A2^-1*X2  (bends (0,1)^1)
  [2] A1^-1*A2*X1*X2  (bends (0,1)^1, (1,0)^1)
  [3] A1*A2^-1  (straight)
"""


def _on_a_segment(pt, ends, tol):
    """Whether ``pt`` lies within ``tol`` of a segment from the origin to
    one of ``ends``: printed coordinates are rounded."""
    for x, y in ends:
        length = math.hypot(x, y)
        along = (pt[0] * x + pt[1] * y) / length
        if abs(pt[0] * y - pt[1] * x) / length <= tol and -tol <= along <= length + tol:
            return True
    return False


class TestThetaCommand:
    def test_three_term_golden(self, cli):
        code, out, err = cli("theta", "--b", "2", "--m", "1,-1,0,0",
                             "--endpoint", "3/2,1", "--order", "8")
        assert (code, err) == (0, "")
        assert out == THREE_TERM_TEXT

    def test_on_wall_endpoint_guidance(self, cli):
        code, out, err = cli("theta", "--b", "2", "--m", "1,-1,0,0",
                             "--endpoint", "1,-3/2", "--order", "8")
        assert code == 2
        assert out == ""
        assert "wall" in err and "jumps" in err

    def test_horizontal_wall_perturbed_vertically(self, cli):
        # (1,0) lies on the wall with normal (0,1): the limits are taken
        # above and below it, not along it
        code, out, err = cli("theta", "--b", "1", "--m", "1,-1,0,0",
                             "--endpoint", "1,0", "--order", "6")
        assert (code, out) == (2, "")
        assert err == (
            "error: endpoint (1,0) lies on a wall and the theta function "
            "jumps across it; pick an endpoint off the walls (e.g. "
            "(1,1/9973))\n"
        )

    def test_line_through_the_origin_note(self, cli):
        # (2,1) is on no wall; a broken line to it passes through the origin
        code, out, err = cli("theta", "--b", "2", "--m", "8,-7,0,0",
                             "--endpoint", "2,1", "--order", "13", "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        cc = caldero_chapoton(kronecker_quiver(2), (6, 7))
        assert doc["value"] == {
            ",".join(map(str, e)): c for e, c in cc.sorted_terms()
        }
        assert "lies on a wall" not in doc["note"]
        assert doc["note"] == (
            "note: a broken line to endpoint (2,1) passes through the origin; "
            "the one-sided limits agree and are shown"
        )

    def test_line_along_a_support_line_note(self, cli):
        # (-1,1) is on no wall; a broken line to it runs along the (1,1) wall
        code, out, err = cli("theta", "--b", "1", "--m", "-3,0,0,0",
                             "--endpoint", "-1,1", "--order", "6")
        assert (code, err) == (0, "")
        assert (
            "note: a broken line to endpoint (-1,1) runs along the support "
            "line of the wall with normal (1,1); the one-sided limits agree "
            "and are shown\n"
        ) in out

    def test_five_term_slice_view(self, cli):
        code, out, _ = cli("theta", "--b", "2", "--m", "2,-2,-1,-1",
                           "--endpoint", "1,-3/2", "--order", "8")
        assert code == 0
        assert "broken lines: 5" in out
        assert (
            "value = A1^-2*A2^-2*X1^-1*X2 + 2*A1^-2*X2 + A1^-2*A2^2*X1*X2"
            " + 2*A2^-2*X1^-1 + A1^2*A2^-2*X1^-1*X2^-1" in out
        )

    def test_slice_bends_drawn_on_the_walls(self, cli):
        """The bend circles of a slice exponent's lines sit on drawn walls,
        in both picture formats."""
        args = ("theta", "--b", "2", "--m", "2,-2,-1,-1",
                "--endpoint=-9/7,-9/5", "--order", "8")
        code, svg, _ = cli(*args, "--svg")
        assert code == 0
        rays = [
            (float(x), float(y)) for x, y in re.findall(
                r'<line class="ray" x1="0" y1="0" x2="([-.\d]+)" y2="([-.\d]+)"/>', svg
            )
        ]
        bends = [
            (float(x), float(y))
            for x, y in re.findall(r'<circle class="bend" cx="([-.\d]+)" cy="([-.\d]+)"', svg)
        ]
        assert len(rays) >= 7 and len(bends) == 6
        assert all(_on_a_segment(pt, rays, 0.02) for pt in bends)
        code, tikz, _ = cli(*args, "--tikz")
        assert code == 0
        number = r"(-?[\d.]+)"
        walls = [
            (float(x), float(y))
            for x, y in re.findall(rf"\\draw \(0,0\) -- \({number},{number}\)", tikz)
        ]
        fills = [
            (float(x), float(y))
            for x, y in re.findall(rf"\\fill \({number},{number}\) circle", tikz)
        ]
        assert len(walls) == len(rays) and len(fills) == 6
        assert all(_on_a_segment(pt, walls, 0.002) for pt in fills)

    def test_json_lines_match_text_count(self, cli):
        code, out, _ = cli("theta", "--b", "2", "--m", "1,-1,0,0",
                           "--endpoint", "3/2,1", "--order", "8", "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["lines"]) == 3
        assert doc["value"] == {
            "-1,-1,0,1": 1,
            "-1,1,1,1": 1,
            "1,-1,0,0": 1,
        }

    def test_byte_identical_reruns(self, cli):
        first = cli("theta", "--b", "2", "--m", "1,-1,0,0",
                    "--endpoint", "3/2,1", "--order", "8", "--json")
        second = cli("theta", "--b", "2", "--m", "1,-1,0,0",
                     "--endpoint", "3/2,1", "--order", "8", "--json")
        assert first == second
        assert canonical_json(json.loads(first[1])) == first[1]


SCATTER_B1_TEXT = """\
scattering diagram b=1, order 6: 3 walls
  line normal (1,0) direction (0,1) incoming f = 1 + A2*X1
  line normal (0,1) direction (1,0) incoming f = A1^-1*X2 + 1
  ray  normal (1,1) direction (1,-1) outgoing f = A1^-1*A2*X1*X2 + 1
"""


class TestNegativeVectorFlags:
    @pytest.mark.parametrize(
        "flag, value, rest",
        [
            ("--m", "-1,1,0,0", ("--endpoint", "3/2,1")),
            ("--endpoint", "-3/2,1", ("--m", "1,-1,0,0")),
        ],
        ids=["m", "endpoint"],
    )
    def test_separate_and_attached_forms_agree(self, cli, flag, value, rest):
        common = ("theta", "--b", "2", "--order", "6", *rest)
        separate = cli(*common, flag, value)
        attached = cli(*common, f"{flag}={value}")
        assert separate == attached
        assert separate[0] == 0 and separate[1]


class TestScatterCommand:
    def test_b1_golden_text(self, cli):
        code, out, err = cli("scatter", "--b", "1", "--order", "6")
        assert (code, err) == (0, "")
        assert out == SCATTER_B1_TEXT

    def test_b1_svg_five_rays(self, cli):
        code, out, _ = cli("scatter", "--b", "1", "--order", "6", "--svg")
        assert code == 0
        assert out.count('class="ray"') == 5
        assert out.count('class="wall-label"') == 5

    def test_b2_svg_at_least_seven_rays_with_central(self, cli):
        code, out, _ = cli("scatter", "--b", "2", "--order", "6", "--svg")
        assert code == 0
        assert out.count('class="ray"') >= 7
        # the central ray goes along (1,-1): drawn endpoint (270, 270)
        assert 'x2="270.00" y2="270.00"' in out

    def test_json_matches_diagram_dump(self, cli):
        code, out, _ = cli("scatter", "--b", "1", "--order", "6", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["diagram"]["order"] == 6
        assert len(doc["diagram"]["walls"]) == 3

    def test_tikz_output(self, cli):
        code, out, _ = cli("scatter", "--b", "1", "--order", "6", "--tikz")
        assert code == 0
        assert out.startswith("\\begin{tikzpicture}")
        assert out.rstrip().endswith("\\end{tikzpicture}")
        assert out.count("\\draw (0,0) --") == 5

    def test_deep_one_arrow_diagram_has_three_walls(self, cli):
        # the rays are peeled off at the full order, so a diagram with one
        # ray costs one peel however deep; degree by degree this job ran
        # for minutes
        t0 = time.perf_counter()
        code, out, err = cli("scatter", "--b", "1", "--order", "200", "--json")
        assert time.perf_counter() - t0 < 20.0
        assert (code, err) == (0, "")
        walls = json.loads(out)["diagram"]["walls"]
        assert [w["normal"] for w in walls] == [[1, 0], [0, 1], [1, 1]]


STRATA_TEXT = """\
wall-crossing strata, quiver kronecker2, D = (5,6), e = (2,4), endpoint = (2,1), order 6
broken lines ending at exponent (-1,-2,2,4): 2
line 1: bends (1,2)^2
  filtration: (1,2) x2
  poincare polynomial: q^6 + q^5 + 2*q^4 + 2*q^3 + 2*q^2 + q + 1
  value at q=1: 10
  stability phases: 10 + 8i | decreasing: yes
line 2: bends (2,3)^1, (0,1)^1
  filtration: (2,3) x1, (0,1) x1
  poincare polynomial: q^5 + 2*q^4 + 2*q^3 + 2*q^2 + q
  value at q=1: 8
  stability phases: 8 + 7i, 2 + 1i | decreasing: yes
total over strata: 18
finite-field Euler characteristic: 18
agreement: yes
"""


class TestStrataCommand:
    def test_worked_example_golden(self, cli):
        code, out, err = cli("strata", "--quiver", "kronecker2", "--D", "5,6",
                             "--e", "2,4", "--endpoint", "2,1")
        assert (code, err) == (0, "")
        assert out == STRATA_TEXT

    def test_json_document(self, cli):
        code, out, _ = cli("strata", "--quiver", "kronecker2", "--D", "5,6",
                           "--e", "2,4", "--endpoint", "2,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 18
        assert doc["euler_characteristic"] == 18
        assert doc["match"] is True
        assert [line["value_at_one"] for line in doc["lines"]] == [10, 8]
        two_step = doc["lines"][1]
        assert two_step["hn"]["decreasing"] is True
        assert two_step["hn"]["values"] == [["8", "7"], ["2", "1"]]

    def test_whole_polynomials_compared(self, cli, monkeypatch):
        # sum 18 as before, but not the sum of the strata polynomials
        monkeypatch.setattr(
            cli_mod, "grassmannian_counting_polynomial",
            lambda q, d, e: (1, 2, 4, 4, 4, 1, 2),
        )
        args = ("strata", "--quiver", "kronecker2", "--D", "5,6", "--e", "2,4",
                "--endpoint", "2,1")
        code, out, _ = cli(*args)
        assert code == 0
        assert out == STRATA_TEXT.replace("agreement: yes", "agreement: NO")
        code, out, _ = cli(*args, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["match"] is False and doc["total"] == 18

    def test_regular_dimension_vector_rejected(self, cli):
        code, out, err = cli("strata", "--quiver", "kronecker2", "--D", "3,3",
                             "--e", "1,2", "--endpoint", "2,1")
        assert (code, out) == (2, "")
        assert "regular" in err
        assert err.count("\n") == 1

    def test_order_below_e_rejected(self, cli):
        # the final exponent bends with weight |e| = 6, beyond order 5
        args = ("strata", "--quiver", "kronecker2", "--D", "5,6", "--e", "2,4",
                "--endpoint", "2,1", "--order", "5")
        for extra in ((), ("--json",)):
            code, out, err = cli(*args, *extra)
            assert (code, out) == (2, "")
            assert "order 5" in err and "|e| = 6" in err
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_orbit_longer_than_64_steps_is_not_regular(self, cli):
        # (200, 201) is the 100-fold backward translate of a projective
        code, out, err = cli("strata", "--b", "2", "--D", "200,201",
                             "--e", "0,1", "--endpoint", "2,1")
        assert (code, err) == (0, "")
        assert out.endswith("total over strata: 201\n"
                            "finite-field Euler characteristic: 201\n"
                            "agreement: yes\n")

    def test_higher_rank_rejected(self, cli):
        code, _, err = cli("strata", "--quiver", "a3", "--D", "1,1,1",
                           "--e", "1,0,0", "--endpoint", "1,1")
        assert code == 2
        assert "rank-2" in err


class TestMutateCommand:
    def test_two_step_word(self, cli):
        code, out, _ = cli("mutate", "--b", "2", "--word", "1,2")
        assert code == 0
        assert "seed b=2 after word (1,2):" in out
        assert "A1' = A1^-1 + A1^-1*A2^2*X1" in out
        assert "c-vectors sign-coherent: yes" in out

    def test_json(self, cli):
        code, out, _ = cli("mutate", "--b", "2", "--word", "1,2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"]["word"] == [1, 2]
        assert doc["seed"]["rank"] == 2

    def test_empty_word_rejected(self, cli):
        code, _, err = cli("mutate", "--b", "2", "--word", "")
        assert code == 2
        assert "word" in err


class TestArCommand:
    def test_translate_golden(self, cli):
        code, out, err = cli("ar", "--quiver", "kronecker2", "--tau", "2,3")
        assert (code, out, err) == (0, "tau (2,3) = (0,1)\n", "")

    def test_translate_of_projective_fails(self, cli):
        code, _, err = cli("ar", "--quiver", "kronecker2", "--tau", "0,1")
        assert code == 2
        assert "projective" in err

    def test_inverse_translate(self, cli):
        code, out, _ = cli("ar", "--quiver", "kronecker2", "--tau-inv", "0,1")
        assert (code, out) == (0, "tau^-1 (0,1) = (2,3)\n")

    def test_classify(self, cli):
        code, out, _ = cli("ar", "--quiver", "kronecker2", "--classify", "2,3")
        assert code == 0
        assert out == "dim (2,3): component P, orbit of vertex 2, translate steps 1\n"

    def test_classify_walks_past_64_steps(self, cli):
        code, out, err = cli("ar", "--b", "2", "--classify", "200,201")
        assert (code, err) == (0, "")
        assert out == (
            "dim (200,201): component P, orbit of vertex 2, translate steps 100\n"
        )

    def test_classify_rejects_tits_form_above_one(self, cli):
        code, out, err = cli("ar", "--b", "3", "--classify", "2,0")
        assert (code, out) == (2, "")
        assert err == ("error: (2, 0) has Tits form 4 > 1, so no indecomposable "
                       "has this dimension vector\n")

    def test_classify_charges_the_orbit_walk(self, cli, monkeypatch,
                                             restore_budget):
        monkeypatch.delenv("CLUSTERSCATTER_MAX_TERMS", raising=False)
        code, out, err = cli("ar", "--b", "2", "--classify",
                             "1000000000000,1000000000001")
        assert (code, out) == (3, "")
        assert err == (
            "error: resource limit: a translate orbit of 1000000000000 terms "
            "exceeds the term ceiling 2000000 (CLUSTERSCATTER_MAX_TERMS)\n"
        )

    def test_component_dot(self, cli):
        code, out, _ = cli("ar", "--quiver", "a3", "--component", "P",
                           "--bound", "3", "--dot")
        assert code == 0
        assert out.startswith("digraph")
        assert "dim=(1,1,1)" in out

    def test_requires_exactly_one_action(self, cli):
        code, _, err = cli("ar", "--quiver", "kronecker2")
        assert code == 2
        assert "exactly one" in err
        code, _, err = cli("ar", "--quiver", "kronecker2", "--tau", "2,3",
                           "--classify", "2,3")
        assert code == 2


class TestCheckCommand:
    def test_full_suite_passes(self, cli):
        code, out, err = cli("check")
        assert (code, err) == (0, "")
        assert out.rstrip().endswith("PASS (14 checks)")
        assert out.count("ok  ") == 14
        assert "FAIL" not in out

    def test_single_check(self, cli):
        code, out, _ = cli("check", "--only", "kronecker-translate")
        assert code == 0
        assert out == "ok   kronecker-translate\nPASS (1 checks)\n"

    def test_unknown_check(self, cli):
        code, _, err = cli("check", "--only", "nope")
        assert code == 2
        assert "known checks" in err


class TestRunJob:
    def test_job_file_matches_flag_invocation(self, cli, tmp_path):
        job = {
            "command": "theta",
            "inputs": {
                "b": 2,
                "m": [1, -1, 0, 0],
                "endpoint": ["3/2", "1"],
            },
            "output_format": "json",
            "order": 8,
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job), encoding="utf-8")
        via_job = cli("run", "--job", str(path))
        direct = cli("theta", "--b", "2", "--m", "1,-1,0,0",
                     "--endpoint", "3/2,1", "--order", "8", "--json")
        assert via_job == direct
        assert via_job[0] == 0

    def test_invalid_json_exits_two(self, cli, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = cli("run", "--job", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_unknown_key_exits_two(self, cli, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"command": "check", "magic": 1}),
                        encoding="utf-8")
        code, _, err = cli("run", "--job", str(path))
        assert code == 2
        assert "unknown job keys" in err

    def test_missing_file_exits_two(self, cli):
        code, _, err = cli("run", "--job", "/nonexistent/job.json")
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "job, message",
        [
            (
                {"command": "cc",
                 "inputs": {"quiver": "kronecker2", "D": "5,6"}},
                "job input 'D' must be a list of integers",
            ),
            (
                {"command": "scatter", "inputs": {"b": "x"}, "order": 4},
                "job input 'b' must be an integer",
            ),
            (
                {"command": "scatter", "inputs": {"b": 2}, "order": True},
                "order must be a positive integer",
            ),
        ],
        ids=["string-D", "string-b", "bool-order"],
    )
    def test_mistyped_input_exits_two(self, cli, tmp_path, job, message):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(job), encoding="utf-8")
        code, out, err = cli("run", "--job", str(path))
        assert (code, out) == (2, "")
        assert message in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (["mutate", "--b", "2", "--quiver", "a3", "--word", "1"],
             "mutate needs exactly one of --b, --quiver"),
            (["cc", "--b", "2", "--quiver", "a3", "--D", "1,1,0"],
             "cc needs exactly one of --b, --quiver"),
            (["cc", "--D", "1,2"], "cc needs exactly one of --b, --quiver"),
            ({"command": "cc", "inputs": {"b": 2, "D": [1, 2]}, "order": 4},
             "command 'cc' takes no order"),
            ({"command": "cc", "inputs": {"b": 2, "D": [1, 2], "e": [0, 1]}},
             "command 'cc' takes no input 'e'"),
            ({"command": ["cc"]}, "unknown command ['cc']"),
        ],
        ids=["mutate-two-sources", "cc-two-sources", "cc-no-source",
             "order-to-cc", "unlisted-input", "list-command"],
    )
    def test_job_outside_the_table_exits_two(self, cli, tmp_path, args,
                                             message):
        code, out, err = run_args(cli, tmp_path, args)
        assert (code, out) == (2, "")
        assert message in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, key, kind", TABLE_INPUTS,
        ids=[f"{command}-{key}" for command, key, _ in TABLE_INPUTS],
    )
    def test_every_table_input_rejects_a_mistyped_value(
        self, cli, tmp_path, command, key, kind
    ):
        inputs, order = VALID_INPUTS[command]
        JobSpec(command, inputs, order=order)  # the unchanged job is valid
        job = {"command": command, "inputs": {**inputs, key: MISTYPED[kind]},
               "order": order}
        code, out, err = run_args(cli, tmp_path, job)
        assert (code, out) == (2, "")
        assert f"job input {key!r}" in err
        assert "Traceback" not in err and err.count("\n") == 1


class TestDimensionVectors:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["ar", "--quiver", "kronecker2", "--tau", "1,2,3"],
             "must have length 2"),
            (["ar", "--quiver", "kronecker2", "--tau", "-2,3"],
             "must be nonnegative"),
            (["ar", "--quiver", "kronecker2", "--tau-inv", "0,0"], "nonzero"),
            (["cc", "--quiver", "kronecker2", "--D", "1,2,3"],
             "must have length 2"),
            (["grass", "--quiver", "kronecker2", "--D", "1,2,3", "--e", "0,0,0"],
             "must have length 2"),
            ({"command": "cc", "inputs": {"quiver": "kronecker2", "D": []}},
             "job input 'D'"),
        ],
        ids=["tau-length", "tau-negative", "tau-inv-zero", "cc-length",
             "grass-length", "cc-empty-job"],
    )
    def test_rejected_with_one_line(self, cli, tmp_path, args, message):
        code, out, err = run_args(cli, tmp_path, args)
        assert (code, out) == (2, "")
        assert message in err
        assert "Traceback" not in err and err.count("\n") == 1


class TestBadInputNamed:
    @pytest.mark.parametrize(
        "args, name",
        [
            (["strata", "--quiver", "kronecker2", "--D", "5,6", "--e", "2,4",
              "--endpoint", "2"], "endpoint"),
            (["strata", "--quiver", "kronecker2", "--D", "5,6", "--e", "2,4,1",
              "--endpoint", "2,1"], "subdimension vector"),
            (["theta", "--b", "2", "--m", "1,-1,0,0", "--endpoint", "1,2,3",
              "--order", "4"], "endpoint"),
            (["strata", "--quiver", "kronecker2", "--D", "5,6", "--e", "2,4",
              "--endpoint", "0,1"], "endpoint (0,1)"),
        ],
        ids=["strata-endpoint-length", "strata-e-length", "theta-endpoint-length",
             "strata-endpoint-on-wall"],
    )
    def test_message_names_the_input(self, cli, args, name):
        code, out, err = cli(*args)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert name in err


class TestResourceCeilings:
    def test_subspace_limit_exit_three(self, cli, monkeypatch):
        # Only the counting polynomial of --json enumerates subspaces.
        monkeypatch.setenv("CLUSTERSCATTER_SUBSPACE_LIMIT", "2")
        code, _, err = cli("grass", "--quiver", "kronecker2", "--D", "7,8",
                           "--e", "3,4", "--json")
        assert code == 3
        assert "resource limit" in err
        assert "limit 2 (CLUSTERSCATTER_SUBSPACE_LIMIT)" in err

    def test_subspace_limit_read_by_the_command_line_only(self, cli,
                                                          monkeypatch):
        # the library charges the budget in force (here the default) and
        # reads no environment; the command line reads the variable
        monkeypatch.setenv("CLUSTERSCATTER_SUBSPACE_LIMIT", "1")
        k2 = kronecker_quiver(2)
        coeffs = grassmannian_counting_polynomial(k2, (5, 6), (2, 4))
        assert sum(coeffs) == grassmannian_euler_char(k2, (5, 6), (2, 4)) > 1
        code, out, err = cli("grass", "--quiver", "kronecker2", "--D", "5,6",
                             "--e", "2,4", "--json")
        assert (code, out) == (3, "")
        assert "limit 1 (CLUSTERSCATTER_SUBSPACE_LIMIT)" in err

    def test_text_grass_ignores_subspace_limit(self, cli, monkeypatch):
        monkeypatch.setenv("CLUSTERSCATTER_SUBSPACE_LIMIT", "2")
        code, out, err = cli("grass", "--quiver", "kronecker2", "--D", "7,8",
                             "--e", "3,4")
        assert (code, out, err) == (0, "5\n", "")

    @pytest.mark.parametrize(
        "b, limit", [("2", "3"), ("3", "10")], ids=["b2-limit3", "b3-limit10"]
    )
    def test_series_term_limit_exit_three(self, cli, monkeypatch,
                                          restore_budget, b, limit):
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", limit)
        code, _, err = cli("scatter", "--b", b, "--order", "8")
        assert code == 3
        assert "resource limit" in err
        assert f"term ceiling {limit} (CLUSTERSCATTER_MAX_TERMS)" in err

    @pytest.mark.parametrize(
        "b, order, terms", [("3", "40", 505), ("2", "60", 520)],
        ids=["b3-order40", "b2-order60"],
    )
    def test_deep_completion_stops_at_the_term_ceiling(
        self, cli, monkeypatch, restore_budget, b, order, terms
    ):
        # the lines' product at the full order outgrows a small ceiling in
        # its third crossing, before any ray is read
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "500")
        t0 = time.perf_counter()
        code, out, err = cli("scatter", "--b", b, "--order", order)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (3, "")
        assert err == (
            f"error: resource limit: a wall crossing of {terms} terms exceeds "
            "the term ceiling 500 (CLUSTERSCATTER_MAX_TERMS)\n"
        )

    def test_product_term_limit_names_its_budget(self, cli, monkeypatch,
                                                 restore_budget):
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "3")
        code, out, err = cli("mutate", "--b", "3", "--word", "1,2,1")
        assert (code, out) == (3, "")
        assert "term ceiling 3 (CLUSTERSCATTER_MAX_TERMS)" in err

    def test_ar_component_bound_charged_before_the_walk(self, cli, monkeypatch):
        monkeypatch.delenv("CLUSTERSCATTER_MAX_TERMS", raising=False)
        t0 = time.perf_counter()
        code, out, err = cli("ar", "--quiver", "kronecker2", "--component", "P",
                             "--bound", "100000000")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (3, "")
        assert err == (
            "error: resource limit: an AR component of 200000002 terms exceeds "
            "the term ceiling 2000000 (CLUSTERSCATTER_MAX_TERMS)\n"
        )

    def test_cluster_character_term_limit_exit_three(self, cli, monkeypatch,
                                                     restore_budget):
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "0")
        code, out, err = cli("cc", "--quiver", "kronecker2", "--D", "30,31")
        assert (code, out) == (3, "")
        assert "term ceiling 0 (CLUSTERSCATTER_MAX_TERMS)" in err

    def test_cluster_character_table_charged(self, cli, monkeypatch,
                                             restore_budget):
        # a Kronecker quiver is charged nothing and the orbit walk that
        # classifies (30, 31) 30 terms, so the charge that stops the job is
        # the one on the character's 497-entry chi table
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "30")
        code, out, err = cli("cc", "--quiver", "kronecker2", "--D", "30,31")
        assert (code, out) == (3, "")
        assert err == (
            "error: resource limit: a cluster character of 497 terms exceeds "
            "the term ceiling 30 (CLUSTERSCATTER_MAX_TERMS)\n"
        )

    def test_simple_module_arrows_charged(self, cli, monkeypatch,
                                          restore_budget):
        # the simple module's zero maps, one per arrow, are charged first
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "50")
        code, out, err = cli("grass", "--json", "--b", "51", "--D", "1,0",
                             "--e", "1,0")
        assert (code, out) == (3, "")
        assert err == (
            "error: resource limit: an arrow map list of 51 terms exceeds "
            "the term ceiling 50 (CLUSTERSCATTER_MAX_TERMS)\n"
        )

    def test_bad_ceiling_value_exit_two(self, cli, monkeypatch,
                                        restore_budget):
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "lots")
        code, _, err = cli("scatter", "--b", "1", "--order", "4")
        assert code == 2
        assert "CLUSTERSCATTER_MAX_TERMS" in err

    def test_term_ceiling_does_not_leak_into_the_next_call(self, cli,
                                                           monkeypatch):
        default = lattice.BUDGET
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "10")
        assert cli("scatter", "--b", "3", "--order", "8")[0] == 3
        monkeypatch.delenv("CLUSTERSCATTER_MAX_TERMS")
        assert lattice.BUDGET == default
        assert cli("scatter", "--b", "3", "--order", "8")[0] == 0

    def test_series_length_charged_before_allocation(self, cli, monkeypatch):
        # a wall series to order 1000 has 1001 terms; an unbounded run of a
        # far larger order would allocate before any other ceiling fires
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "100")
        code, out, err = cli("scatter", "--b", "2", "--order", "1000")
        assert (code, out) == (3, "")
        assert "1001 terms" in err and err.count("\n") == 1

    def test_bad_subspace_limit_exit_two(self, cli, monkeypatch):
        monkeypatch.setenv("CLUSTERSCATTER_SUBSPACE_LIMIT", "abc")
        code, out, err = cli("grass", "--quiver", "kronecker2", "--D", "2,3",
                             "--e", "1,1", "--json")
        assert (code, out) == (2, "")
        assert "CLUSTERSCATTER_SUBSPACE_LIMIT" in err and "'abc'" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ("cc", "--quiver", "kronecker2", "--D", "2,3"),
            ("grass", "--quiver", "kronecker2", "--D", "2,3", "--e", "1,1"),
            ("mutate", "--b", "1", "--word", "1"),
            ("scatter", "--b", "1", "--order", "3"),
        ],
        ids=["cc", "text-grass", "mutate", "scatter"],
    )
    @pytest.mark.parametrize("value", ["abc", "-1"])
    @pytest.mark.parametrize(
        "variable", ["CLUSTERSCATTER_MAX_TERMS", "CLUSTERSCATTER_SUBSPACE_LIMIT"]
    )
    def test_ceiling_variables_checked_before_any_job(
        self, cli, monkeypatch, restore_budget, variable, value, args
    ):
        # every command rejects both variables, read or not
        monkeypatch.setenv(variable, value)
        code, out, err = cli(*args)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{variable}={value!r}" in err

    @pytest.mark.parametrize(
        "args, terms",
        [
            (("mutate", "--quiver", "a8", "--word", "1"),
             "a skew matrix of 64 terms"),
            (("ar", "--quiver", "a8", "--tau", "1,0,0,0,0,0,0,0"),
             "a skew matrix of 64 terms"),
        ],
        ids=["mutate-path", "ar-path"],
    )
    def test_quiver_size_charged_before_the_build(
        self, cli, monkeypatch, restore_budget, args, terms
    ):
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "50")
        code, out, err = cli(*args)
        assert (code, out) == (3, "")
        assert err == (
            f"error: resource limit: {terms} exceeds the term ceiling 50 "
            "(CLUSTERSCATTER_MAX_TERMS)\n"
        )

    def test_quiver_at_the_ceiling_is_built(self, cli, monkeypatch,
                                            restore_budget):
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "49")
        assert cli("mutate", "--quiver", "a7", "--word", "1")[0] == 0
        assert cli("ar", "--quiver", "kronecker49", "--tau", "1,0")[0] == 0

    def test_kronecker_quiver_is_not_charged(self, cli, monkeypatch,
                                             restore_budget):
        # K_b is a 2x2 matrix of arrow counts whatever b is, so the term
        # ceiling never stops its build; cc has no model beyond b = 2
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "50")
        assert cli("cc", "--b", "51", "--D", "1,1") == (
            2, "", "error: no explicit indecomposable model for this quiver "
            "shape\n"
        )
        code, out, err = cli("mutate", "--quiver", "kronecker51", "--word", "1")
        assert (code, err) == (0, "")
        assert out.startswith("seed quiver kronecker51 after word (1):\n")

    def test_strata_of_a_simple_module_cost_nothing_in_b(self, cli):
        # the cells visit only the arrows on the string, not all b of them
        t0 = time.perf_counter()
        code, out, err = cli("strata", "--b", "1000000000000", "--D", "1,0",
                             "--e", "1,0", "--endpoint", "2,1")
        assert time.perf_counter() - t0 < 1.0
        assert (code, err) == (0, "")
        assert out.endswith("total over strata: 1\n"
                            "finite-field Euler characteristic: 1\n"
                            "agreement: yes\n")

    def test_huge_kronecker_quiver_fails_fast_in_a_fresh_process(self):
        src = os.path.dirname(os.path.dirname(clusterscatter.__file__))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "clusterscatter.cli", "cc",
             "--b", "1000000000000", "--D", "1,1"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src, "CLUSTERSCATTER_MAX_TERMS": "50"},
        )
        assert time.perf_counter() - t0 < 5.0
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: no explicit indecomposable model for this quiver "
            "shape\n"
        )

    def test_ar_component_edges_charged_before_they_are_built(self, cli,
                                                              monkeypatch):
        # 3 slices of 2 nodes, 5 edges for each of the 1999999 arrows
        monkeypatch.delenv("CLUSTERSCATTER_MAX_TERMS", raising=False)
        t0 = time.perf_counter()
        code, out, err = cli("ar", "--b", "1999999", "--component", "P",
                             "--bound", "2")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (3, "")
        assert err == (
            "error: resource limit: an AR edge list of 9999995 terms exceeds "
            "the term ceiling 2000000 (CLUSTERSCATTER_MAX_TERMS)\n"
        )

    def test_b_seed_builds_no_arrows(self, cli, monkeypatch, restore_budget):
        # a b job's quiver is its matrix of arrow counts, so neither the
        # ceiling nor b arrow tuples stand in its way
        monkeypatch.setenv("CLUSTERSCATTER_MAX_TERMS", "50")
        t0 = time.perf_counter()
        code, out, err = cli("mutate", "--b", "9999999", "--word", "1")
        assert time.perf_counter() - t0 < 1.0
        assert (code, err) == (0, "")
        assert out == (
            "seed b=9999999 after word (1):\n"
            "  A1' = A1^-1 + A1^-1*A2^9999999*X1\n"
            "  A2' = A2\n"
            "  g-vectors: (-1,0), (0,1)\n"
            "  c-vectors: (-1,0), (0,1)\n"
            "  c-vectors sign-coherent: yes\n"
        )

    @pytest.mark.parametrize("command", ["mutate", "scatter", "theta"])
    def test_b_seed_needs_an_arrow(self, command):
        job = dict(VALID_INPUTS[command][0], b=0)
        order = VALID_INPUTS[command][1]
        with pytest.raises(InputError, match="^need at least one arrow$"):
            run(JobSpec(command, job, order=order))


@pytest.fixture(scope="module")
def b2_diagram():
    seed = initial_seed(rank2_exchange(2))
    return complete_rank2(initial_diagram(seed, 6), 6)


class TestEmitSvg:
    def test_empty_diagram_axes_only(self):
        svg = emit_svg(None)
        assert 'class="axes"' in svg
        assert 'class="walls"' not in svg
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")

    def test_wall_count_and_labels(self, b2_diagram):
        svg = emit_svg(b2_diagram)
        assert svg.count('class="ray"') >= 7
        assert svg.count('class="wall-label"') == svg.count('class="ray"')

    def test_broken_line_overlay_bend_points(self, b2_diagram):
        lines = enumerate_broken_lines(
            (7, -6, 0, 0), (2, 1), b2_diagram, 6,
            final_filter=(-1, -2, 2, 4),
        )
        assert len(lines) == 2
        svg = emit_svg(b2_diagram, lines)
        assert svg.count('class="broken-line"') == 2
        assert svg.count('class="bend"') == 3
        # bend of the two-fold line sits on the (2,-1) ray: (6/5,-3/5)*55
        assert '<circle class="bend" cx="66.00" cy="33.00"' in svg
        # the x-axis bend of the two-step line: (3/2, 0)*55
        assert 'cx="82.50" cy="0.00"' in svg
        assert svg.count('class="segment-label"') == 2 + 3

    def test_deterministic(self, b2_diagram):
        assert emit_svg(b2_diagram) == emit_svg(b2_diagram)

    def test_higher_rank_rejected(self):
        seed = initial_seed(quiver_to_skew(path_quiver(3)))
        diagram = initial_diagram(seed, 2)
        with pytest.raises(InputError, match="two-dimensional"):
            emit_svg(diagram)


class TestEmitTikz:
    def test_structure(self):
        seed = initial_seed(rank2_exchange(1))
        diagram = complete_rank2(initial_diagram(seed, 6), 6)
        tikz = emit_tikz(diagram)
        assert tikz.startswith("\\begin{tikzpicture}")
        assert tikz.count("\\draw (0,0) --") == 5
        assert "$1 + A_{2}X_{1}$" in tikz.replace(" X", "X") or "A_{2}" in tikz
        assert emit_tikz(diagram) == tikz


class TestRunApi:
    def test_run_grass_job_directly(self):
        job = JobSpec(
            command="grass",
            inputs={"quiver": "kronecker2", "D": [5, 6], "e": [2, 4]},
        )
        assert run(job) == "18\n"


def test_cli_import_leaves_numpy_out():
    # numpy is a test dependency only, and xml.sax.saxutils would pull in
    # email, http and urllib.request; every command pays for its imports
    src = os.path.dirname(os.path.dirname(clusterscatter.__file__))
    heavy = ("numpy", "xml", "email", "http", "urllib.request")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, clusterscatter.cli; "
         f"print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_cli_import_leaves_dataclasses_inspect_and_html_out():
    # records are named tuples and SVG labels are escaped in place, so a
    # command loads neither dataclasses (with inspect) nor html
    src = os.path.dirname(os.path.dirname(clusterscatter.__file__))
    heavy = ("dataclasses", "inspect", "html")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, clusterscatter.cli; "
         f"print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_svg_escape_matches_html_escape():
    import html

    text = "a<b & c>d \"q\" 'r' &amp;"
    assert cli_mod._escape(text) == html.escape(text, quote=False)


@pytest.mark.skipif(
    shutil.which("clusterscatter") is None,
    reason="console script not installed",
)
def test_console_script_subprocess():
    proc = subprocess.run(
        ["clusterscatter", "grass", "--quiver", "kronecker2",
         "--D", "5,6", "--e", "2,4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "18\n"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_strata_sum_to_the_counting_polynomial_over_f_p(cli, n):
    # The q-level two-route check: over every e where strata returns at
    # (2,1), the strata q-polynomials add up to the polynomial fitted to
    # counts over F_p.
    returned = 0
    for d in ((n, n + 1), (n + 1, n)):
        for e in product(range(d[0] + 1), range(d[1] + 1)):
            code, out, _ = cli("strata", "--quiver", "kronecker2",
                               "--D", f"{d[0]},{d[1]}", "--e", f"{e[0]},{e[1]}",
                               "--endpoint", "2,1", "--json")
            if code:
                continue
            returned += 1
            total = {}
            for line in json.loads(out)["lines"]:
                for k, c in line["poincare"].items():
                    total[int(k)] = total.get(int(k), 0) + c
            want = fp_oracle.grassmannian_counting_polynomial(kronecker_quiver(2), d, e)
            assert {k: c for k, c in total.items() if c} == {
                k: c for k, c in enumerate(want) if c
            }, (d, e)
    assert returned >= 2 * n * (n + 1)
