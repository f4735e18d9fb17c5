"""The package's records: immutable, equal when their fields are equal,
hashed by their fields, and validated on construction where they check
their fields."""

import re
from fractions import Fraction

import pytest

from clusterscatter.brokenlines import theta_function
from clusterscatter.cli import JobSpec
from clusterscatter.cluster import Seed, initial_seed, rank2_exchange
from clusterscatter.errors import InputError
from clusterscatter.hall import Filtration, StabilityValue
from clusterscatter.lattice import GradedSeries, LaurentPoly
from clusterscatter.quiver import (
    ExplicitRep,
    Quiver,
    ar_component,
    classify_indecomposable,
    indecomposable_rep,
    kronecker_quiver,
)
from clusterscatter.scattering import (
    CrossingPath,
    Wall,
    cluster_complex_chambers,
    complete_rank2,
    initial_diagram,
)

import strata_oracle


def _seed():
    return initial_seed(rank2_exchange(2))


def _diagram():
    return complete_rank2(initial_diagram(_seed(), 4), 4)


def _theta():
    return theta_function((1, -1, 0, 0), (Fraction(3, 2), Fraction(1)), _diagram(), 4)


#: One factory per record; each call builds an equal record anew.
RECORDS = {
    "Seed": _seed,
    "Wall": lambda: _diagram().walls[-1],
    "ScatteringDiagram": _diagram,
    "CrossingPath": lambda: CrossingPath((1, 2), (2, 1), "cw", 1),
    "Chamber": lambda: cluster_complex_chambers(_seed(), 2)[-1],
    "Segment": lambda: _theta().lines[-1].segments[-1],
    "BrokenLine": lambda: _theta().lines[-1],
    "ThetaResult": _theta,
    "Quiver": lambda: kronecker_quiver(3),
    "ARNode": lambda: classify_indecomposable(kronecker_quiver(2), (2, 3)),
    "ARGraph": lambda: ar_component(kronecker_quiver(2), "P", 2),
    "ExplicitRep": lambda: indecomposable_rep(kronecker_quiver(2), (2, 3)),
    "Filtration": lambda: Filtration((((2, 3), 1), ((0, 1), 2))),
    # the per-bend record of the reference strata in tests/strata_oracle.py
    "Stratum": lambda: strata_oracle.Stratum.from_params(1, 1, 3),
    "StabilityValue": lambda: StabilityValue(1, 2),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_rejects_assignment(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = getattr(record, "_fields", ("steps",))[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    with pytest.raises(AttributeError):
        delattr(record, field)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_equal(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)


def test_job_spec_is_immutable_and_equal_by_fields():
    job = JobSpec("mutate", {"b": 2, "word": [1]})
    assert job == JobSpec(command="mutate", inputs={"b": 2, "word": [1]})
    with pytest.raises(AttributeError):
        job.order = 3
    with pytest.raises(AttributeError):
        job.extra = None


def test_job_spec_default_inputs_are_not_shared():
    first, second = JobSpec("check"), JobSpec("check")
    assert first.inputs == {} and first.inputs is not second.inputs


def test_filtration_coerces_its_steps():
    filt = RECORDS["Filtration"]()
    assert filt.steps == (((2, 3), 1), ((0, 1), 2))
    assert filt.dimension() == (2, 5)
    assert repr(filt) == "Filtration(steps=(((2, 3), 1), ((0, 1), 2)))"
    assert Filtration([([2, 3], "1")]) == Filtration((((2, 3), 1),))


def test_stability_value_coerces_to_fractions():
    z = StabilityValue(1, "2/3")
    assert (z.re, z.im) == (Fraction(1), Fraction(2, 3))
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z == StabilityValue(Fraction(1), Fraction(2, 3))
    assert str(z) == "1 + 2/3i"


def _wall(normal=(1, 0), kind="line", constant=1, step_of=0):
    """A wall whose function steps in the monomial of the initial wall
    ``step_of`` (normal (1, 0) for 0, (0, 1) for 1)."""
    step = initial_diagram(_seed(), 4).walls[step_of].func.step
    return Wall(normal, kind, ((0, 1),), GradedSeries(step, 4, (constant, 1)), True)


_VAR = LaurentPoly.monomial((1, 0, 0, 0))
_EPS_EXT = _seed().eps_ext
_K2 = kronecker_quiver(2)

INVALID = [
    (lambda: Seed(2, _EPS_EXT[:2], (_VAR, _VAR)),
     "extended matrix must have size 2n"),
    (lambda: Seed(2, _EPS_EXT, (_VAR,)), "seed must carry n mutable variables"),
    (lambda: StabilityValue(1, 0),
     "stability value 1 + 0i must lie in the open upper half plane "
     "(zero objects carry no phase)"),
    (lambda: _wall(normal=(0, 0)),
     "wall normal must be nonzero with nonnegative entries"),
    (lambda: _wall(normal=(-1, 0)),
     "wall normal must be nonzero with nonnegative entries"),
    (lambda: _wall(normal=(2, 0)), "wall normal must be primitive"),
    (lambda: _wall(kind="plane"), "unknown wall kind 'plane'"),
    (lambda: _wall(constant=2), "wall function must have constant term 1"),
    (lambda: _wall(step_of=1),
     "wall function must be a series in the monomial of the normal"),
    (lambda: CrossingPath((1, 2), (2, 1), turn="up"),
     'turn must be "auto", "ccw" or "cw"'),
    (lambda: CrossingPath((1, 2), (2, 1), full_loops=-1),
     "full_loops must be nonnegative"),
    (lambda: Quiver(0, ()), "quiver needs at least one vertex"),
    (lambda: Quiver(2, ((0, 0), (1, 0))),
     "arrow (2, 1) must satisfy 1 <= source < target <= 2"),
    (lambda: Quiver(2, ((0, 1),)), "arrow counts must form a 2x2 matrix"),
    (lambda: Quiver(2, ((0, -1), (0, 0))),
     "arrow count -1 of (1, 2) must be an integer >= 0"),
    (lambda: ExplicitRep(_K2, 0, (1,), ((), ())),
     "dimension vector length must match the quiver"),
    (lambda: ExplicitRep(_K2, 0, (-1, 0), ((), ())),
     "dimensions must be nonnegative"),
    (lambda: ExplicitRep(_K2, 0, (1, 1), (((1,),),)),
     "need exactly one matrix per arrow"),
    (lambda: ExplicitRep(_K2, 0, (1, 1), (((1,),), ((1, 0),))),
     "matrix for arrow (1, 2) must be 1x1"),
    (lambda: Filtration((5,)),
     "each filtration step must be a (vector, multiplicity) pair"),
    (lambda: Filtration((((1, 0), 1), ((1, 0, 0), 1))),
     "filtration steps have mismatched vector lengths"),
    (lambda: Filtration((((1, 0), 0),)), "step multiplicities must be positive"),
    (lambda: Filtration((((0, 0), 1),)),
     "step vectors must be nonzero and nonnegative"),
    (lambda: JobSpec("mutate", None), "job inputs must be an object"),
    (lambda: JobSpec("grass", output_format="wav"),
     "output format 'wav' is not available for command 'grass'; "
     "expected one of ('text', 'json')"),
]


@pytest.mark.parametrize(
    "build, message", INVALID, ids=[message for _, message in INVALID]
)
def test_validating_record_keeps_its_message(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()
