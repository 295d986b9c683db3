"""Every numeric argument of a public entry point is read by the one reader
in ``resolvent_limits.errors``.

The property gives each row (public callable, numeric argument, rule) every
bad value its rule forbids, out of NaN, +-inf, 10**400, True, "1", -1, 0 and,
for an integer, 1.5.  The call must raise a ValueError that names the
argument.  A bare OverflowError, a NaN result or a numpy warning (an error
under the repository's ``filterwarnings``) fails the row.  Hypothesis draws
where a bad element sits in a sequence, and whether the sequence is a list
or a float array.

The completeness test walks the package's public callables, and the public
methods and ``__call__`` of its records, and fails if one has a float, int,
complex or Sequence[float] parameter that no row reads, so a new entry point
cannot skip the reader.
"""

import inspect
import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resolvent_limits
from resolvent_limits import (
    Atom,
    DensityFamily,
    MatrixModel,
    SpectralMeasure,
    WeightFunction,
    YSchedule,
    compactness_probe,
    discretize,
    eigen_contribution,
    estimate_holder,
    evaluate_offaxis,
    fit_divergence_rate,
    geometric_radii,
    holder_increments,
    limit_probe,
    near_far_split,
    plemelj_boundary,
    principal_value,
    quadratic_form,
    regularized_resolvent,
    resolution_floor,
    sandwiched_resolvent,
    stone_density,
    weighted_mass,
)

NOT_FINITE = [math.nan, math.inf, -math.inf, 10**400, True, "1"]
NOT_INTEGER = [math.nan, math.inf, -math.inf, 10**400, True, "1", 1.5]
# the bad values each rule forbids
FORBIDDEN = {
    "finite": NOT_FINITE,
    "nonnegative": [*NOT_FINITE, -1],
    "positive": [*NOT_FINITE, -1, 0],
    "above 1/2": [*NOT_FINITE, -1, 0],
    "(0, 1]": [*NOT_FINITE, -1, 0],
    "(0, 1)": [*NOT_FINITE, -1, 0],
    "integer >= 0": [*NOT_INTEGER, -1],
    "integer >= 1": [*NOT_INTEGER, -1, 0],
}

EDGES = (-1.0, 1.0)
CONSTANT = {"kind": "constant", "parameters": {"level": 1.0}, "support": EDGES}
MEASURE = SpectralMeasure((DensityFamily(**CONSTANT),), (Atom(0.5, 1.0),))
WEIGHT = WeightFunction("hat", {"center": 0.0, "half_width": 1.0})
MODEL = discretize(MEASURE, WEIGHT, 20)
SCHEDULE = YSchedule(0.1, 1e-4, 0.5)
RADII = [0.1 * 0.5**k for k in range(8)]
INCREMENTS = [0.5**k for k in range(8)]


def sample(z):
    return sandwiched_resolvent(MODEL, z)


class Row(NamedTuple):
    function: Callable
    valid: dict  # keyword arguments of a call that succeeds
    arg: str
    rule: str
    key: str | None = None  # the parameter's name when ``arg`` is a dict of them
    sequence: bool = False  # the bad value replaces one element of ``arg``

    @property
    def name(self) -> str:
        return self.key or self.arg


def _family_rows(cls, kind, rules, **valid):
    """One row per catalog parameter of ``kind``, each valid at 0.5 (every
    rule admits it), with the parameter's rule."""
    params = dict.fromkeys(rules, 0.5)
    return [Row(cls, {"kind": kind, "parameters": params, **valid}, "parameters", rule, key=k) for k, rule in rules.items()]


BUMP = {"level": "nonnegative", "exponent": "(0, 1]", "center": "finite"}
WINDOW = {"center": "finite", "half_width": "positive"}
MODEL_ARRAYS = {"nodes": [0.0, 0.5, 1.0], "masses": [1.0] * 3, "weights": [1.0] * 3, "atom_flags": [False] * 3}
TRANSFORM = {"measure": MEASURE, "weight": WEIGHT, "abs_tol": 1e-10}
DISCRETIZE = {"measure": MEASURE, "weight": WEIGHT, "n": 20, "embedding_dim": 3, "seed": 0}
PROBE = {"evaluator": sample, "lam": 0.0, "schedule": SCHEDULE, "tolerance": 1e-6}
RATE = {"norms": [1.0, 2.0, 4.0, 8.0], "ys": [1.0, 0.5, 0.25, 0.125]}
COMPACTNESS = {"model": MODEL, "s": 1.0, "truncation_radii": [0.25, 0.5, 1.0]}
HOLDER = {"lam": 0.0, "radii": RADII, "increments": INCREMENTS}

ROWS = [
    *_family_rows(DensityFamily, "constant", {"level": "nonnegative"}, support=EDGES),
    *_family_rows(DensityFamily, "affine", dict.fromkeys(["level", "slope", "center"], "finite"), support=EDGES),
    *_family_rows(DensityFamily, "power_bump", BUMP, support=EDGES),
    *_family_rows(DensityFamily, "smooth_bump", {"level": "nonnegative", "center": "finite", "half_width": "positive"}),
    Row(DensityFamily, CONSTANT, "support", "finite", sequence=True),
    *[row for kind in ("hat", "cosine_bump", "plateau") for row in _family_rows(WeightFunction, kind, WINDOW)],
    *_family_rows(WeightFunction, "power_hat", {**WINDOW, "exponent": "(0, 1]"}),
    Row(Atom, {"location": 0.0, "mass": 1.0}, "location", "finite"),
    Row(Atom, {"location": 0.0, "mass": 1.0}, "mass", "positive"),
    Row(evaluate_offaxis, {**TRANSFORM, "z": 0.2 + 0.1j}, "z", "finite"),
    Row(evaluate_offaxis, {**TRANSFORM, "z": 0.2 + 0.1j}, "abs_tol", "positive"),
    *[
        Row(f, {**TRANSFORM, "lam": 0.2}, arg, rule)
        for f in (plemelj_boundary, principal_value)
        for arg, rule in (("lam", "finite"), ("abs_tol", "positive"))
    ],
    Row(near_far_split, {"measure": MEASURE, "lam": 0.0, "eps": 0.25}, "lam", "finite"),
    Row(near_far_split, {"measure": MEASURE, "lam": 0.0, "eps": 0.25}, "eps", "positive"),
    Row(weighted_mass, TRANSFORM, "abs_tol", "positive"),
    Row(MatrixModel, MODEL_ARRAYS, "nodes", "finite", sequence=True),
    Row(MatrixModel, MODEL_ARRAYS, "masses", "positive", sequence=True),
    Row(MatrixModel, MODEL_ARRAYS, "weights", "nonnegative", sequence=True),
    Row(discretize, DISCRETIZE, "n", "integer >= 0"),
    Row(discretize, DISCRETIZE, "embedding_dim", "integer >= 1"),
    Row(discretize, DISCRETIZE, "seed", "integer >= 0"),
    Row(sandwiched_resolvent, {"model": MODEL, "z": 0.1j}, "z", "finite"),
    Row(quadratic_form, {"model": MODEL, "z": 0.1j}, "z", "finite"),
    Row(regularized_resolvent, {"model": MODEL, "z": 0.1j, "lam": 0.5}, "z", "finite"),
    Row(regularized_resolvent, {"model": MODEL, "z": 0.1j, "lam": 0.5}, "lam", "finite"),
    Row(eigen_contribution, {"model": MODEL, "lam": 0.5}, "lam", "finite"),
    Row(resolution_floor, {"model": MODEL, "lam": 0.0}, "lam", "finite"),
    Row(YSchedule, {"y_max": 0.1, "y_min": 1e-4, "ratio": 0.5}, "y_max", "positive"),
    Row(YSchedule, {"y_max": 0.1, "y_min": 1e-4, "ratio": 0.5}, "y_min", "positive"),
    Row(YSchedule, {"y_max": 0.1, "y_min": 1e-4, "ratio": 0.5}, "ratio", "(0, 1)"),
    Row(limit_probe, PROBE, "lam", "finite"),
    Row(limit_probe, PROBE, "tolerance", "finite"),
    Row(stone_density, {"evaluator": sample, "lam": 0.0, "schedule": SCHEDULE}, "lam", "finite"),
    Row(fit_divergence_rate, RATE, "norms", "positive", sequence=True),
    Row(fit_divergence_rate, RATE, "ys", "positive", sequence=True),
    Row(compactness_probe, COMPACTNESS, "s", "above 1/2"),
    Row(compactness_probe, COMPACTNESS, "truncation_radii", "positive", sequence=True),
    Row(geometric_radii, {"r_max": 0.1, "ratio": 0.5, "count": 8}, "r_max", "positive"),
    Row(geometric_radii, {"r_max": 0.1, "ratio": 0.5, "count": 8}, "ratio", "(0, 1)"),
    Row(geometric_radii, {"r_max": 0.1, "ratio": 0.5, "count": 8}, "count", "integer >= 1"),
    Row(holder_increments, {"f": WEIGHT, "lam": 0.0, "radii": RADII}, "lam", "finite"),
    Row(holder_increments, {"f": WEIGHT, "lam": 0.0, "radii": RADII}, "radii", "positive", sequence=True),
    Row(estimate_holder, HOLDER, "lam", "finite"),
    Row(estimate_holder, HOLDER, "radii", "positive", sequence=True),
    Row(estimate_holder, HOLDER, "increments", "nonnegative", sequence=True),
    # the records' methods that take a point: a density piece and a weight share ``__call__``
    Row(WEIGHT.__call__, {"x": 0.0}, "x", "finite"),
    Row(MEASURE.density_at, {"x": 0.0}, "x", "finite"),
    Row(MODEL.atom_mask, {"lam": 0.5}, "lam", "finite"),
]
IDS = ["-".join(filter(None, (row.function.__qualname__, row.valid.get("kind"), row.name))) for row in ROWS]
assert len(set(IDS)) == len(IDS), "two rows share an id"


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_each_row_calls_validly(row):
    row.function(**row.valid)


def _in_sequence(values, bad, data):
    """``values`` with one element replaced by ``bad``, as a list or, for a
    float-valued bad value, sometimes as a float array."""
    values = list(values)
    values[data.draw(st.integers(0, len(values) - 1), label="position")] = bad
    as_floats = type(bad) is float or (type(bad) is int and abs(bad) <= 1)
    return np.array(values) if as_floats and data.draw(st.booleans(), label="array") else values


@pytest.mark.parametrize("row", ROWS, ids=IDS)
@settings(max_examples=10)
@given(data=st.data())
def test_a_bad_number_is_refused_by_a_value_error_naming_its_argument(row, data):
    for bad in FORBIDDEN[row.rule]:
        valid = row.valid[row.arg]
        if row.key:
            value = {**valid, row.key: bad}
        else:
            value = _in_sequence(valid, bad, data) if row.sequence else bad
        with pytest.raises(ValueError) as info:
            row.function(**{**row.valid, row.arg: value})
        assert re.search(rf"\b{re.escape(row.name)}\b", str(info.value)), (bad, str(info.value))


def _public_callables():
    """The package's public functions and records that take arguments, and
    each record's public methods and ``__call__``: not its exceptions, and not
    the NamedTuple results it builds and returns."""
    for name, obj in vars(resolvent_limits).items():
        if name.startswith("_") or not callable(obj) or not obj.__module__.startswith("resolvent_limits"):
            continue
        if isinstance(obj, type) and issubclass(obj, (BaseException, tuple)):
            continue
        yield obj
        if isinstance(obj, type):
            yield from (f for m, f in inspect.getmembers(obj, inspect.isfunction) if m == "__call__" or m[0] != "_")


NUMERIC = re.compile(r"(float|int|complex|Sequence\[float\])( \| \w+)*")


def test_every_numeric_parameter_of_a_public_callable_has_a_row():
    assert all(row.arg in inspect.signature(row.function).parameters for row in ROWS), "a row names no parameter"
    # a bound method's row covers its function, which the walk finds on the class
    covered = {(getattr(row.function, "__func__", row.function), row.arg) for row in ROWS}
    public = list(_public_callables())
    assert limit_probe in public and MatrixModel in public and MatrixModel.atom_mask in public
    missing = [
        f"{obj.__qualname__}({p.name}: {p.annotation})"
        for obj in public
        for p in inspect.signature(obj).parameters.values()
        if isinstance(p.annotation, str) and NUMERIC.fullmatch(p.annotation) and (obj, p.name) not in covered
    ]
    assert not missing, f"numeric parameters read by no row: {missing}"
