"""Every field of the kernel's TransformValues on a few fixed catalog ladders,
bit for bit, against a record kept in ``transform_golden.json``.

The cusp-centre ladders were written by the kernel as it stood before the
quadrature kept its seed grid in a memo, so they check the memo, the C sums
and the plain off-axis divide against an independent result.  The other
ladders were written once the plan built one seed grid per ladder; each value
was then within 2e-15 of a 40-digit reference.  The record holds
``float.hex`` of every float, so signed zeros and the last bit count.  To
print the record the current code gives:

    PYTHONPATH=src python tests/test_transform_golden.py
"""

import json
from pathlib import Path

from resolvent_limits import Atom, DensityFamily, SpectralMeasure, WeightFunction
import resolvent_limits.cauchy_transform as ct

RECORD = Path(__file__).with_name("transform_golden.json")
# every rung of a ladder, y = 0 (the boundary value) last; 1e-3 repeats
LADDER = (1e-1, 1e-2, 1e-3, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0)


def _case(density, weight, lam, atoms=(), abs_tol=1e-10):
    return SpectralMeasure((density,), tuple(Atom(*a) for a in atoms)), weight, lam, abs_tol


CASES = {
    # cusp centres: seed grids repeat from rung to rung
    "cusp-plateau@0": _case(
        DensityFamily("power_bump", {"level": 1.5, "exponent": 0.75, "center": 0.0}, (-1.0, 1.0)),
        WeightFunction("plateau", {"center": 0.0, "half_width": 1.25}),
        0.0,
    ),
    "cusp-powerhat-atom@0.2": _case(
        DensityFamily("power_bump", {"level": 0.8, "exponent": 0.9, "center": 0.2}, (-0.8, 1.2)),
        WeightFunction("power_hat", {"center": 0.2, "half_width": 1.1, "exponent": 0.7}),
        0.2,
        atoms=((0.8, 0.4),),
    ),
    # generic lambda: one seed grid, graded toward lambda, serves every rung
    "smooth-cosine@0.31": _case(
        DensityFamily("smooth_bump", {"level": 1.2, "center": 0.0, "half_width": 0.8}),
        WeightFunction("cosine_bump", {"center": 0.0, "half_width": 1.0}),
        0.31,
    ),
    "affine-plateau-atom@-0.2": _case(
        DensityFamily("affine", {"level": 1.25, "slope": -0.3, "center": 0.1}, (-1.0, 1.0)),
        WeightFunction("plateau", {"center": 0.0, "half_width": 1.25}),
        -0.2,
        atoms=((0.7, 0.5),),
    ),
    # a power_hat cusp away from lambda, and an atom
    "smooth-powerhat-atom@0.3": _case(
        DensityFamily("smooth_bump", {"level": 1.1, "center": 0.0, "half_width": 0.9}),
        WeightFunction("power_hat", {"center": 0.0, "half_width": 1.0, "exponent": 0.6}),
        0.3,
        atoms=((-0.7, 0.5),),
    ),
    # a target no panel budget meets: every rung bisects until it runs out
    "power-hat-missed@0.45": _case(
        DensityFamily("power_bump", {"level": 1.0, "exponent": 0.5, "center": 0.1}, (-1.0, 1.0)),
        WeightFunction("hat", {"center": 0.1, "half_width": 1.2}),
        0.45,
        abs_tol=1e-30,
    ),
    # atoms on both sides of lambda
    "const-hat-2atoms@0.1": _case(
        DensityFamily("constant", {"level": 0.9}, (-1.0, 1.0)),
        WeightFunction("hat", {"center": 0.0, "half_width": 1.2}),
        0.1,
        atoms=((-0.8, 0.3), (0.75, 0.6)),
    ),
}


def _bits(tv) -> list:
    return [tv.value.real.hex(), tv.value.imag.hex(), float(tv.abs_error_estimate).hex(), tv.panels_used, tv.tolerance_met]


def _rung(name, y):
    measure, weight, lam, abs_tol = CASES[name]
    return _bits(ct._transform(measure, weight, complex(lam, y), abs_tol))


def record() -> dict:
    return {name: [_rung(name, y) for y in LADDER] for name in CASES}


def test_ladders_reproduce_the_record():
    assert record() == json.loads(RECORD.read_text())


def test_interleaved_ladders_reproduce_the_record():
    # round robin over the cases: every rung follows a plan and a seed grid
    # for other data
    expected = json.loads(RECORD.read_text())
    for k, y in enumerate(LADDER):
        for name in CASES:
            assert _rung(name, y) == expected[name][k], (name, y)


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))
