"""Every field of the kernel's TransformValues on a few fixed catalog ladders,
bit for bit, against a record kept in ``transform_golden.json``.

The cusp-centre ladders were written by the kernel as it stood before the
quadrature kept its seed grid in a memo, so they check the memo, the C sums
and the plain off-axis divide against an independent result.  The other
ladders were written once the plan built one seed grid per ladder.  The record
holds ``float.hex`` of every float, so signed zeros and the last bit count.
To print the record the current code gives:

    PYTHONPATH=src python tests/test_transform_golden.py

Beside it, ``transform_reference.json`` keeps each rung's C(z) to 30 digits,
computed in 40-digit mpmath apart from the kernel (``_reference``), so that a
change which moves a golden bit can say whether it moved toward the truth.
mpmath is not a dependency: only the generator imports it, in about 35 s:

    PYTHONPATH=src python tests/test_transform_golden.py reference > tests/transform_reference.json
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from resolvent_limits import Atom, DensityFamily, SpectralMeasure, WeightFunction
import resolvent_limits.cauchy_transform as ct

RECORD = Path(__file__).with_name("transform_golden.json")
REFERENCE = Path(__file__).with_name("transform_reference.json")
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


EPS = 2.0**-52
# every rung, the missed 1e-30 targets of power-hat-missed@0.45 included, lies
# within 4e-15 of its reference: about twice the worst distance, 1.82e-15
# (smooth-cosine@0.31 at y = 0), for values of size up to 4.3
BOUND = 4e-15


def test_every_rung_is_near_its_reference():
    # a rung that claims its target lies within its error estimate of the
    # reference, plus an allowance of EPS times the value's size (half an ulp
    # to an ulp) for the rounding of the panel sum, which no estimate counts
    record, ref = (json.loads(path.read_text()) for path in (RECORD, REFERENCE))
    assert ref.keys() == record.keys() == CASES.keys()
    for name in CASES:
        for y, (re, im, estimate, _, met), exact in zip(LADDER, record[name], ref[name], strict=True):
            exact = [Fraction(part) for part in exact]
            gap = math.hypot(*(float(Fraction(float.fromhex(h)) - e) for h, e in zip((re, im), exact)))
            assert gap <= BOUND, (name, y, gap)
            if met:
                assert gap <= float.fromhex(estimate) + EPS * math.hypot(*map(float, exact)), (name, y, gap)


def _phi_formulas(mp, measure, weight):
    """mpmath forms of w and of each density part's formula, from the catalog
    definitions and the families' float parameters, free of the kernel."""
    wp = weight.parameters
    wlo, whi = weight.support

    def w(x):
        t = (x - wp["center"]) / wp["half_width"]
        if weight.kind == "plateau":
            return mp.mpf(wlo <= x <= whi)
        if not (wlo < x < whi and abs(t) < 1):
            return mp.zero
        if weight.kind == "cosine_bump":
            return mp.cos(mp.pi * t / 2) ** 2
        return 1 - abs(t) ** wp.get("exponent", 1.0)  # a hat is a power_hat of exponent 1

    def density(part):
        p = part.parameters
        if part.kind == "constant":
            return lambda x: mp.mpf(p["level"])
        if part.kind == "affine":
            return lambda x: p["level"] + p["slope"] * (x - p["center"])
        if part.kind == "power_bump":
            return lambda x: p["level"] * abs(x - p["center"]) ** p["exponent"]

        def smooth_bump(x):
            t = (x - p["center"]) / p["half_width"]
            return p["level"] * mp.exp(1 - 1 / (1 - t**2)) if abs(t) < 1 else mp.zero

        return smooth_bump

    return w, [(part.support, density(part)) for part in measure.ac_parts]


def _reference(mp, name, y):
    """C(lam + iy) of a case, y = 0 read as 0+, by the kernel's subtraction
    identity in mpmath: on each piece [lo, hi] of the hull of w^2 rho, with c
    = phi at clamp(lam, lo, hi) from inside the piece, the integral of
    (phi - c)/(x - z) by tanh-sinh plus c [log(hi - z) - log(lo - z)], the
    logs on the branch below the axis; then the atoms in closed form.  The
    pieces are cut at the support and weight edges, the kinks, lam and the
    smooth_bump shoulders, and split further at lam +- 2^k y."""
    measure, weight, lam, _ = CASES[name]
    w, parts = _phi_formulas(mp, measure, weight)
    lam, y = mp.mpf(lam), mp.mpf(y)
    z = mp.mpc(lam, y)
    a = max(min(s[0] for s, _ in parts), weight.support[0])
    b = min(max(s[1] for s, _ in parts), weight.support[1])
    cuts = {lam, *weight.support, *measure.seeds(), *(e for part in measure.ac_parts for e in part.support)}
    cuts.update(f.parameters["center"] for f in (*measure.ac_parts, weight) if "center" in f.parameters)
    edges = sorted({mp.mpf(a), mp.mpf(b)}.union(mp.mpf(e) for e in cuts if a < e < b))
    # 2^63 y is past the hull at every rung of the ladder
    splits = [lam + side * y * 2**k for k in range(64) for side in (-1, 1)] if y else []

    def log_below(e):
        """log(e - z); at y = 0 its limit from below the axis, and 0 at lam,
        where the terms of the two pieces meeting there cancel: they share c,
        since w^2 rho is continuous at lam"""
        if y:
            return mp.log(mp.mpc(e - lam, -y))
        return mp.log(abs(e - lam)) - (mp.pi * 1j if e < lam else 0) if e != lam else 0

    total = mp.mpc(0)
    for lo, hi in zip(edges, edges[1:]):
        covering = [f for (part_lo, part_hi), f in parts if part_lo <= lo and hi <= part_hi]
        phi = lambda x: w(x) ** 2 * mp.fsum(f(x) for f in covering)
        c = phi(min(max(lam, lo), hi))
        points = [lo, *sorted(s for s in splits if lo < s < hi), hi]
        total += mp.quad(lambda x: (phi(x) - c) / (x - z), points) + c * (log_below(hi) - log_below(lo))
    for atom in measure.atoms:
        total += atom.mass * w(mp.mpf(atom.location)) ** 2 / (atom.location - z)
    return total


def reference() -> dict:
    """Re and Im of every golden rung's C(z) to 30 digits, from 40-digit
    mpmath, which is imported here only: tier-1 does not need it."""
    import mpmath

    mpmath.mp.dps = 40
    ref = {}
    for name in CASES:
        values = {y: _reference(mpmath.mp, name, y) for y in LADDER}
        ref[name] = [[mpmath.nstr(v.real, 30), mpmath.nstr(v.imag, 30)] for v in map(values.get, LADDER)]
    return ref


if __name__ == "__main__":
    print(json.dumps(reference() if sys.argv[1:] == ["reference"] else record(), indent=1))
