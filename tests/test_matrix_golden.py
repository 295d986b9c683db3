"""Every field of a few matrix probes and one sample, bit for bit, against a
record kept in ``matrix_golden.json``.

The record was written by the matrix oracle as it stood before a model kept
its spectral weights w^2 mu and a sample was built in one division, so it
checks that division against an independent result.  Its fitted rates and
residuals were rewritten when every line fit became one closed form; no
sample or verdict moved.  It holds ``float.hex`` of every float, so signed
zeros and the last bit count.  The seeded case forms its m x m products with
BLAS and takes their norms with LAPACK, so its bits belong to one BLAS build.
An identity sample's shadow is the finite sum of c_i / (x_i - z) with
c_i = w_i^2 mu_i, so each identity shadow in the record is also checked
against that sum computed exactly, in fractions, from the model's float
inputs: a kept reference for a change that moves these bits.  To print the
record the current code gives:

    PYTHONPATH=src python tests/test_matrix_golden.py
"""

import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import resolvent_limits.matrix_oracle as mo
from resolvent_limits import Atom, DensityFamily, SpectralMeasure, WeightFunction, YSchedule, limit_probe

RECORD = Path(__file__).with_name("matrix_golden.json")
SCHEDULE = YSchedule(y_max=1e-2, y_min=1e-6, ratio=0.5)  # 14 rungs
LAM = 0.13
# a thin constant background with an eigenvalue at lam, under a hat weight
# that is not centred on it: the data of the benchmark's dichotomy problems
MEASURE = SpectralMeasure(
    (DensityFamily("constant", {"level": 0.006}, (LAM - 1.05, LAM + 0.95)),),
    (Atom(LAM, 0.9),),
)
WEIGHT = WeightFunction("hat", {"center": LAM + 0.07, "half_width": 1.6})

# (n, embedding_dim, seed, regularize)
PROBES = {
    "identity-raw-n200": (200, mo.SAME, 0, False),
    "identity-reg-n200": (200, mo.SAME, 0, True),
    "identity-raw-n201": (201, mo.SAME, 0, False),
    "identity-reg-n201": (201, mo.SAME, 0, True),
    # a coarse grid whose whole ladder is below the floor: a limit is reported
    "identity-reg-n20": (20, mo.SAME, 0, True),
    "seeded-raw-n40-m20": (40, 20, 5, False),
}


def _hex(x) -> list:
    """float.hex of a float, or of the two parts of a complex; None stays."""
    if x is None:
        return None
    if isinstance(x, complex):
        return [x.real.hex(), x.imag.hex()]
    return float(x).hex()


def _probe(n, embedding_dim, seed, regularize) -> dict:
    model = mo.discretize(MEASURE, WEIGHT, n, embedding_dim, seed=seed)
    if regularize:
        report = limit_probe(lambda z: mo.regularized_resolvent(model, z, LAM), LAM, SCHEDULE)
    else:
        report = limit_probe(lambda z: mo.sandwiched_resolvent(model, z), LAM, SCHEDULE)
    samples = [
        [_hex(s.y), _hex(s.shadow), _hex(s.norm), "nan" if math.isnan(s.diff) else _hex(s.diff), s.tag,
         s.abs_error_estimate, s.panels, s.tolerance_met]
        for s in report.samples
    ]
    return {
        "verdict": report.verdict,
        "fitted_rate": _hex(report.fitted_rate),
        "rate_residual": _hex(report.rate_residual),
        "limit_estimate": _hex(report.limit_estimate),
        "samples": samples,
    }


def _sample_at_lam() -> dict:
    # real z at the removed eigenvalue: the one node it hits is projected out
    model = mo.discretize(MEASURE, WEIGHT, 201)
    s = mo.regularized_resolvent(model, LAM, LAM)
    return {
        "z": _hex(s.z),
        "trace": _hex(s.trace),
        "norm": _hex(s.norm),
        "diag_sha256": hashlib.sha256(s.diag.tobytes()).hexdigest(),
    }


def record() -> dict:
    doc = {name: _probe(*args) for name, args in PROBES.items()}
    doc["identity-reg-n201-at-lam"] = _sample_at_lam()
    return doc


def test_matrix_probes_reproduce_the_record():
    assert record() == json.loads(RECORD.read_text())


def _exact_error(model, keep, z: complex, shadow: complex) -> float:
    """|shadow - sum c_i / (x_i - z)| over the kept nodes, the sum exact, in
    units of eps * sum |c_i / (x_i - z)|."""
    a, b = Fraction(z.real), Fraction(z.imag)
    re = im = Fraction(0)
    scale = 0.0
    for x, w, mu in zip(model.nodes[keep], model.weights[keep], model.masses[keep]):
        dx = Fraction(x) - a
        q = Fraction(w) ** 2 * Fraction(mu) / (dx * dx + b * b)  # c / |x - z|^2
        re += q * dx
        im += q * b
        scale += float(q) * math.hypot(dx, b)
    return math.hypot(Fraction(shadow.real) - re, Fraction(shadow.imag) - im) / (sys.float_info.epsilon * scale)


def test_identity_shadows_are_the_exact_sums_within_rounding():
    doc = json.loads(RECORD.read_text())
    checks = []  # (model, kept nodes, z, shadow)
    for name, (n, embedding_dim, _, regularize) in PROBES.items():
        if embedding_dim != mo.SAME:
            continue
        model = mo.discretize(MEASURE, WEIGHT, n)
        keep = ~model.atom_mask(LAM) if regularize else np.ones(model.size, bool)
        for y, shadow, *_ in doc[name]["samples"]:
            checks.append((model, keep, complex(LAM, float.fromhex(y)), complex(*map(float.fromhex, shadow))))
    at_lam = doc["identity-reg-n201-at-lam"]
    model = mo.discretize(MEASURE, WEIGHT, 201)
    z, trace = (complex(*map(float.fromhex, at_lam[key])) for key in ("z", "trace"))
    checks.append((model, ~model.atom_mask(LAM), z, trace))
    assert len(checks) == 5 * 14 + 1
    # c_i, the division and the sum each round; the sum's error grows with log2 n
    for model, keep, z, shadow in checks:
        assert _exact_error(model, keep, z, shadow) <= 3 + math.log2(model.size)


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))
