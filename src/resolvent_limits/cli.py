"""Batch experiment runner: reproducible commands over JSON configs.

Commands
--------
probe-limit     drive limit_probe along the configured y-schedule
                (exit 0 on a CONVERGES/DIVERGES verdict, 2 on INCONCLUSIVE)
compare-oracle  matrix-model quadratic form against the quadrature transform
                (exit 0 iff every non-skipped relative gap meets tolerance,
                else 2; rows with y below 10x the local grid spacing are
                reported as SKIPPED)
compactness     singular values of the damped rigging model plus tail sups
stone-density   spectral density from (1/pi) Im C(lam + iy) with y -> 0 fit
holder-fit      local Holder exponent fit of the configured density or weight

Common flags: --config PATH (required), --out DIR, --seed INT.
probe-limit, compare-oracle and stone-density also take --tolerance FLOAT.
Flag values override the corresponding config fields (--tolerance maps to
the command's decision tolerance).

The config file is JSON; the full schema with defaults is documented in the
repository README.  Runs are deterministic: a fixed config produces
byte-identical outputs.  All files are written to a temporary name and
renamed into place, and nothing is written at all when a command fails, so
exit 1 never leaves partial outputs behind.

CSV conventions: one comment line naming the column layout version, then a
header row; floats use scientific notation with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cauchy_transform import evaluate_offaxis
from .errors import ConfigError, DegenerateSamples, ResolventLimitsError
from .limit_analysis import (
    CONVERGES,
    DIVERGES,
    YSchedule,
    compactness_probe,
    limit_probe,
    stone_density,
)
from .matrix_oracle import (
    SAME,
    discretize,
    quadratic_form,
    regularized_resolvent,
    resolution_floor,
    sandwiched_resolvent,
)
from .quadrature import DEFAULT_ABS_TOL
from .spectral_model import (
    SpectralMeasure,
    WeightFunction,
    estimate_holder,
    geometric_radii,
)

__all__ = ["main", "ExperimentConfig", "load_config"]

CSV_VERSION = "resolvent-limits csv v1"


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


@dataclass
class Tolerances:
    quadrature_abs: float = DEFAULT_ABS_TOL
    convergence: float = 1e-6
    oracle_rel_gap: float = 1e-3


@dataclass
class ExperimentConfig:
    measure: SpectralMeasure
    weight: WeightFunction
    lam: float = 0.0
    schedule: YSchedule = field(default_factory=YSchedule)
    evaluator: str = "transform"  # "transform" | "matrix"
    regularize: bool = False
    n: int = 2000
    embedding_dim: object = SAME
    seed: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)
    compactness_s: float = 1.0
    compactness_radii: tuple = (0.25, 0.5, 1.0, 2.0)
    holder_target: str = "density"  # "density" | "weight"
    holder_point: float | None = None
    holder_r_max: float = 0.125
    holder_ratio: float = 0.5
    holder_count: int = 10
    output_prefix: str = "run"

    def echo(self) -> dict:
        """Config as written back into reports (deterministic key order)."""
        return {
            "measure": self.measure.to_dict(),
            "weight": self.weight.to_dict(),
            "lambda": self.lam,
            "schedule": {
                "y_max": self.schedule.y_max,
                "y_min": self.schedule.y_min,
                "ratio": self.schedule.ratio,
            },
            "evaluator": self.evaluator,
            "regularize": self.regularize,
            "discretization": {"n": self.n, "embedding_dim": self.embedding_dim},
            "seed": self.seed,
            "tolerances": {
                "quadrature_abs": self.tolerances.quadrature_abs,
                "convergence": self.tolerances.convergence,
                "oracle_rel_gap": self.tolerances.oracle_rel_gap,
            },
        }


def _embedding_dim(value):
    if value == SAME or (type(value) is int and value >= 1):
        return value
    raise ConfigError(f"embedding_dim must be {SAME!r} or a positive integer, got {value!r}")


_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _exact(name: str, kind: type):
    """Parser of a JSON boolean, integer, finite number or string (kind bool,
    int, float or str) without coercion: "false" is not False, 13.9 is not
    13, true is not 1, "0.3" is not 0.3, and NaN is not a number.  An integer
    is a number and is read as a float."""

    def parse(value):
        if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
            value = float(value)
        if type(value) is not kind or (kind is float and not math.isfinite(value)):
            raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
        return value

    return parse


def _numbers(section: str, *keys: str) -> dict:
    return {k: _exact(f"{section} {k}", float) for k in keys}


def _one_of(name: str, *allowed):
    def parse(value):
        if value not in allowed:
            raise ConfigError(f"{name} must be {' or '.join(map(repr, allowed))}, got {value!r}")
        return value

    return parse


# Parsers of the keys each config section may set.  A parsed key becomes a
# keyword argument of YSchedule, Tolerances or ExperimentConfig (named by the
# section's prefix plus the key); a key the config leaves out is not passed,
# so every default is stated once, on its dataclass.
_TOP = {
    "lambda": _exact("lambda", float),
    "evaluator": _one_of("evaluator", "transform", "matrix"),
    "regularize": _exact("regularize", bool),
    "seed": _exact("seed", int),
    "output_prefix": _exact("output_prefix", str),
}
_SECTIONS = {
    "schedule": _numbers("schedule", "y_max", "y_min", "ratio"),
    "discretization": {"n": _exact("n", int), "embedding_dim": _embedding_dim},
    "tolerances": _numbers("tolerances", "quadrature_abs", "convergence", "oracle_rel_gap"),
    "compactness": {
        **_numbers("compactness", "s"),
        "radii": lambda radii: tuple(map(_exact("compactness radii", float), radii)),
    },
    "holder": {
        "target": _one_of("holder target", "density", "weight"),
        "point": lambda p: None if p is None else _exact("holder point", float)(p),
        **_numbers("holder", "r_max", "ratio"),
        "count": _exact("holder count", int),
    },
}
_PREFIX = {"compactness": "compactness_", "holder": "holder_"}
_TOP_KEYS = {"measure", "weight", *_TOP, *_SECTIONS}


def _section(raw: dict, key: str) -> dict:
    """Parsed values of the keys that one config section sets."""
    sub = raw.get(key, {})
    if not isinstance(sub, dict):
        raise ConfigError(f"config section {key!r} must be an object")
    parsers = _SECTIONS[key]
    unknown = set(sub) - set(parsers)
    if unknown:
        raise ConfigError(f"unknown keys in {key!r}: {sorted(unknown)}")
    return {_PREFIX.get(key, "") + k: parsers[k](v) for k, v in sub.items()}


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    for required in ("measure", "weight"):
        if required not in raw:
            raise ConfigError(f"config is missing required section {required!r}")

    try:
        measure = SpectralMeasure.from_dict(raw["measure"])
        weight = WeightFunction.from_dict(raw["weight"])
        top = {("lam" if k == "lambda" else k): parse(raw[k]) for k, parse in _TOP.items() if k in raw}
        return ExperimentConfig(
            measure=measure,
            weight=weight,
            schedule=YSchedule(**_section(raw, "schedule")),
            tolerances=Tolerances(**_section(raw, "tolerances")),
            **top,
            **_section(raw, "discretization"),
            **_section(raw, "compactness"),
            **_section(raw, "holder"),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def _write_all(outdir: Path, files: dict) -> None:
    """Write every artifact atomically; called only after a command succeeds."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(files.items()):
        target = outdir / name
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, target)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(title: str, header: list, rows: list) -> str:
    lines = [f"# {CSV_VERSION}: {title}", ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_probe_limit(cfg: ExperimentConfig, outdir: Path) -> int:
    warnings = []
    if cfg.evaluator == "matrix":
        model = discretize(cfg.measure, cfg.weight, cfg.n, cfg.embedding_dim, seed=cfg.seed)
        if cfg.regularize:
            ev = lambda z: regularized_resolvent(model, z, cfg.lam)
        else:
            ev = lambda z: sandwiched_resolvent(model, z)
        floor = resolution_floor(model, cfg.lam)
        if floor > 0 and min(cfg.schedule.values) < floor:
            warnings.append(
                f"schedule reaches below 10x the local grid spacing ({floor:.3e}); "
                "discreteness can masquerade as point spectrum there"
            )
    else:
        measure = cfg.measure
        if cfg.regularize:
            atoms = tuple(a for a in measure.atoms if a.location != cfg.lam)
            measure = SpectralMeasure(ac_parts=measure.ac_parts, atoms=atoms)
        ev = lambda z: evaluate_offaxis(
            measure, cfg.weight, z, abs_tol=cfg.tolerances.quadrature_abs
        )

    report = limit_probe(ev, cfg.lam, cfg.schedule, tolerance=cfg.tolerances.convergence)

    sample_rows = [[_fmt(v) for v in row] for row in report.csv_rows()]
    doc = report.to_dict()
    doc.update(
        {
            "tolerance": cfg.tolerances.convergence,
            "warnings": warnings,
            "config": cfg.echo(),
        }
    )
    _write_all(
        outdir,
        {
            f"{cfg.output_prefix}_limit_report.json": _json_text(doc),
            f"{cfg.output_prefix}_limit_curve.csv": _csv_text(
                "probe-limit curve", ["y", "re", "im", "norm", "diff"], sample_rows
            ),
        },
    )
    print(f"probe-limit: verdict={report.verdict} fitted_rate={report.fitted_rate:.4f}")
    return 0 if report.verdict in (CONVERGES, DIVERGES) else 2


def cmd_compare_oracle(cfg: ExperimentConfig, outdir: Path) -> int:
    if cfg.embedding_dim != SAME:
        raise ConfigError("compare-oracle requires the identity embedding (embedding_dim='same')")
    model = discretize(cfg.measure, cfg.weight, cfg.n, SAME, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    u = rng.choice([-1.0, 1.0], size=model.size) * (model.weights > 0)
    floor = resolution_floor(model, cfg.lam)

    rows = []
    worst = 0.0
    checked = 0
    for y in cfg.schedule.values:
        z = complex(cfg.lam, y)
        form = quadratic_form(model, z, u)
        tv = evaluate_offaxis(cfg.measure, cfg.weight, z, abs_tol=cfg.tolerances.quadrature_abs)
        gap = abs(form - tv.value) / max(abs(tv.value), 1e-300)
        skipped = y < floor
        if not skipped:
            worst = max(worst, gap)
            checked += 1
        rows.append(
            [
                _fmt(y),
                _fmt(form.real),
                _fmt(form.imag),
                _fmt(tv.value.real),
                _fmt(tv.value.imag),
                _fmt(gap),
                "SKIPPED" if skipped else "OK",
            ]
        )

    ok = worst <= cfg.tolerances.oracle_rel_gap
    doc = {
        "passed": bool(ok),
        "checked_rows": checked,
        "skipped_rows": len(rows) - checked,
        "worst_rel_gap": worst,
        "rel_gap_tolerance": cfg.tolerances.oracle_rel_gap,
        "resolution_floor": floor,
        "config": cfg.echo(),
    }
    _write_all(
        outdir,
        {
            f"{cfg.output_prefix}_oracle_table.csv": _csv_text(
                "compare-oracle table",
                ["y", "form_re", "form_im", "transform_re", "transform_im", "rel_gap", "status"],
                rows,
            ),
            f"{cfg.output_prefix}_oracle_summary.json": _json_text(doc),
        },
    )
    print(f"compare-oracle: worst_rel_gap={worst:.3e} checked={checked} passed={ok}")
    return 0 if ok else 2


def cmd_compactness(cfg: ExperimentConfig, outdir: Path) -> int:
    model = discretize(cfg.measure, cfg.weight, cfg.n, cfg.embedding_dim, seed=cfg.seed)
    report = compactness_probe(model, cfg.compactness_s, cfg.compactness_radii)
    sv_rows = [[str(i), _fmt(v)] for i, v in enumerate(report.singular_values)]
    sb_rows = [
        [_fmt(r), _fmt(b)] for r, b in zip(report.truncation_radii, report.sup_bounds)
    ]
    _write_all(
        outdir,
        {
            f"{cfg.output_prefix}_singular_values.csv": _csv_text(
                "compactness singular values", ["index", "sigma"], sv_rows
            ),
            f"{cfg.output_prefix}_sup_bounds.csv": _csv_text(
                "compactness tail sups", ["radius", "sup_bound"], sb_rows
            ),
        },
    )
    print(
        f"compactness: s={report.s} sigma_max={report.singular_values[0]:.6e} "
        f"final_sup={report.sup_bounds[-1]:.3e}"
    )
    return 0


def cmd_stone_density(cfg: ExperimentConfig, outdir: Path) -> int:
    if any(a.location == cfg.lam for a in cfg.measure.atoms):
        raise ConfigError(f"stone-density probe point {cfg.lam} coincides with an atom")
    ev = lambda z: evaluate_offaxis(
        cfg.measure, cfg.weight, z, abs_tol=cfg.tolerances.quadrature_abs
    )
    result = stone_density(ev, cfg.lam, cfg.schedule)
    reference = cfg.weight(cfg.lam) ** 2 * cfg.measure.density_at(cfg.lam)
    rows = [
        [_fmt(y), _fmt(d * math.pi), _fmt(d)]
        for y, d in zip(cfg.schedule.values, result.density_estimates)
    ]
    doc = {
        "extrapolated": result.extrapolated,
        "catalog_reference": reference,
        "abs_error": abs(result.extrapolated - reference),
        "lambda": cfg.lam,
        "config": cfg.echo(),
    }
    _write_all(
        outdir,
        {
            f"{cfg.output_prefix}_stone_density.csv": _csv_text(
                "stone-density curve", ["y", "im_transform", "density_estimate"], rows
            ),
            f"{cfg.output_prefix}_stone_summary.json": _json_text(doc),
        },
    )
    print(f"stone-density: extrapolated={result.extrapolated:.8f} reference={reference:.8f}")
    return 0


def cmd_holder_fit(cfg: ExperimentConfig, outdir: Path) -> int:
    point = cfg.lam if cfg.holder_point is None else cfg.holder_point
    if cfg.holder_target == "density":
        f = cfg.measure.density_at
    else:
        f = cfg.weight
    radii = geometric_radii(cfg.holder_r_max, cfg.holder_ratio, cfg.holder_count)

    f0 = float(f(point))
    rows = [
        [_fmt(r), _fmt(0.5 * (abs(float(f(point + r)) - f0) + abs(float(f(point - r)) - f0)))]
        for r in radii
    ]
    try:
        est = estimate_holder(f, point, radii)
        doc = {
            "degenerate": False,
            "alpha_hat": est.alpha_hat,
            "constant_hat": est.constant_hat,
            "fit_window": list(est.fit_window),
            "residual": est.residual,
            "point": point,
            "target": cfg.holder_target,
        }
    except DegenerateSamples as exc:
        doc = {
            "degenerate": True,
            "alpha_hat": None,
            "constant_hat": None,
            "fit_window": None,
            "residual": None,
            "point": point,
            "target": cfg.holder_target,
            "note": f"{exc}; locally constant data, treat exponent as 1",
        }
    _write_all(
        outdir,
        {
            f"{cfg.output_prefix}_holder_fit.json": _json_text(doc),
            f"{cfg.output_prefix}_holder_increments.csv": _csv_text(
                "holder-fit increments", ["radius", "mean_increment"], rows
            ),
        },
    )
    alpha = doc["alpha_hat"]
    print(f"holder-fit: alpha_hat={alpha if alpha is not None else 'degenerate'}")
    return 0


_COMMANDS = {
    "probe-limit": cmd_probe_limit,
    "compare-oracle": cmd_compare_oracle,
    "compactness": cmd_compactness,
    "stone-density": cmd_stone_density,
    "holder-fit": cmd_holder_fit,
}

# which decision tolerance --tolerance overrides; other commands have none
_TOL_TARGET = {
    "probe-limit": "convergence",
    "compare-oracle": "oracle_rel_gap",
    "stone-density": "quadrature_abs",
}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resolvent-limits",
        description="Boundary-limit experiments for sandwiched resolvents",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name in _TOL_TARGET:
            p.add_argument(
                "--tolerance", type=_finite, default=None, help="override the decision tolerance"
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if getattr(args, "tolerance", None) is not None:
            setattr(cfg.tolerances, _TOL_TARGET[args.command], args.tolerance)
        return _COMMANDS[args.command](cfg, Path(args.out))
    except (ResolventLimitsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
