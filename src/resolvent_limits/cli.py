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
byte-identical outputs.

Each command is a function of the config alone.  It returns its summary
line, its exit code and its outputs: a map from file suffix to a JSON
document (a dict) or a CSV table (title, header, rows of formatted cells).
``main`` alone names, renders, writes and prints them.  A file is named
``<output_prefix>_<suffix>``; all of them are written in one call once the
command has returned, each to a temporary name renamed into place, and the
summary line is printed after that.  A failing command writes nothing, so
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
from dataclasses import asdict, dataclass, field, fields
from functools import partial
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
    HolderEstimate,
    SpectralMeasure,
    WeightFunction,
    estimate_holder,
    geometric_radii,
    holder_increments,
    read_number,
    read_object,
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
            "schedule": asdict(self.schedule),
            "evaluator": self.evaluator,
            "regularize": self.regularize,
            "discretization": {"n": self.n, "embedding_dim": self.embedding_dim},
            "seed": self.seed,
            "tolerances": asdict(self.tolerances),
        }


def _embedding_dim(value):
    if value == SAME or (type(value) is int and value >= 1):
        return value
    raise ConfigError(f"embedding_dim must be {SAME!r} or a positive integer, got {value!r}")


_KINDS = {bool: "true or false", int: "an integer", str: "a string"}


def _exact(name: str, kind: type):
    """Parser of a JSON boolean, integer or string (kind bool, int or str)
    without coercion: "false" is not False, 13.9 is not 13 and true is not 1.
    Numbers are read by ``read_number``: "0.3" is not 0.3, and NaN is not a
    number."""

    def parse(value):
        if type(value) is not kind:
            raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
        return value

    return parse


def _numbers(section: str, *keys: str) -> dict:
    return {k: partial(read_number, f"{section} {k}") for k in keys}


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
    "lambda": partial(read_number, "lambda"),
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
        "radii": lambda radii: tuple(read_number("compactness radii", r) for r in radii),
    },
    "holder": {
        "target": _one_of("holder target", "density", "weight"),
        "point": lambda p: None if p is None else read_number("holder point", p),
        **_numbers("holder", "r_max", "ratio"),
        "count": _exact("holder count", int),
    },
}
_PREFIX = {"compactness": "compactness_", "holder": "holder_"}
_TOP_KEYS = {"measure", "weight", *_TOP, *_SECTIONS}


def _section(raw: dict, key: str) -> dict:
    """Parsed values of the keys that one config section sets."""
    parsers = _SECTIONS[key]
    sub = read_object(f"config section {key!r}", raw.get(key, {}), parsers)
    return {_PREFIX.get(key, "") + k: parsers[k](v) for k, v in sub.items()}


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    read_object("config", raw, _TOP_KEYS)
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
    """Write every file (name -> text) atomically; called only after a command
    has returned."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(files.items()):
        target = outdir / name
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, target)


def _render(output) -> str:
    """Text of one output: a JSON document, or a CSV table (title, header, rows)."""
    if isinstance(output, dict):
        return json.dumps(output, indent=2, sort_keys=True) + "\n"
    title, header, rows = output
    return "\n".join([f"# {CSV_VERSION}: {title}", ",".join(header), *map(",".join, rows)]) + "\n"


def cmd_probe_limit(cfg: ExperimentConfig) -> tuple:
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
    est = report.limit_estimate
    doc = {
        "lambda": report.lam,
        "verdict": report.verdict,
        "fitted_rate": report.fitted_rate,
        "rate_residual": report.rate_residual,
        "limit_estimate": None if est is None else [est.real, est.imag],
        "schedule": asdict(report.schedule),
        "samples": [
            {
                "y": s.y,
                "re": s.shadow.real,
                "im": s.shadow.imag,
                "norm": s.norm,
                "diff": None if math.isnan(s.diff) else s.diff,
                "tag": s.tag,
            }
            for s in report.samples
        ],
        "tolerance": cfg.tolerances.convergence,
        "warnings": warnings,
        "config": cfg.echo(),
    }
    rows = [[_fmt(v) for v in (s.y, s.shadow.real, s.shadow.imag, s.norm, s.diff)] for s in report.samples]
    return (
        f"probe-limit: verdict={report.verdict} fitted_rate={report.fitted_rate:.4f}",
        0 if report.verdict in (CONVERGES, DIVERGES) else 2,
        {
            "limit_report.json": doc,
            "limit_curve.csv": ("probe-limit curve", ["y", "re", "im", "norm", "diff"], rows),
        },
    )


def cmd_compare_oracle(cfg: ExperimentConfig) -> tuple:
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
        values = (y, form.real, form.imag, tv.value.real, tv.value.imag, gap)
        rows.append([*map(_fmt, values), "SKIPPED" if skipped else "OK"])

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
    header = ["y", "form_re", "form_im", "transform_re", "transform_im", "rel_gap", "status"]
    return (
        f"compare-oracle: worst_rel_gap={worst:.3e} checked={checked} passed={ok}",
        0 if ok else 2,
        {"oracle_table.csv": ("compare-oracle table", header, rows), "oracle_summary.json": doc},
    )


def cmd_compactness(cfg: ExperimentConfig) -> tuple:
    model = discretize(cfg.measure, cfg.weight, cfg.n, cfg.embedding_dim, seed=cfg.seed)
    report = compactness_probe(model, cfg.compactness_s, cfg.compactness_radii)
    sv_rows = [[str(i), _fmt(v)] for i, v in enumerate(report.singular_values)]
    sb_rows = [[_fmt(r), _fmt(b)] for r, b in zip(report.truncation_radii, report.sup_bounds)]
    return (
        f"compactness: s={report.s} sigma_max={report.singular_values[0]:.6e} "
        f"final_sup={report.sup_bounds[-1]:.3e}",
        0,
        {
            "singular_values.csv": ("compactness singular values", ["index", "sigma"], sv_rows),
            "sup_bounds.csv": ("compactness tail sups", ["radius", "sup_bound"], sb_rows),
        },
    )


def cmd_stone_density(cfg: ExperimentConfig) -> tuple:
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
    return (
        f"stone-density: extrapolated={result.extrapolated:.8f} reference={reference:.8f}",
        0,
        {
            "stone_density.csv": ("stone-density curve", ["y", "im_transform", "density_estimate"], rows),
            "stone_summary.json": doc,
        },
    )


def cmd_holder_fit(cfg: ExperimentConfig) -> tuple:
    point = cfg.lam if cfg.holder_point is None else cfg.holder_point
    f = cfg.measure.density_at if cfg.holder_target == "density" else cfg.weight
    radii = geometric_radii(cfg.holder_r_max, cfg.holder_ratio, cfg.holder_count)
    incs = holder_increments(f, point, radii)
    rows = [[_fmt(r), _fmt(d)] for r, d in zip(radii, incs)]
    doc = {"degenerate": False, "point": point, "target": cfg.holder_target}
    try:
        doc.update(asdict(estimate_holder(point, radii, incs)))
    except DegenerateSamples as exc:
        doc.update(dict.fromkeys(k.name for k in fields(HolderEstimate)), degenerate=True)
        doc["note"] = f"{exc}; locally constant data, treat exponent as 1"
    alpha = "degenerate" if doc["degenerate"] else doc["alpha_hat"]
    return (
        f"holder-fit: alpha_hat={alpha}",
        0,
        {
            "holder_fit.json": doc,
            "holder_increments.csv": ("holder-fit increments", ["radius", "mean_increment"], rows),
        },
    )


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
        summary, code, outputs = _COMMANDS[args.command](cfg)
        _write_all(
            Path(args.out),
            {f"{cfg.output_prefix}_{suffix}": _render(out) for suffix, out in outputs.items()},
        )
        print(summary)
        return code
    except (ResolventLimitsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
