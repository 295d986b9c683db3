"""Batch experiment runner: reproducible commands over JSON configs.

Commands
--------
probe-limit     drive limit_probe along the configured y-schedule
                (exit 0 on a CONVERGES/DIVERGES verdict, 2 on INCONCLUSIVE)
compare-oracle  identity model's discrete transform (its trace) against the
                quadrature transform
                (exit 0 iff every non-skipped relative gap meets tolerance,
                else 2; rows with y below 10x the local grid spacing are
                reported as SKIPPED)
compactness     singular values of the damped rigging model plus tail sups
stone-density   spectral density from (1/pi) Im C(lam + iy) with y -> 0 fit
holder-fit      local Holder exponent fit of the configured density or weight

Usage: resolvent-limits COMMAND --config PATH [--out DIR]   (DIR: out)

The config file is a run's only input: no flag overrides a config value, and
the loaded config is frozen.  It is JSON; the full schema with defaults is
documented in the repository README.  Runs are deterministic: a fixed config
produces byte-identical outputs.

Each command is a function of the config alone.  It returns its summary
line, its exit code and its outputs: a map from file suffix to a JSON
document (a dict) or a CSV table (title, header, columns), each column a
sequence of floats, ints or strings.  ``main`` alone names, renders, writes
and prints them.  A file is named ``<output_prefix>_<suffix>``; all of them
are written in one call once the command has returned, each to a temporary
name renamed into place, and the summary line is printed after that.  A
failing command writes nothing, so exit 1 never leaves partial outputs
behind.

CSV conventions: one comment line naming the column layout version, then a
header row; floats use scientific notation with 17 significant digits.  A
table is formatted in one pass: one row format (``%.16e`` for a float column,
``%s`` for any other) repeated once per row, applied by a single ``%`` to the
row-major cells.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import chain
from pathlib import Path

from .cauchy_transform import evaluate_offaxis
from .errors import ConfigError, DegenerateFit, ResolventLimitsError
from .limit_analysis import (
    CONVERGES,
    DIVERGES,
    HolderEstimate,
    YSchedule,
    compactness_probe,
    estimate_holder,
    geometric_radii,
    holder_increments,
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
from .spectral_model import Atom, DensityFamily, SpectralMeasure, WeightFunction

__all__ = ["main", "ExperimentConfig", "load_config"]

CSV_VERSION = "resolvent-limits csv v1"


@dataclass(frozen=True)
class Tolerances:
    quadrature_abs: float = DEFAULT_ABS_TOL
    convergence: float = 1e-6
    oracle_rel_gap: float = 1e-3

    def __post_init__(self):
        # no estimate meets a target of zero or below: a quadrature spends its panel budget on every rung
        for name, value in asdict(self).items():
            if not value > 0:
                raise ConfigError(f"tolerances {name} must be positive, got {value!r}")


@dataclass(frozen=True)
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
        """Config as written back into reports, in the form ``load_config``
        reads (deterministic key order)."""
        return {
            "measure": {
                "ac_parts": [_echo_family(p) for p in self.measure.ac_parts],
                "atoms": [asdict(a) for a in self.measure.atoms],
            },
            "weight": _echo_family(self.weight),
            "lambda": self.lam,
            "schedule": asdict(self.schedule),
            "evaluator": self.evaluator,
            "regularize": self.regularize,
            "discretization": {"n": self.n, "embedding_dim": self.embedding_dim},
            "seed": self.seed,
            "tolerances": asdict(self.tolerances),
        }


def _echo_family(family) -> dict:
    return {"kind": family.kind, "parameters": dict(family.parameters), "support": list(family.support)}


def read_number(name: str, value) -> float:
    """A JSON number read without coercion: an integer or a finite float, and
    an integer is read as a float.  A bool, a string, NaN or an integer
    beyond the float range raises ConfigError."""
    if type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not float or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def read_object(name: str, value, keys=None) -> dict:
    """A JSON object whose keys all lie in ``keys`` (any keys when None)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    unknown = set(value) - set(value if keys is None else keys)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    return value


def _read_numbers(name: str, values) -> tuple:
    return tuple(read_number(name, v) for v in values)


def _read_parameters(name: str, value) -> dict:
    return {k: read_number(f"{name} {k}", v) for k, v in read_object(name, value).items()}


def _read_density(raw) -> DensityFamily:
    raw = read_object("measure ac_parts entry", raw, ("kind", "parameters", "support"))
    return DensityFamily(
        raw["kind"],
        _read_parameters("measure parameters", raw["parameters"]),
        _read_numbers("measure support", raw.get("support", ())),
    )


def _read_measure(raw) -> SpectralMeasure:
    raw = read_object("measure", raw, ("ac_parts", "atoms"))
    atoms = [read_object("measure atom", a, ("location", "mass")) for a in raw.get("atoms", [])]
    return SpectralMeasure(
        tuple(_read_density(p) for p in raw.get("ac_parts", [])),
        tuple(Atom(read_number("atom location", a["location"]), read_number("atom mass", a["mass"])) for a in atoms),
    )


def _read_weight(raw) -> WeightFunction:
    raw = read_object("weight", raw, ("kind", "parameters", "support"))
    weight = WeightFunction(raw["kind"], _read_parameters("weight parameters", raw["parameters"]))
    if "support" in raw and _read_numbers("weight support", raw["support"]) != weight.support:
        raise ValueError("serialized weight support does not match its parameters")
    return weight


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
        "radii": partial(_read_numbers, "compactness radii"),
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
        measure = _read_measure(raw["measure"])
        weight = _read_weight(raw["weight"])
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
    """Text of one output: a JSON document, or a CSV table (title, header,
    columns) formatted in one pass."""
    if isinstance(output, dict):
        return json.dumps(output, indent=2, sort_keys=True) + "\n"
    title, header, columns = output
    row = ",".join("%.16e" if isinstance(col[0], float) else "%s" for col in columns) + "\n"
    cells = chain.from_iterable(zip(*columns))
    # a temporary tuple: the cells are freed before the header is joined on, which copies the text
    return f"# {CSV_VERSION}: {title}\n{','.join(header)}\n" + row * len(columns[0]) % tuple(cells)


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
                "abs_error_estimate": s.abs_error_estimate,
                "panels": s.panels,
                "tolerance_met": s.tolerance_met,
            }
            for s in report.samples
        ],
        "tolerance": cfg.tolerances.convergence,
        "warnings": warnings,
        "config": cfg.echo(),
    }
    columns = list(zip(*((s.y, s.shadow.real, s.shadow.imag, s.norm, s.diff) for s in report.samples)))
    return (
        f"probe-limit: verdict={report.verdict} fitted_rate={report.fitted_rate:.4f}",
        0 if report.verdict in (CONVERGES, DIVERGES) else 2,
        {
            "limit_report.json": doc,
            "limit_curve.csv": ("probe-limit curve", ["y", "re", "im", "norm", "diff"], columns),
        },
    )


def cmd_compare_oracle(cfg: ExperimentConfig) -> tuple:
    if cfg.embedding_dim != SAME:
        raise ConfigError("compare-oracle requires the identity embedding (embedding_dim='same')")
    model = discretize(cfg.measure, cfg.weight, cfg.n, SAME)
    floor = resolution_floor(model, cfg.lam)

    rows = []
    worst = 0.0
    checked = 0
    for y in cfg.schedule.values:
        z = complex(cfg.lam, y)
        form = quadratic_form(model, z)
        tv = evaluate_offaxis(cfg.measure, cfg.weight, z, abs_tol=cfg.tolerances.quadrature_abs)
        gap = abs(form - tv.value) / max(abs(tv.value), 1e-300)
        skipped = y < floor
        if not skipped:
            worst = max(worst, gap)
            checked += 1
        rows.append((y, form.real, form.imag, tv.value.real, tv.value.imag, gap, "SKIPPED" if skipped else "OK"))

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
        {"oracle_table.csv": ("compare-oracle table", header, list(zip(*rows))), "oracle_summary.json": doc},
    )


def cmd_compactness(cfg: ExperimentConfig) -> tuple:
    model = discretize(cfg.measure, cfg.weight, cfg.n, cfg.embedding_dim, seed=cfg.seed)
    report = compactness_probe(model, cfg.compactness_s, cfg.compactness_radii)
    sigma, radii, sups = report.singular_values, report.truncation_radii, report.sup_bounds
    return (
        f"compactness: s={report.s} sigma_max={sigma[0]:.6e} final_sup={sups[-1]:.3e}",
        0,
        {
            "singular_values.csv": ("compactness singular values", ["index", "sigma"], [range(len(sigma)), sigma]),
            "sup_bounds.csv": ("compactness tail sups", ["radius", "sup_bound"], [radii, sups]),
        },
    )


def cmd_stone_density(cfg: ExperimentConfig) -> tuple:
    if any(a.location == cfg.lam and a.mass * cfg.weight(cfg.lam) ** 2 for a in cfg.measure.atoms):
        raise ConfigError(f"stone-density probe point {cfg.lam} coincides with an atom the weight sees")
    ev = lambda z: evaluate_offaxis(
        cfg.measure, cfg.weight, z, abs_tol=cfg.tolerances.quadrature_abs
    )
    result = stone_density(ev, cfg.lam, cfg.schedule)
    reference = cfg.weight(cfg.lam) ** 2 * cfg.measure.density_at(cfg.lam)
    estimates = result.density_estimates
    columns = [cfg.schedule.values, [d * math.pi for d in estimates], estimates]
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
            "stone_density.csv": ("stone-density curve", ["y", "im_transform", "density_estimate"], columns),
            "stone_summary.json": doc,
        },
    )


def cmd_holder_fit(cfg: ExperimentConfig) -> tuple:
    point = cfg.lam if cfg.holder_point is None else cfg.holder_point
    f = cfg.measure.density_at if cfg.holder_target == "density" else cfg.weight
    radii = geometric_radii(cfg.holder_r_max, cfg.holder_ratio, cfg.holder_count)
    incs = holder_increments(f, point, radii)
    doc = {"degenerate": False, "point": point, "target": cfg.holder_target}
    try:
        doc.update(asdict(estimate_holder(point, radii, incs)))
    except DegenerateFit as exc:
        doc.update(dict.fromkeys(k.name for k in fields(HolderEstimate)), degenerate=True)
        doc["note"] = f"{exc}; locally constant data, treat exponent as 1"
    alpha = "degenerate" if doc["degenerate"] else doc["alpha_hat"]
    return (
        f"holder-fit: alpha_hat={alpha}",
        0,
        {
            "holder_fit.json": doc,
            "holder_increments.csv": ("holder-fit increments", ["radius", "mean_increment"], [radii, incs]),
        },
    )


_COMMANDS = {
    "probe-limit": cmd_probe_limit,
    "compare-oracle": cmd_compare_oracle,
    "compactness": cmd_compactness,
    "stone-density": cmd_stone_density,
    "holder-fit": cmd_holder_fit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resolvent-limits",
        description="Boundary-limit experiments for sandwiched resolvents",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON experiment config, the run's only input")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
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
