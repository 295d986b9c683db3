"""Batch experiment runner: reproducible commands over JSON configs.

Commands
--------
probe-limit     drive limit_probe along the configured y-schedule
                (exit 0 on a CONVERGES/DIVERGES verdict, 2 on INCONCLUSIVE)
compare-oracle  identity model's discrete transform (its trace) against the
                quadrature transform, both ladders read through the rung
                loop that probe-limit and stone-density share
                (exit 0 iff every non-skipped relative gap meets tolerance,
                else 2; rows with y below 10x the local grid spacing are
                reported as SKIPPED; exit 1 on a sample that is not finite,
                on any row)
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
failing command writes nothing, and neither does a command whose JSON
document holds a NaN or an infinity, which strict JSON cannot hold: exit 1
never leaves partial outputs behind.

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
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .cauchy_transform import evaluate_offaxis
from .errors import ConfigError, DegenerateFit, ResolventLimitsError
from .limit_analysis import (
    CONVERGES,
    DIVERGES,
    HolderEstimate,
    YSchedule,
    _rungs,
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


class ExperimentConfig(NamedTuple):
    measure: SpectralMeasure
    weight: WeightFunction
    lam: float = 0.0
    schedule: YSchedule = YSchedule()
    evaluator: str = "transform"  # "transform" | "matrix"
    regularize: bool = False
    n: int = 2000
    embedding_dim: object = SAME
    seed: int = 0
    tolerances: Tolerances = Tolerances()
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


_KINDS = {
    float: "a finite number",
    bool: "true or false",
    int: "an integer",
    str: "a string",
    list: "a JSON array",
    dict: "a JSON object",
}


def read_value(name: str, value, kind: type):
    """A JSON value of one kind (a key of ``_KINDS``), read without coercion:
    "false" is not False, 13.9 is not 13, true is not 1, "0.3" is not 0.3 and
    "ab" is not an array.  A float may be given as an integer within the float
    range, which is read as a float, and it must be finite.  Anything else
    raises ConfigError."""
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return value


def read_object(name: str, value, keys, required=()) -> dict:
    """A JSON object whose keys all lie in ``keys`` and include ``required``."""
    unknown = set(read_value(name, value, dict)) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{name} is missing key {key!r}")
    return value


def _read_numbers(name: str, values) -> tuple:
    return tuple(read_value(name, v, float) for v in read_value(name, values, list))


def _read_parameters(name: str, value) -> dict:
    return {k: read_value(f"{name} {k}", v, float) for k, v in read_value(name, value, dict).items()}


def _read_density(raw) -> DensityFamily:
    raw = read_object("measure ac_parts entry", raw, ("kind", "parameters", "support"), ("kind", "parameters"))
    return DensityFamily(
        read_value("measure kind", raw["kind"], str),
        _read_parameters("measure parameters", raw["parameters"]),
        _read_numbers("measure support", raw.get("support", [])),
    )


def _read_measure(name: str, raw) -> SpectralMeasure:
    raw = read_object(name, raw, ("ac_parts", "atoms"))
    parts = read_value("measure ac_parts", raw.get("ac_parts", []), list)
    atoms = read_value("measure atoms", raw.get("atoms", []), list)
    atoms = [read_object("measure atom", a, ("location", "mass"), ("location", "mass")) for a in atoms]
    return SpectralMeasure(
        tuple(_read_density(p) for p in parts),
        tuple(Atom(*(read_value(f"atom {k}", a[k], float) for k in ("location", "mass"))) for a in atoms),
    )


def _read_weight(name: str, raw) -> WeightFunction:
    raw = read_object(name, raw, ("kind", "parameters", "support"), ("kind", "parameters"))
    kind = read_value("weight kind", raw["kind"], str)
    weight = WeightFunction(kind, _read_parameters("weight parameters", raw["parameters"]))
    if "support" in raw and (support := _read_numbers("weight support", raw["support"])) != weight.support:
        raise ConfigError(f"weight support {list(support)} does not match center ± half_width {list(weight.support)}")
    return weight


def _read_embedding_dim(name: str, value):
    if value == SAME or (type(value) is int and value >= 1):
        return value
    raise ConfigError(f"{name} must be {SAME!r} or a positive integer, got {value!r}")


# the longest output name, <prefix>_holder_increments.csv with its .tmp suffix, then fits in 255 bytes
MAX_PREFIX_BYTES = 255 - len("_holder_increments.csv.tmp")


def _read_output_prefix(name: str, value) -> str:
    # a separator would put the outputs outside --out; a NUL or a longer name names no file
    if {"/", "\\", "\0"} & set(read_value(name, value, str)):
        raise ConfigError(f"{name} must be a file name prefix with no path separator or NUL, got {value!r}")
    try:
        size = len(value.encode())
    except UnicodeEncodeError:  # a lone surrogate, as a JSON \ud800 escape gives
        raise ConfigError(f"{name} must be UTF-8 text, got {value!r}") from None
    if size > MAX_PREFIX_BYTES:
        raise ConfigError(f"{name} must take at most {MAX_PREFIX_BYTES} UTF-8 bytes, got {size}")
    return value


def _read_key(name: str, value, spec):
    """One config value read by its key's spec: a kind of ``read_value``, a
    tuple of the strings allowed, or a reader taking (name, value)."""
    if isinstance(spec, type):
        return read_value(name, value, spec)
    if isinstance(spec, tuple):
        if value not in spec:
            raise ConfigError(f"{name} must be {' or '.join(map(repr, spec))}, got {value!r}")
        return value
    return spec(name, value)


# The spec of each key a config section may set, read by ``_read_key``.  A read
# key becomes a keyword argument of YSchedule, Tolerances or ExperimentConfig
# (named by the section's prefix plus the key); a key the config leaves out is
# not passed, so every default is stated once, on its record.
_TOP = {
    "measure": _read_measure,
    "weight": _read_weight,
    "lambda": float,
    "evaluator": ("transform", "matrix"),
    "regularize": bool,
    "seed": int,
    "output_prefix": _read_output_prefix,
}
_SECTIONS = {
    "schedule": {"y_max": float, "y_min": float, "ratio": float},
    "discretization": {"n": int, "embedding_dim": _read_embedding_dim},
    "tolerances": {"quadrature_abs": float, "convergence": float, "oracle_rel_gap": float},
    "compactness": {"s": float, "radii": _read_numbers},
    "holder": {
        "target": ("density", "weight"),
        "point": lambda name, p: None if p is None else read_value(name, p, float),
        "r_max": float,
        "ratio": float,
        "count": int,
    },
}
_PREFIX = {"compactness": "compactness_", "holder": "holder_"}


def _section(raw: dict, key: str) -> dict:
    """Read values of the keys that one config section sets."""
    specs = _SECTIONS[key]
    sub = read_object(f"config section {key!r}", raw.get(key, {}), specs)
    return {_PREFIX.get(key, "") + k: _read_key(f"{key} {k}", v, specs[k]) for k, v in sub.items()}


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused if it names a key twice: ``json.loads`` alone keeps the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = sorted({k for k in keys if keys.count(k) > 1})
        raise ConfigError(f"config names {', '.join(map(repr, repeated))} more than once in one object")
    return obj


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        # UTF-8 (or a BOM's encoding), whatever the locale's
        raw = json.loads(Path(path).read_bytes(), object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    read_object("config", raw, (*_TOP, *_SECTIONS), ("measure", "weight"))

    try:
        top = {("lam" if k == "lambda" else k): _read_key(k, raw[k], spec) for k, spec in _TOP.items() if k in raw}
        return ExperimentConfig(
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
    columns) formatted in one pass.  A document holding a NaN or an infinity,
    which JSON cannot hold, raises ValueError."""
    if isinstance(output, dict):
        return json.dumps(output, indent=2, sort_keys=True, allow_nan=False) + "\n"
    title, header, columns = output
    row = ",".join("%.16e" if isinstance(col[0], float) else "%s" for col in columns) + "\n"
    cells = chain.from_iterable(zip(*columns))
    # a temporary tuple: the cells are freed before the header is joined on, which copies the text
    return f"# {CSV_VERSION}: {title}\n{','.join(header)}\n" + row * len(columns[0]) % tuple(cells)


def _transform(cfg: ExperimentConfig, measure: SpectralMeasure):
    """z -> C(z), the quadrature transform of ``measure`` under the config's weight and tolerance."""
    return lambda z: evaluate_offaxis(measure, cfg.weight, z, abs_tol=cfg.tolerances.quadrature_abs)


def cmd_probe_limit(cfg: ExperimentConfig) -> tuple:
    warnings = []
    if cfg.evaluator == "matrix":
        model = discretize(cfg.measure, cfg.weight, cfg.n, cfg.embedding_dim, seed=cfg.seed)
        if cfg.regularize:
            ev = lambda z: regularized_resolvent(model, z, cfg.lam)
        else:
            ev = lambda z: sandwiched_resolvent(model, z)
        floor = resolution_floor(model, cfg.lam)
        if cfg.schedule.values[-1] < floor:
            warnings.append(
                f"schedule reaches below 10x the local grid spacing ({floor:.3e}); "
                "discreteness can masquerade as point spectrum there"
            )
    else:
        measure = cfg.measure
        if cfg.regularize:
            atoms = tuple(a for a in measure.atoms if a.location != cfg.lam)
            measure = SpectralMeasure(ac_parts=measure.ac_parts, atoms=atoms)
        ev = _transform(cfg, measure)

    report = limit_probe(ev, cfg.lam, cfg.schedule, tolerance=cfg.tolerances.convergence)
    # each record's own fields, read shallowly; only what JSON cannot hold as is is spelled out
    samples = [s._asdict() for s in report.samples]
    for sample in samples:
        shadow, diff = sample.pop("shadow"), sample["diff"]
        sample.update(re=shadow.real, im=shadow.imag, diff=None if math.isnan(diff) else diff)
    doc = report._asdict()
    est = report.limit_estimate
    doc.update(
        {"lambda": doc.pop("lam")},
        limit_estimate=None if est is None else [est.real, est.imag],
        schedule=asdict(report.schedule),
        samples=samples,
        tolerance=cfg.tolerances.convergence,
        warnings=warnings,
        config=cfg.echo(),
    )
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

    forms = _rungs(lambda z: quadratic_form(model, z), cfg.lam, cfg.schedule)
    transforms = _rungs(_transform(cfg, cfg.measure), cfg.lam, cfg.schedule)
    rows = []
    for sample, tv in zip(forms, transforms):
        y, f, c = sample.y, sample.shadow, tv.shadow
        gap = abs(f - c) / max(abs(c), 1e-300)
        rows.append((y, f.real, f.imag, c.real, c.imag, gap, "SKIPPED" if y < floor else "OK"))
    gaps = [row[5] for row in rows if row[6] == "OK"]
    worst, checked = max(gaps, default=0.0), len(gaps)

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
    result = stone_density(_transform(cfg, cfg.measure), cfg.lam, cfg.schedule)
    reference = cfg.weight(cfg.lam) ** 2 * cfg.measure.density_at(cfg.lam)
    columns = [cfg.schedule.values, result.transform_imag, result.density_estimates]
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
        doc.update(estimate_holder(point, radii, incs)._asdict())
    except DegenerateFit as exc:
        doc.update(dict.fromkeys(HolderEstimate._fields), degenerate=True)
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
        files = {}
        for suffix, out in outputs.items():
            name = f"{cfg.output_prefix}_{suffix}"
            try:
                files[name] = _render(out)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}; no output was written") from exc
        _write_all(Path(args.out), files)
        print(summary)
        return code
    except (ResolventLimitsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
