"""Every end-to-end console case of the toolkit, as one table, and the one
checker every case goes through.

A row names a case, its argv (the program and its arguments; `fault` adds
--config and --out), its config, the exit codes it may give, the pattern of
its one stderr line after "error: " (None: no stderr) and any extra check of
its output directory and stdout.  A config is a shipped file, or an object
(written as JSON) or a text (written as is) in the row's working directory.

Tier-1 (`tests/test_cli.py::test_console_case`) runs every row through
`resolvent_limits.cli.main` in process; CI runs every row through the
installed `resolvent-limits`.  `fault` gives every row the same checks:

- an exit-1 row prints exactly one `error: <pattern>` line and nothing on
  stdout, and leaves its working directory holding only its config: no
  output directory, and no file an output_prefix such as "../escaped" would
  put beside it;
- any other row prints nothing on stderr, writes only strict JSON (no NaN or
  Infinity token), and passes its extra check.

This module imports neither pytest nor the package, so CI can import it
beside the installed package.
"""

import hashlib
import json
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
CLI = "resolvent-limits"


class Row(NamedTuple):
    name: str
    argv: tuple
    config: object  # a Path, a dict, a str, or None for no --config
    codes: frozenset
    error: str | None = None  # the regex of the one stderr line after "error: "
    check: Callable[[Path, str], bool] | None = None  # (output directory, stdout)


def strict_json(path):
    """A JSON file's value, refusing the NaN and Infinity tokens that strict JSON has not."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def command(config: str) -> str:
    """The command a shipped config is for, from its file name."""
    return "probe-limit" if config.startswith("probe_limit") else config[: -len(".json")].replace("_", "-")


def digests(files: dict) -> dict:
    """The sha256 of each file's bytes, by file name."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}


def config_path(row: Row, workdir: Path) -> Path | None:
    """The row's config file: a shipped file as it is, an object or a text
    written to `workdir`/c.json."""
    if row.config is None or isinstance(row.config, Path):
        return row.config
    path = workdir / "c.json"
    path.write_text(row.config if isinstance(row.config, str) else json.dumps(row.config), encoding="utf-8")
    return path


def fault(row: Row, run, workdir: Path) -> str | None:
    """Run one row in the empty directory `workdir`; what it got wrong, or
    None.  `run(argv)` gives the exit code, stdout and stderr of one run."""
    try:
        config = config_path(row, workdir)
        argv = [*row.argv, *(["--config", str(config)] if config else [])]
        code, stdout, stderr = run([*argv, "--out", str(workdir / "out")])
        if code not in row.codes:
            return f"exit {code}, not one of {sorted(row.codes)}"
        if code == 1:
            if not re.fullmatch(f"error: {row.error}\n", stderr):
                return f"stderr {stderr!r} is not one line matching 'error: {row.error}'"
            if stdout:
                return f"it wrote {stdout!r} to stdout"
            left = sorted(p.name for p in workdir.iterdir())
            return None if left == ([config.name] if config and config.parent == workdir else []) else f"it left {left}"
        if stderr:
            return f"it wrote {stderr!r} to stderr"
        for output in (workdir / "out").rglob("*.json"):
            strict_json(output)
        return None if row.check is None or row.check(workdir / "out", stdout) else "its output check failed"
    except (OSError, ValueError, KeyError) as exc:
        return repr(exc)


def refusal(name: str, config, message: str) -> Row:
    """A probe-limit run on a config the reader refuses with `message`."""
    return Row(name, (CLI, "probe-limit"), config, frozenset({1}), re.escape(message))


# the base config of the refusals: each replaces some of its keys
FLAT_MEASURE = {
    "ac_parts": [{"kind": "constant", "parameters": {"level": 1.0}, "support": [-1.0, 1.0]}],
    "atoms": [],
}
PLATEAU_WEIGHT = {"kind": "plateau", "parameters": {"center": 0.0, "half_width": 1.0}}
ATOM_MEASURE = {
    "ac_parts": [{"kind": "constant", "parameters": {"level": 0.005}, "support": [-1.0, 1.0]}],
    "atoms": [{"location": 0.0, "mass": 1.0}],
}
BASE = {
    "measure": FLAT_MEASURE,
    "weight": PLATEAU_WEIGHT,
    "lambda": 0.0,
    "schedule": {"y_max": 0.1, "y_min": 1e-5, "ratio": 0.5},
    "output_prefix": "t",
}


def constant_part(level=1.0, support=(-1.0, 1.0), parameters=None):
    return {"kind": "constant", "parameters": parameters or {"level": level}, "support": list(support)}


SMOOTH_BUMP_THREE_EDGES = {
    "kind": "smooth_bump",
    "parameters": {"level": 1.0, "center": 0.0, "half_width": 1.0},
    "support": [-0.5, 0.0, 0.5],
}


def _ac_parts(*parts):
    return {"measure": {"ac_parts": list(parts)}}


def _finite(key, value):
    return f"{key} must be a finite number, got {value!r}"


# a key of the wrong type or out of its range, on a matrix probe of an atom:
# a string "false" used to run a regularized probe, 13.9 became n = 13, "0.3"
# became lambda = 0.3, and lambda = NaN ran a probe on NaN; a measure level
# "1.0" or true loaded as 1.0, "measure": 5 escaped as an AttributeError, a
# misspelt "atom" key was ignored, a smooth_bump support of three edges loaded
# as its first two, an output_prefix "../escaped" wrote its files beside the
# output directory, one of 234 bytes wrote one output before the next name
# overran 255 bytes, and a lone surrogate failed to encode with a message that
# named no key
TYPE_ERRORS = [
    refusal(name, {**BASE, "measure": ATOM_MEASURE, "evaluator": "matrix", **overrides}, message)
    for name, overrides, message in [
        ("regularize-string", {"regularize": "false"}, "regularize must be true or false, got 'false'"),
        ("regularize-zero", {"regularize": 0}, "regularize must be true or false, got 0"),
        ("n-float", {"discretization": {"n": 13.9}}, "discretization n must be an integer, got 13.9"),
        ("n-bool", {"discretization": {"n": True}}, "discretization n must be an integer, got True"),
        ("n-string", {"discretization": {"n": "13"}}, "discretization n must be an integer, got '13'"),
        ("seed-float", {"seed": 0.5}, "seed must be an integer, got 0.5"),
        ("count-float", {"holder": {"count": 10.0}}, "holder count must be an integer, got 10.0"),
        ("lambda-string", {"lambda": "0.3"}, _finite("lambda", "0.3")),
        ("lambda-bool", {"lambda": True}, _finite("lambda", True)),
        ("lambda-nan", {"lambda": float("nan")}, _finite("lambda", float("nan"))),
        ("lambda-huge-int", {"lambda": 10**400}, _finite("lambda", 10**400)),
        (
            "y_min-inf",
            {"schedule": {"y_max": 0.1, "y_min": float("-inf"), "ratio": 0.5}},
            _finite("schedule y_min", float("-inf")),
        ),
        ("ratio-string", {"schedule": {"y_max": 0.1, "y_min": 1e-5, "ratio": "0.5"}}, _finite("schedule ratio", "0.5")),
        ("convergence-string", {"tolerances": {"convergence": "1e-4"}}, _finite("tolerances convergence", "1e-4")),
        ("s-bool", {"compactness": {"s": False}}, _finite("compactness s", False)),
        ("radii-string", {"compactness": {"s": 1.0, "radii": [0.5, "1"]}}, _finite("compactness radii", "1")),
        ("radii-not-array", {"compactness": {"radii": "12"}}, "compactness radii must be a JSON array, got '12'"),
        ("point-nan", {"holder": {"point": float("nan")}}, _finite("holder point", float("nan"))),
        ("r_max-inf", {"holder": {"r_max": float("inf")}}, _finite("holder r_max", float("inf"))),
        ("ratio-null", {"holder": {"ratio": None}}, _finite("holder ratio", None)),
        ("prefix-int", {"output_prefix": 5}, "output_prefix must be a string, got 5"),
        *[
            (
                name,
                {"output_prefix": prefix},
                f"output_prefix must be a file name prefix with no path separator or NUL, got {prefix!r}",
            )
            for name, prefix in [("prefix-parent-dir", "../escaped"), ("prefix-subdir", "sub/x"), ("prefix-nul", "a\0b")]
        ],
        ("prefix-too-long", {"output_prefix": "a" * 234}, "output_prefix must take at most 229 UTF-8 bytes, got 234"),
        ("prefix-too-long-utf8", {"output_prefix": "é" * 115}, "output_prefix must take at most 229 UTF-8 bytes, got 230"),
        ("prefix-lone-surrogate", {"output_prefix": "\ud800"}, "output_prefix must be UTF-8 text, got '\\ud800'"),
        ("level-string", _ac_parts(constant_part(level="1.0")), _finite("measure parameters level", "1.0")),
        ("level-bool", _ac_parts(constant_part(level=True)), _finite("measure parameters level", True)),
        ("support-string-bool", _ac_parts(constant_part(support=("-1", True))), _finite("measure support", "-1")),
        (
            "half_width-string",
            {"weight": {"kind": "plateau", "parameters": {"center": 0.0, "half_width": "1"}}},
            _finite("weight parameters half_width", "1"),
        ),
        ("weight-support-bool", {"weight": {**PLATEAU_WEIGHT, "support": [-1.0, True]}}, _finite("weight support", True)),
        ("location-string", {"measure": {"atoms": [{"location": "0.5", "mass": 1.0}]}}, _finite("atom location", "0.5")),
        ("mass-bool", {"measure": {"atoms": [{"location": 0.5, "mass": True}]}}, _finite("atom mass", True)),
        ("measure-int", {"measure": 5}, "measure must be a JSON object, got 5"),
        ("weight-list", {"weight": [PLATEAU_WEIGHT]}, f"weight must be a JSON object, got {[PLATEAU_WEIGHT]!r}"),
        ("parameters-int-list", _ac_parts(constant_part(parameters=[1])), "measure parameters must be a JSON object, got [1]"),
        ("measure-atom-typo", {"measure": {**FLAT_MEASURE, "atom": []}}, "unknown keys in measure: ['atom']"),
        ("weight-suport-typo", {"weight": {**PLATEAU_WEIGHT, "suport": [-1.0, 1.0]}}, "unknown keys in weight: ['suport']"),
        (
            "support-three-edges",
            _ac_parts(SMOOTH_BUMP_THREE_EDGES),
            "bad config value: support must be an interval [lo, hi], got (-0.5, 0.0, 0.5)",
        ),
        (
            "hat-half_width-zero",
            {"weight": {"kind": "hat", "parameters": {"center": 0.0, "half_width": 0.0}}},
            "bad config value: hat half_width must be positive",
        ),
        *[
            (f"{k}-{v}", {"tolerances": {k: float(v)}}, _finite(f"tolerances {k}", float(v)))
            for k in ("quadrature_abs", "convergence", "oracle_rel_gap")
            for v in ("nan", "inf", "-inf")
        ],
    ]
]

# a malformed measure or weight entry: the message names the entry and the key at fault
MALFORMED_MEASURE_OR_WEIGHT = [
    refusal(name, {**BASE, **overrides}, message)
    for name, overrides, message in [
        ("ac-parts-entry-int", _ac_parts(5), "measure ac_parts entry must be a JSON object, got 5"),
        (
            "ac-parts-entry-unknown-key",
            _ac_parts({**constant_part(), "color": 1}),
            "unknown keys in measure ac_parts entry: ['color']",
        ),
        ("parameter-string", _ac_parts(constant_part(level="1.0")), _finite("measure parameters level", "1.0")),
        ("support-edge-bool", _ac_parts(constant_part(support=(True, 1.0))), _finite("measure support", True)),
        ("atom-location-string", {"measure": {"atoms": [{"location": "0", "mass": 1.0}]}}, _finite("atom location", "0")),
        ("atom-list", {"measure": {"atoms": [[0.0, 1.0]]}}, "measure atom must be a JSON object, got [0.0, 1.0]"),
        ("parameters-list", _ac_parts(constant_part(parameters=[1.0])), "measure parameters must be a JSON object, got [1.0]"),
        (
            "kind-missing",
            {"measure": {"ac_parts": [{"parameters": {"level": 1.0}, "support": [-1.0, 1.0]}]}},
            "measure ac_parts entry is missing key 'kind'",
        ),
        (
            "parameters-missing",
            {"measure": {"ac_parts": [{"kind": "constant", "support": [-1.0, 1.0]}]}},
            "measure ac_parts entry is missing key 'parameters'",
        ),
        ("atom-location-missing", {"measure": {"atoms": [{"mass": 1.0}]}}, "measure atom is missing key 'location'"),
        ("atom-mass-missing", {"measure": {"atoms": [{"location": 0.0}]}}, "measure atom is missing key 'mass'"),
        ("weight-kind-missing", {"weight": {"parameters": {"center": 0.0, "half_width": 1.0}}}, "weight is missing key 'kind'"),
        ("weight-unknown-key", {"weight": {**PLATEAU_WEIGHT, "shape": 1}}, "unknown keys in weight: ['shape']"),
        (
            "weight-parameter-string",
            {"weight": {"kind": "plateau", "parameters": {"center": 0.0, "half_width": "1"}}},
            _finite("weight parameters half_width", "1"),
        ),
        (
            "weight-support-mismatch",
            {"weight": {**PLATEAU_WEIGHT, "support": [-2.0, 2.0]}},
            "weight support [-2.0, 2.0] does not match center ± half_width [-1.0, 1.0]",
        ),
        ("ac-parts-int", {"measure": {"ac_parts": 5}}, "measure ac_parts must be a JSON array, got 5"),
        ("support-string", _ac_parts({**constant_part(), "support": "ab"}), "measure support must be a JSON array, got 'ab'"),
        (
            "atoms-object",
            {"measure": {"atoms": {"location": 0, "mass": 1}}},
            "measure atoms must be a JSON array, got {'location': 0, 'mass': 1}",
        ),
        (
            "weight-support-float",
            {"weight": {**PLATEAU_WEIGHT, "support": 1.0}},
            "weight support must be a JSON array, got 1.0",
        ),
        ("kind-list", _ac_parts({**constant_part(), "kind": ["constant"]}), "measure kind must be a string, got ['constant']"),
        (
            "weight-kind-list",
            {"weight": {**PLATEAU_WEIGHT, "kind": ["plateau"]}},
            "weight kind must be a string, got ['plateau']",
        ),
    ]
]

# a config text no JSON object can stand for: a key named twice in one
# object, at the top level or in a catalog entry's parameters
CONFIG_TEXT_ERRORS = [
    refusal(name, text % json.dumps(PLATEAU_WEIGHT), message)
    for name, text, message in [
        (
            "top-level-key-twice",
            '{"measure": {"atoms": []}, "weight": %s, "lambda": 0.0, "lambda": 0.3}',
            "config names 'lambda' more than once in one object",
        ),
        (
            "parameters-key-twice",
            '{"measure": {"ac_parts": [{"kind": "constant", "parameters": {"level": 1.0, "level": 2.0}}]}, "weight": %s}',
            "config names 'level' more than once in one object",
        ),
        ("measure-missing", '{"weight": %s}', "config is missing key 'measure'"),
    ]
]

# each shipped config, run twice: both runs give the sha256 digests pinned in
# tests/config_golden.json (`PYTHONPATH=src python tests/test_cli.py` prints
# the record the current code gives) and the one summary line pinned here
GOLDEN = json.loads((ROOT / "tests" / "config_golden.json").read_text())
SHIPPED = sorted((ROOT / "configs").glob("*.json"))
assert sorted(GOLDEN) == [config.name for config in SHIPPED], "tests/config_golden.json is not the shipped set"
SUMMARIES = {
    "compactness.json": "compactness: s=1.0 sigma_max=1.407195e-01 final_sup=0.000e+00",
    "compare_oracle.json": "compare-oracle: worst_rel_gap=5.142e-08 checked=6 passed=True",
    "holder_fit.json": "holder-fit: alpha_hat=0.5",
    "probe_limit_atom.json": "probe-limit: verdict=DIVERGES fitted_rate=-1.0000",
    "probe_limit_continuum.json": "probe-limit: verdict=CONVERGES fitted_rate=0.9998",
    "probe_limit_regularized.json": "probe-limit: verdict=CONVERGES fitted_rate=0.9995",
    "stone_density.json": "stone-density: extrapolated=0.91844590 reference=0.91844591",
}


def _shipped_check(config: str):
    def check(out, stdout):
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        return digests(files) == GOLDEN[config] and stdout == SUMMARIES[config] + "\n"

    return check


SHIPPED_RUNS = [
    Row(f"{config.stem}-{run}", (CLI, command(config.name)), config, frozenset({0}), None, _shipped_check(config.name))
    for config in SHIPPED
    for run in "ab"
]

# a ladder to y = 1e-320 overflows c/(x - z) at an atom node: the first rung
# that is not finite is refused, with no numpy warning before it, on the
# identity model, on an embedded one, and on compare-oracle's ladders over an
# atom-only measure (whose model has no resolution floor) or at the shipped
# config's atom, where the NaN relative gap was dropped by max() and the run
# passed
SHIPPED_ATOM, ORACLE, STONE = (
    json.loads((ROOT / "configs" / f"{name}.json").read_text()) for name in ("probe_limit_atom", "compare_oracle", "stone_density")
)
SUBNORMAL_LADDER = {"y_max": 0.01, "y_min": 1e-320, "ratio": 0.5}
NOT_FINITE = r"evaluator failed at y=[^:]+: FloatingPointError\('sample is not finite: [^\n]*'\)"
ATOM_ONLY_LADDER = {
    "measure": {"atoms": [{"location": 0.0, "mass": 1.0}]},
    "weight": PLATEAU_WEIGHT,
    "lambda": 0.0,
    "schedule": {"y_max": 1e-300, "y_min": 1e-320, "ratio": 0.5},
}
NOT_FINITE_LADDERS = [
    Row(name, (CLI, cmd), config, frozenset({1}), NOT_FINITE)
    for name, cmd, config in [
        ("atom-ladder", "probe-limit", {**SHIPPED_ATOM, "schedule": SUBNORMAL_LADDER}),
        (
            "embedded-atom-ladder",
            "probe-limit",
            {**SHIPPED_ATOM, "schedule": SUBNORMAL_LADDER, "discretization": {"n": 13, "embedding_dim": 6}},
        ),
        ("atom-only-compare-oracle", "compare-oracle", {**ORACLE, **ATOM_ONLY_LADDER}),
        (
            "shipped-config-at-its-atom",
            "compare-oracle",
            {**ORACLE, "lambda": 0.7, "schedule": {**SUBNORMAL_LADDER, "y_max": 0.1}},
        ),
    ]
]


def _stone_gap(out):
    summary = strict_json(out / "stone_stone_summary.json")
    return abs(summary["extrapolated"] - summary["catalog_reference"])


CUSP = {"kind": "power_bump", "parameters": {"level": 1.0, "exponent": 0.5, "center": 0.3}, "support": [-1.0, 1.0]}
ROWS = [
    *SHIPPED_RUNS,
    *TYPE_ERRORS,
    *MALFORMED_MEASURE_OR_WEIGHT,
    *CONFIG_TEXT_ERRORS,
    *NOT_FINITE_LADDERS,
    # at a power-bump cusp the node on Re z keeps its zero term at subnormal y,
    # so every rung is finite; the verdict is not pinned (most rungs miss the
    # 1e-10 quadrature target at the cusp)
    Row(
        "cusp-ladder",
        (CLI, "probe-limit"),
        {
            **BASE,
            "measure": {"ac_parts": [CUSP]},
            "weight": {**PLATEAU_WEIGHT, "parameters": {"center": 0.0, "half_width": 2.0}},
            "lambda": 0.3,
            "evaluator": "transform",
            "schedule": SUBNORMAL_LADDER,
        },
        frozenset({0, 2}),
        check=lambda out, stdout: len(strict_json(out / "t_limit_report.json")["samples"]) == 1057,
    ),
    # below about 1e-162 the squares of the ladder's y underflow to 0; the fit
    # still reads the catalog density
    Row(
        "stone-density-below-1e-162",
        (CLI, "stone-density"),
        {**STONE, "schedule": {"y_max": 1e-170, "y_min": 1e-180, "ratio": 0.5}},
        frozenset({0}),
        check=lambda out, stdout: _stone_gap(out) <= 1e-12,
    ),
    # the Holder-rate script: every default exponent over 8 rungs
    Row(
        "holder-rates",
        (sys.executable, str(ROOT / "scripts" / "run_holder_rates.py"), "--steps", "8"),
        None,
        frozenset({0}),
        check=lambda out, stdout: len((out / "rates.csv").read_text().splitlines()) == 1 + 4 * 8,
    ),
]
assert len({row.name for row in ROWS}) == len(ROWS), "two rows share a name"
