import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resolvent_limits
from resolvent_limits.cli import ExperimentConfig, load_config, main
from resolvent_limits.errors import ConfigError

FLAT_MEASURE = {
    "ac_parts": [{"kind": "constant", "parameters": {"level": 1.0}, "support": [-1.0, 1.0]}],
    "atoms": [],
}
PLATEAU_WEIGHT = {"kind": "plateau", "parameters": {"center": 0.0, "half_width": 1.0}}
ATOM_MEASURE = {
    "ac_parts": [{"kind": "constant", "parameters": {"level": 0.005}, "support": [-1.0, 1.0]}],
    "atoms": [{"location": 0.0, "mass": 1.0}],
}


def constant_part(level=1.0, support=(-1.0, 1.0), parameters=None):
    return {"kind": "constant", "parameters": parameters or {"level": level}, "support": list(support)}


SMOOTH_BUMP_THREE_EDGES = {
    "kind": "smooth_bump",
    "parameters": {"level": 1.0, "center": 0.0, "half_width": 1.0},
    "support": [-0.5, 0.0, 0.5],
}


ROOT = Path(__file__).resolve().parents[1]
# the child processes import the same checkout as this process
SRC = str(Path(resolvent_limits.__file__).resolve().parents[1])
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def write_config(path, **overrides):
    cfg = {
        "measure": FLAT_MEASURE,
        "weight": PLATEAU_WEIGHT,
        "lambda": 0.0,
        "schedule": {"y_max": 0.1, "y_min": 1e-5, "ratio": 0.5},
        "output_prefix": "t",
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_probe_limit_converges_exit_zero(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out), "--tolerance", "1e-4"]) == 0
    report = json.loads((out / "t_limit_report.json").read_text())
    assert report["verdict"] == "CONVERGES"
    curve = (out / "t_limit_curve.csv").read_text().splitlines()
    assert curve[0].startswith("# resolvent-limits csv v1")
    assert curve[1] == "y,re,im,norm,diff"
    assert len(curve) == 2 + len(report["samples"])


def test_probe_limit_atom_diverges(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        measure=ATOM_MEASURE,
        evaluator="matrix",
        discretization={"n": 13, "embedding_dim": "same"},
        schedule={"y_max": 1e-2, "y_min": 1e-6, "ratio": 0.5},
    )
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "t_limit_report.json").read_text())
    assert report["verdict"] == "DIVERGES"
    assert abs(report["fitted_rate"] + 1.0) < 1e-6
    assert report["warnings"]  # schedule dips below the grid resolution floor


def test_probe_limit_regularized_converges(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        measure=ATOM_MEASURE,
        evaluator="matrix",
        regularize=True,
        discretization={"n": 13, "embedding_dim": "same"},
        schedule={"y_max": 1e-2, "y_min": 1e-6, "ratio": 0.5},
    )
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "t_limit_report.json").read_text())
    assert report["verdict"] == "CONVERGES"


def test_probe_limit_inconclusive_exit_two(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    code = main(
        ["probe-limit", "--config", str(cfg), "--out", str(out), "--tolerance", "1e-30"]
    )
    assert code == 2
    report = json.loads((out / "t_limit_report.json").read_text())
    assert report["verdict"] == "INCONCLUSIVE"


def test_bad_config_exit_one_and_no_outputs(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{ not json")
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    doc = json.loads(cfg.read_text())
    doc["typo_field"] = 1
    cfg.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_epsilon_key_is_gone(tmp_path):
    cfg = write_config(tmp_path / "c.json", epsilon=0.25)
    with pytest.raises(ConfigError):
        load_config(cfg)


@pytest.mark.parametrize("command", ["compactness", "holder-fit"])
def test_tolerance_is_a_usage_error_where_it_sets_nothing(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(cfg), "--out", str(out), "--tolerance", "1e-3"])
    assert info.value.code == 2
    assert "--tolerance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_tolerance_flag_must_be_finite(tmp_path, capsys, value):
    # --tolerance nan used to run a probe and write "tolerance": NaN
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["probe-limit", "--config", str(cfg), "--out", str(out), f"--tolerance={value}"])
    assert info.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_compare_oracle_runs_and_skips(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        discretization={"n": 2000, "embedding_dim": "same"},
        schedule={"y_max": 0.1, "y_min": 1e-4, "ratio": 0.5},
    )
    out = tmp_path / "out"
    assert main(["compare-oracle", "--config", str(cfg), "--out", str(out)]) == 0
    table = (out / "t_oracle_table.csv").read_text().splitlines()
    statuses = [line.split(",")[-1] for line in table[2:]]
    assert "OK" in statuses
    assert "SKIPPED" in statuses  # tail of the schedule is below 10x spacing


def test_compare_oracle_coarse_model_all_skipped(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        discretization={"n": 2, "embedding_dim": "same"},
        schedule={"y_max": 1e-3, "y_min": 1e-6, "ratio": 0.5},
    )
    out = tmp_path / "out"
    assert main(["compare-oracle", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "t_oracle_summary.json").read_text())
    assert summary["checked_rows"] == 0


def test_compactness_exit_codes(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        weight={"kind": "hat", "parameters": {"center": 0.0, "half_width": 1.0}},
        compactness={"s": 1.0, "radii": [0.3, 0.6, 1.0, 1.5]},
    )
    out = tmp_path / "out"
    assert main(["compactness", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "t_sup_bounds.csv").read_text().splitlines()[2:]
    sups = [float(r.split(",")[1]) for r in rows]
    assert sups == sorted(sups, reverse=True)
    assert sups[-1] == 0.0

    bad = write_config(tmp_path / "bad.json", compactness={"s": 0.5, "radii": [1.0]})
    out2 = tmp_path / "out2"
    assert main(["compactness", "--config", str(bad), "--out", str(out2)]) == 1
    assert not out2.exists()


def test_stone_density_outputs(tmp_path):
    cfg = write_config(tmp_path / "c.json", **{"lambda": 0.3})
    out = tmp_path / "out"
    assert main(["stone-density", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "t_stone_summary.json").read_text())
    assert abs(summary["extrapolated"] - summary["catalog_reference"]) < 1e-4


def test_stone_density_rejects_atom_probe(tmp_path):
    cfg = write_config(tmp_path / "c.json", measure=ATOM_MEASURE)
    assert main(["stone-density", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_holder_fit_density_and_degenerate_weight(tmp_path):
    bump = {
        "ac_parts": [
            {
                "kind": "power_bump",
                "parameters": {"level": 1.0, "exponent": 0.5, "center": 0.0},
                "support": [-1.0, 1.0],
            }
        ],
        "atoms": [],
    }
    cfg = write_config(tmp_path / "c.json", measure=bump, holder={"target": "density"})
    out = tmp_path / "out"
    assert main(["holder-fit", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "t_holder_fit.json").read_text())
    assert abs(doc["alpha_hat"] - 0.5) < 0.1

    cfg2 = write_config(tmp_path / "c2.json", holder={"target": "weight", "r_max": 0.25})
    out2 = tmp_path / "out2"
    assert main(["holder-fit", "--config", str(cfg2), "--out", str(out2)]) == 0
    doc2 = json.loads((out2 / "t_holder_fit.json").read_text())
    assert doc2["degenerate"] is True  # plateau weight is locally constant


def test_holder_fit_evaluates_each_point_once(tmp_path, monkeypatch):
    # the table and the fit share one set of increments: f(lam) and f(lam +- r)
    calls = []
    density_at = resolvent_limits.SpectralMeasure.density_at

    def counted(measure, x):
        calls.append(x)
        return density_at(measure, x)

    monkeypatch.setattr(resolvent_limits.SpectralMeasure, "density_at", counted)
    config = ROOT / "configs" / "holder_fit.json"
    assert main(["holder-fit", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert len(calls) == 2 * json.loads(config.read_text())["holder"]["count"] + 1 == 21


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        measure=ATOM_MEASURE,
        evaluator="matrix",
        discretization={"n": 13, "embedding_dim": "same"},
        schedule={"y_max": 1e-2, "y_min": 1e-6, "ratio": 0.5},
        seed=11,
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("t_limit_report.json", "t_limit_curve.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "resolvent_limits.cli",
            "probe-limit",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--tolerance",
            "1e-4",
        ],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "verdict=CONVERGES" in proc.stdout


def test_bad_holder_radius_count_exits_one(tmp_path):
    cfg = write_config(tmp_path / "c.json", holder={"target": "density", "count": 3})
    out = tmp_path / "out"
    assert main(["holder-fit", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_omitted_keys_take_the_dataclass_defaults(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"measure": FLAT_MEASURE, "weight": PLATEAU_WEIGHT}))
    loaded = load_config(cfg)
    assert loaded == ExperimentConfig(measure=loaded.measure, weight=loaded.weight)


@pytest.mark.parametrize("dim", [0, -2, 5.7, True, "5", None])
def test_embedding_dim_must_be_same_or_positive_integer(tmp_path, dim):
    cfg = write_config(
        tmp_path / "c.json",
        measure=ATOM_MEASURE,
        evaluator="matrix",
        discretization={"n": 13, "embedding_dim": dim},
    )
    with pytest.raises(ConfigError, match="embedding_dim"):
        load_config(cfg)
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("regularize", {"regularize": "false"}),
        ("regularize", {"regularize": 0}),
        ("n", {"discretization": {"n": 13.9}}),
        ("n", {"discretization": {"n": True}}),
        ("n", {"discretization": {"n": "13"}}),
        ("seed", {"seed": 0.5}),
        ("holder count", {"holder": {"count": 10.0}}),
        ("lambda", {"lambda": "0.3"}),
        ("lambda", {"lambda": True}),
        ("lambda", {"lambda": float("nan")}),
        ("lambda", {"lambda": 10**400}),
        ("schedule y_min", {"schedule": {"y_max": 0.1, "y_min": float("-inf"), "ratio": 0.5}}),
        ("schedule ratio", {"schedule": {"y_max": 0.1, "y_min": 1e-5, "ratio": "0.5"}}),
        ("tolerances convergence", {"tolerances": {"convergence": "1e-4"}}),
        ("compactness s", {"compactness": {"s": False}}),
        ("compactness radii", {"compactness": {"s": 1.0, "radii": [0.5, "1"]}}),
        ("holder point", {"holder": {"point": float("nan")}}),
        ("holder r_max", {"holder": {"r_max": float("inf")}}),
        ("holder ratio", {"holder": {"ratio": None}}),
        ("output_prefix", {"output_prefix": 5}),
        ("level", {"measure": {"ac_parts": [constant_part(level="1.0")]}}),
        ("level", {"measure": {"ac_parts": [constant_part(level=True)]}}),
        ("support", {"measure": {"ac_parts": [constant_part(support=("-1", True))]}}),
        ("half_width", {"weight": {"kind": "plateau", "parameters": {"center": 0.0, "half_width": "1"}}}),
        ("support", {"weight": {**PLATEAU_WEIGHT, "support": [-1.0, True]}}),
        ("location", {"measure": {"atoms": [{"location": "0.5", "mass": 1.0}]}}),
        ("mass", {"measure": {"atoms": [{"location": 0.5, "mass": True}]}}),
        ("measure", {"measure": 5}),
        ("weight", {"weight": [PLATEAU_WEIGHT]}),
        ("parameters", {"measure": {"ac_parts": [constant_part(parameters=[1])]}}),
        ("atom", {"measure": {**FLAT_MEASURE, "atom": []}}),
        ("suport", {"weight": {**PLATEAU_WEIGHT, "suport": [-1.0, 1.0]}}),
        ("support", {"measure": {"ac_parts": [SMOOTH_BUMP_THREE_EDGES]}}),
    ],
    ids=[
        "regularize-string", "regularize-zero", "n-float", "n-bool", "n-string", "seed-float", "count-float",
        "lambda-string", "lambda-bool", "lambda-nan", "lambda-huge-int", "y_min-inf", "ratio-string",
        "convergence-string", "s-bool", "radii-string", "point-nan", "r_max-inf", "ratio-null", "prefix-int",
        "level-string", "level-bool", "support-string-bool", "half_width-string", "weight-support-bool",
        "location-string", "mass-bool", "measure-int", "weight-list", "parameters-list", "measure-atom-typo",
        "weight-suport-typo", "support-three-edges",
    ],
)
def test_config_types_are_exact(tmp_path, key, overrides):
    # a string "false" used to run a regularized probe, 13.9 became n = 13,
    # "0.3" became lambda = 0.3, and lambda = NaN ran a probe on NaN; a
    # measure level "1.0" or true loaded as 1.0, "measure": 5 escaped as an
    # AttributeError, a misspelt "atom" key was ignored, and a smooth_bump
    # support of three edges loaded as its first two
    cfg = write_config(tmp_path / "c.json", **{"measure": ATOM_MEASURE, "evaluator": "matrix", **overrides})
    with pytest.raises(ConfigError, match=key):
        load_config(cfg)
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_integer_numbers_read_as_floats(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path / "c.json",
            **{"lambda": 0},
            holder={"point": 1, "r_max": 1},
            measure={"ac_parts": [constant_part(level=1, support=(-1, 1))], "atoms": [{"location": 0, "mass": 2}]},
            weight={"kind": "plateau", "parameters": {"center": 0, "half_width": 1}, "support": [-1, 1]},
        )
    )
    assert type(cfg.lam) is float and type(cfg.holder_point) is float and type(cfg.holder_r_max) is float
    assert cfg.echo()["lambda"] == 0.0
    part, atom = cfg.measure.ac_parts[0], cfg.measure.atoms[0]
    numbers = [*part.parameters.values(), *part.support, atom.location, atom.mass, *cfg.weight.parameters.values()]
    assert all(type(v) is float for v in numbers)


# The README output table: per command, each file suffix with its CSV title
# and header row, or None for a JSON report.
OUTPUTS = {
    "probe-limit": {
        "limit_report.json": None,
        "limit_curve.csv": ("probe-limit curve", "y,re,im,norm,diff"),
    },
    "compare-oracle": {
        "oracle_summary.json": None,
        "oracle_table.csv": ("compare-oracle table", "y,form_re,form_im,transform_re,transform_im,rel_gap,status"),
    },
    "compactness": {
        "singular_values.csv": ("compactness singular values", "index,sigma"),
        "sup_bounds.csv": ("compactness tail sups", "radius,sup_bound"),
    },
    "stone-density": {
        "stone_summary.json": None,
        "stone_density.csv": ("stone-density curve", "y,im_transform,density_estimate"),
    },
    "holder-fit": {
        "holder_fit.json": None,
        "holder_increments.csv": ("holder-fit increments", "radius,mean_increment"),
    },
}


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "configs").glob("*.json")))
def test_shipped_config_runs(tmp_path, capsys, config):
    command = "probe-limit" if config.startswith("probe_limit") else config[: -len(".json")].replace("_", "-")
    path = ROOT / "configs" / config
    prefix = json.loads(path.read_text()).get("output_prefix", "run")
    runs = []
    for out in (tmp_path / "r1", tmp_path / "r2"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert set(runs[0]) == {f"{prefix}_{suffix}" for suffix in OUTPUTS[command]}
    assert runs[0] == runs[1]  # byte-identical reruns
    for suffix, table in OUTPUTS[command].items():
        text = runs[0][f"{prefix}_{suffix}"].decode()
        if table is None:
            assert isinstance(json.loads(text), dict)
        else:
            title, header = table
            assert text.split("\n")[:2] == [f"# resolvent-limits csv v1: {title}", header]
    summaries = capsys.readouterr().out.splitlines()  # one summary line per run
    assert len(summaries) == 2 and summaries[0] == summaries[1] and summaries[0].startswith(f"{command}: ")


def test_holder_rates_script_runs(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "run_holder_rates.py"),
            "--alphas",
            "0.5",
            "--steps",
            "8",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "rates.csv").read_text().splitlines()) == 1 + 8
