import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resolvent_limits
from resolvent_limits.cli import load_config, main
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
    # the child imports the same checkout as this process
    src = str(Path(resolvent_limits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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
        env=env,
    )
    assert proc.returncode == 0
    assert "verdict=CONVERGES" in proc.stdout


def test_bad_holder_radius_count_exits_one(tmp_path):
    cfg = write_config(tmp_path / "c.json", holder={"target": "density", "count": 3})
    out = tmp_path / "out"
    assert main(["holder-fit", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
