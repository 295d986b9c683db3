import contextlib
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import resolvent_limits
from resolvent_limits import (
    SAME,
    DensityFamily,
    SpectralMeasure,
    WeightFunction,
    YSchedule,
    compactness_probe,
    discretize,
    evaluate_offaxis,
)
from resolvent_limits.cli import (
    _COMMANDS,
    CSV_VERSION,
    MAX_PREFIX_BYTES,
    ExperimentConfig,
    _render,
    cmd_compactness,
    cmd_stone_density,
    load_config,
    main,
)
from resolvent_limits.errors import ConfigError

from conftest import spectral_measures, weight_functions

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


COMMANDS = ["probe-limit", "compare-oracle", "compactness", "stone-density", "holder-fit"]
TOLERANCE_KEYS = ["quadrature_abs", "convergence", "oracle_rel_gap"]
NON_FINITE_TOLERANCES = [(k, v) for k in TOLERANCE_KEYS for v in ("nan", "inf", "-inf")]

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


def strict_json(path):
    """A JSON file's value, refusing the NaN and Infinity tokens that strict JSON has not."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_probe_limit_converges_exit_zero(tmp_path):
    cfg = write_config(tmp_path / "c.json", tolerances={"convergence": 1e-4})
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "t_limit_report.json").read_text())
    assert report["verdict"] == "CONVERGES"
    curve = (out / "t_limit_curve.csv").read_text().splitlines()
    assert curve[0].startswith("# resolvent-limits csv v1")
    assert curve[1] == "y,re,im,norm,diff"
    assert len(curve) == 2 + len(report["samples"])


def test_probe_limit_report_gives_each_samples_accounting(tmp_path):
    cfg = write_config(tmp_path / "c.json", tolerances={"convergence": 1e-4})
    out = tmp_path / "out"
    main(["probe-limit", "--config", str(cfg), "--out", str(out)])
    for sample in json.loads((out / "t_limit_report.json").read_text())["samples"]:
        assert 0.0 <= sample["abs_error_estimate"] <= 1e-10
        assert sample["panels"] > 0 and sample["tolerance_met"] is True


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
    cfg = write_config(tmp_path / "c.json", tolerances={"convergence": 1e-30})
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "t_limit_report.json").read_text())
    assert report["verdict"] == "INCONCLUSIVE"


def test_bad_config_exit_one_and_no_outputs(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{ not json")
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_a_config_that_is_not_utf8_is_not_valid_json(tmp_path, capsys):
    # a leading 0xff byte used to exit with a bare codec error
    cfg = tmp_path / "c.json"
    cfg.write_bytes(b"\xff" + write_config(tmp_path / "ok.json").read_bytes())
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: config is not valid JSON: 'utf-8' codec can't decode byte 0xff")
    assert not out.exists()


def test_a_utf8_config_loads_under_an_ascii_locale(tmp_path):
    # the config is read as UTF-8 bytes, not in the locale's encoding
    cfg = write_config(tmp_path / "c.json", output_prefix="é")
    cfg.write_text(cfg.read_text().replace("\\u00e9", "é"), encoding="utf-8")
    env = dict(CHILD_ENV, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    code = (
        "import codecs, locale, sys; from resolvent_limits.cli import load_config; "
        "print(codecs.lookup(locale.getpreferredencoding(False)).name, ascii(load_config(sys.argv[1]).output_prefix))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(cfg)], env=env, capture_output=True, text=True)
    assert proc.stdout.split() == ["ascii", "'\\xe9'"], proc.stderr


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


@pytest.mark.parametrize("command", COMMANDS)
def test_override_flags_are_usage_errors(tmp_path, capsys, command):
    # the config is a run's only input: --seed and --tolerance used to
    # override its seed and a command's decision tolerance
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    for flag, value in (("--seed", "3"), ("--tolerance", "1e-3")):
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(cfg), "--out", str(out), flag, value])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
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


def test_compare_oracle_table_does_not_read_the_seed(tmp_path):
    tables = []
    for seed in (0, 7):
        cfg = write_config(tmp_path / f"c{seed}.json", discretization={"n": 500, "embedding_dim": "same"}, seed=seed)
        out = tmp_path / f"out{seed}"
        assert main(["compare-oracle", "--config", str(cfg), "--out", str(out)]) == 0
        tables.append((out / "t_oracle_table.csv").read_bytes())
    assert tables[0] == tables[1]


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


def test_compactness_exit_codes(tmp_path, capsys):
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

    capsys.readouterr()
    for name, section in (("s-half", {"s": 0.5, "radii": [1.0]}), ("no-radii", {"s": 1.0, "radii": []})):
        bad = write_config(tmp_path / f"{name}.json", compactness=section)
        out2 = tmp_path / name
        assert main(["compactness", "--config", str(bad), "--out", str(out2)]) == 1
        assert not out2.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_compactness_on_a_model_with_no_nodes_is_an_error(tmp_path, capsys):
    """A zero density and no atoms: discretize prunes every node, so there
    is no singular value for the summary line or the CSV."""
    cfg = write_config(
        tmp_path / "c.json",
        measure={"ac_parts": [constant_part(level=0.0)], "atoms": []},
        weight={"kind": "hat", "parameters": {"center": 0.0, "half_width": 1.0}},
        discretization={"n": 50},
    )
    out = tmp_path / "out"
    assert main(["compactness", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out.exists()


def test_stone_density_outputs(tmp_path):
    cfg = write_config(tmp_path / "c.json", **{"lambda": 0.3})
    out = tmp_path / "out"
    assert main(["stone-density", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "t_stone_summary.json").read_text())
    assert abs(summary["extrapolated"] - summary["catalog_reference"]) < 1e-4


def test_stone_density_config_on_a_ladder_below_1e_162(tmp_path, capsys):
    # below about 1e-162 the squares of the ladder's y underflow to 0; the fit
    # still reads the catalog density
    raw = json.loads((ROOT / "configs" / "stone_density.json").read_text())
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(raw, schedule={"y_max": 1e-170, "y_min": 1e-180, "ratio": 0.5})))
    out = tmp_path / "out"
    assert main(["stone-density", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = strict_json(out / "stone_stone_summary.json")
    assert abs(summary["extrapolated"] - summary["catalog_reference"]) <= 1e-12


def test_stone_density_writes_each_rung_im_c(tmp_path):
    # (Im C / pi) * pi is not Im C: on this ladder 10 of its 17 rungs differ
    # from it by an ulp
    measure = {
        "ac_parts": [{"kind": "smooth_bump", "parameters": {"level": 1.2, "center": 0.0, "half_width": 0.8}}],
        "atoms": [],
    }
    weight = {"kind": "cosine_bump", "parameters": {"center": 0.0, "half_width": 1.0}}
    schedule = {"y_max": 0.1, "y_min": 1e-6, "ratio": 0.5}
    cfg = write_config(tmp_path / "c.json", measure=measure, weight=weight, schedule=schedule, **{"lambda": 0.31})
    out = tmp_path / "out"
    assert main(["stone-density", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "t_stone_density.csv").read_text().splitlines()[2:]
    c = load_config(cfg)
    expected = [evaluate_offaxis(c.measure, c.weight, complex(0.31, y)).value.imag for y in c.schedule.values]
    assert [float(row.split(",")[1]) for row in rows] == expected


def test_stone_density_rejects_atom_probe(tmp_path):
    cfg = write_config(tmp_path / "c.json", measure=ATOM_MEASURE)
    assert main(["stone-density", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_stone_density_runs_at_an_atom_the_weight_cannot_see(tmp_path):
    measure = {"ac_parts": [constant_part(support=(-1.0, 2.0))], "atoms": [{"location": 1.0, "mass": 0.5}]}
    weight = {"kind": "hat", "parameters": {"center": 0.0, "half_width": 1.0}}
    cfg = write_config(tmp_path / "c.json", measure=measure, weight=weight, **{"lambda": 1.0})
    assert main(["stone-density", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


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


def reference_csv(title, header, columns) -> str:
    """A CSV table as it was built before each table was formatted in one
    pass: a list of cell strings per row, each float cell by
    f"{float(x):.16e}" and any other by str, joined by "," and then by
    newlines.  Kept as the reference."""
    rows = [[f"{float(x):.16e}" if isinstance(x, float) else str(x) for x in row] for row in zip(*columns)]
    return "\n".join([f"# {CSV_VERSION}: {title}", ",".join(header), *map(",".join, rows)]) + "\n"


# floats of every class: nan, +-inf, +-0.0, subnormals, and 3-digit exponents
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e300, 1.7976931348623157e308]
CELLS = {
    "float": st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)),
    "int": st.integers(-(10**20), 10**20),
    "status": st.sampled_from(["OK", "SKIPPED"]),
}


@st.composite
def tables(draw):
    rows = draw(st.integers(1, 12))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=7)):
        column = draw(st.lists(CELLS[kind], min_size=rows, max_size=rows))
        # a float column may also come as a numpy array, whose cells are np.float64
        columns.append(np.array(column) if kind == "float" and draw(st.booleans()) else tuple(column))
    return "a table", [f"c{i}" for i in range(len(columns))], columns


@given(tables())
def test_render_formats_a_table_as_the_per_cell_construction(table):
    assert _render(table) == reference_csv(*table)


def test_an_integer_y_max_is_rendered_as_a_float():
    """A table's float columns must hold floats: a schedule built with an
    int y_max gives the y column a float first cell, as every other."""
    cfg = ExperimentConfig(
        measure=SpectralMeasure((DensityFamily("constant", {"level": 1.0}, (-1.0, 1.0)),)),
        weight=WeightFunction("plateau", {"center": 0.0, "half_width": 1.0}),
        schedule=YSchedule(y_max=1, y_min=1e-3),
    )
    table = cmd_stone_density(cfg)[2]["stone_density.csv"]
    assert _render(table).splitlines()[2].startswith("1.0000000000000000e+00,")
    assert _render(table) == reference_csv(*table)


def large_compactness_config(path, n):
    """A compactness config shaped like the benchmark's large-n one: a
    constant density on [-1, 1], a hat weight and the identity embedding."""
    return write_config(
        path,
        measure={"ac_parts": [constant_part(1.1)], "atoms": []},
        weight={"kind": "hat", "parameters": {"center": 0.0, "half_width": 1.0}},
        discretization={"n": n, "embedding_dim": "same"},
        compactness={"s": 0.9, "radii": [0.3, 0.6, 0.9, 1.0, 1.5]},
        output_prefix="compact",
    )


def test_large_compactness_csvs_are_the_per_cell_construction(tmp_path):
    path = large_compactness_config(tmp_path / "c.json", 10_000)
    assert main(["compactness", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    cfg = load_config(path)
    model = discretize(cfg.measure, cfg.weight, cfg.n, cfg.embedding_dim)
    rep = compactness_probe(model, cfg.compactness_s, cfg.compactness_radii)
    sigma = rep.singular_values
    assert len(sigma) == 10_000
    expected = {
        "compact_singular_values.csv": reference_csv(
            "compactness singular values", ["index", "sigma"], [range(len(sigma)), sigma]
        ),
        "compact_sup_bounds.csv": reference_csv(
            "compactness tail sups", ["radius", "sup_bound"], [rep.truncation_radii, rep.sup_bounds]
        ),
    }
    assert {p.name: p.read_text() for p in (tmp_path / "out").iterdir()} == expected


def test_compactness_allocation_peak_is_a_few_times_its_csv(tmp_path):
    """A table is formatted in one pass, with no string per cell.  With a
    string per cell, the peak was 11 times the singular-value CSV at this n."""
    cfg = load_config(large_compactness_config(tmp_path / "c.json", 100_000))
    tracemalloc.start()
    try:
        _, _, outputs = cmd_compactness(cfg)
        text = _render(outputs["singular_values.csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text)


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
    cfg = write_config(tmp_path / "c.json", tolerances={"convergence": 1e-4})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "resolvent_limits.cli", "probe-limit", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "verdict=CONVERGES" in proc.stdout


# the one stderr line of a ladder refused at its first rung that is not
# finite: no numpy warning comes before it
NOT_FINITE_LINE = re.compile(r"error: evaluator failed at y=[^:]+: FloatingPointError\('sample is not finite: [^\n]*'\)\n")
SUBNORMAL_LADDER = {"y_max": 0.01, "y_min": 1e-320, "ratio": 0.5}


def test_a_report_json_cannot_hold_is_written_nowhere(tmp_path, capsys):
    # at the subnormal rungs c/(x - z) overflows on the atom node, and the report
    # would hold NaN and Infinity: the probe refuses the first rung that is not
    # finite, with the same refusal for the identity model and the embedded
    # one, and with no numpy warning, which pytest would turn into an error
    raw = json.loads((ROOT / "configs" / "probe_limit_atom.json").read_text())
    for embedding_dim in (SAME, 6):
        cfg = tmp_path / f"c-{embedding_dim}.json"
        discretization = {"n": 13, "embedding_dim": embedding_dim}
        cfg.write_text(json.dumps(dict(raw, schedule=SUBNORMAL_LADDER, discretization=discretization)))
        out = tmp_path / f"out-{embedding_dim}"
        assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert NOT_FINITE_LINE.fullmatch(captured.err), captured.err
        assert captured.out == "" and not out.exists()


def test_a_transform_ladder_into_subnormal_y_writes_every_rung(tmp_path, capsys):
    # at a power-bump cusp the node on Re z keeps its zero term at subnormal
    # y, so every rung is finite and the report is strict JSON; the verdict is
    # not pinned (most rungs miss the 1e-10 quadrature target at the cusp)
    bump = {"kind": "power_bump", "parameters": {"level": 1.0, "exponent": 0.5, "center": 0.3}, "support": [-1.0, 1.0]}
    weight = {"kind": "plateau", "parameters": {"center": 0.0, "half_width": 2.0}}
    cfg = write_config(
        tmp_path / "c.json", measure={"ac_parts": [bump]}, weight=weight, schedule=SUBNORMAL_LADDER, **{"lambda": 0.3}
    )
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) in (0, 2)
    assert capsys.readouterr().err == ""
    report = strict_json(out / "t_limit_report.json")
    assert len(report["samples"]) == 1057


ATOM_ONLY_LADDER = {
    "measure": {"atoms": [{"location": 0.0, "mass": 1.0}]},
    "weight": PLATEAU_WEIGHT,
    "lambda": 0.0,
    "schedule": {"y_max": 1e-300, "y_min": 1e-320, "ratio": 0.5},
}
ORACLE_AT_ITS_ATOM = {"lambda": 0.7, "schedule": {"y_max": 0.1, "y_min": 1e-320, "ratio": 0.5}}


@pytest.mark.parametrize(
    "config", [ATOM_ONLY_LADDER, ORACLE_AT_ITS_ATOM], ids=["atom-only-no-floor", "shipped-config-at-its-atom"]
)
def test_compare_oracle_refuses_a_sample_that_is_not_finite(tmp_path, capsys, config):
    # below y ~ 1e-308 the form's c/(x - z) overflows on the atom node and its
    # relative gap is NaN, which max() over the checked rows used to drop: the
    # run passed with every row checked (no floor) or with those rows SKIPPED
    raw = json.loads((ROOT / "configs" / "compare_oracle.json").read_text())
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**raw, **config}))
    out = tmp_path / "out"
    assert main(["compare-oracle", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert NOT_FINITE_LINE.fullmatch(captured.err), captured.err
    assert captured.out == "" and not out.exists()


CONFIG_TEXT_ERRORS = {
    "top-level-key-twice": (
        '{"measure": {"atoms": []}, "weight": %s, "lambda": 0.0, "lambda": 0.3}',
        "config names 'lambda' more than once in one object",
    ),
    "parameters-key-twice": (
        '{"measure": {"ac_parts": [{"kind": "constant", "parameters": {"level": 1.0, "level": 2.0}}]}, "weight": %s}',
        "config names 'level' more than once in one object",
    ),
    "measure-missing": ('{"weight": %s}', "config is missing key 'measure'"),
}


@pytest.mark.parametrize("text, message", CONFIG_TEXT_ERRORS.values(), ids=CONFIG_TEXT_ERRORS)
def test_config_text_errors(tmp_path, capsys, text, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(text % json.dumps(PLATEAU_WEIGHT))
    with pytest.raises(ConfigError) as excinfo:
        load_config(cfg)
    assert str(excinfo.value) == message
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_document_json_cannot_hold_is_written_nowhere(tmp_path, monkeypatch, capsys):
    # the first output renders; the second holds NaN, so neither is written
    command = lambda cfg: ("summary", 0, {"good.json": {"x": 1.0}, "bad.json": {"x": math.nan}})
    monkeypatch.setitem(_COMMANDS, "probe-limit", command)
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(write_config(tmp_path / "c.json")), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t_bad.json: Out of range float values are not JSON compliant: nan; no output was written\n"
    assert not out.exists()


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


@pytest.mark.parametrize("key", TOLERANCE_KEYS)
@pytest.mark.parametrize("value", [0.0, -1.0, -0.0])
def test_tolerances_must_be_positive(tmp_path, key, value):
    # a quadrature_abs of -1 used to run stone-density, every rung bisecting
    # to about 2000 panels with tolerance_met false, and exit 0
    cfg = write_config(tmp_path / "c.json", tolerances={key: value})
    with pytest.raises(ConfigError, match=f"tolerances {key} must be positive"):
        load_config(cfg)


@pytest.mark.parametrize("command", ["probe-limit", "compare-oracle", "stone-density"])
@pytest.mark.parametrize("value", ["0", "-1", "-0.0"])
def test_tolerance_flag_must_be_positive(tmp_path, capsys, command, value):
    # the tolerances once overridden by --tolerance are set in the config only;
    # each command refuses a non-positive one, whichever it reads, before writing
    for key in TOLERANCE_KEYS:
        cfg = write_config(tmp_path / f"{key}.json", tolerances={key: float(value)})
        out = tmp_path / key
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"{key} must be positive" in capsys.readouterr().err
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
        ("compactness radii must be a JSON array", {"compactness": {"radii": "12"}}),
        ("holder point", {"holder": {"point": float("nan")}}),
        ("holder r_max", {"holder": {"r_max": float("inf")}}),
        ("holder ratio", {"holder": {"ratio": None}}),
        ("output_prefix", {"output_prefix": 5}),
        ("output_prefix must be a file name prefix", {"output_prefix": "../escaped"}),
        ("output_prefix must be a file name prefix", {"output_prefix": "sub/x"}),
        ("output_prefix must be a file name prefix with no path separator or NUL", {"output_prefix": "a\0b"}),
        ("output_prefix must take at most 229 UTF-8 bytes, got 234", {"output_prefix": "a" * 234}),
        ("output_prefix must take at most 229 UTF-8 bytes, got 230", {"output_prefix": "é" * 115}),
        ("output_prefix must be UTF-8 text", {"output_prefix": "\ud800"}),
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
        ("hat half_width must be positive", {"weight": {"kind": "hat", "parameters": {"center": 0.0, "half_width": 0.0}}}),
        *[(f"tolerances {k} must be a finite number", {"tolerances": {k: float(v)}}) for k, v in NON_FINITE_TOLERANCES],
    ],
    ids=[
        "regularize-string", "regularize-zero", "n-float", "n-bool", "n-string", "seed-float", "count-float",
        "lambda-string", "lambda-bool", "lambda-nan", "lambda-huge-int", "y_min-inf", "ratio-string",
        "convergence-string", "s-bool", "radii-string", "radii-not-array", "point-nan", "r_max-inf", "ratio-null", "prefix-int",
        "prefix-parent-dir", "prefix-subdir", "prefix-nul", "prefix-too-long", "prefix-too-long-utf8",
        "prefix-lone-surrogate",
        "level-string", "level-bool", "support-string-bool", "half_width-string", "weight-support-bool",
        "location-string", "mass-bool", "measure-int", "weight-list", "parameters-list", "measure-atom-typo",
        "weight-suport-typo", "support-three-edges", "hat-half_width-zero", *[f"{k}-{v}" for k, v in NON_FINITE_TOLERANCES],
    ],
)
def test_config_types_are_exact(tmp_path, key, overrides):
    # a string "false" used to run a regularized probe, 13.9 became n = 13,
    # "0.3" became lambda = 0.3, and lambda = NaN ran a probe on NaN; a
    # measure level "1.0" or true loaded as 1.0, "measure": 5 escaped as an
    # AttributeError, a misspelt "atom" key was ignored, a smooth_bump
    # support of three edges loaded as its first two, an output_prefix
    # "../escaped" wrote its files beside the output directory, one of 234
    # bytes wrote one output before the next name overran 255 bytes, and a
    # lone surrogate failed to encode with a message that named no key
    cfg = write_config(tmp_path / "c.json", **{"measure": ATOM_MEASURE, "evaluator": "matrix", **overrides})
    with pytest.raises(ConfigError, match=key):
        load_config(cfg)
    out = tmp_path / "out"
    assert main(["probe-limit", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


# the full ConfigError text of each malformed measure or weight entry: a
# message names the entry and the key at fault
MALFORMED_MEASURE_OR_WEIGHT = {
    "ac-parts-entry-int": (
        {"measure": {"ac_parts": [5]}},
        "measure ac_parts entry must be a JSON object, got 5",
    ),
    "ac-parts-entry-unknown-key": (
        {"measure": {"ac_parts": [{**constant_part(), "color": 1}]}},
        "unknown keys in measure ac_parts entry: ['color']",
    ),
    "parameter-string": (
        {"measure": {"ac_parts": [constant_part(level="1.0")]}},
        "measure parameters level must be a finite number, got '1.0'",
    ),
    "support-edge-bool": (
        {"measure": {"ac_parts": [constant_part(support=(True, 1.0))]}},
        "measure support must be a finite number, got True",
    ),
    "atom-location-string": (
        {"measure": {"atoms": [{"location": "0", "mass": 1.0}]}},
        "atom location must be a finite number, got '0'",
    ),
    "atom-list": (
        {"measure": {"atoms": [[0.0, 1.0]]}},
        "measure atom must be a JSON object, got [0.0, 1.0]",
    ),
    "parameters-list": (
        {"measure": {"ac_parts": [constant_part(parameters=[1.0])]}},
        "measure parameters must be a JSON object, got [1.0]",
    ),
    "kind-missing": (
        {"measure": {"ac_parts": [{"parameters": {"level": 1.0}, "support": [-1.0, 1.0]}]}},
        "measure ac_parts entry is missing key 'kind'",
    ),
    "parameters-missing": (
        {"measure": {"ac_parts": [{"kind": "constant", "support": [-1.0, 1.0]}]}},
        "measure ac_parts entry is missing key 'parameters'",
    ),
    "atom-location-missing": (
        {"measure": {"atoms": [{"mass": 1.0}]}},
        "measure atom is missing key 'location'",
    ),
    "atom-mass-missing": (
        {"measure": {"atoms": [{"location": 0.0}]}},
        "measure atom is missing key 'mass'",
    ),
    "weight-kind-missing": (
        {"weight": {"parameters": {"center": 0.0, "half_width": 1.0}}},
        "weight is missing key 'kind'",
    ),
    "weight-unknown-key": (
        {"weight": {**PLATEAU_WEIGHT, "shape": 1}},
        "unknown keys in weight: ['shape']",
    ),
    "weight-parameter-string": (
        {"weight": {"kind": "plateau", "parameters": {"center": 0.0, "half_width": "1"}}},
        "weight parameters half_width must be a finite number, got '1'",
    ),
    "weight-support-mismatch": (
        {"weight": {**PLATEAU_WEIGHT, "support": [-2.0, 2.0]}},
        "weight support [-2.0, 2.0] does not match center ± half_width [-1.0, 1.0]",
    ),
    "ac-parts-int": (
        {"measure": {"ac_parts": 5}},
        "measure ac_parts must be a JSON array, got 5",
    ),
    "support-string": (
        {"measure": {"ac_parts": [{**constant_part(), "support": "ab"}]}},
        "measure support must be a JSON array, got 'ab'",
    ),
    "atoms-object": (
        {"measure": {"atoms": {"location": 0, "mass": 1}}},
        "measure atoms must be a JSON array, got {'location': 0, 'mass': 1}",
    ),
    "weight-support-float": (
        {"weight": {**PLATEAU_WEIGHT, "support": 1.0}},
        "weight support must be a JSON array, got 1.0",
    ),
    "kind-list": (
        {"measure": {"ac_parts": [{**constant_part(), "kind": ["constant"]}]}},
        "measure kind must be a string, got ['constant']",
    ),
    "weight-kind-list": (
        {"weight": {**PLATEAU_WEIGHT, "kind": ["plateau"]}},
        "weight kind must be a string, got ['plateau']",
    ),
}


@pytest.mark.parametrize("overrides, message", MALFORMED_MEASURE_OR_WEIGHT.values(), ids=MALFORMED_MEASURE_OR_WEIGHT)
def test_malformed_measure_or_weight_messages(tmp_path, overrides, message):
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_config(tmp_path / "c.json", **overrides))
    assert str(excinfo.value) == message


@given(spectral_measures(), weight_functions())
def test_an_echoed_config_loads_as_the_same_config(measure, weight):
    """The echo written into every report is a config file: it loads back
    as an equal config, catalog floats exact through the JSON text."""
    cfg = ExperimentConfig(measure=measure, weight=weight)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "echo.json"
        path.write_text(json.dumps(cfg.echo()))
        assert load_config(path) == cfg


def test_a_smooth_bump_without_support_loads_with_its_derived_support(tmp_path):
    parameters = {"level": 1.0, "center": 0.25, "half_width": 0.5}
    measure = {"ac_parts": [{"kind": "smooth_bump", "parameters": parameters}]}
    cfg = load_config(write_config(tmp_path / "c.json", measure=measure))
    assert cfg.measure.ac_parts == (DensityFamily("smooth_bump", parameters),)
    assert cfg.measure.ac_parts[0].support == (-0.25, 0.75)


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


SHIPPED = sorted(p.name for p in (ROOT / "configs").glob("*.json"))
# sha256 of every output file of each shipped config, written by the package
# as it stood before the near/far split cut each part in one loop; the
# outputs that hold a fitted line (holder_fit, stone_density and the three
# probe_limit configs) were rewritten when every line fit became one closed
# form.  To print the record the current code gives:
#
#     PYTHONPATH=src python tests/test_cli.py
CONFIG_GOLDEN = Path(__file__).with_name("config_golden.json")


def _command(config: str) -> str:
    return "probe-limit" if config.startswith("probe_limit") else config[: -len(".json")].replace("_", "-")


def _digests(files: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}


@pytest.mark.parametrize("config", SHIPPED)
def test_shipped_config_runs(tmp_path, capsys, config):
    command = _command(config)
    path = ROOT / "configs" / config
    prefix = json.loads(path.read_text()).get("output_prefix", "run")
    runs = []
    for out in (tmp_path / "r1", tmp_path / "r2"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert set(runs[0]) == {f"{prefix}_{suffix}" for suffix in OUTPUTS[command]}
    assert runs[0] == runs[1]  # byte-identical reruns
    assert _digests(runs[0]) == json.loads(CONFIG_GOLDEN.read_text())[config]
    for suffix, table in OUTPUTS[command].items():
        text = runs[0][f"{prefix}_{suffix}"].decode()
        if table is None:
            assert isinstance(json.loads(text), dict)
        else:
            title, header = table
            assert text.split("\n")[:2] == [f"# resolvent-limits csv v1: {title}", header]
    summaries = capsys.readouterr().out.splitlines()  # one summary line per run
    assert len(summaries) == 2 and summaries[0] == summaries[1] and summaries[0].startswith(f"{command}: ")


@pytest.mark.parametrize("config", SHIPPED)
def test_the_longest_output_prefix_names_every_output(tmp_path, config):
    # 229 UTF-8 bytes: with the longest suffix, "_holder_increments.csv.tmp",
    # an output's temporary name takes the 255 bytes a file name may hold
    prefix = "é" * 114 + "p"
    assert len(prefix.encode()) == MAX_PREFIX_BYTES == 229
    path = tmp_path / config
    path.write_text(json.dumps({**json.loads((ROOT / "configs" / config).read_text()), "output_prefix": prefix}))
    out = tmp_path / "out"
    assert main([_command(config), "--config", str(path), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {f"{prefix}_{suffix}" for suffix in OUTPUTS[_command(config)]}


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


if __name__ == "__main__":
    record = {}
    for config in SHIPPED:
        # each run's summary line goes to stderr, so stdout is the record alone
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(sys.stderr):
            main([_command(config), "--config", str(ROOT / "configs" / config), "--out", out])
            record[config] = _digests({p.name: p.read_bytes() for p in Path(out).iterdir()})
    print(json.dumps(record, indent=1))
