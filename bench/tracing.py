"""Spans and counters around the calls from one layer into the next.

The traced run replaces, for its duration, the module attributes through
which the layers of ``resolvent_limits`` call each other (for example
``cauchy_transform.integrate_adaptive`` or ``cli.discretize``) with wrappers
that record a span: name, start, end and parent span.  Spans are kept in
memory in flat arrays and written out when the run ends.  A span's self time
is its duration minus the time its child spans cover; a layer's self time is
the sum over its spans.  Counters (panels, sample bytes, verdicts, ...) are
recorded at the same boundaries.

The layers are the package modules: spectral_model, quadrature,
cauchy_transform, matrix_oracle, limit_analysis and cli.  A span's layer is
the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
import tracemalloc
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

import resolvent_limits.cauchy_transform as ct
import resolvent_limits.cli as cli
import resolvent_limits.limit_analysis as la
import resolvent_limits.matrix_oracle as mo
from resolvent_limits.spectral_model import SpectralMeasure, WeightFunction

LAYERS = ("spectral_model", "quadrature", "cauchy_transform", "matrix_oracle", "limit_analysis", "cli")
Y_BUCKETS = (-3, -6, -9, -12)  # decades reported for cauchy_transform.offaxis_ms

# name -> (unit, better); the traced run reports exactly these.  Counts and
# seconds are per pass of the problem list.  Each group names the end-to-end
# metric and workload it should move.
PER_LAYER = {
    # -> wall_s on transform-deep-y
    "spectral_model.calls": ("count", "lower"),
    "spectral_model.points": ("count", "lower"),
    "spectral_model.self_s": ("s", "lower"),
    # -> wall_s and solve_p50_ms on transform-deep-y; tol_met_ratio -> pass_frac
    # and decided_frac there
    "quadrature.calls": ("count", "lower"),
    "quadrature.panels": ("count", "lower"),
    "quadrature.panels_max": ("count", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "quadrature.tol_met_ratio": ("ratio", "higher"),
    # -> wall_s on transform-deep-y; the y >= 1e-6 part also on cli-large-n
    "cauchy_transform.offaxis_calls": ("count", "lower"),
    "cauchy_transform.offaxis_p50_ms": ("ms", "lower"),
    **{f"cauchy_transform.offaxis_ms.y1e{d}": ("ms", "lower") for d in Y_BUCKETS},
    "cauchy_transform.offaxis_panels.y1e-12": ("count", "lower"),
    "cauchy_transform.offaxis_err_max": ("abs", "lower"),
    "cauchy_transform.pv_calls": ("count", "lower"),
    "cauchy_transform.pv_p50_ms": ("ms", "lower"),
    "cauchy_transform.self_s": ("s", "lower"),
    # samples -> wall_s and cpu_s on matrix-dichotomy; discretize and forms ->
    # peak_rss_mb and wall_s on cli-large-n
    "matrix_oracle.sample_calls": ("count", "lower"),
    "matrix_oracle.sample_p50_ms": ("ms", "lower"),
    "matrix_oracle.sample_bytes": ("B", "lower"),
    "matrix_oracle.discretize_calls": ("count", "lower"),
    "matrix_oracle.discretize_s": ("s", "lower"),
    "matrix_oracle.discretize_alloc_mb": ("MB", "lower"),
    "matrix_oracle.form_calls": ("count", "lower"),
    "matrix_oracle.form_p50_ms": ("ms", "lower"),
    "matrix_oracle.self_s": ("s", "lower"),
    # -> wall_s and cpu_s on matrix-dichotomy; verdicts and subfloor_ratio ->
    # pass_frac and decided_frac on matrix-dichotomy and transform-deep-y
    "limit_analysis.probe_calls": ("count", "lower"),
    "limit_analysis.probe_self_s": ("s", "lower"),
    "limit_analysis.norm_calls": ("count", "lower"),
    "limit_analysis.norm_s": ("s", "lower"),
    "limit_analysis.norm_p50_ms": ("ms", "lower"),
    "limit_analysis.norm_dim_max": ("count", "lower"),
    "limit_analysis.verdict.CONVERGES": ("count", "higher"),
    "limit_analysis.verdict.DIVERGES": ("count", "lower"),
    "limit_analysis.verdict.INCONCLUSIVE": ("count", "lower"),
    "limit_analysis.subfloor_ratio": ("ratio", "lower"),
    # -> wall_s on cli-large-n; self_s is parse, format and write
    "cli.main_calls": ("count", "lower"),
    "cli.main_p50_ms": ("ms", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    # traced minus untraced median pass time
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """In-memory span store plus per-boundary counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counters = defaultdict(list)
        self.paused = False  # set while the benchmark itself calls traced code

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, record=None):
        """``fn`` inside a span; ``record(counters, args, kwargs, result, seconds)``
        then adds counters."""
        nid = self._intern(name)
        stack, counters = self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if record is not None:
                record(counters, args, kwargs, result, t1 - t0)
            return result

        return traced

    def self_times(self) -> dict:
        """Layer -> summed self time of its spans."""
        if not self.start:
            return {}
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        per_name = np.bincount(ids, weights=own, minlength=len(self.names))
        out: dict = defaultdict(float)
        for name, seconds in zip(self.names, per_name):
            out[name.split(".")[0]] += float(seconds)
        out.update({f"span:{name}": float(s) for name, s in zip(self.names, per_name)})
        return dict(out)

    def save(self, path: Path) -> None:
        """Write every span (name, start, end, parent) to a compressed .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


# --------------------------------------------------------------------------
# counters recorded at each boundary


def _points(counters, args, kwargs, result, seconds):
    counters["spectral_model.points"].append(np.size(args[1]))


def _quadrature(counters, args, kwargs, result, seconds):
    counters["quadrature.panels"].append(result.panels)
    counters["quadrature.tol_met"].append(result.error <= kwargs.get("abs_tol", 1e-10))


def _offaxis(counters, args, kwargs, result, seconds):
    z = complex(args[2] if len(args) > 2 else kwargs["z"])
    decade = round(math.log10(abs(z.imag)))
    counters["offaxis_ms"].append(seconds * 1e3)
    counters[f"offaxis_ms.y1e{decade}"].append(seconds * 1e3)
    if decade == -12:
        counters["offaxis_panels.y1e-12"].append(result.panels_used)
    counters["offaxis_err"].append(result.abs_error_estimate)


def _timed(key):
    def record(counters, args, kwargs, result, seconds):
        counters[key].append(seconds)

    return record


def _sample(floor_fn):
    def record(counters, args, kwargs, result, seconds):
        model, z = args[0], complex(args[1])
        counters["sample_s"].append(seconds)
        counters["sample_bytes"].append(result.T.nbytes)
        counters["subfloor"].append(z.imag < floor_fn(model, z.real))

    return record


def _norm(counters, args, kwargs, result, seconds):
    counters["norm_s"].append(seconds)
    counters["norm_dim"].append(max(np.shape(args[0]) or (0,)))


def _verdict(counters, args, kwargs, result, seconds):
    counters[f"verdict.{result.verdict}"].append(1)


def _written(counters, args, kwargs, result, seconds):
    counters["bytes_written"].append(sum(len(text.encode()) for text in args[1].values()))


def _with_alloc_probe(tracer: Tracer, fn, traced_fn):
    """``traced_fn``, preceded once per distinct argument list by an extra
    call of ``fn`` under tracemalloc that records the allocation peak.

    tracemalloc slows every allocation, so the probe runs in a span of its
    own (layer ``trace``), apart from the timed ``discretize`` span, and before
    it, so the two models are never alive at the same time.
    """
    seen = set()

    def probe(*args, **kwargs):
        tracemalloc.start()
        tracer.paused = True
        try:
            fn(*args, **kwargs)
            tracer.counters["discretize_alloc"].append(tracemalloc.get_traced_memory()[1])
        finally:
            tracer.paused = False
            tracemalloc.stop()

    probe = tracer.wrap(probe, "trace.alloc_probe")

    @functools.wraps(fn)
    def entry(*args, **kwargs):
        key = repr((args, sorted(kwargs.items())))
        if key not in seen:
            seen.add(key)
            probe(*args, **kwargs)
        return traced_fn(*args, **kwargs)

    return entry


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every cross-layer name for the duration of the block."""
    discretize = _with_alloc_probe(
        tracer, mo.discretize, tracer.wrap(mo.discretize, "matrix_oracle.discretize", _timed("discretize_s"))
    )
    sample = _sample(mo.resolution_floor)
    patches = [
        (SpectralMeasure, "density_values", tracer.wrap(SpectralMeasure.density_values, "spectral_model.density", _points)),
        (WeightFunction, "values", tracer.wrap(WeightFunction.values, "spectral_model.weight", _points)),
        (cli, "estimate_holder", tracer.wrap(cli.estimate_holder, "spectral_model.estimate_holder")),
        (ct, "integrate_adaptive", tracer.wrap(ct.integrate_adaptive, "quadrature.integrate_adaptive", _quadrature)),
        (ct, "principal_value", tracer.wrap(ct.principal_value, "cauchy_transform.pv", _timed("pv_s"))),
        (ct, "plemelj_boundary", tracer.wrap(ct.plemelj_boundary, "cauchy_transform.plemelj")),
        (mo, "discretize", discretize),
        (cli, "discretize", discretize),
        (cli, "quadratic_form", tracer.wrap(cli.quadratic_form, "matrix_oracle.quadratic_form", _timed("form_s"))),
        (cli, "resolution_floor", tracer.wrap(cli.resolution_floor, "matrix_oracle.resolution_floor")),
        (la, "operator_norm", tracer.wrap(la.operator_norm, "limit_analysis.norm", _norm)),
        (cli, "stone_density", tracer.wrap(cli.stone_density, "limit_analysis.stone_density")),
        (cli, "compactness_probe", tracer.wrap(cli.compactness_probe, "limit_analysis.compactness_probe")),
        (cli, "_write_all", tracer.wrap(cli._write_all, "cli.write", _written)),
        (cli, "main", tracer.wrap(cli.main, "cli.main", _timed("main_s"))),
    ]
    # names that cli imports from the module that defines them
    for home, name, span, record in (
        (ct, "evaluate_offaxis", "cauchy_transform.offaxis", _offaxis),
        (mo, "sandwiched_resolvent", "matrix_oracle.sample", sample),
        (mo, "regularized_resolvent", "matrix_oracle.sample", sample),
        (la, "limit_probe", "limit_analysis.limit_probe", _verdict),
    ):
        wrapped = tracer.wrap(getattr(home, name), span, record)
        patches += [(home, name, wrapped), (cli, name, wrapped)]

    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapped in patches:
            setattr(owner, name, wrapped)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# --------------------------------------------------------------------------
# aggregation


def _p50(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def _mean(values) -> float:
    """Per-decade figures are means: one decade mixes calls at generic points,
    which exhaust the panel budget, with cheap calls at structure points."""
    return statistics.fmean(values) if values else 0.0


def per_layer_metrics(tracer: Tracer, passes: int, overhead_s: float, untraced_wall_s: float) -> dict:
    """Every PER_LAYER metric; counts and seconds are per pass of the problem list."""
    c = tracer.counters
    own = tracer.self_times()
    calls = defaultdict(int)
    for nid in tracer.name_id:
        calls[tracer.names[nid]] += 1
    per_pass = lambda v: v / passes
    subfloor = c["subfloor"]
    tol_met = c["quadrature.tol_met"]
    values = {
        "spectral_model.calls": per_pass(calls["spectral_model.density"] + calls["spectral_model.weight"]),
        "spectral_model.points": per_pass(sum(c["spectral_model.points"])),
        "spectral_model.self_s": per_pass(own.get("spectral_model", 0.0)),
        "quadrature.calls": per_pass(len(c["quadrature.panels"])),
        "quadrature.panels": per_pass(sum(c["quadrature.panels"])),
        "quadrature.panels_max": max(c["quadrature.panels"], default=0),
        "quadrature.self_s": per_pass(own.get("quadrature", 0.0)),
        "quadrature.tol_met_ratio": sum(tol_met) / len(tol_met) if tol_met else 0.0,
        "cauchy_transform.offaxis_calls": per_pass(len(c["offaxis_ms"])),
        "cauchy_transform.offaxis_p50_ms": _p50(c["offaxis_ms"]),
        **{f"cauchy_transform.offaxis_ms.y1e{d}": _mean(c[f"offaxis_ms.y1e{d}"]) for d in Y_BUCKETS},
        "cauchy_transform.offaxis_panels.y1e-12": _mean(c["offaxis_panels.y1e-12"]),
        "cauchy_transform.offaxis_err_max": max(c["offaxis_err"], default=0.0),
        "cauchy_transform.pv_calls": per_pass(len(c["pv_s"])),
        "cauchy_transform.pv_p50_ms": _p50(c["pv_s"], 1e3),
        "cauchy_transform.self_s": per_pass(own.get("cauchy_transform", 0.0)),
        "matrix_oracle.sample_calls": per_pass(len(c["sample_s"])),
        "matrix_oracle.sample_p50_ms": _p50(c["sample_s"], 1e3),
        "matrix_oracle.sample_bytes": per_pass(sum(c["sample_bytes"])),
        "matrix_oracle.discretize_calls": per_pass(len(c["discretize_s"])),
        "matrix_oracle.discretize_s": per_pass(sum(c["discretize_s"])),
        "matrix_oracle.discretize_alloc_mb": max(c["discretize_alloc"], default=0) / 2**20,
        "matrix_oracle.form_calls": per_pass(len(c["form_s"])),
        "matrix_oracle.form_p50_ms": _p50(c["form_s"], 1e3),
        "matrix_oracle.self_s": per_pass(own.get("matrix_oracle", 0.0)),
        "limit_analysis.probe_calls": per_pass(calls["limit_analysis.limit_probe"]),
        "limit_analysis.probe_self_s": per_pass(own.get("span:limit_analysis.limit_probe", 0.0)),
        "limit_analysis.norm_calls": per_pass(len(c["norm_s"])),
        "limit_analysis.norm_s": per_pass(sum(c["norm_s"])),
        "limit_analysis.norm_p50_ms": _p50(c["norm_s"], 1e3),
        "limit_analysis.norm_dim_max": max(c["norm_dim"], default=0),
        **{f"limit_analysis.verdict.{v}": per_pass(len(c[f"verdict.{v}"])) for v in ("CONVERGES", "DIVERGES", "INCONCLUSIVE")},
        "limit_analysis.subfloor_ratio": sum(subfloor) / len(subfloor) if subfloor else 0.0,
        "cli.main_calls": per_pass(len(c["main_s"])),
        "cli.main_p50_ms": _p50(c["main_s"], 1e3),
        "cli.self_s": per_pass(own.get("cli", 0.0)),
        "cli.bytes_written": per_pass(sum(c["bytes_written"])),
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac": overhead_s / untraced_wall_s if untraced_wall_s else 0.0,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in PER_LAYER.items()}
