#!/usr/bin/env python3
"""Benchmark of the resolvent-limits toolkit.

Run from the root of a checkout:

    python3 bench/run.py --workload transform-deep-y --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One run makes the workload's problem list from ``--seed`` (see
``workloads.py``), then solves the whole list again and again until
``--seconds`` have passed; each full list is one pass.  After each problem
the clock stops and its outputs are checked against closed-form or
paper-given references.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the provenance, every metric with its unit and sample count, and every
failed check with its reason.

``--trace 0`` reports the end-to-end metrics:

  setup_s        median over fresh interpreters of the time from process start
                 to inputs ready (interpreter, package import, input generation)
  wall_s         median over passes of the time to solve the problem list
  solve_p50_ms   median time of one problem over every solve of the run
  cpu_s          median over passes of process user+sys CPU time
  peak_rss_mb    peak resident set of this process
  pass_frac      share of attempted problems with no failed check (the
                 complement of the fail fraction, which is printed too)
  decided_frac   share of limit probes that reached CONVERGES or DIVERGES

``--trace 1`` spends half of ``--seconds`` untraced and half traced, and
reports the per-layer metrics of ``tracing.py`` plus the tracing overhead
(traced minus untraced median pass time).  Its spans go to
``.bench_out/trace-<workload>-seed<seed>.npz``.

``--workload all`` runs each workload in a fresh process of its own, so that
each peak RSS belongs to one workload, and prints one table.

BLAS runs single-threaded: the thread count is pinned in this process's
environment before numpy is imported, and children inherit it.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("transform-deep-y", "matrix-dichotomy", "cli-large-n")
SETUP_SAMPLES = 9
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_p50_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "decided_frac": "ratio",
}


def _import_bench():
    """Import the package from this checkout's src/ and the benchmark modules."""
    sys.path.insert(0, str(SRC))
    import resolvent_limits

    if Path(resolvent_limits.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"resolvent_limits was imported from {resolvent_limits.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def _setup_time(workload: str, seed: int, toy: bool, workdir: Path) -> float:
    """Process start to inputs ready, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    if toy:
        cmd.append("--toy")
    env = dict(os.environ, BENCH_WORKDIR=str(workdir))
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120, check=True)
    # CLOCK_MONOTONIC is shared by every process on the machine
    return float(done.stdout.split()[-1]) - t0


class Tally:
    """Per-problem timings, failures and verdicts of one run."""

    def __init__(self):
        self.solve_s: list = []
        self.pass_wall: list = []
        self.pass_cpu: list = []
        self.attempted = 0
        self.failed = 0
        self.probes = 0
        self.decided = 0
        self.failures = Counter()  # (problem, reason, known) -> occurrences

    def run_pass(self, problems) -> float:
        wall = cpu = 0.0
        for problem in problems:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = problem.solve()
                raised = None
            except Exception as exc:  # a problem that raises fails; the run goes on
                raised = exc
            t1, c1 = time.perf_counter(), time.process_time()
            wall += t1 - t0
            cpu += c1 - c0
            self.solve_s.append(t1 - t0)
            if raised is None:
                failures, verdicts = problem.verify(result)
            else:
                failures, verdicts = [_workloads.Failure(f"raised {type(raised).__name__}: {raised}")], []
            self.attempted += 1
            self.failed += bool(failures)
            self.probes += problem.probes
            self.decided += sum(v in ("CONVERGES", "DIVERGES") for v in verdicts)
            for f in failures:
                self.failures[(problem.name, f.reason, f.known)] += 1
        self.pass_wall.append(wall)
        self.pass_cpu.append(cpu)
        return wall

    def run_for(self, problems, seconds: float) -> None:
        """At least one pass, then passes until ``seconds`` of wall time."""
        t0, passes = time.perf_counter(), 0
        while passes == 0 or time.perf_counter() - t0 < seconds:
            self.run_pass(problems)
            passes += 1

    @property
    def correct(self) -> bool:
        return all(known is not None for _, _, known in self.failures)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> tuple:
    """(result line, report lines) for one run of one workload."""
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        problems = _workloads.WORKLOADS[workload].generate(seed, workdir / "inputs", toy)
        tally = Tally()
        lines = [f"# provenance {json.dumps(provenance(seed), sort_keys=True)}"]
        if trace:
            tally.run_for(problems, seconds / 2)
            untraced_passes = len(tally.pass_wall)
            tracer = _tracing.Tracer()
            with _tracing.traced(tracer):
                tally.run_for(problems, seconds / 2)
            untraced = statistics.median(tally.pass_wall[:untraced_passes])
            traced_wall = statistics.median(tally.pass_wall[untraced_passes:])
            traced_passes = len(tally.pass_wall) - untraced_passes
            metrics = _tracing.per_layer_metrics(tracer, traced_passes, traced_wall - untraced, untraced)
            path = OUT / f"trace-{workload}-seed{seed}.npz"
            tracer.save(path)
            lines.append(
                f"# trace: {len(tracer.start)} spans over {traced_passes} traced passes -> {path.relative_to(ROOT)}; "
                f"untraced wall_s {untraced:.4f} ({untraced_passes} passes), traced {traced_wall:.4f}"
            )
            counts = {name: traced_passes for name in metrics}
        else:
            setups = [_setup_time(workload, seed, toy, workdir / f"setup-{k}") for k in range(SETUP_SAMPLES)]
            tally.run_for(problems, seconds)
            passes = len(tally.pass_wall)
            metrics_raw = {
                "setup_s": (statistics.median(setups), len(setups)),
                "wall_s": (statistics.median(tally.pass_wall), passes),
                "solve_p50_ms": (statistics.median(tally.solve_s) * 1e3, len(tally.solve_s)),
                "cpu_s": (statistics.median(tally.pass_cpu), passes),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                "pass_frac": (1.0 - tally.failed / tally.attempted, tally.attempted),
                "decided_frac": (tally.decided / tally.probes if tally.probes else 1.0, tally.probes),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in metrics_raw.items()}
            counts = {k: n for k, (_, n) in metrics_raw.items()}
        for name, m in metrics.items():
            lines.append(f"# metric {name} = {m['value']:.6g} {m['unit']} (n={counts[name]})")
        lines.append(
            f"# fail_frac = {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} problems; "
            f"{len(problems)} per pass, {len(tally.pass_wall)} passes)"
        )
        for (name, reason, known), count in sorted(tally.failures.items(), key=lambda kv: kv[0][:2]):
            tag = f"known defect {known}" if known else "UNEXPECTED"
            lines.append(f"# FAIL [{tag}] {workload}/{name}: {reason} (x{count})")
        result = {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
        return result, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process; one table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        out = done.stdout.strip().splitlines()
        if done.returncode != 0 or not out:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        for line in out[:-1]:
            print(f"[{name}] {line}")
        results[name] = json.loads(out[-1])
    names = list(results[WORKLOAD_NAMES[0]]["metrics"])
    print("# " + f"{'metric':40s}" + "".join(f"{w:>20s}" for w in WORKLOAD_NAMES))
    for metric in names:
        cells = "".join(f"{results[w]['metrics'][metric]['value']:20.6g}" for w in WORKLOAD_NAMES)
        print(f"# {metric + ' [' + results[WORKLOAD_NAMES[0]]['metrics'][metric]['unit'] + ']':40s}{cells}")
    for w in WORKLOAD_NAMES:
        r = results[w]
        print(f"# {w}: correct={r['correct']} failed {r['failed']} of {r['attempted']}")
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny problem sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    if args.workload == "all":
        return run_all(args)

    global _workloads, _tracing
    try:
        _workloads, _tracing = _import_bench()
    except ImportError as exc:
        print(f"error: cannot import resolvent_limits from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _workloads.WORKLOADS[args.workload].generate(args.seed, Path(os.environ["BENCH_WORKDIR"]), args.toy)
        print(time.monotonic())
        return 0

    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
