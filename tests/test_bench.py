"""The benchmark's toy-size self-test runs against this checkout.

The traced benchmark run wraps names inside the package (for example
``limit_analysis.operator_norm`` and ``cli.quadratic_form``) and reads
``OperatorSample.T``; a refactor that drops one of them fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
