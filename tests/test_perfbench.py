"""The benchmark harness against this tree: ``perfbench/check_smoke.py``
runs every workload in smoke mode, untraced and traced."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="perfbench/run.py starts two worker processes and refuses to run on fewer than 2 CPUs",
)
def test_benchmark_smoke_check_passes():
    # a renamed function that the probe wraps, or a broken --threads or
    # jobs=, fails here and not only in a full benchmark run
    proc = subprocess.run(
        [sys.executable, "perfbench/check_smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
