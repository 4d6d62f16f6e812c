"""Every mutant of the catalogue in ``mutants.py`` is killed by its
catcher, which passes on the package as it is.

Each catcher runs in a child process against a copy of ``src``, under
a wall-time cap and, set in the child alone, an address-space cap.
"""

import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
LIMIT_S = 60  # wall time of one catcher
LIMIT_BYTES = 2 << 30  # address space of one catcher


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


def _catch(mutant, src: Path) -> tuple[str, float]:
    """The catcher's verdict on the package at ``src``, and its seconds:
    "pass", "fail" (a failed node, or an exit 1 with a ``[FAIL]`` or
    ``error:`` line), or what else the child did."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FPLRS_CACHE_DIR")}
    env["PYTHONPATH"] = str(src)
    if mutant.node:
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", mutant.node]
    else:
        argv = [sys.executable, "-m", "fplrs.cli", *mutant.command]
    start = time.perf_counter()
    try:
        r = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=LIMIT_S, preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if r.returncode == 0:
        return "pass", seconds
    lines = (r.stdout + r.stderr).splitlines()
    if r.returncode == 1 and (mutant.node or any(line.startswith(("[FAIL]", "error:")) for line in lines)):
        return "fail", seconds
    return f"exit {r.returncode}", seconds


def _copy(tmp_path: Path, name: str) -> Path:
    src = tmp_path / name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


@pytest.mark.slow
def test_every_mutant_is_caught(tmp_path):
    clean = _copy(tmp_path, "clean")
    rows = []
    for k, m in enumerate(MUTANTS):
        src = _copy(tmp_path, f"mutant{k}")
        path = src / "fplrs" / m.file
        text = path.read_text()
        assert text.count(m.snippet) == 1, m.name
        path.write_text(text.replace(m.snippet, m.replacement))
        rows.append((m, _catch(m, clean), _catch(m, src)))
    print("\nmutant kill matrix (catcher on the package as it is, then on the mutant)")
    for m, (before, s0), (after, s1) in rows:
        catcher = m.node or "fplrs " + " ".join(m.command)
        print(f"  {'KILLED' if (before, after) == ('pass', 'fail') else 'ALIVE '}  {m.name}")
        print(f"          {catcher}: {before} ({s0:.1f} s), {after} ({s1:.1f} s)")
    assert [(m.name, before, after) for m, (before, _), (after, _) in rows] == [
        (m.name, "pass", "fail") for m in MUTANTS
    ]
