"""The benchmark's own test: every workload in smoke mode.

    python3 perfbench/check_smoke.py

For each workload, untraced and traced, runs run.py --smoke and checks
that the last stdout line is a result with exactly the expected keys,
that every metric BENCHMARK.json names is printed with its unit and
nothing else, and that no operation failed (fail_ratio 0).  Then
checks that run.py, copied without the package source next to it,
exits non-zero and prints no result.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(stdout: str, declared: list[dict]) -> list[str]:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["last stdout line is not JSON"]
    problems = []
    if set(result) != KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"fail_ratio {result.get('failed')}/{result.get('attempted')} is not 0")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"metrics differ: missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: {got} is not a number in {unit}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [*spec["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            found = [f"exit code {proc.returncode}"] if proc.returncode else []
            found += check_result(proc.stdout, declared)
            print(f"{workload} trace={trace}: {'ok' if not found else '; '.join(found)}")
            problems += found

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        bare_ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
        print(f"without the package source: {'ok' if bare_ok else 'produced a result'}")
        if not bare_ok:
            problems.append("run.py ran without the package source")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
