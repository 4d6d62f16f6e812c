"""Benchmark of the fplrs command line and library.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload verify --seed 1 --seconds 1 --trace 1 --smoke

Runs one workload (see workloads.py and README.md) from the root of a
source checkout, with the package imported from ``src``.  Every
operation runs in a fresh process, so the package's in-memory caches
start cold, as they do for a user of the command line.

A run measures set-up time (a fresh interpreter importing
``fplrs.cli``, median of several), then repeats passes over the
workload's operations: at least one, and more while the next one is
expected to end within ``--seconds``.  Reported times are medians.
Every output is checked; an operation whose output is wrong counts as
failed and is not timed.

With ``--trace 1`` the run makes one traced pass instead (probe.py
wraps every public layer function) and reports the per-layer metrics;
the spans are written to ``.perfbench/trace-<workload>-<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
machine facts.  A readable report goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from workloads import ORBITS, WORKLOADS, Op, operations, plan  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "probe.py"
WORK = ROOT / ".perfbench"

WORKERS = 2          # processes used by the --threads / jobs operations
SETUP_REPEATS = 5    # fresh imports timed for setup_s, after one untimed
HARD_LIMIT_S = 170   # every child is killed at this age of the run
SOFT_LIMIT_S = 140   # no further pass is started if it would end later

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "counting_s": "s", "linalg_s": "s", "verify_s": "s",
}


@dataclass
class OpResult:
    op: Op
    start: float
    wall: float
    rss_mb: float
    problems: list[str]
    counters: dict
    spans: dict | None = None


@dataclass
class PassResult:
    wall: float
    ops: list[OpResult]


class Runner:
    """Starts the benchmark's child processes and keeps the tally."""

    def __init__(self, started: float):
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("FPLRS_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def child(self, cmd: list[str], stem: str) -> tuple[int, float, float, float, str]:
        """Run cmd to completion; returns exit code, start and wall time
        (perf_counter s), peak RSS MB and stdout."""
        out_path, err_path = WORK / f"{stem}.out", WORK / f"{stem}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT,
                                    start_new_session=True)
            left = max(0.0, self.started + HARD_LIMIT_S - time.monotonic())
            timer = threading.Timer(left, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: take the child down with us
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, t0, wall, usage.ru_maxrss / 1024, out_path.read_text()

    def tally(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def run_op(self, op: Op, spans_path: Path | None) -> OpResult:
        if spans_path is None and op.kind == "cli":
            cmd = [sys.executable, "-m", "fplrs.cli", *op.args]
        else:
            cmd = [sys.executable, str(PROBE)]
            if spans_path is not None:
                cmd += ["--spans", str(spans_path)] + [f"--pre={p}" for p in op.pre]
            cmd += [op.kind, *op.args]
        code, start, wall, rss, out = self.child(cmd, op.name)
        problems, counters = [], {}
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            try:
                problems, counters = op.check(out)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output ({exc!r})"]
        spans = None
        if spans_path is not None:
            try:
                spans = json.loads(spans_path.read_text())
            except (OSError, ValueError) as exc:
                problems.append(f"no spans ({exc!r})")
                spans = {"spans": [], "counters": {}, "wrapper_cost": 0.0}
        self.tally(op.name, problems)
        return OpResult(op, start, wall, rss, problems, counters, spans)

    def run_pass(self, ops: list[Op], trace_dir: Path | None = None) -> PassResult:
        t0 = time.perf_counter()
        results = []
        for op in ops:
            spans_path = trace_dir / f"{op.name}.json" if trace_dir else None
            results.append(self.run_op(op, spans_path))
        return PassResult(time.perf_counter() - t0, results)

    def setup_times(self) -> list[float]:
        """Fresh interpreters importing fplrs.cli; the first, which may
        compile bytecode, is not timed."""
        cmd = [sys.executable, "-c", "import fplrs.cli; print(fplrs.cli.__file__)"]
        want = str(ROOT / "src" / "fplrs" / "cli.py")
        times = []
        for i in range(SETUP_REPEATS + 1):
            code, _, wall, _, out = self.child(cmd, "setup")
            problems = [f"exit code {code}"] if code else []
            if not problems and out.strip() != want:
                problems.append(f"imported {out.strip()}, not {want}")
            self.tally("setup", problems)
            if i and not problems:
                times.append(wall)
        return times


def pass_metrics(p: PassResult) -> dict[str, float]:
    """One pass's end-to-end metrics: each operation group's summed wall
    time, the pass's wall time and its largest process.  A failed
    operation costs its group, or for wall_s and peak_rss_mb the pass,
    this pass's value."""
    sums: dict[str, float | None] = {}
    for r in p.ops:
        value = sums.get(r.op.metric, 0.0)
        sums[r.op.metric] = None if r.problems or value is None else value + r.wall
    out = {m: v for m, v in sums.items() if v is not None}
    if not any(r.problems for r in p.ops):
        out["wall_s"] = p.wall
        out["peak_rss_mb"] = max(r.rss_mb for r in p.ops)
    return out


def end_to_end(passes: list[PassResult], setup: list[float]) -> dict[str, float]:
    """Median over passes of each metric."""
    per_metric: dict[str, list[float]] = {}
    for p in passes:
        for metric, value in pass_metrics(p).items():
            per_metric.setdefault(metric, []).append(value)
    if setup:
        per_metric["setup_s"] = setup
    return {m: statistics.median(v) for m, v in per_metric.items()}


def op_times(passes: list[PassResult]) -> dict[str, float]:
    """Median wall time of each successful operation, for the report."""
    walls: dict[str, list[float]] = {}
    for p in passes:
        for r in p.ops:
            if not r.problems:
                walls.setdefault(r.op.name, []).append(r.wall)
    return {name: statistics.median(v) for name, v in walls.items()}


def pass_counters(p: PassResult) -> dict:
    out = {}
    for r in p.ops:
        out.update(r.counters)
    return out


def machine_facts(workload: str, seed: int, smoke: bool, trace: bool) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"  # the checkout need not be a repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    def digest(folder: Path) -> str:
        h = hashlib.sha256()
        for path in sorted(folder.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "workload": workload, "seed": seed, "smoke": smoke, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy_version,
        "git_sha": sha, "source_sha256": digest(ROOT / "src" / "fplrs"),
        "bench_sha256": digest(PROBE.parent), "workers": WORKERS,
    }


def check_counters(runner: Runner, key: str, counters: list[dict], facts: dict) -> dict:
    """Exact counters must agree across passes, and with the previous run
    of this workload and mode on the same code; drift is a benchmark bug."""
    first = counters[0]
    for other in counters[1:]:
        if other != first:
            runner.tally("counters", [f"differ between passes: {first} vs {other}"])
    code = {k: facts[k] for k in ("source_sha256", "bench_sha256")}
    record = WORK / f"counters-{key}.json"
    if record.exists():
        before = json.loads(record.read_text())
        if before["code"] == code and before["counters"] != first:
            runner.tally("counters", [f"differ from the previous run: {before['counters']} vs {first}"])
    record.write_text(json.dumps({"code": code, "counters": first}, indent=1, sort_keys=True))
    return first


def traced_counters(runner: Runner, traced: PassResult, sizes: dict) -> dict:
    """Counters read by the tracer, plus the leaves under each split prefix."""
    ops = {r.op.name: r for r in traced.ops}
    counters = {}
    for name, r in ops.items():
        if "--seed" in r.op.args:
            continue  # its inputs, and so its counts, depend on the seed
        for key, values in r.spans["counters"].items():
            if key != "fplcore.prefix_list":
                counters[f"{name}:{key}"] = values
    split = ops["count_jobs2"].spans["counters"]
    path = WORK / "prefixes.json"
    path.write_text(json.dumps(split.get("fplcore.prefix_list", [[]])[0]))
    cmd = [sys.executable, str(PROBE), "prefix-leaves", "--n", str(sizes["count"]),
           "--prefixes", str(path)]
    code, _, _, _, out = runner.child(cmd, "prefix-leaves")
    leaves = json.loads(out) if code == 0 else []
    done = split.get("fplcore.split_done", [0])[0]
    problems = [] if code == 0 else [f"exit code {code}"]
    expected = ops["count_jobs2"].counters.get(f"fplcore.leaves.n{sizes['count']}")
    if not problems and sum(leaves) + done != expected:
        problems.append(f"prefix leaves add up to {sum(leaves) + done}, not {expected}")
    orbits = counters.get("verify_orbits:gyration.orbits", [0])[-1]
    if orbits != ORBITS[sizes["orbits"]]:
        problems.append(f"{orbits} orbits at n={sizes['orbits']}, expected {ORBITS[sizes['orbits']]}")
    runner.tally("traced counters", problems)
    counters["fplcore.prefix_leaves"] = leaves
    return counters


def report(facts: dict, metrics: dict, units: dict, runner: Runner, counters: dict,
           ops: dict[str, float]) -> None:
    err = sys.stderr
    print(f"fplrs benchmark: {json.dumps(facts)}", file=err)
    for name in units:
        value = metrics.get(name)
        shown = "MISSING" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {units[name]}", file=err)
    print("  operations, median s: " + ", ".join(f"{k} {v:.4g}" for k, v in ops.items()), file=err)
    ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"  {'fail_ratio':40s} {ratio:>14.6g} ({runner.failed}/{runner.attempted})", file=err)
    for line in runner.problems:
        print(f"  FAILED {line}", file=err)
    print(f"  counters: {json.dumps(counters, sort_keys=True)}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every operation once, at its side size")
    args = parser.parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "fplrs" / "cli.py").is_file():
        print(f"run.py: no package source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if WORKERS > nproc:
        print(f"run.py: the workload uses {WORKERS} worker processes but only {nproc} CPUs "
              "are available", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    facts = machine_facts(args.workload, args.seed, args.smoke, bool(args.trace))
    print(json.dumps({"facts": facts}))
    runner = Runner(started)
    sizes, focus = plan(args.workload, args.smoke)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))

    def schedule(tag: str, interleave: bool) -> list[Op]:
        """The operations of a pass.  Interleaved, the full-size ones run
        once and the side ones twice, before and after them, so that
        their samples lie far apart in time."""
        def round_ops(rnd: int) -> list[Op]:
            return operations(sizes, args.seed, str(scratch / f"cache-{tag}-{rnd}"), WORKERS)

        if not interleave or not focus:
            return round_ops(0)
        first, last = round_ops(0), round_ops(1)
        return ([op for op in first if op.size not in focus]
                + [op for op in first if op.size in focus]
                + [op for op in last if op.size not in focus])

    key = f"{args.workload}-{'smoke' if args.smoke else 'full'}-trace{args.trace}"
    try:
        if args.trace:
            traced = runner.run_pass(schedule("traced", interleave=False), scratch)
            counters = pass_counters(traced)
            counters.update(traced_counters(runner, traced, sizes))
            counters = check_counters(runner, key, [counters], facts)
            metrics = layers.per_layer(traced, counters)
            ops = op_times([traced])
            units = layers.UNITS
            layers.write_trace(WORK / f"trace-{args.workload}-{args.seed}.json", facts, traced)
        else:
            setup = runner.setup_times()
            passes: list[PassResult] = []
            measure_start = time.monotonic()
            while True:
                passes.append(runner.run_pass(schedule(str(len(passes)), interleave=True)))
                spent = time.monotonic() - measure_start
                now = time.monotonic() - started
                if spent + passes[-1].wall > args.seconds or now + passes[-1].wall > SOFT_LIMIT_S:
                    break
            counters = check_counters(runner, key, [pass_counters(p) for p in passes], facts)
            metrics = end_to_end(passes, setup)
            ops = op_times(passes)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report(facts, metrics, units, runner, counters, ops)
    result = {
        "correct": runner.failed == 0 and all(m in metrics for m in units),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items() if m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
