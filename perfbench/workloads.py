"""The benchmark's workloads: which commands run, at which sizes, and
what their outputs must be.

Every workload runs the same operations, each in a fresh process, so
that every end-to-end metric exists on every workload.  A workload is
defined by which operations run at full size; the others run at the
medium SIDE sizes, twice per pass (see run.py).  Smoke mode runs every
operation once at the side sizes.

The only operations with random input are ``verify tl`` (above n = 4)
and ``verify gyration-general``; they get the workload seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

# A_n, the number of n x n alternating sign matrices (A_0 = 1).
ASM = (1, 1, 2, 7, 42, 429, 7436, 218348, 10850216)

# SHA-256 of the stdout payloads at commit 0789d02; outputs must stay
# byte-identical.
PAYLOAD_SHA256 = {
    ("enumerate", 5, "+"): "ca5d6c9bc46da1413664238b8e74f43e9ea54dd91fca9251d06154421595a47d",
    ("enumerate", 5, "-"): "1107f2d99a6924df3343e34cf80786f211b31315d1ab57ca20c4d27638be85d9",
    ("enumerate", 6, "+"): "9065193d396816aaeda4675766ce13cab087d2c8f38f8b1d32cac992223a3977",
    ("enumerate", 6, "-"): "287bfa2c4c14d374fc8641eb30d7a7e0cb9d18510b3c1f9aaa5ecd42b0140fa1",
    ("groundstate", 6, None): "bf621ed9c313c44bfc69956676d30e8c84bdd784228316b2463eef42e400b2dc",
    ("groundstate", 7, None): "2aeb142bf08c093bcf84137fd8f9b19c6cdadf4d2071f7ce6a9d9480cdc7a12a",
}

# Number of check lines each verify suite reports, by --n-max.  They do
# not depend on the seed.
CHECK_LINES = {
    ("rs", 5): 15, ("rs", 6): 18,
    ("wieland", 5): 11, ("wieland", 6): 13,
    ("identities", 5): 106, ("identities", 6): 148,
    ("orbits", 5): 21, ("orbits", 6): 25,
    ("tl", 4): 32, ("tl", 7): 53,
    ("gyration-general", 3): 129, ("gyration-general", 5): 139,
}

# Gyration orbits of the plus ensemble, by n.
ORBITS = {5: 51, 6: 608}

# Sizes of every operation when it is not the focus of the workload.
SIDE = {"table": 5, "count": 6, "groundstate": 6, "certificate": 7,
        "census": 5, "orbits": 5, "tl": 4, "gyration": 3}

FOCUS = {
    "tables": {"table": 6, "count": 7},
    "groundstate": {"groundstate": 7, "certificate": 8},
    "verify": {"census": 6, "orbits": 6, "tl": 7, "gyration": 5},
}

WORKLOADS = tuple(FOCUS)

@dataclass(frozen=True)
class Op:
    """One command, run in its own process.

    ``kind`` is ``cli`` for an ``fplrs`` command or the name of a probe
    operation.  ``check`` reads the process's stdout and returns the
    problems found plus the exact counters it read.
    """

    name: str
    metric: str
    size: str
    kind: str
    args: tuple[str, ...]
    check: Callable[[str], tuple[list[str], dict]]
    pre: tuple[str, ...] = field(default=())


def _table_check(n: int, sign: str):
    def check(out: str):
        problems = []
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != PAYLOAD_SHA256[("enumerate", n, sign)]:
            problems.append(f"payload sha256 {digest[:12]} differs from the pinned table")
        counts = {w: int(v) for w, v in json.loads(out)["counts"].items()}
        if sum(counts.values()) != ASM[n]:
            problems.append(f"total {sum(counts.values())} != A_{n} = {ASM[n]}")
        if counts.get("()" * n) != ASM[n - 1]:
            problems.append(f"serial-arcs entry {counts.get('()' * n)} != A_{n - 1} = {ASM[n - 1]}")
        return problems, {f"table.patterns.n{n}": len(counts)}

    return check


def _groundstate_check(n: int):
    def check(out: str):
        problems = []
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != PAYLOAD_SHA256[("groundstate", n, None)]:
            problems.append(f"payload sha256 {digest[:12]} differs from the pinned vector")
        entries = {w: int(v) for w, v in json.loads(out)["entries"].items()}
        if sum(entries.values()) != ASM[n]:
            problems.append(f"component sum {sum(entries.values())} != A_{n} = {ASM[n]}")
        if entries.get("()" * n) != ASM[n - 1]:
            problems.append(f"serial-arcs entry != A_{n - 1} = {ASM[n - 1]}")
        return problems, {f"groundstate.vector_size.n{n}": len(entries)}

    return check


def _count_check(n: int):
    def check(out: str):
        leaves = int(out.strip() or -1)
        problems = [] if leaves == ASM[n] else [f"count {leaves} != A_{n} = {ASM[n]}"]
        return problems, {f"fplcore.leaves.n{n}": leaves}

    return check


def _certificate_check(out: str):
    return ([] if out.strip() == "True" else [f"certificate returned {out.strip()!r}"]), {}


def _verify_check(suite: str, n_max: int):
    lines = CHECK_LINES[(suite, n_max)]

    def check(out: str):
        last = (out.strip().splitlines() or [""])[-1]
        want = f"OK: {lines}/{lines} checks passed"
        problems = [] if last == want else [f"summary {last!r}, expected {want!r}"]
        return problems, {f"check_lines.{suite}.n{n_max}": lines if not problems else last}

    return check


def plan(workload: str, smoke: bool) -> tuple[dict[str, int], set[str]]:
    """Operation sizes of a workload, and which of them are full size.

    ``gyration-general`` draws random domains from the seed and costs
    over a second even at its smallest size, so it runs only where it is
    the focus; on ``tables`` and ``groundstate`` no input is random.
    """
    sizes = {k: v for k, v in SIDE.items() if k != "gyration" or k in FOCUS[workload]}
    if smoke:
        return sizes, set()
    return {**sizes, **FOCUS[workload]}, set(FOCUS[workload])


def operations(sizes: dict[str, int], seed: int, cache_dir: str, workers: int) -> list[Op]:
    """The operations of one round, in the order they run."""
    nt, nc = sizes["table"], sizes["count"]
    plus = ("enumerate", "--n", str(nt), "--sign", "+", "--cache-dir", f"{cache_dir}/plus")
    minus = ("enumerate", "--n", str(nt), "--sign", "-", "--cache-dir", f"{cache_dir}/minus")
    ops = [
        Op("table_plus", "counting_s", "table", "cli", plus, _table_check(nt, "+")),
        Op("table_minus", "counting_s", "table", "cli", minus, _table_check(nt, "-")),
        Op("table_plus_warm", "counting_s", "table", "cli", plus, _table_check(nt, "+")),
        Op("table_minus_warm", "counting_s", "table", "cli", minus, _table_check(nt, "-")),
        Op("table_threads2", "counting_s", "table", "cli",
           ("enumerate", "--n", str(nt), "--threads", str(workers)), _table_check(nt, "+")),
        Op("count_jobs1", "counting_s", "count", "count", ("--n", str(nc), "--jobs", "1"),
           _count_check(nc)),
        Op("count_jobs2", "counting_s", "count", "count",
           ("--n", str(nc), "--jobs", str(workers)), _count_check(nc)),
        Op("groundstate", "linalg_s", "groundstate", "cli",
           ("groundstate", "--n", str(sizes["groundstate"])),
           _groundstate_check(sizes["groundstate"])),
        Op("certificate", "linalg_s", "certificate", "certificate",
           ("--n", str(sizes["certificate"])), _certificate_check),
    ]
    verify = (
        ("rs", "census", ()),
        ("wieland", "census", ()),
        ("identities", "census", (f"identities.s_vector={sizes['census']}",)),
        ("orbits", "orbits", ()),
        ("gyration-general", "gyration", ()),
        ("tl", "tl", ()),
    )
    for suite, size, pre in verify:
        if size not in sizes:
            continue
        n_max = sizes[size]
        args = ("verify", suite, "--n-max", str(n_max))
        if suite in ("tl", "gyration-general"):
            args += ("--seed", str(seed))
        ops.append(Op(f"verify_{suite.replace('-', '_')}", "verify_s", size, "cli", args,
                      _verify_check(suite, n_max), pre))
    return ops
