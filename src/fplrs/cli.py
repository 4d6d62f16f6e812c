"""Command-line surface: the dispatcher, the cache and the reports.

    fplrs enumerate   --n 4 --sign + [--out psi4.json] [--threads K]
    fplrs groundstate --n 4 [--out gs4.json]
    fplrs verify <rs|wieland|orbits|identities> [--n-max N] [--format csv]
    fplrs verify <tl|gyration-general> [--n-max N] [--format csv] [--seed S]
    fplrs orbit-report --n 4 [--out orbits.csv]

Exit codes: 0 success, 1 verification failure (a check fails, a suite
runs no check, a suite raises, or the exact kernel checks reject a
ground state), 2 usage error (``--seed`` given to a suite that draws
nothing is one), 3 resource limit (size above the default cap without
--allow-large, or out of memory).

Every command writes to one stream, which ``main`` opens before the
command runs: stdout, or the ``--out`` file, written to a temp file of
its own and renamed into place when the command ends.  So an unwritable
``--out`` is refused before any work, and the file holds exactly the
bytes stdout would.  ``verify`` writes each check line as its suite
yields it, and the summary last.  A suite that raises ends with one
more line, ``[FAIL] <suite>: raised <Type>: <message>``, after the
lines it had already yielded.

Tables and ground states are cached when a cache directory is set
(--cache-dir or FPLRS_CACHE_DIR).  An entry is one file, named by a
digest of its key (command, parameters and a digest of the package
source); it holds the payload's sha256, the key and the payload, and is
written through the same temp file and rename, so a reader sees one
writer's whole entry or none.

The verify suites live in ``fplrs.suites``.  It and the layers are
bound as modules and called through their attributes
(``gyration.orbit_partition(n)``), never imported by name.  The package
registers each of them lazily, and a from-import of a name executes its
module at once; an attribute call executes it only when the command
reaches it, so ``--help`` or ``verify tl`` compiles no layer it does not
use.  A test or tracer that replaces a layer function therefore patches
the layer module, which is where this module looks it up.  ``json``,
``hashlib`` and ``csv`` are imported in the functions that use them:
many commands need none of them (``verify tl`` without a cache, say),
and importing this module is the first thing every ``fplrs`` process
does.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__, fplcore, groundstate, gyration, linkpat, suites
from .errors import FplrsError, KernelDimensionError

DEFAULT_MAX_N = 7
DEFAULT_SEED = 20100615


# ---------------------------------------------------------------------------
# Cache


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


class Cache:
    """Content-addressed payload store, one file per entry."""

    def __init__(self, root: Path):
        self.root = root
        try:
            root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise FplrsError(f"cannot create cache directory {root}: {exc.strerror}") from None

    def _entry(self, key: str) -> Path:
        return self.root / _sha256(key)[:24]

    def get(self, key: str) -> str | None:
        """The payload stored under key, or None on a miss.  A missing,
        unreadable, undecodable or corrupt entry is a miss, so the
        caller recomputes it and overwrites the entry."""
        try:
            checksum, rest = self._entry(key).read_text().split("\n", 1)
        except (OSError, ValueError):
            return None
        if not rest.startswith(f"{key}\n"):
            return None
        text = rest[len(key) + 1 :]
        return text if _sha256(text) == checksum else None

    def put(self, key: str, text: str) -> None:
        try:  # the block only writes, so its errors are the entry's too
            with _atomic_open(self._entry(key)) as f:
                f.write(f"{_sha256(text)}\n{key}\n{text}")
        except OSError as exc:
            raise FplrsError(f"cannot write {self._entry(key)}: {exc.strerror}") from None


def _source_digest() -> str:
    """The sha256 of the package's own ``*.py`` files, name and bytes in
    sorted order: an entry that other code computed is never read."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _cached(args, command: str, compute, **params) -> str:
    """A command's JSON payload: from the cache when one is configured and
    holds a valid entry, else computed (and then stored)."""
    import json

    root = args.cache_dir or os.environ.get("FPLRS_CACHE_DIR")
    if not root:
        return json.dumps(compute(), indent=0, sort_keys=True)
    cache = Cache(Path(root))
    key = f"{command}:{_source_digest()}:{json.dumps(params, sort_keys=True)}"
    text = cache.get(key)
    if text is None:
        text = json.dumps(compute(), indent=0, sort_keys=True)
        cache.put(key, text)
    return text


@contextmanager
def _atomic_open(path: Path):
    """A text file to write, that replaces ``path`` when the block ends.
    It is a temp file of its own in the target directory, so concurrent
    writers never share a temp path; it is renamed into place on success
    and removed on any error.  A directory target, which the temp file
    would only meet at the rename, is refused before it is made.  An
    error of the check, open, close or rename is a usage error, not a
    traceback; one that the block raises passes through as it is."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    in_block = False
    try:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        f = open(tmp, "x")
        try:
            with f:
                in_block = True
                yield f
                in_block = False
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if in_block:
            raise
        raise FplrsError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# Reports


def _report(lines, fmt: str, f) -> int:
    """Write each check line to f as the suite yields it, then the
    summary; 0 when every line passed, 1 when one failed or none ran."""
    if fmt == "csv":
        import csv

        writer = csv.writer(f)
        writer.writerow(["suite", "check", "status", "detail"])
        write = lambda line: writer.writerow(
            [line.suite, line.check, "pass" if line.status else "fail", line.detail]
        )
    else:
        write = lambda line: f.write(
            f"[{'PASS' if line.status else 'FAIL'}] {line.suite}: {line.check}"
            + (f" ({line.detail})\n" if line.detail else "\n")
        )
    passed = total = 0
    for line in lines:
        write(line)
        passed += line.status
        total += 1
    ok = 0 < total == passed
    if fmt != "csv":
        f.write(f"{'OK' if ok else 'FAILED'}: {passed}/{total} checks passed\n")
    return 0 if ok else 1


def _faults_as_lines(suite: str, lines):
    """The suite's lines, ended by a failing one if the suite raises.
    The arguments are checked before the suite runs, so a raise is a
    fault of the program, and the lines already written stand; running
    out of memory is a resource limit instead (exit 3)."""
    try:
        yield from lines
    except MemoryError:
        raise
    except Exception as exc:
        yield suites.CheckLine(suite, f"raised {type(exc).__name__}: {exc}", False)


# ---------------------------------------------------------------------------
# Commands


class _AboveCap(FplrsError):
    """A size above the soft cap: exit code 3, not a usage error."""


def _check_size(args) -> None:
    if args.n < 1:
        raise FplrsError(f"--n must be positive, got {args.n}")
    if args.n > DEFAULT_MAX_N and not args.allow_large:
        raise _AboveCap(
            f"n={args.n} exceeds the default cap {DEFAULT_MAX_N}; pass --allow-large"
        )


def cmd_enumerate(args, f) -> int:
    _check_size(args)
    # checked before the cache, so a bad count is refused on a hit too
    if args.threads < 1:
        raise FplrsError(f"--threads must be positive, got {args.threads}")
    # each thread is a pool process
    if args.threads > (cpus := os.cpu_count() or 1):
        raise FplrsError(f"--threads must be at most the {cpus} CPUs, got {args.threads}")

    def table() -> dict:
        counts = fplcore.refined_counts(args.n, args.sign, jobs=args.threads)
        # build_square anchors every square at termination 0
        entries = linkpat.lp_vector_to_json(counts)["entries"]
        return {"n": args.n, "sign": args.sign, "anchor": 0, "counts": entries}

    print(_cached(args, "enumerate", table, n=args.n, sign=args.sign), file=f)
    return 0


def cmd_groundstate(args, f) -> int:
    import json

    _check_size(args)
    vector = lambda: linkpat.lp_vector_to_json(groundstate.stationary_vector(args.n))
    text = _cached(args, "groundstate", vector, n=args.n)
    print(text, file=f)
    data = json.loads(text)
    values = [int(v) for v in data["entries"].values()]
    print(
        f"n={args.n}: max component {max(values)}, sum {sum(values)}"
        f" (product formula {linkpat.asm_count_formula(args.n)})",
        file=sys.stderr,
    )
    return 0


SUITES = {
    "rs": lambda args: suites._suite_rs(args.n_max),
    "wieland": lambda args: suites._suite_wieland(args.n_max),
    "orbits": lambda args: suites._suite_orbits(args.n_max),
    "identities": lambda args: suites._suite_identities(args.n_max),
    "tl": lambda args: suites._suite_tl(args.n_max, args.seed),
    "gyration-general": lambda args: suites._suite_gyration_general(args.n_max, args.seed),
}
# the suites that draw at random, and so read --seed
SEEDED = ("tl", "gyration-general")


def cmd_verify(args, f) -> int:
    if args.n_max < 1:
        raise FplrsError(f"--n-max must be positive, got {args.n_max}")
    if args.seed is None:
        args.seed = DEFAULT_SEED
    elif args.suite not in SEEDED:
        raise FplrsError(
            f"--seed is read only by tl and gyration-general; {args.suite} draws nothing"
        )
    return _report(_faults_as_lines(args.suite, SUITES[args.suite](args)), args.format, f)


def cmd_orbit_report(args, f) -> int:
    """Write the orbit-report CSV row by row, as the orbits come."""
    import csv

    _check_size(args)
    writer = csv.writer(f)
    writer.writerow(["orbit_id", "period", "link_class", "plaquette", "sum"])
    for oid, o in enumerate(gyration.orbit_partition(args.n, args.sign)):
        word, faces = gyration.orbit_faces(o)
        for (x, y), (plus, minus) in faces.items():
            writer.writerow([oid, o.period, word, f"{x},{y}", plus - minus])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fplrs",
        description="Exact loop-model combinatorics: tables, ground states, verification.",
    )
    parser.add_argument("--version", action="version", version=f"fplrs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def sized(p):
        p.add_argument("--n", type=int, required=True, help="system size")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--allow-large", action="store_true", help=f"allow --n above {DEFAULT_MAX_N}")

    p_enum = sub.add_parser("enumerate", help="write a per-pattern count table")
    sized(p_enum)
    p_enum.add_argument("--sign", choices=["+", "-"], default="+")
    p_enum.add_argument("--threads", type=int, default=1, help="worker count")
    p_enum.add_argument("--cache-dir", help="cache directory (FPLRS_CACHE_DIR)")
    p_enum.set_defaults(func=cmd_enumerate)

    p_gs = sub.add_parser("groundstate", help="write the exact stationary vector")
    sized(p_gs)
    p_gs.add_argument("--cache-dir", help="cache directory (FPLRS_CACHE_DIR)")
    p_gs.set_defaults(func=cmd_groundstate)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=SUITES)
    p_ver.add_argument("--n-max", type=int, default=4)
    p_ver.add_argument("--format", choices=["text", "csv"], default="text")
    p_ver.add_argument("--out", help="report path (stdout when omitted)")
    p_ver.add_argument(
        "--seed", type=int, help=f"seed of tl and gyration-general (default {DEFAULT_SEED})"
    )
    p_ver.set_defaults(func=cmd_verify)

    p_orb = sub.add_parser("orbit-report", help="CSV of orbit/plaquette sums")
    sized(p_orb)
    p_orb.add_argument("--sign", choices=["+", "-"], default="+")
    p_orb.set_defaults(func=cmd_orbit_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.out:
            return args.func(args, sys.stdout)
        with _atomic_open(Path(args.out)) as f:
            return args.func(args, f)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except FplrsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _AboveCap):
            return 3
        # a stationary vector that the exact checks reject fails verification
        return 1 if isinstance(exc, KernelDimensionError) else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
