"""Command-line surface: tables, ground states, verification suites.

    fplrs enumerate   --n 4 --sign + [--out psi4.json] [--threads K]
    fplrs groundstate --n 4 [--out gs4.json]
    fplrs verify <rs|wieland|orbits|identities|tl|gyration-general>
                 [--n-max N] [--format csv] [--seed S]
    fplrs orbit-report --n 4 [--out orbits.csv]

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 resource limit (size above the default cap without --allow-large).

Tables and ground states are cached when a cache directory is set
(--cache-dir or FPLRS_CACHE_DIR); entries are keyed by command,
parameters and package version, payloads are checksummed, and writes go
through a unique temp file and rename so concurrent runs cannot clash.

The layers are bound as modules and called through their attributes
(``gyration.orbit_partition(n)``), never imported by name.  The package
registers each layer lazily, and a from-import of a name executes its
module at once; an attribute call executes it only when the command
reaches it, so ``--help`` or ``verify tl`` compiles no layer it does not
use.  A test or tracer that replaces a layer function therefore patches
the layer module, which is where this module looks it up.
"""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import io
import json
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import __version__, fplcore, groundstate, gyration, identities, lattice, linkpat, sampling
from .errors import FplrsError

DEFAULT_MAX_N = 7


# ---------------------------------------------------------------------------
# Cache


class Cache:
    """Content-addressed JSON payload store with atomic writes."""

    def __init__(self, root: Path):
        self.root = root
        try:
            root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise FplrsError(f"cannot create cache directory {root}: {exc.strerror}") from None

    def _paths(self, key: str) -> tuple[Path, Path]:
        digest = hashlib.sha256(key.encode()).hexdigest()[:24]
        return self.root / f"{digest}.json", self.root / f"{digest}.meta"

    def get(self, key: str) -> str | None:
        """The payload stored under key, or None on a miss.  A missing,
        unreadable, undecodable or corrupt entry is a miss, so the
        caller recomputes it and overwrites the entry."""
        payload_path, meta_path = self._paths(key)
        try:
            meta = json.loads(meta_path.read_text())
            if meta["key"] != key:
                return None
            checksum = meta["checksum"]
            text = payload_path.read_text()
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if hashlib.sha256(text.encode()).hexdigest() != checksum:
            return None
        return text

    def put(self, key: str, text: str) -> None:
        payload_path, meta_path = self._paths(key)
        checksum = hashlib.sha256(text.encode()).hexdigest()
        _write_atomic(payload_path, text)
        _write_atomic(meta_path, json.dumps({"key": key, "checksum": checksum}))


def _cached(args, command: str, compute, **params) -> str:
    """A command's JSON payload: from the cache when one is configured and
    holds a valid entry, else computed (and then stored)."""
    root = args.cache_dir or os.environ.get("FPLRS_CACHE_DIR")
    cache = Cache(Path(root)) if root else None
    key = f"{command}:{__version__}:{json.dumps(params, sort_keys=True)}"
    text = cache.get(key) if cache else None
    if text is None:
        text = json.dumps(compute(), indent=0, sort_keys=True)
        if cache:
            cache.put(key, text)
    return text


@contextmanager
def _atomic_open(path: Path):
    """A text file to write, that replaces ``path`` when the block ends.
    It is a temp file of its own in the target directory, so concurrent
    writers never share a temp path; it is renamed into place on success
    and removed on any error.  The temp file is created with the mode a
    plain ``open`` would give.  An unwritable target is a usage error,
    not a traceback."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as f:
                yield f
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise FplrsError(f"cannot write {path}: {exc.strerror}") from None


def _write_atomic(path: Path, text: str) -> None:
    with _atomic_open(path) as f:
        f.write(text)


def _check_out(out: str | None) -> None:
    """Refuse an ``--out`` that the payload could not be written to,
    before the command does any work: the path must not be a directory
    and its parent must be an existing, writable directory."""
    if not out:
        return
    path = Path(out)
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    elif not os.access(path.parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise FplrsError(f"cannot write {path}: {os.strerror(code)}")


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_atomic(Path(out), text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# Check lines shared by the verify suites


@dataclass(frozen=True)
class CheckLine:
    suite: str
    check: str
    status: bool
    detail: str = ""


def _report(lines: list[CheckLine], fmt: str, out: str | None) -> int:
    ok = all(line.status for line in lines)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["suite", "check", "status", "detail"])
        for line in lines:
            writer.writerow(
                [line.suite, line.check, "pass" if line.status else "fail", line.detail]
            )
        _emit(buf.getvalue(), out)
    else:
        chunks = [
            f"[{'PASS' if line.status else 'FAIL'}] {line.suite}: {line.check}"
            + (f" ({line.detail})" if line.detail else "")
            for line in lines
        ]
        chunks.append(
            f"{'OK' if ok else 'FAILED'}: {sum(l.status for l in lines)}/{len(lines)} checks passed"
        )
        _emit("\n".join(chunks), out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Suites


def _suite_rs(n_max: int) -> list[CheckLine]:
    lines = []
    for n in range(1, n_max + 1):
        r = groundstate.verify_rs(n)
        lines.append(
            CheckLine(
                "rs",
                f"(H-2n) kills the count vector, n={n}",
                r.rs_is_zero,
                r.first_violation,
            )
        )
        lines.append(
            CheckLine("rs", f"kernel equals counts, n={n}", r.kernel_matches_counts)
        )
        lines.append(
            CheckLine(
                "rs",
                f"component sum, n={n}",
                r.total == r.expected_total,
                f"{r.total} vs {r.expected_total}",
            )
        )
    return lines


def _suite_wieland(n_max: int) -> list[CheckLine]:
    lines = []
    for n in range(1, n_max + 1):
        plus = fplcore.refined_counts(n, "+")
        minus = fplcore.refined_counts(n, "-")
        lines.append(
            CheckLine("wieland", f"plus table equals minus table, n={n}", plus.counts == minus.counts)
        )
        rotated = {
            linkpat.rotate(linkpat.LinkPattern.from_word(w), 1).word: v
            for w, v in plus.counts.items()
        }
        lines.append(
            CheckLine("wieland", f"table invariant under rotation, n={n}", rotated == plus.counts)
        )
    k = gyration.square_rotation_direction()
    lines.append(
        CheckLine("wieland", f"gyration rotates patterns by R^{k}", k in (1, -1))
    )
    return lines


def _suite_orbits(n_max: int) -> list[CheckLine]:
    lines = []
    for n in range(1, n_max + 1):
        orbits = gyration.orbit_partition(n)
        total = sum(o.period for o in orbits)
        lines.append(
            CheckLine(
                "orbits",
                f"orbits partition the ensemble, n={n}",
                total == linkpat.asm_count_formula(n),
                f"{len(orbits)} orbits, {total} configs",
            )
        )
        bad_sum = 0
        class_pm: dict[tuple[str, tuple[int, int]], list[int]] = {}
        coherent = True
        for o in orbits:
            classes, faces = gyration.orbit_faces(o)
            coherent &= len(classes) == 1
            for alpha, (plus, minus) in faces.items():
                bad_sum += plus != minus
                pm = class_pm.setdefault((classes[0], alpha), [0, 0])
                pm[0] += plus
                pm[1] += minus
        bad_class = sum(1 for pm in class_pm.values() if pm[0] != pm[1])
        lines.append(
            CheckLine("orbits", f"orbit face sums vanish, n={n}", bad_sum == 0)
        )
        lines.append(
            CheckLine("orbits", f"class face sums vanish, n={n}", bad_class == 0)
        )
        lines.append(
            CheckLine("orbits", f"orbits stay in one rotation class, n={n}", coherent)
        )
        if n == 4:
            balanced = all(
                pm[0] == pm[1]
                for (word, alpha), pm in class_pm.items()
                if alpha == (3, 2)
            )
            lines.append(
                CheckLine("orbits", "per-class +1/-1 counts balance at face (3,2), n=4", balanced)
            )
    return lines


def _suite_identities(n_max: int) -> list[CheckLine]:
    results = identities.run_identity_suite(range(1, n_max + 1))
    return [
        CheckLine(
            "identities",
            f"{r.identity} n={r.n}" + (f" j={r.j}" if r.j is not None else ""),
            r.status,
            r.witness,
        )
        for r in results
    ]


def _tl_operators():
    """tl_e, rotate, close_c and add_a, each memoised for one suite call.

    The relations check each distinct sample once, with about 17
    operator calls each: 6 x 10^4 calls at n = 5 (3,792 distinct
    samples of 10^4) up to 1.6 x 10^5 at n = 7 (9,434), yet they meet
    only a few thousand distinct (pattern, index) pairs.  Patterns are
    interned, so every result is the one object for its matching and
    the memo holds each pattern once.  The memo lives only as long as
    the suite: the Hamiltonian calls the same operators at sizes where a
    lasting cache would hold millions of (pattern, index) pairs.
    """

    def memo(op):
        by_index: dict[int, dict[linkpat.LinkPattern, linkpat.LinkPattern]] = {}

        def call(p: linkpat.LinkPattern, j: int) -> linkpat.LinkPattern:
            results = by_index.get(j)
            if results is None:
                results = by_index[j] = {}
            q = results.get(p)
            if q is None:
                q = results[p] = op(p, j)
            return q

        return call

    return tuple(memo(op) for op in (linkpat.tl_e, linkpat.rotate, linkpat.close_c, linkpat.add_a))


def _check_tl_relations(n: int, samples, lines: list[CheckLine], label: str, ops) -> None:
    tl_e, rotate, close_c, add_a = ops
    size = 2 * n
    wrap = lambda j: ((j - 1) % size) + 1
    ok_a = ok_b = ok_c = ok_d = True
    ok_ca = ok_ac = ok_comm = True
    # each check is an AND, so a repeated sample adds nothing: check
    # every distinct one once, in first-seen order
    for p, i, j in dict.fromkeys(samples):
        ei = tl_e(p, i)
        ok_a &= ei == rotate(tl_e(rotate(p, -1), wrap(i + 1)), 1)
        ok_b &= tl_e(ei, i) == ei
        dist = min((i - j) % size, (j - i) % size)
        if dist > 1:
            ok_c &= tl_e(tl_e(p, j), i) == tl_e(ei, j)
        ok_d &= tl_e(tl_e(ei, wrap(i + 1)), i) == ei
        ok_d &= tl_e(tl_e(ei, wrap(i - 1)), i) == ei
        if i <= size - 1:
            ok_ca &= close_c(add_a(p, i), i) == p
            ok_ac &= add_a(close_c(p, i), i) == ei
        if j - i >= 2:
            if j <= size - 1 and i <= size - 3:
                ok_comm &= close_c(ei, j) == tl_e(close_c(p, j), i)
            if j <= size + 1:
                ok_comm &= add_a(ei, j) == tl_e(add_a(p, j), i)
    lines.append(CheckLine("tl", f"conjugation by rotation shifts indices, {label}", ok_a))
    lines.append(CheckLine("tl", f"generators are idempotent, {label}", ok_b))
    lines.append(CheckLine("tl", f"distant generators commute, {label}", ok_c))
    lines.append(CheckLine("tl", f"braid-like contraction, {label}", ok_d))
    lines.append(CheckLine("tl", f"cap after add is the identity, {label}", ok_ca))
    lines.append(CheckLine("tl", f"add after cap is the generator, {label}", ok_ac))
    lines.append(CheckLine("tl", f"caps commute with distant generators, {label}", ok_comm))


def _nonconsecutive_sets(size: int):
    """All subsets of 1..size-1 with no two consecutive members."""
    out = [()]
    for j in range(1, size):
        out += [s + (j,) for s in out if not s or s[-1] < j - 1]
    return out


def _suite_tl(n_max: int, seed: int) -> list[CheckLine]:
    lines: list[CheckLine] = []
    ops = _tl_operators()
    tl_e, _, close_c, add_a = ops
    for n in range(1, min(n_max, 4) + 1):
        size = 2 * n
        samples = [
            (p, i, j)
            for p in linkpat.all_patterns(n)
            for i in range(1, size + 1)
            for j in range(1, size + 1)
        ]
        _check_tl_relations(n, samples, lines, f"exhaustive n={n}", ops)
        ok_prod = True
        for p in linkpat.all_patterns(n):
            for js in _nonconsecutive_sets(size):
                lhs = p
                for j in sorted(js, reverse=True):
                    lhs = close_c(lhs, j)
                for j in sorted(js):
                    lhs = add_a(lhs, j)
                rhs = p
                for j in js:
                    rhs = tl_e(rhs, j)
                ok_prod &= lhs == rhs
        lines.append(
            CheckLine("tl", f"add/cap ladders reproduce generator products, exhaustive n={n}", ok_prod)
        )
    if n_max >= 5:
        rng = random.Random(seed)
        for n in range(5, min(n_max, 7) + 1):
            pats = linkpat.all_patterns(n)
            size = 2 * n
            samples = [
                (rng.choice(pats), rng.randint(1, size), rng.randint(1, size))
                for _ in range(10_000)
            ]
            _check_tl_relations(n, samples, lines, f"10^4 samples n={n}", ops)
    return lines


def _conservation_lines(d, t, parity, lines, label) -> None:
    g = lattice.glue_and_gamma(d, t, parity, allow_swaps=True)
    ok_inv = ok_triplet = ok_bc = True
    count = 0
    complement = t.complemented()
    for phi in fplcore.enumerate_configs(d, t):
        count += 1
        psi = gyration.apply_h(phi, g)
        ok_bc &= psi.boundary() == complement
        ok_inv &= gyration.apply_h(psi, g).bits == phi.bits
        ok_triplet &= gyration.pair_link_data(phi, g) == gyration.pair_link_data(psi, g)
    lines.append(
        CheckLine(
            "gyration-general",
            f"pass is an involution onto the complement, {label}",
            # the walk and the sweep share one transition function, so
            # this size check covers only the sweep's merge of its runs;
            # tests/dfs_oracle.py is the independent check of both
            ok_inv and ok_bc and count == fplcore.count_configs(d, t),
            f"{count} configs, swaps={g.swaps}",
        )
    )
    lines.append(
        CheckLine(
            "gyration-general",
            f"glued link data conserved, {label}",
            ok_triplet,
        )
    )


def _suite_gyration_general(n_max: int, seed: int) -> list[CheckLine]:
    lines: list[CheckLine] = []
    for n in range(1, min(n_max, 4) + 1):
        d, t = lattice.build_square(n, "+")
        for parity in ("plus", "minus"):
            _conservation_lines(d, t, parity, lines, f"square n={n} {parity}")
    rng = random.Random(seed)
    for k in range(50):
        n_cells = rng.randint(6, 24)
        parity = "plus" if k % 2 == 0 else "minus"
        d, t = sampling.random_glueable(rng, n_cells, parity)
        _conservation_lines(d, t, parity, lines, f"random domain #{k} ({len(d.cells)} cells, {parity})")
    for n in range(3, min(n_max, 5) + 1):
        for j in range(2, (n + 1) // 2 + 1):
            d, t = identities.shat_c_rectangle(n, j)
            for parity in ("plus", "minus"):
                r = gyration.generalized_gyration_check(d, t, parity)
                lines.append(
                    CheckLine(
                        "gyration-general",
                        f"capped tables agree on the c-state rectangle n={n} j={j} {parity}",
                        r.passed,
                        f"J1={list(r.j_left)} J2={list(r.j_right)}",
                    )
                )
    for k in range(15):
        d, t = sampling.random_glueable(rng, rng.randint(6, 16), "plus")
        r = gyration.generalized_gyration_check(d, t, "plus")
        lines.append(
            CheckLine(
                "gyration-general",
                f"capped tables agree on random domain #{k} ({len(d.cells)} cells)",
                r.passed,
                f"J1={list(r.j_left)} J2={list(r.j_right)} swaps={list(r.swaps)}",
            )
        )
    return lines


# ---------------------------------------------------------------------------
# Commands


def _threads(args) -> int:
    """The worker count: --threads, else FPLRS_THREADS, else 1.  A count
    below 1 is a usage error, not a quiet serial run."""
    if args.threads is not None:
        jobs, source = args.threads, "--threads"
    else:
        env = os.environ.get("FPLRS_THREADS")
        if not env:
            return 1
        try:
            jobs, source = int(env), "FPLRS_THREADS"
        except ValueError:
            raise FplrsError(f"FPLRS_THREADS must be an integer, got {env!r}") from None
    if jobs < 1:
        raise FplrsError(f"{source} must be positive, got {jobs}")
    return jobs


class _AboveCap(FplrsError):
    """A size above the soft cap: exit code 3, not a usage error."""


def _check_size(args) -> None:
    if args.n < 1:
        raise FplrsError(f"--n must be positive, got {args.n}")
    if args.max_n < 1:
        raise FplrsError(f"--max-n must be positive, got {args.max_n}")
    if args.n > args.max_n and not args.allow_large:
        raise _AboveCap(
            f"n={args.n} exceeds the default cap {args.max_n}; pass --allow-large"
        )


def cmd_enumerate(args) -> int:
    _check_size(args)
    jobs = _threads(args)
    table = lambda: fplcore.refined_counts(args.n, args.sign, jobs=jobs).to_json()
    _emit(_cached(args, "enumerate", table, n=args.n, sign=args.sign), args.out)
    return 0


def cmd_groundstate(args) -> int:
    _check_size(args)
    vector = lambda: linkpat.lp_vector_to_json(groundstate.stationary_vector(args.n))
    text = _cached(args, "groundstate", vector, n=args.n)
    _emit(text, args.out)
    data = json.loads(text)
    values = [int(v) for v in data["entries"].values()]
    print(
        f"n={args.n}: max component {max(values)}, sum {sum(values)}"
        f" (product formula {linkpat.asm_count_formula(args.n)})",
        file=sys.stderr,
    )
    return 0


SUITES = {
    "rs": lambda args: _suite_rs(args.n_max),
    "wieland": lambda args: _suite_wieland(args.n_max),
    "orbits": lambda args: _suite_orbits(args.n_max),
    "identities": lambda args: _suite_identities(args.n_max),
    "tl": lambda args: _suite_tl(args.n_max, args.seed),
    "gyration-general": lambda args: _suite_gyration_general(args.n_max, args.seed),
}


def cmd_verify(args) -> int:
    if args.n_max < 1:
        raise FplrsError(f"--n-max must be positive, got {args.n_max}")
    return _report(SUITES[args.suite](args), args.format, args.out)


def _orbit_rows(n: int, sign: str, f) -> None:
    """Write the orbit-report CSV to f row by row, as the orbits come."""
    writer = csv.writer(f)
    writer.writerow(["orbit_id", "period", "link_class", "plaquette", "sum"])
    for oid, o in enumerate(gyration.orbit_partition(n, sign)):
        classes, faces = gyration.orbit_faces(o)
        for (x, y), (plus, minus) in faces.items():
            writer.writerow([oid, o.period, classes[0], f"{x},{y}", plus - minus])


def cmd_orbit_report(args) -> int:
    _check_size(args)
    if args.out:
        with _atomic_open(Path(args.out)) as f:
            _orbit_rows(args.n, args.sign, f)
    else:
        _orbit_rows(args.n, args.sign, sys.stdout)
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
        p.add_argument("--allow-large", action="store_true")
        p.add_argument(
            "--max-n",
            type=int,
            default=DEFAULT_MAX_N,
            help=f"soft size cap (default {DEFAULT_MAX_N})",
        )

    p_enum = sub.add_parser("enumerate", help="write a per-pattern count table")
    sized(p_enum)
    p_enum.add_argument("--sign", choices=["+", "-"], default="+")
    p_enum.add_argument("--threads", type=int, help="worker count (FPLRS_THREADS)")
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
    p_ver.add_argument("--seed", type=int, default=20100615)
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
        _check_out(args.out)
        return args.func(args)
    except FplrsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, _AboveCap) else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
