"""The command-line surface: outputs, caching, exit codes."""

import csv
import errno
import hashlib
import io
import json
import os
import random
import stat
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import fplrs
from fplrs import cli, fplcore, groundstate, gyration, identities, lattice, linkpat, sampling, suites
from fplrs.errors import FplrsError, InvalidTriplet, NonUniqueGamma
from fplrs.cli import Cache, main
from fplrs.linkpat import all_patterns, tl_e


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _files(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in root.iterdir()}


def _alter_the_entry(root: Path, change) -> dict:
    """Replace the bytes of the cache's one entry, its only file, by
    change(bytes), which must differ; the files as they were before."""
    stored = _files(root)
    ((name, data),) = stored.items()
    altered = change(data)
    assert altered != data
    (root / name).write_bytes(altered)
    return stored


class TestEnumerate:
    def test_table_n4(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 4 and data["sign"] == "+"
        assert len(data["counts"]) == 14
        assert sum(int(v) for v in data["counts"].values()) == 42

    def test_single_key_at_n1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1")
        assert code == 0
        assert json.loads(out)["counts"] == {"()": "1"}

    def test_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "8")
        assert code == 3
        assert "allow-large" in err

    def test_threads_do_not_change_output(self, capsys):
        _, serial, _ = run(capsys, "enumerate", "--n", "4")
        _, parallel, _ = run(capsys, "enumerate", "--n", "4", "--threads", "2")
        assert serial == parallel

    def test_cache_round_trip(self, capsys, tmp_path, monkeypatch):
        args = ("enumerate", "--n", "3", "--cache-dir", str(tmp_path))
        code1, out1, _ = run(capsys, *args)
        stored = _files(tmp_path)
        assert len(stored) == 1, "one entry, one file"

        def recompute(*args, **kwargs):
            raise AssertionError("a warm run recomputed its table")

        monkeypatch.setattr(fplcore, "refined_counts", recompute)
        code2, out2, _ = run(capsys, *args)
        assert (code1, code2) == (0, 0)
        assert out1 == out2
        assert _files(tmp_path) == stored

    def test_out_file_written_atomically(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["counts"] == {"(())": "1", "()()": "1"}
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_out_and_cache_files_get_plain_open_mode(self, capsys, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            run(capsys, "enumerate", "--n", "3", "--out", str(tmp_path / "t.json"),
                "--cache-dir", str(tmp_path / "cache"))
        finally:
            os.umask(old)
        plain = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
        written = [tmp_path / "t.json", *(tmp_path / "cache").iterdir()]
        assert len(written) == 2
        assert {stat.S_IMODE(p.stat().st_mode) for p in written} == {plain}

    # An entry is one file: the payload's sha256 and the key, a line
    # each, which are its meta, and then the payload.

    def test_corrupted_cache_is_recomputed(self, capsys, tmp_path):
        args = ("enumerate", "--n", "2", "--cache-dir", str(tmp_path))
        _, out1, _ = run(capsys, *args)
        stored = _alter_the_entry(tmp_path, lambda data: data + b" ")
        code, out2, _ = run(capsys, *args)
        assert code == 0 and out1 == out2
        assert _files(tmp_path) == stored

    def test_garbage_meta_is_recomputed(self, capsys, tmp_path):
        def garble_key(data):
            # same length, so only the key check can tell
            checksum, key, payload = data.split(b"\n", 2)
            return b"\n".join([checksum, b"?" * len(key), payload])

        args = ("enumerate", "--n", "3", "--cache-dir", str(tmp_path))
        _, out1, _ = run(capsys, *args)
        stored = _alter_the_entry(tmp_path, garble_key)
        code, out2, _ = run(capsys, *args)
        assert code == 0 and out1 == out2
        assert _files(tmp_path) == stored

    def test_undecodable_payload_is_recomputed(self, capsys, tmp_path):
        args = ("enumerate", "--n", "3", "--cache-dir", str(tmp_path))
        _, out1, _ = run(capsys, *args)
        stored = _alter_the_entry(tmp_path, lambda data: b"\xff\xfe garbage")
        code, out2, _ = run(capsys, *args)
        assert code == 0 and out1 == out2
        assert _files(tmp_path) == stored

    def test_unreadable_meta_is_a_miss_whose_write_fails(self, capsys, tmp_path):
        # a directory at the entry path cannot be read, so the table is
        # recomputed; storing it then fails as any unwritable path does
        args = ("enumerate", "--n", "3", "--cache-dir", str(tmp_path))
        run(capsys, *args)
        (entry,) = tmp_path.iterdir()
        entry.unlink()
        entry.mkdir()
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {entry}: ") and len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == [entry.name]


class TestCache:
    def test_a_failing_write_is_a_usage_error(self, tmp_path, monkeypatch):
        # a full disk fails the entry's one write: that is the entry's
        # error, as one of its open or rename would be, and no temp file stays
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def full(path, mode):
            open(path, mode).close()
            return Full()

        monkeypatch.setattr(cli, "open", full, raising=False)
        with pytest.raises(FplrsError, match=r"^cannot write .*: No space left on device$"):
            Cache(tmp_path).put("key", "text")
        assert not list(tmp_path.iterdir())

    def test_concurrent_puts_to_one_key(self, tmp_path):
        cache = Cache(tmp_path)
        errors = []

        def writer():
            try:
                for _ in range(50):
                    cache.put("k", "payload")
            except Exception as exc:  # reported through the list below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert cache.get("k") == "payload"
        assert not list(tmp_path.glob("*.tmp"))


    def test_entries_are_keyed_by_the_source(self, tmp_path):
        # an entry that other code computed is a miss: one comment byte
        # changed in a copy of the package gives a second entry
        import shutil

        pkg = tmp_path / "src" / "fplrs"
        shutil.copytree(Path(fplrs.__file__).parent, pkg, ignore=shutil.ignore_patterns("__pycache__"))
        cache = tmp_path / "cache"
        env = dict(os.environ, PYTHONPATH=str(pkg.parent))
        argv = [sys.executable, "-m", "fplrs.cli", "enumerate", "--n", "2", "--cache-dir", str(cache)]

        def entries():
            result = subprocess.run(argv, env=env, capture_output=True, text=True)
            assert (result.returncode, result.stderr) == (0, "")
            return sorted(p.name for p in cache.iterdir())

        stored = entries()
        assert len(stored) == 1 and entries() == stored
        source = pkg / "cli.py"
        text = source.read_text()
        assert text.count("\n# Cache\n") == 1
        source.write_text(text.replace("\n# Cache\n", "\n# cache\n"))
        assert len(entries()) == 2


class TestGroundstate:
    def test_small_vector(self, capsys):
        code, out, err = run(capsys, "groundstate", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == {"()()": "1", "(())": "1"}
        assert "sum 2" in err and "product formula 2" in err

    def test_sum_matches_formula_n3(self, capsys):
        code, out, err = run(capsys, "groundstate", "--n", "3")
        assert code == 0
        values = [int(v) for v in json.loads(out)["entries"].values()]
        assert sum(values) == 7

    def test_summary_line_n4(self, capsys):
        code, _, err = run(capsys, "groundstate", "--n", "4")
        assert code == 0
        assert err == "n=4: max component 7, sum 42 (product formula 42)\n"

    def test_rejected_ground_state_is_a_verification_failure(self, capsys, tmp_path, monkeypatch):
        # a power step that drops one quotient entry never reaches the
        # true vector: exit 1 with one error line, nothing on stdout and
        # nothing cached
        real = groundstate._times_rows

        def dropped(rows, x, shift):
            first = dict(rows[0])
            del first[next(iter(first))]
            return real([first] + rows[1:], x, shift)

        monkeypatch.setattr(groundstate, "_times_rows", dropped)
        code, out, err = run(capsys, "groundstate", "--n", "3", "--cache-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: no exact kernel vector")
        assert not list(tmp_path.iterdir())


class TestVerify:
    def test_rs_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "rs", "--n-max", "3")
        assert code == 0
        assert "OK" in out and "FAIL" not in out

    def test_identities_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "identities", "--n-max", "3")
        assert code == 0

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "tl", "--n-max", "2", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["suite", "check", "status", "detail"]
        assert all(row[2] == "pass" for row in rows[1:])

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "nonsense"])
        assert info.value.code == 2

    def test_rotation_fault_is_a_fail_line(self, capsys, monkeypatch):
        # a gyration that rotates patterns by no one power of R fails
        # the wieland line and exits 1, without raising
        monkeypatch.setattr(gyration, "rotate", lambda p, k: None)
        code, out, _ = run(capsys, "verify", "wieland", "--n-max", "2")
        assert code == 1
        assert "[FAIL] wieland: gyration rotates patterns by R^-1" in out.splitlines()

    def test_swapped_orbit_step_is_a_fail_line(self, capsys, monkeypatch):
        # one n = 4 orbit lists two adjacent patterns swapped; both stay
        # in the orbit's rotation class, so only the step rule sees it
        real = gyration.orbit_partition

        def swapped(n, sign="+"):
            orbits = real(n, sign)
            if n == 4:
                i = next(i for i, o in enumerate(orbits) if len(set(o.patterns)) >= 3)
                ps = orbits[i].patterns
                assert linkpat.rotation_class_of(ps[0]) is linkpat.rotation_class_of(ps[1])
                orbits[i] = orbits[i]._replace(patterns=(ps[1], ps[0]) + ps[2:])
            return orbits

        monkeypatch.setattr(gyration, "orbit_partition", swapped)
        code, out, _ = run(capsys, "verify", "orbits", "--n-max", "4")
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert code == 1
        assert failed == ["[FAIL] orbits: orbits stay in one rotation class, n=4"]


    @pytest.mark.parametrize("suite", ["rs", "wieland", "orbits", "identities"])
    def test_seed_for_a_suite_that_draws_nothing_is_refused(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite, "--n-max", "2", "--seed", "5")
        assert (code, out) == (2, "")
        assert err.startswith("error: --seed ") and err.count("\n") == 1

    def test_tl_draws_from_the_default_seed(self, capsys):
        default = run(capsys, "verify", "tl", "--n-max", "5")
        seeded = run(capsys, "verify", "tl", "--n-max", "5", "--seed", "20100615")
        assert default == seeded and default[0] == 0
        assert "10^4 samples n=5" in default[1]

    def test_failing_capped_line_names_its_first_difference(self, monkeypatch):
        # one extra count on the right side of every comparison: each
        # capped line fails, and its detail ends with the witness
        real = gyration._capped_vector
        calls = []

        def lopsided(d, t, pairs):
            caps, vec = real(d, t, pairs)
            calls.append(None)
            if len(calls) % 2 == 0:
                p = min(linkpat.all_patterns(vec.n), key=lambda p: p.word)
                vec = vec + linkpat.LpVector(vec.n, {p: 1})
            return caps, vec

        monkeypatch.setattr(gyration, "_capped_vector", lopsided)
        lines = [
            line for line in suites._suite_gyration_general(3, 1)
            if line.check.startswith("capped tables agree")
        ]
        assert lines and not any(line.status for line in lines)
        rectangle = lines[0]
        assert rectangle.check == "capped tables agree on the c-state rectangle n=3 j=2 plus"
        assert rectangle.detail.startswith("J1=") and " != " in rectangle.detail
        for line in lines:
            witness = line.detail.rsplit("; ", 1)[1]
            word, counts = witness.split(": ")
            a, b = map(int, counts.split(" != "))
            assert set(word) <= set("()") and b == a + 1

    def test_conservation_line_checks_the_count(self, monkeypatch):
        # the involution line also fails when the DFS and the sweep
        # disagree on the ensemble's size; its text stays the same
        from fplrs.lattice import build_square, glue_and_gamma

        d, t = build_square(3, "+")
        g = glue_and_gamma(d, t, "plus")
        honest = list(suites._conservation_lines(t, g, "plus", "square n=3 plus"))[0]
        monkeypatch.setattr(fplcore, "count_configs", lambda d, t: 6)
        miscounted = list(suites._conservation_lines(t, g, "plus", "square n=3 plus"))[0]
        assert honest.status and not miscounted.status
        assert (honest.check, honest.detail) == (miscounted.check, miscounted.detail)

    def test_conservation_line_checks_the_boundary(self, monkeypatch):
        # the identity is an involution, keeps the link data and the
        # count, so only the compare of the termination bits with the
        # complement's can catch it
        from fplrs.lattice import build_square, glue_and_gamma

        d, t = build_square(2, "+")
        monkeypatch.setattr(gyration, "apply_h", lambda bits, g: bits)
        g = glue_and_gamma(d, t, "plus")
        involution, link = suites._conservation_lines(t, g, "plus", "square n=2 plus")
        assert involution.check == "pass is an involution onto the complement, square n=2 plus"
        assert not involution.status
        assert link.check == "glued link data conserved, square n=2 plus" and link.status


@pytest.mark.parametrize("repeats", [1, 2], ids=["once", "repeated"])
def test_tl_fault_reached_by_one_sample_fails_its_line(monkeypatch, repeats):
    # tl_e gives a wrong pattern for one (q, k) that a single distinct
    # sampled triple reaches, occurring once or twice in the n = 5
    # sample; checking each distinct triple once must still report it.
    # q is taken from LP(6), which only the cap relations of n = 5 reach
    # when the suite stops at n-max 5.
    seed = 20100615
    rng = random.Random(seed)
    pats = all_patterns(5)
    samples = [(rng.choice(pats), rng.randint(1, 10), rng.randint(1, 10)) for _ in range(10_000)]
    ops = suites._tl_operators()
    reached = {}
    for sample in dict.fromkeys(samples):
        def spy(q, k, sample=sample):
            reached.setdefault((q, k), set()).add(sample)
            return ops[0](q, k)

        list(suites._check_tl_relations(5, [sample], "", (spy, *ops[1:])))
    times = Counter(samples)
    key = next(
        key for key, by in reached.items()
        if key[0].n == 6 and len(by) == 1 and times[next(iter(by))] == repeats
        and tl_e(*key) != key[0]
    )
    real = linkpat.tl_e
    monkeypatch.setattr(linkpat, "tl_e", lambda q, k: q if (q, k) == key else real(q, k))
    failed = [line.check for line in suites._suite_tl(5, seed) if not line.status]
    assert failed == ["caps commute with distant generators, 10^4 samples n=5"]


_OTHER = {"plus": "minus", "minus": "plus"}


class TestSuiteFaults:
    """A raise inside a suite is a report line: the lines written before
    it stand, a ``[FAIL] <suite>: raised ...`` line follows, and the
    command exits 1; running out of memory exits 3."""

    @staticmethod
    def _sampler(monkeypatch, gluing):
        # the sampler hands out gluing(d, t, g, parity) in place of g
        real = sampling.random_glueable

        def draw(rng, n_cells, parity="plus"):
            d, t, g = real(rng, n_cells, parity)
            return d, t, gluing(d, t, g, parity)

        monkeypatch.setattr(sampling, "random_glueable", draw)

    @staticmethod
    def _faulty_run(capsys, honest, reason):
        code, out, err = run(capsys, "verify", "gyration-general", "--n-max", "5")
        lines = out.splitlines()
        # the squares draw nothing, so their 16 lines are the honest ones
        assert (code, err) == (1, "") and len(lines) > 17
        assert lines[:16] == honest.splitlines()[:16]
        assert lines[-1].startswith("FAILED: ")
        assert lines[-2].startswith(f"[FAIL] gyration-general: {reason}")
        return lines

    def test_other_parity_gluing_is_a_fail_line(self, capsys, monkeypatch):
        # mutant (a): the other parity's gluing; the first one that
        # does not glue raises InvalidTriplet, a package error
        honest = run(capsys, "verify", "gyration-general", "--n-max", "5")[1]
        self._sampler(monkeypatch, lambda d, t, g, parity: lattice.glue_and_gamma(d, t, _OTHER[parity]))
        self._faulty_run(capsys, honest, "raised InvalidTriplet: no convex-corner swap fixes pair ")

    def test_previous_draw_gluing_is_a_fail_line(self, capsys, monkeypatch):
        # mutant (b): each draw after the first reads the previous
        # draw's gluing.  Draw #1's colours walk none of draw #0's
        # domain, which fails its line; draw #2's do not fit draw #1's
        # domain, and the walk raises
        honest = run(capsys, "verify", "gyration-general", "--n-max", "5")[1]
        drawn = []

        def previous(d, t, g, parity):
            drawn.append(g)
            return drawn[-2] if len(drawn) > 1 else g

        self._sampler(monkeypatch, previous)
        lines = self._faulty_run(capsys, honest, "raised ValueError: ")
        assert len(lines) == 22 and lines[:18] == honest.splitlines()[:18]
        assert lines[18].startswith("[FAIL] gyration-general: pass is an involution onto the complement, random domain #1 ")

    def test_other_parity_where_it_glues_fails_the_involution_line(self, capsys, monkeypatch):
        # the variant of (a) raises nothing; the parity tie fails the
        # involution line of each draw handed the other parity's gluing
        honest = run(capsys, "verify", "gyration-general", "--n-max", "5")[1]

        def other_where_it_glues(d, t, g, parity):
            try:
                return lattice.glue_and_gamma(d, t, _OTHER[parity])
            except (InvalidTriplet, NonUniqueGamma):
                return g

        self._sampler(monkeypatch, other_where_it_glues)
        code, out, err = run(capsys, "verify", "gyration-general", "--n-max", "5")
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert (code, err) == (1, "") and failed
        assert all(
            line.startswith("[FAIL] gyration-general: pass is an involution onto the complement, random domain #")
            for line in failed
        )
        assert len(out.splitlines()) == len(honest.splitlines())

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_second_line_raising_keeps_the_first(self, capsys, monkeypatch, fmt):
        def suite(args):
            yield suites.CheckLine("rs", "first", True)
            raise ValueError("second")

        monkeypatch.setitem(cli.SUITES, "rs", suite)
        code, out, err = run(capsys, "verify", "rs", "--n-max", "1", "--format", fmt)
        assert (code, err) == (1, "")
        if fmt == "text":
            assert out == "[PASS] rs: first\n[FAIL] rs: raised ValueError: second\nFAILED: 1/2 checks passed\n"
        else:
            assert list(csv.reader(io.StringIO(out)))[1:] == [
                ["rs", "first", "pass", ""], ["rs", "raised ValueError: second", "fail", ""]
            ]

    def test_out_of_memory_is_a_resource_limit(self, capsys, monkeypatch):
        real = groundstate.verify_rs

        def verify_rs(n):
            if n == 2:
                raise MemoryError
            return real(n)

        monkeypatch.setattr(groundstate, "verify_rs", verify_rs)
        code, out, err = run(capsys, "verify", "rs", "--n-max", "3")
        assert (code, err) == (3, "error: out of memory\n")
        # the three lines of n = 1 stand; the summary is not written
        assert [line[:13] for line in out.splitlines()] == ["[PASS] rs: (H", "[PASS] rs: ke", "[PASS] rs: co"]

    def test_identity_raising_keeps_the_smaller_sizes(self, capsys, monkeypatch):
        # the identity suite yields each result as its check runs, so a
        # check that raises at n = 3 keeps every line of n = 1 and 2
        honest = run(capsys, "verify", "identities", "--n-max", "2")[1].splitlines()[:-1]
        sites, check = identities._REGISTRY["ec"]

        def ec(n, j):
            if n == 3:
                raise RuntimeError("boom")
            return check(n, j)

        monkeypatch.setitem(identities._REGISTRY, "ec", (sites, ec))
        code, out, err = run(capsys, "verify", "identities", "--n-max", "3")
        lines = out.splitlines()
        assert (code, err) == (1, "") and len(honest) > 10
        assert lines[:len(honest)] == honest
        # the identities registered before ec ran at n = 3 too
        assert all(line.startswith("[PASS] identities: ") and "n=3" in line for line in lines[len(honest):-2])
        assert lines[-2:] == [
            "[FAIL] identities: raised RuntimeError: boom",
            f"FAILED: {len(lines) - 2}/{len(lines) - 1} checks passed",
        ]


class TestOut:
    VERIFY_RS = ("verify", "rs", "--n-max", "4")

    @pytest.mark.parametrize(
        "argv, failing",
        [
            (("enumerate", "--n", "4", "--sign", "+"), False),
            (("enumerate", "--n", "4", "--sign", "-"), False),
            (("groundstate", "--n", "4"), False),
            ((*VERIFY_RS, "--format", "text"), False),
            ((*VERIFY_RS, "--format", "csv"), False),
            ((*VERIFY_RS, "--format", "text"), True),
            ((*VERIFY_RS, "--format", "csv"), True),
            (("orbit-report", "--n", "4"), False),
        ],
        ids=[
            "enumerate-plus", "enumerate-minus", "groundstate",
            "verify-passing-text", "verify-passing-csv", "verify-failing-text", "verify-failing-csv",
            "orbit-report",
        ],
    )
    def test_out_file_is_the_stdout_stream(self, capsys, tmp_path, monkeypatch, argv, failing):
        # every command writes the same bytes to --out as to stdout, and
        # the same exit code and stderr; one failing check line included
        if failing:
            real = cli.SUITES["rs"]
            monkeypatch.setitem(
                cli.SUITES, "rs",
                lambda args: (line._replace(status=i != 4) for i, line in enumerate(real(args))),
            )
        code, out, err = run(capsys, *argv)
        assert code == failing and ("fail" in out.lower()) == failing
        target = tmp_path / "out"
        assert run(capsys, *argv, "--out", str(target)) == (code, "", err)
        assert target.read_bytes() == out.encode()
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_an_error_of_the_work_is_not_blamed_on_the_file(self, tmp_path, monkeypatch):
        # an OSError that the command raises, as a pool that cannot start
        # its workers would, escapes with --out exactly as without it,
        # and leaves neither the target nor a temp file behind
        def refused(*args, **kwargs):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(fplcore, "refined_counts", refused)
        argv = ["enumerate", "--n", "3"]
        with pytest.raises(OSError) as bare:
            main(argv)
        with pytest.raises(OSError) as out:
            main([*argv, "--out", str(tmp_path / "F")])
        assert (type(out.value), out.value.args) == (type(bare.value), bare.value.args)
        assert not list(tmp_path.iterdir())


class TestOrbitReport:
    def test_failed_report_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        # rows are written as the orbits come; a run that fails part way
        # removes its temp file and never creates the target
        def broken(o):
            raise AssertionError("gyration left the ensemble")

        monkeypatch.setattr(gyration, "orbit_faces", broken)
        with pytest.raises(AssertionError):
            main(["orbit-report", "--n", "3", "--out", str(tmp_path / "orbits.csv")])
        assert not list(tmp_path.iterdir())

    def test_csv_rows_all_zero(self, capsys):
        code, out, _ = run(capsys, "orbit-report", "--n", "3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["orbit_id", "period", "link_class", "plaquette", "sum"]
        body = rows[1:]
        assert body and all(r[4] == "0" for r in body)
        periods = {int(r[0]): int(r[1]) for r in body}
        assert sum(periods.values()) == 7


class TestUsage:
    def test_missing_required_n(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["enumerate", "groundstate", "orbit-report"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_size_is_usage_error(self, capsys, command, n):
        code, out, err = run(capsys, command, "--n", n)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1

    @staticmethod
    def _rejected_by_the_parser(capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == "" and err.startswith("usage: ")
        return [line for line in err.splitlines() if "error:" in line]

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_nonpositive_cap_is_usage_error(self, capsys, cap):
        # there is no cap to set: the parser refuses --max-n outright
        errors = self._rejected_by_the_parser(capsys, ("enumerate", "--n", "3", "--max-n", cap))
        assert errors == [f"fplrs: error: unrecognized arguments: --max-n {cap}"]

    @pytest.mark.parametrize("command", ["enumerate", "groundstate", "orbit-report"])
    def test_max_n_is_no_option(self, capsys, command):
        # the cap is DEFAULT_MAX_N; --allow-large is the one way past it
        errors = self._rejected_by_the_parser(capsys, (command, "--n", "3", "--max-n", "3"))
        assert errors == ["fplrs: error: unrecognized arguments: --max-n 3"]

    def test_empty_verify_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "rs", "--n-max", "0")
        assert code == 2 and "OK" not in out
        assert len(err.strip().splitlines()) == 1

    def test_threads_env_is_not_read(self, capsys, monkeypatch):
        _, want, _ = run(capsys, "enumerate", "--n", "3")
        monkeypatch.setenv("FPLRS_THREADS", "abc")
        assert run(capsys, "enumerate", "--n", "3") == (0, want, "")

    @pytest.mark.parametrize(
        "threads", ["0", "-4", pytest.param(str((os.cpu_count() or 1) + 1), id="cpus+1")]
    )
    def test_nonpositive_threads_is_usage_error(self, capsys, threads):
        # a count above the CPUs is refused before any pool starts
        code, out, err = run(capsys, "enumerate", "--n", "2", "--threads", threads)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_nonpositive_threads_on_a_cache_hit_is_usage_error(self, capsys, tmp_path):
        # rejected on a cache hit too, not only when the table is computed
        args = ("enumerate", "--n", "2", "--cache-dir", str(tmp_path))
        assert run(capsys, *args)[0] == 0
        assert any(tmp_path.iterdir())
        code, out, err = run(capsys, *args, "--threads", "0")
        assert code == 2 and out == ""
        assert err == "error: --threads must be positive, got 0\n"
        cpus = os.cpu_count() or 1
        code, out, err = run(capsys, *args, "--threads", str(cpus + 1))
        assert code == 2 and out == ""
        assert err == f"error: --threads must be at most the {cpus} CPUs, got {cpus + 1}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("groundstate", "--n", "2", "--threads", "2"),
            ("orbit-report", "--n", "2", "--threads", "2"),
            ("orbit-report", "--n", "2", "--cache-dir", "unused"),
        ],
    )
    def test_flags_a_command_ignores_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0


class TestUnwritablePaths:
    """A path the command cannot write is a usage error (exit 2, one
    ``error:`` line), not a traceback that reads as a failed check."""

    @pytest.mark.parametrize(
        "argv",
        [("enumerate", "--n", "2"), ("groundstate", "--n", "2"), ("verify", "tl", "--n-max", "1")],
        ids=["enumerate", "groundstate", "verify"],
    )
    def test_out_in_missing_directory(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "out"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_out_is_checked_before_the_suite_runs(self, capsys, tmp_path, monkeypatch, where):
        # each command's first layer call raises: --out is refused before it
        def layer(*args, **kwargs):
            raise AssertionError("the command ran before --out was checked")

        monkeypatch.setattr(fplcore, "refined_counts", layer)
        monkeypatch.setattr(groundstate, "stationary_vector", layer)
        monkeypatch.setattr(gyration, "orbit_partition", layer)
        monkeypatch.setitem(cli.SUITES, "identities", layer)
        out_path = tmp_path / "missing" / "x" if where == "missing" else tmp_path
        for argv in [
            ("enumerate", "--n", "6"),
            ("groundstate", "--n", "6"),
            ("verify", "identities", "--n-max", "6"),
            ("orbit-report", "--n", "6"),
        ]:
            with pytest.raises(AssertionError, match="before --out"):
                main(list(argv))
            capsys.readouterr()
            code, out, err = run(capsys, *argv, "--out", str(out_path))
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: cannot write {out_path}: ") and len(err.splitlines()) == 1
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("command", ["enumerate", "groundstate"])
    def test_cache_dir_is_a_file(self, capsys, tmp_path, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(capsys, command, "--n", "2", "--cache-dir", str(blocker))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_cache_env_is_a_file(self, capsys, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("FPLRS_CACHE_DIR", str(blocker))
        code, out, err = run(capsys, "enumerate", "--n", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


class TestPinnedOutputs:
    """SHA-256 of stdout payloads that refactors of the orbit code, of
    the identity census, of the RS certificate, of the gyration pass, of
    the glued tracer, of the suites, of the reports and of the count
    vectors must keep byte for byte."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("orbit-report", "--n", "4", "--sign", "+"),
             "cb10b6ae88de3b0694f39b15eb412b400ed1ab16a2a8e69f9b5c5656e0a56559"),
            (("orbit-report", "--n", "4", "--sign", "-"),
             "0fbdd101951c8f5ce8229ece81cc956657945c356252c7bb77eeeb3525dc422e"),
            (("verify", "orbits", "--n-max", "4"),
             "faee3b166f47b458dd86ea6c219f2ec07f123e85648f1dd686d1ab753a314fc5"),
            (("verify", "identities", "--n-max", "5"),
             "f8a6acf357040fe8cea4f5c7a05281622c2b897a4e9530a38a9f184a9fd2ebfa"),
            (("verify", "identities", "--n-max", "6"),
             "5650ae4b90b52294fa410f8bba202b6b85ea7ad97e951975d211496bfef059db"),
            pytest.param(
                ("verify", "identities", "--n-max", "7"),
                "1dadd96cba2cd3b9b9f41ab8ff0bac2b947ad23af4b05f3d9aa7fa4f56dd0468",
                marks=pytest.mark.slow,
            ),
            (("verify", "rs", "--n-max", "6"),
             "47edfbd323638f5799e3ed01b1f5b5ff70777ab40827e84fbfd03775354aa560"),
            (("verify", "tl", "--n-max", "7"),
             "2d38c801e59db71539ed2d9339c15c92a758bd470977ae6f0a13072bea953c21"),
            (("verify", "orbits", "--n-max", "6"),
             "5a33ed175b725fbb6456df0a3d4e04c4d230778d0afcaac33967b605ab08ebf8"),
            (("verify", "gyration-general", "--n-max", "4", "--seed", "1"),
             "dabfe0f091a605352c5330f933304d5b5370072c82cf10d76f5a44f2cc502107"),
            (("verify", "gyration-general", "--n-max", "5"),
             "513d2fa224209a0e5221c5e70e706334ddda18e98a63eecd0708bf470900857f"),
            (("verify", "gyration-general", "--n-max", "5", "--seed", "1"),
             "c55ceb813e907d70feea94c18dfa34daff0336cfa5564833a230f0a8823174ae"),
            (("verify", "gyration-general", "--n-max", "5", "--seed", "7"),
             "90020231adebb04cc447517adecfb4f6dc8c173f15aa6e72e67a1a0e107613b9"),
            (("orbit-report", "--n", "6", "--sign", "+"),
             "3e32b56bd4ba397a1c4d69cdc488ade91c97ab3bdce30d52e93e749376ef9da7"),
            (("orbit-report", "--n", "6", "--sign", "-"),
             "18c9afa13cbaed2575fd33d76f5d9bccf9643716b3b5974816a261cb58d14f9a"),
            (("verify", "gyration-general", "--n-max", "5", "--seed", "10216"),
             "95a112d0a201af69d89bac671d2dca51d8c2e6174d364f9921795c12f027cd19"),
            (("verify", "gyration-general", "--n-max", "5", "--seed", "10314"),
             "61e1c17809e92bcf1404fcf6c952a4c0501ee78f96ed9af8a3df5ae9373da846"),
            (("verify", "gyration-general", "--n-max", "5", "--seed", "10404"),
             "92f2e64e3a0111b39e640d8e2c875bb3a1ffa4d39ae0c432d6d6ea1edd3fb80b"),
            (("verify", "tl", "--n-max", "7", "--seed", "5"),
             "2d38c801e59db71539ed2d9339c15c92a758bd470977ae6f0a13072bea953c21"),
            (("verify", "wieland", "--n-max", "6"),
             "a48fb5feddc2b9073502709430f9860ff7d47daa0079d70393a01e6cd888d1d4"),
            (("verify", "rs", "--n-max", "4", "--format", "csv"),
             "867a62906223a97f1019791c1dfbc8554b395bd15620282f171fdda79db84457"),
            (("enumerate", "--n", "5", "--sign", "+"),
             "ca5d6c9bc46da1413664238b8e74f43e9ea54dd91fca9251d06154421595a47d"),
            (("enumerate", "--n", "6", "--sign", "-"),
             "287bfa2c4c14d374fc8641eb30d7a7e0cb9d18510b3c1f9aaa5ecd42b0140fa1"),
            (("groundstate", "--n", "6"),
             "bf621ed9c313c44bfc69956676d30e8c84bdd784228316b2463eef42e400b2dc"),
            (("groundstate", "--n", "7"),
             "2aeb142bf08c093bcf84137fd8f9b19c6cdadf4d2071f7ce6a9d9480cdc7a12a"),
            (("groundstate", "--n", "8", "--allow-large"),
             "d4775d9971c0a81293c1e032169ba3bd251a3a9380b014e40e4335f95d8e3b54"),
            pytest.param(
                ("groundstate", "--n", "9", "--allow-large"),
                "f14ca3e61f09d748b7c3b347a08553f194496a17acea323d86005f43a88ceea3",
                marks=pytest.mark.slow,
            ),
            pytest.param(
                ("groundstate", "--n", "10", "--allow-large"),
                "09926d3bf6fba88e2df80d497bf62481fbf25c98958a7eb5a38c22242d656135",
                marks=pytest.mark.slow,
            ),
            pytest.param(
                ("enumerate", "--n", "8", "--allow-large"),
                "8f4033f2a348acd34187bdfc1b082e77cfaad2d8a1c2d94ae93a817dabb1d8e0",
                marks=pytest.mark.slow,
            ),
            pytest.param(
                ("enumerate", "--n", "8", "--allow-large", "--sign", "-"),
                "5a0e594f51d956902f663bf7cf866bb8692a0c78ad623436107eaada5c252339",
                marks=pytest.mark.slow,
            ),
            pytest.param(
                ("verify", "identities", "--n-max", "8"),
                "b2003609dce8297da21735277db7dd93302b29d9bf65e49954244d81e1d9a4a8",
                marks=pytest.mark.slow,
            ),
            pytest.param(
                ("verify", "orbits", "--n-max", "7"),
                "04a23622026fa1e32265f0001e6cbb273336cba8d802141cd8bfff2d2cd6c172",
                marks=pytest.mark.slow,
            ),
        ],
        ids=[
            "orbit-report-plus", "orbit-report-minus", "verify-orbits", "verify-identities",
            "verify-identities-n6", "verify-identities-n7", "verify-rs", "verify-tl-n7", "verify-orbits-n6", "verify-gyration-general-seed1",
            "verify-gyration-general-n5", "verify-gyration-general-n5-seed1",
            "verify-gyration-general-n5-seed7", "orbit-report-n6-plus", "orbit-report-n6-minus",
            "verify-gyration-general-n5-seed10216", "verify-gyration-general-n5-seed10314",
            "verify-gyration-general-n5-seed10404", "verify-tl-n7-seed5",
            "verify-wieland-n6", "verify-rs-csv", "enumerate-n5-plus", "enumerate-n6-minus",
            "groundstate-n6", "groundstate-n7", "groundstate-n8", "groundstate-n9",
            "groundstate-n10", "enumerate-n8-plus", "enumerate-n8-minus", "verify-identities-n8",
            "verify-orbits-n7",
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _fresh_stdout(argv, hash_seed: str) -> str:
    """The stdout of one command in a fresh interpreter."""
    src = str(Path(fplrs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-m", "fplrs.cli", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return result.stdout


@pytest.mark.parametrize(
    "argv",
    [("verify", "orbits", "--n-max", "5"), ("groundstate", "--n", "6")],
    ids=["verify-orbits", "groundstate"],
)
def test_stdout_is_the_same_in_fresh_interpreters(argv):
    # patterns hash by identity, so a set of them iterates in a
    # different order in every process; no output may depend on it
    first = _fresh_stdout(argv, "1")
    assert first and _fresh_stdout(argv, "2") == first


def _modules_after(probe: str) -> dict[str, bool]:
    """The modules a fresh interpreter holds after running probe, each
    mapped to whether its code has run.  A layer the package registered
    lazily and nothing has touched yet is in sys.modules, but is not yet
    a plain module.  The modules are listed before the report imports
    json to print them."""
    src = str(Path(fplrs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    report = (
        "import sys; modules = {name: type(m) is type(sys) for name, m in list(sys.modules.items())}\n"
        "import json; print(json.dumps(modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", f"{probe}\n{report}"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_numpy_unloaded():
    # the package does not depend on numpy, so nothing may pull it in
    # at start-up
    assert "numpy" not in _modules_after("import fplrs.cli")


def test_rs_certificate_leaves_numpy_unloaded():
    # the Perron-Frobenius certificate is a graph search and the
    # stationary vector an echelon on lists, so no path of groundstate
    # needs numpy
    assert "numpy" not in _modules_after(
        "from fplrs.groundstate import kernel_dimension_certificate, stationary_vector, verify_rs; "
        "assert kernel_dimension_certificate(7); assert verify_rs(5).passed; "
        "assert stationary_vector(7).total() == 218348"
    )


def test_cli_import_carries_only_the_dispatcher():
    # every fplrs process imports the cli first; the standard-library
    # modules that only some commands use are imported where they are
    # used, so the import adds none of them to a bare interpreter.
    # argparse is not one of them: every process parses its arguments
    added = set(_modules_after("import fplrs.cli")) - set(_modules_after("pass"))
    assert "fplrs.cli" in added
    assert added.isdisjoint({"json", "hashlib", "csv", "dataclasses"})


_VERIFY = ("rs", "wieland", "orbits", "identities", "tl", "gyration-general")


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--n", "3"], ["groundstate", "--n", "3"], ["orbit-report", "--n", "2"]]
    + [
        ["verify", suite, "--n-max", "2"] + (["--seed", "7"] if suite in ("tl", "gyration-general") else [])
        for suite in _VERIFY
    ],
    ids=["enumerate", "groundstate", "orbit-report"] + [f"verify-{suite}" for suite in _VERIFY],
)
def test_commands_load_neither_dataclasses_nor_inspect(argv):
    # the package's records are NamedTuples and plain classes, so no
    # command pays for dataclasses, which imports inspect, ast, dis and
    # tokenize, nor for inspect alone
    modules = _modules_after(f"from fplrs import cli; assert cli.main({argv!r}) == 0")
    assert modules["fplrs.linkpat"]  # the command ran the package's code
    assert "dataclasses" not in modules and "inspect" not in modules


def test_module_run_executes_the_cli_once():
    # under ``python -m fplrs.cli`` the cli runs as __main__.  A package
    # that registered it would make runpy warn, which -W error turns
    # into a failed run; a suite that imported it by name would execute
    # it a second time, as fplrs.cli
    src = str(Path(fplrs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["verify", "tl", "--n-max", "1"]
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fplrs.cli", *argv],
        env=env, capture_output=True, text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.endswith("OK: 8/8 checks passed\n")
    probe = (
        f"import runpy, sys\nsys.argv[1:] = {argv!r}\n"
        "try:\n    runpy.run_module('fplrs.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code"
    )
    assert "fplrs.cli" not in _modules_after(probe)


LAYERS = ("lattice", "linkpat", "fplcore", "gyration", "groundstate", "identities", "sampling", "suites")


@pytest.mark.parametrize(
    "probe, executed, idle",
    [
        ("import fplrs.cli", set(), set(LAYERS)),
        ("from fplrs import cli; cli.main(['verify', 'tl', '--n-max', '2'])",
         {"linkpat", "suites"}, set(LAYERS) - {"linkpat", "suites"}),
        ("from fplrs import cli; cli.main(['enumerate', '--n', '3'])",
         {"lattice", "linkpat", "fplcore"},
         {"gyration", "groundstate", "identities", "sampling", "suites"}),
        ("from fplrs.groundstate import kernel_dimension_certificate; "
         "assert kernel_dimension_certificate(5)",
         {"linkpat", "groundstate"}, {"fplcore", "lattice", "suites"}),
        ("from fplrs import cli; cli.main(['groundstate', '--n', '3'])",
         {"linkpat", "groundstate"}, set(LAYERS) - {"linkpat", "groundstate"}),
    ],
    ids=["import", "verify-tl", "enumerate", "certificate", "groundstate"],
)
def test_each_command_executes_only_the_layers_it_calls(probe, executed, idle):
    # every layer is registered in sys.modules at import, as a tracer
    # that wraps the layers' functions expects, but runs only when used
    modules = _modules_after(probe)
    assert {f"fplrs.{layer}" for layer in LAYERS} <= set(modules)
    assert {layer for layer in executed | idle if modules[f"fplrs.{layer}"]} == executed


class TestReportContract:
    def test_any_failing_line_flips_the_exit_code(self, capsys):
        from fplrs.cli import _report
        from fplrs.suites import CheckLine

        good = CheckLine("demo", "fine", True)
        bad = CheckLine("demo", "broken", False, "witness")
        assert _report([good], "text", sys.stdout) == 0
        assert _report([good, bad], "text", sys.stdout) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out
        # a suite that runs zero checks is not an OK
        assert _report([], "text", sys.stdout) == 1
        assert _report([], "csv", sys.stdout) == 1
        assert capsys.readouterr().out == "FAILED: 0/0 checks passed\nsuite,check,status,detail\r\n"


def test_tl_memo_calls_each_generator_once(monkeypatch):
    # the suite's memo hands tl_e each distinct (pattern, index) pair
    # once: 11,492 pairs at n-max 7 with the default seed, which the
    # relations would meet 137,550 times without it
    calls = []
    real = linkpat.tl_e

    def counted(p, j):
        calls.append((p, j))
        return real(p, j)

    monkeypatch.setattr(linkpat, "tl_e", counted)
    assert all(line.status for line in suites._suite_tl(7, 20100615))
    assert len(calls) == len(set(calls)) == 11_492


def test_tl_memo_agrees_with_the_operators():
    # the suite's memoised operators give the operators' own results,
    # and a repeated call returns the stored object
    from fplrs.suites import _tl_operators
    from fplrs.linkpat import add_a, all_patterns, close_c, rotate, tl_e

    memo = _tl_operators()
    raw = (tl_e, rotate, close_c, add_a)
    for n in (1, 2, 3):
        size = 2 * n
        indices = (range(1, size + 1), (-1, 1), range(1, size), range(1, size + 2))
        for fast, slow, js in zip(memo, raw, indices):
            for p in all_patterns(n):
                for j in js:
                    q = fast(p, j)
                    assert q == slow(p, j)
                    assert fast(p, j) is q
