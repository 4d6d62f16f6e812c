"""The command-line surface: outputs, caching, exit codes."""

import csv
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
from fplrs import cli, fplcore, gyration, linkpat
from fplrs.cli import Cache, main
from fplrs.linkpat import all_patterns, tl_e


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_cache_round_trip(self, capsys, tmp_path):
        args = ("enumerate", "--n", "3", "--cache-dir", str(tmp_path))
        code1, out1, _ = run(capsys, *args)
        stored = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert stored, "cache must be populated"
        code2, out2, _ = run(capsys, *args)
        assert (code1, code2) == (0, 0)
        assert out1 == out2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == stored

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
        assert len(written) == 3
        assert {stat.S_IMODE(p.stat().st_mode) for p in written} == {plain}

    def test_corrupted_cache_is_recomputed(self, capsys, tmp_path):
        args = ("enumerate", "--n", "2", "--cache-dir", str(tmp_path))
        _, out1, _ = run(capsys, *args)
        for p in tmp_path.glob("*.json"):
            p.write_text(p.read_text() + " ")
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_garbage_meta_is_recomputed(self, capsys, tmp_path):
        args = ("enumerate", "--n", "3", "--cache-dir", str(tmp_path))
        _, out1, _ = run(capsys, *args)
        for p in tmp_path.glob("*.meta"):
            p.write_text('{"key": ')
        code, out2, _ = run(capsys, *args)
        assert code == 0 and out1 == out2

    def test_undecodable_payload_is_recomputed(self, capsys, tmp_path):
        args = ("enumerate", "--n", "3", "--cache-dir", str(tmp_path))
        _, out1, _ = run(capsys, *args)
        stored = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for p in tmp_path.glob("*.json"):
            p.write_bytes(b"\xff\xfe garbage")
        code, out2, _ = run(capsys, *args)
        assert code == 0 and out1 == out2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == stored

    def test_unreadable_meta_is_a_miss_whose_write_fails(self, capsys, tmp_path):
        # a directory at the meta path cannot be read, so the table is
        # recomputed; storing it then fails as any unwritable path does
        args = ("enumerate", "--n", "3", "--cache-dir", str(tmp_path))
        run(capsys, *args)
        (meta,) = tmp_path.glob("*.meta")
        meta.unlink()
        meta.mkdir()
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {meta}: ")


class TestCache:
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


    def test_conservation_line_checks_the_count(self, monkeypatch):
        # the involution line also fails when the DFS and the sweep
        # disagree on the ensemble's size; its text stays the same
        from fplrs.lattice import build_square

        d, t = build_square(3, "+")
        lines = []
        cli._conservation_lines(d, t, "plus", lines, "square n=3 plus")
        monkeypatch.setattr(fplcore, "count_configs", lambda d, t: 6)
        cli._conservation_lines(d, t, "plus", lines, "square n=3 plus")
        honest, miscounted = lines[0], lines[2]
        assert honest.status and not miscounted.status
        assert (honest.check, honest.detail) == (miscounted.check, miscounted.detail)


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
    ops = cli._tl_operators()
    reached = {}
    for sample in dict.fromkeys(samples):
        def spy(q, k, sample=sample):
            reached.setdefault((q, k), set()).add(sample)
            return ops[0](q, k)

        cli._check_tl_relations(5, [sample], [], "", (spy, *ops[1:]))
    times = Counter(samples)
    key = next(
        key for key, by in reached.items()
        if key[0].n == 6 and len(by) == 1 and times[next(iter(by))] == repeats
        and tl_e(*key) != key[0]
    )
    real = linkpat.tl_e
    monkeypatch.setattr(linkpat, "tl_e", lambda q, k: q if (q, k) == key else real(q, k))
    failed = [line.check for line in cli._suite_tl(5, seed) if not line.status]
    assert failed == ["caps commute with distant generators, 10^4 samples n=5"]


class TestOrbitReport:
    def test_out_file_is_the_stdout_stream(self, capsys, tmp_path):
        code, out, _ = run(capsys, "orbit-report", "--n", "4")
        target = tmp_path / "orbits.csv"
        assert run(capsys, "orbit-report", "--n", "4", "--out", str(target))[:2] == (0, "")
        assert code == 0 and target.read_bytes() == out.encode()
        assert [p.name for p in tmp_path.iterdir()] == ["orbits.csv"]

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

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_nonpositive_cap_is_usage_error(self, capsys, cap):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--max-n", cap)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_empty_verify_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "rs", "--n-max", "0")
        assert code == 2 and "OK" not in out
        assert len(err.strip().splitlines()) == 1

    def test_non_integer_threads_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("FPLRS_THREADS", "abc")
        code, out, err = run(capsys, "enumerate", "--n", "2")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_nonpositive_threads_is_usage_error(self, capsys, threads):
        code, out, err = run(capsys, "enumerate", "--n", "2", "--threads", threads)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_nonpositive_threads_env_is_usage_error(self, capsys, monkeypatch, tmp_path):
        # rejected on a cache hit too, not only when the table is computed
        args = ("enumerate", "--n", "2", "--cache-dir", str(tmp_path))
        assert run(capsys, *args)[0] == 0
        monkeypatch.setenv("FPLRS_THREADS", "-2")
        for argv in (args[:3], args):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

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
        def suite(args):
            raise AssertionError("the suite ran before --out was checked")

        monkeypatch.setitem(cli.SUITES, "identities", suite)
        out_path = tmp_path / "missing" / "x" if where == "missing" else tmp_path
        code, out, err = run(capsys, "verify", "identities", "--n-max", "6", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write ") and len(err.strip().splitlines()) == 1

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
    the glued tracer and of the TL suite must keep byte for byte."""

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
        ],
        ids=[
            "orbit-report-plus", "orbit-report-minus", "verify-orbits", "verify-identities",
            "verify-rs", "verify-tl-n7", "verify-orbits-n6", "verify-gyration-general-seed1",
            "verify-gyration-general-n5", "orbit-report-n6-plus", "orbit-report-n6-minus",
            "verify-gyration-general-n5-seed10216", "verify-gyration-general-n5-seed10314",
            "verify-gyration-general-n5-seed10404", "verify-tl-n7-seed5",
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
    a plain module."""
    src = str(Path(fplrs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    report = (
        "import json, sys, types; print(json.dumps("
        "{name: type(m) is types.ModuleType for name, m in list(sys.modules.items())}))"
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


LAYERS = ("lattice", "linkpat", "fplcore", "gyration", "groundstate", "identities", "sampling")


@pytest.mark.parametrize(
    "probe, executed, idle",
    [
        ("import fplrs.cli", set(), set(LAYERS)),
        ("from fplrs import cli; cli.main(['verify', 'tl', '--n-max', '2'])",
         {"linkpat"}, set(LAYERS) - {"linkpat"}),
        ("from fplrs import cli; cli.main(['enumerate', '--n', '3'])",
         {"lattice", "linkpat", "fplcore"}, {"gyration", "groundstate", "identities", "sampling"}),
        ("from fplrs.groundstate import kernel_dimension_certificate; "
         "assert kernel_dimension_certificate(5)",
         {"linkpat", "groundstate"}, {"fplcore", "lattice"}),
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
        from fplrs.cli import CheckLine, _report

        good = CheckLine("demo", "fine", True)
        bad = CheckLine("demo", "broken", False, "witness")
        assert _report([good], "text", None) == 0
        assert _report([good, bad], "text", None) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out


def test_tl_memo_agrees_with_the_operators():
    # the suite's memoised operators give the operators' own results,
    # and a repeated call returns the stored object
    from fplrs.cli import _tl_operators
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
