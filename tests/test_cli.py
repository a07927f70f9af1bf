import argparse
import ast
import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gmforms import arith, classgroup, cli, gm, represent, verify
from gmforms.cli import main
from gmforms.report import to_dict
from gmforms.verify import run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused_fast(capsys, *argv):
    # Past the default cap, refused before G_p is built: sieving and
    # proving G_100003 runs for longer than 5 s.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "--p must be <= 2000" in err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestScan:
    def test_paper_exponents_present(self, capsys):
        code, envelope = run_json(capsys, "scan", "--pmin", "3", "--pmax", "120")
        assert code == 0
        exponents = [rec["p"] for rec in envelope["records"]]
        assert {7, 47, 73, 113} <= set(exponents)
        assert exponents == sorted(exponents)
        assert envelope["summary"]["count"] == len(exponents)

    def test_values_are_decimal_strings(self, capsys):
        _, envelope = run_json(capsys, "scan", "--pmin", "3", "--pmax", "120")
        for rec in envelope["records"]:
            assert isinstance(rec["value"], str)
            int(rec["value"])

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--pmin", "50", "--pmax", "10")
        assert code == 2 and err == "gmforms: error: need 3 <= p_min <= p_max\n"

    def test_pmax_above_default_cap_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--pmax", "2001")
        assert code == 2 and "2000" in err

    def test_determinism_modulo_timestamp(self, capsys):
        _, first = run_json(capsys, "scan", "--pmin", "3", "--pmax", "60")
        _, second = run_json(capsys, "scan", "--pmin", "3", "--pmax", "60")
        first.pop("generated_at")
        second.pop("generated_at")
        assert first == second


class TestRepresent:
    def test_solved(self, capsys):
        code, envelope = run_json(capsys, "represent", "--p", "47", "--d", "7")
        assert code == 0
        rep = envelope["records"][0]["representation"]
        assert rep == {"n": "140737471578113", "d": 7,
                       "x": "5732351", "y": "3925696"}

    def test_no_representation_exits_1(self, capsys):
        code, envelope = run_json(capsys, "represent", "--p", "7", "--d", "14")
        assert code == 1
        assert envelope["records"][0]["representation"] is None

    def test_composite_p_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "represent", "--p", "4", "--d", "7")
        assert code == 2 and err == "gmforms: error: p must be an odd prime, got 4\n"

    def test_nonpositive_d_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "represent", "--p", "7", "--d", "0")
        assert code == 2 and err == "gmforms: error: d must be >= 1\n"
        # G_13 = 53 * 157 goes to the brute-force solver, which checks d too.
        code, _, err = run_cli(capsys, "represent", "--p", "13", "--d", "-1")
        assert code == 2 and err == "gmforms: error: need n >= 1 and d >= 1\n"
        # G_41 is composite and above the brute-force cap; d is still checked.
        code, _, err = run_cli(capsys, "represent", "--p", "41", "--d", "0")
        assert code == 2 and err == "gmforms: error: need n >= 1 and d >= 1\n"

    def test_p_above_cap_exits_2_fast(self, capsys):
        assert_refused_fast(capsys, "represent", "--p", "100003", "--d", "7")

    @pytest.fixture
    def route(self, monkeypatch):
        """The names of the solvers that cmd_represent calls, in call order."""
        taken = []
        for name in ("cornacchia", "represent_bruteforce"):
            def spy(n, d, name=name, solver=getattr(cli, name)):
                taken.append(name)
                return solver(n, d)
            monkeypatch.setattr(cli, name, spy)
        return taken

    @pytest.mark.parametrize("p, d, solver, xy", [
        ("47", "7", "cornacchia", ("5732351", "3925696")),
        # G_3 = 13 and G_47 are prime and not above d: Cornacchia answers too.
        ("3", "13", "cornacchia", None),
        ("47", "1000000000000000", "cornacchia", None),
        # G_13 = 8321 = 53 * 157 is composite and below the brute-force cap.
        ("13", "13", "represent_bruteforce", ("38", "23")),
        ("13", "7", "represent_bruteforce", None),
        # G_41 is composite and above the cap: no solver runs.
        ("41", "7", None, None),
    ])
    def test_one_solver_per_norm(self, capsys, route, p, d, solver, xy):
        code, envelope = run_json(capsys, "represent", "--p", p, "--d", d)
        rep = envelope["records"][0]["representation"]
        assert route == ([solver] if solver else [])
        assert envelope["summary"] == {"solved": 1 if xy else 0}
        if xy:
            assert code == 0 and (rep["x"], rep["y"]) == xy
        else:
            assert code == 1 and rep is None

    def test_composite_above_bruteforce_cap_exits_1(self, capsys, monkeypatch):
        # Every composite G_p with p >= 41 exceeds 10^12: the record says
        # composite, with no representation, and neither solver is run.
        solved = []
        for name in ("cornacchia", "represent_bruteforce"):
            monkeypatch.setattr(cli, name, lambda *a: solved.append(a))
        for p in ("41", "101"):
            code, out, err = run_cli(capsys, "represent", "--p", p, "--d", "7")
            envelope = json.loads(out)
            record = envelope["records"][0]
            assert code == 1 and envelope["summary"] == {"solved": 0}
            assert record["primality"] == "composite"
            assert record["representation"] is record["x_mod8"] is record["y_mod8"] is None
            assert err == (f"gmforms: G_{p} is composite and above the brute-force "
                           "cap 1000000000000: no representation searched\n")
        assert solved == []


class TestInternalErrors:
    def test_composite_taken_for_prime_exits_4(self, capsys, monkeypatch):
        # G_17 = 130561 = 137 * 953; claimed prime, its root of -7 fails.
        real = cli.gm_norm
        monkeypatch.setattr(cli, "gm_norm", lambda p: dataclasses.replace(
            real(p), primality="proven-small"))
        code, out, err = run_cli(capsys, "represent", "--p", "17", "--d", "7")
        assert code == 4 and out == ""
        assert "internal error" in err and "130561 is not prime" in err

    def test_class_group_invariant_exits_4(self, capsys, stuck_compose):
        code, out, err = run_cli(capsys, "classgroup", "-56")
        assert (code, out) == (4, "")
        assert err.startswith("gmforms: internal error:")


class TestVerify:
    def test_clean_range_exits_0(self, capsys):
        code, envelope = run_json(capsys, "verify", "--pmax", "120", "--d", "7")
        assert code == 0
        assert envelope["summary"]["refuted"] == 0
        verdicts = {rec["p"]: rec["verdict"] for rec in envelope["records"]}
        assert verdicts[47] == "confirmed" and verdicts[7] == "out-of-theorem-range"

    def test_refuted_range_exits_3(self, capsys):
        # p = 239 refutes the 8 | y claim; the contract maps that to exit 3.
        code, envelope = run_json(capsys, "verify", "--pmax", "240", "--d", "7")
        assert code == 3
        assert envelope["summary"]["refuted"] == 1

    def test_refuted_above_old_cap(self, capsys):
        # G_1367 is the first counterexample above the former cap of 1200.
        code, envelope = run_json(capsys, "verify", "--pmax", "1400", "--d", "7")
        assert code == 3
        refuted = [rec["p"] for rec in envelope["records"] if rec["verdict"] == "REFUTED"]
        assert refuted == [239, 353, 457, 1367]

    def test_records_sorted_by_p_d(self, capsys):
        code, envelope = run_json(capsys, "verify", "--pmax", "170",
                                  "--d", "31,7", "--generalized")
        assert code == 0
        keys = [(rec["p"], rec["d"]) for rec in envelope["records"]]
        assert keys == sorted(keys)

    def test_invalid_generalized_d_exits_2(self, capsys):
        for d in ("9", "175"):  # 175 = 7 (mod 24) but 25 | 175
            code, out, err = run_cli(capsys, "verify", "--pmax", "120", "--d", d,
                                     "--generalized")
            assert code == 2 and out == ""
            assert f"d must be square-free and = 7 (mod 24), got {d}" in err
            assert "auditing" not in err

    @pytest.mark.parametrize("argv,message", [
        (("--pmax", "60", "--d", "7,x"), "bad --d list: '7,x'"),
        (("--pmax", "60", "--d", ","), "empty --d list"),
        (("--pmax", "5", "--d", "7"), "need pmax >= 7"),
    ])
    def test_usage_error_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"gmforms: error: {message}\n")

    def test_non_generalized_requires_d7(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--pmax", "120", "--d", "31")
        assert code == 2

    def test_repeated_d_audited_once(self, capsys):
        code, envelope = run_json(capsys, "verify", "--pmax", "120", "--d", "7,7")
        _, single = run_json(capsys, "verify", "--pmax", "120", "--d", "7")
        assert code == 0 and envelope["parameters"]["d"] == [7]
        assert envelope["records"] == single["records"]

    def test_strict_fails_on_no_representation(self, capsys):
        # Below 600, d = 31 has 10 no-representation records and no refutation.
        argv = ("verify", "--pmax", "600", "--d", "31", "--generalized")
        code, envelope = run_json(capsys, *argv, "--strict")
        assert code == 1 and envelope["summary"]["no-representation"] == 10
        assert run_json(capsys, *argv)[0] == 0
        assert run_json(capsys, "verify", "--pmax", "120", "--d", "7", "--strict")[0] == 0

    def test_json_roundtrip(self, capsys):
        _, envelope = run_json(capsys, "verify", "--pmax", "120", "--d", "7")
        records, _ = run_suite(120, [7])
        assert [to_dict(r) for r in records] == envelope["records"]

    def test_progress_on_stderr_only(self, capsys):
        _, out, err = run_cli(capsys, "verify", "--pmax", "120", "--d", "7")
        json.loads(out)  # data stream stays machine-clean
        assert "auditing" in err


class TestClassgroup:
    def test_minus_56(self, capsys):
        code, envelope = run_json(capsys, "classgroup", "-56")
        assert code == 0
        record = envelope["records"][0]
        assert record["h"] == 4 and record["cyclic_orders"] == [4]
        assert record["has_order_4_element"]

    def test_minus_28(self, capsys):
        _, envelope = run_json(capsys, "classgroup", "-28")
        assert envelope["records"][0]["h"] == 1

    def test_minus_7(self, capsys):
        _, envelope = run_json(capsys, "classgroup", "-7")
        record = envelope["records"][0]
        assert record["h"] == 1 and record["forms"] == [[1, 1, 2]]

    def test_forms_enumerated_once(self, capsys, monkeypatch):
        # The record's forms come from group_structure's own enumeration.
        original = classgroup.enumerate_reduced
        calls = []

        def counting(d):
            calls.append(d)
            return original(d)

        for module in (classgroup, cli):
            monkeypatch.setattr(module, "enumerate_reduced", counting, raising=False)
        code, envelope = run_json(capsys, "classgroup", "-56")
        assert code == 0 and calls == [-56]
        assert envelope["records"][0]["forms"] == [[1, 0, 14], [2, 0, 7], [3, -2, 5], [3, 2, 5]]

    def test_invalid_discriminant_exits_2(self, capsys):
        for d in ("5", "-6"):
            assert run_cli(capsys, "classgroup", d) == (
                2, "", "gmforms: error: discriminant must be negative and = 0 or 1 (mod 4)\n")


class TestCongruences:
    def test_p47(self, capsys):
        code, envelope = run_json(capsys, "congruences", "--p", "47")
        assert code == 0
        by_modulus = {rec["modulus"]: rec for rec in envelope["records"]}
        assert by_modulus[7]["predicted"] == 4 and by_modulus[7]["match"]
        assert by_modulus[8]["actual"] == 1

    def test_p5_mod7_not_applicable(self, capsys):
        _, envelope = run_json(capsys, "congruences", "--p", "5")
        by_modulus = {rec["modulus"]: rec for rec in envelope["records"]}
        assert not by_modulus[7]["applicable"]
        assert by_modulus[7]["actual"] == 6

    def test_p_above_cap_exits_2_fast(self, capsys):
        assert_refused_fast(capsys, "congruences", "--p", "100003")

    def test_nonprime_p_above_cap_reports_cap(self, capsys):
        assert_refused_fast(capsys, "congruences", "--p", "100000")

    def test_p_at_psi_13_exits_2_fast(self, capsys, monkeypatch):
        # psi_13 passes Miller-Rabin on all 13 bases, so the exponent check
        # refuses it, a usage error, before G_p is built.
        def unbuilt(p):
            raise AssertionError(f"G_{p} built")

        monkeypatch.setattr(gm, "_closed_form", unbuilt)
        p = "3317044064679887385961981"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "--max-exponent", p, "congruences", "--p", p)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (f"gmforms: error: {p} is not below psi_13 = {p}, "
                       "the bound of the exact primality test\n")


@pytest.mark.parametrize("argv,checks", [
    (("represent", "--p", "47", "--d", "7"), 1),
    (("congruences", "--p", "47"), 1),
])
def test_exponent_primality_left_to_library(capsys, monkeypatch, argv, checks):
    # The CLI runs no primality test of its own on --p: represent asks once,
    # in gm_norm, and congruences once, in predict_congruences.
    original = arith.is_probable_prime
    asked = []

    def counting(n):
        asked.append(n)
        return original(n)

    for module in (arith, gm, represent, verify, cli):
        monkeypatch.setattr(module, "is_probable_prime", counting, raising=False)
    assert run_cli(capsys, *argv)[0] == 0
    assert asked.count(47) == checks


def test_congruences_proves_nothing(capsys, monkeypatch):
    # The residues of G_p need its value only, not a proof of its primality.
    original = arith.proth_test
    proved = []

    def counting(n):
        proved.append(n)
        return original(n)

    for module in (arith, gm):
        monkeypatch.setattr(module, "proth_test", counting)
    assert run_cli(capsys, "congruences", "--p", "47")[0] == 0
    assert proved == []


# SHA-256 of each report, recorded before the per-type record serializers
# gave way to one dataclass-driven one: the sorted-key JSON envelope without
# generated_at, and the table text, whose columns follow the record key order.
REPORT_DIGESTS = [
    (("scan", "--pmin", "3", "--pmax", "400"),
     "f5f297f889c3f3195d39bf4eff36adac26b72bdf3b025ba2df54b60d4390a5d0",
     "c7d06e11364b18c591ed81ade1b82260928c9c1789d45d680bfd27da33aa524c"),
    (("represent", "--p", "47", "--d", "7"),
     "b241d7265e9c78e9cb30eff1690ce9dc7b3ce09b8cb3aa8a3e2f451c481219b1",
     "3c3fd81bb59b3c0b5bb0cb94a927531d12636a25b4b24cf3a518935c98e14471"),
    (("represent", "--p", "7", "--d", "14"),
     "e58ecb7a3694371788aa28bb4f71780cb5c47a023dbd6dcf0dcb200fb51496ad",
     "a8f321ee804335ff1acb3eedf5bb2d0edafb7dabbce6a061a438295552a938ea"),
    (("classgroup", "-56"),
     "3292e4b763eeafc7133a85a2ab1065897732f210a206f40a148a7137b5e2c7a2",
     "8b30da014239349043a437a5dad42b55a5eba9c67f1b9c630f4630dcc1f64417"),
    (("classgroup", "-8424"),
     "048a42708e20303fa48239689ae24b4aab40c64378958555a9d9e1f8ddeb3be7",
     "1292d339bbea17f47eda379fdf79a42a22aee47a164009ea1cc8b062bfab2953"),
    (("congruences", "--p", "47"),
     "2d1dc38f8e45d76a9205bd6b3961a7c6808de5f9d3c5a1e63dc5dfcc50d3258c",
     "180725de4303853bc6344348e4886db47e3528a0b65fcb21ea8874311064cfda"),
    (("congruences", "--p", "5"),
     "c638e7a49944d6be14a72416d095f10f27cd8b5875638d7abcd9c12462dba4d7",
     "450eb212b66fd712c672d9645edc19ad58fe4cc3099c67b17b3b7a8b157750e2"),
    # The only table with a cell holding a dict of flags.
    (("verify", "--pmax", "120", "--d", "7"),
     "009eaf617711db5d1bd4c482cc6ac8227eaae60ccefc9d2c40728258c35b2a43",
     "96d5a95fd9c8120a5287abc520112d73d54f976a44a2e91d0de6927e30a7f3ff"),
    # The "(no records)" table.
    (("scan", "--pmin", "4", "--pmax", "4"),
     "13c731251709d0c8129adf933b3021e4128f34d366bc72703ccdf582bd2a5321",
     "de28132099bf92b5af4d47bdeffdc47a616b6ea1389c22ff733fd80d77d6a10e"),
]


@pytest.mark.parametrize("argv,json_digest,table_digest", REPORT_DIGESTS,
                         ids=[" ".join(argv) for argv, *_ in REPORT_DIGESTS])
def test_reports_pinned(capsys, argv, json_digest, table_digest):
    def sha256(text):
        return hashlib.sha256(text.encode()).hexdigest()

    _, envelope = run_json(capsys, *argv)
    envelope.pop("generated_at")
    assert sha256(json.dumps(envelope, sort_keys=True)) == json_digest
    _, table, _ = run_cli(capsys, *argv, "--emit", "table")
    assert sha256(table) == table_digest


class TestConfigAndOutput:
    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, stdout, _ = run_cli(capsys, "scan", "--pmin", "3", "--pmax", "60",
                                  "--out", str(out_file))
        assert code == 0 and stdout == ""
        envelope = json.loads(out_file.read_text())
        assert envelope["command"] == "scan"

    def test_out_file_replaced_atomically(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        out_file.write_text("x" * 100000)  # longer than the new report
        code, _, _ = run_cli(capsys, "scan", "--pmin", "3", "--pmax", "60",
                             "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["command"] == "scan"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_failed_write_keeps_old_report(self, capsys, tmp_path, monkeypatch):
        out_file = tmp_path / "report.json"
        out_file.write_text("old report")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        code, out, err = run_cli(capsys, "scan", "--pmin", "3", "--pmax", "60",
                                 "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err == f"gmforms: error: cannot write report to {out_file}: disk full\n"
        assert out_file.read_text() == "old report"
        assert os.listdir(tmp_path) == ["report.json"]

    @pytest.mark.parametrize("target,reason", [
        ("missing/report.json", "No such file or directory"),
        ("reports", "Is a directory"),
    ])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, target, reason):
        (tmp_path / "reports").mkdir()
        out_path = tmp_path / target
        code, out, err = run_cli(capsys, "scan", "--pmin", "3", "--pmax", "60",
                                 "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == f"gmforms: error: cannot write report to {out_path}: {reason}\n"
        assert os.listdir(tmp_path) == ["reports"]
        assert os.listdir(tmp_path / "reports") == []

    def test_closed_stdout_exits_2(self, capsys, monkeypatch):
        # A reader that has gone away must not read as exit 1 (no
        # representation) or as the verdict's own code.
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli.sys, "stdout", ClosedPipe())
        code = main(["verify", "--pmax", "240", "--d", "7"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.endswith("gmforms: error: cannot write report to stdout: Broken pipe\n")

    def test_stdout_none_exits_2(self, capsys, monkeypatch):
        # The interpreter sets sys.stdout to None when descriptor 1 is closed.
        monkeypatch.setattr(cli.sys, "stdout", None)
        assert main(["classgroup", "-56"]) == 2
        assert capsys.readouterr().err == (
            "gmforms: error: cannot write report to stdout: stdout is closed\n")

    def test_table_emit(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--pmin", "3", "--pmax", "60",
                               "--emit", "table")
        assert code == 0 and "# scan" in out

    def test_max_exponent_cap_enforced(self, capsys):
        code, out, err = run_cli(capsys, "--max-exponent", "100",
                                 "scan", "--pmin", "3", "--pmax", "120")
        assert (code, out) == (2, "")
        assert err == "gmforms: error: --pmax must be <= 100 (--max-exponent), got 120\n"

    CAPPED = [
        (("verify", "--pmax", "2001", "--d", "7"),
         "--pmax must be <= 2000 (--max-exponent), got 2001"),
        # The cap comes before verify's own checks of --d and --pmax.
        (("verify", "--pmax", "2001", "--d", "x"),
         "--pmax must be <= 2000 (--max-exponent), got 2001"),
        (("--max-exponent", "5", "verify", "--pmax", "6", "--d", "7"),
         "--pmax must be <= 5 (--max-exponent), got 6"),
        (("represent", "--p", "2001", "--d", "7"),
         "--p must be <= 2000 (--max-exponent), got 2001"),
        (("congruences", "--p", "2001"),
         "--p must be <= 2000 (--max-exponent), got 2001"),
    ]

    @pytest.mark.parametrize("argv,message", CAPPED,
                             ids=[" ".join(argv) for argv, _ in CAPPED])
    def test_max_exponent_cap_enforced_per_command(self, capsys, argv, message):
        # One error line and no report: verify writes no progress line.
        assert run_cli(capsys, *argv) == (2, "", f"gmforms: error: {message}\n")

    def test_max_exponent_admits_larger_p(self, capsys):
        code, envelope = run_json(capsys, "--max-exponent", "4000",
                                  "represent", "--p", "3041", "--d", "7")
        record = envelope["records"][0]
        assert code == 0 and record["primality"] == "probable-prime"
        rep = record["representation"]
        assert int(rep["x"]) ** 2 + 7 * int(rep["y"]) ** 2 == int(record["g_value"])

    def test_caller_file_and_environment_ignored(self, capsys, tmp_path, monkeypatch):
        # The cap comes from the command line alone: a config file in the
        # working directory, named by the environment, changes nothing.
        config = tmp_path / "gmforms.conf"
        config.write_text("max_exponent = 50\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GMFORMS_CONFIG", str(config))
        code, _, _ = run_cli(capsys, "scan", "--pmin", "3", "--pmax", "120")
        assert code == 0

    def test_config_option_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--config", "x", "scan", "--pmax", "60"])
        assert exc.value.code == 2


SRC = Path(cli.__file__).resolve().parent.parent


def run_module(argv, close_fd=None, **streams):
    """Run python -m gmforms.cli in a child, with descriptor close_fd closed."""
    return subprocess.run(
        [sys.executable, "-m", "gmforms.cli", *argv], timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=None if close_fd is None else (lambda: os.close(close_fd)),
        **streams)


def report_without_timestamp(out):
    envelope = json.loads(out)
    envelope.pop("generated_at")
    return envelope


class TestClosedStreams:
    # A lost stream must not read as a verdict: a closed stdout loses the
    # report (exit 2), while stderr lines are best-effort and change nothing.
    VERIFY = ["verify", "--pmax", "60", "--d", "7"]

    def test_closed_stdout_descriptor_exits_2(self):
        proc = run_module(["classgroup", "-56"], close_fd=1, stderr=subprocess.PIPE)
        assert proc.returncode == 2
        assert proc.stderr == (b"gmforms: error: cannot write report to stdout: "
                               b"stdout is closed\n")

    def test_closed_stderr_keeps_report(self):
        reference = run_module(self.VERIFY, capture_output=True)
        assert reference.returncode == 0 and b"auditing" in reference.stderr
        proc = run_module(self.VERIFY, close_fd=2, stdout=subprocess.PIPE)
        assert proc.returncode == 0
        assert (report_without_timestamp(proc.stdout)
                == report_without_timestamp(reference.stdout))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stderr_keeps_report(self):
        reference = run_module(self.VERIFY, stdout=subprocess.PIPE)
        with open("/dev/full", "w") as full:
            proc = run_module(self.VERIFY, stdout=subprocess.PIPE, stderr=full)
        assert proc.returncode == 0
        assert (report_without_timestamp(proc.stdout)
                == report_without_timestamp(reference.stdout))

    def test_closed_stderr_usage_error_exits_2(self):
        proc = run_module(["verify", "--pmax", "3", "--d", "7"], close_fd=2,
                          stdout=subprocess.PIPE)
        assert (proc.returncode, proc.stdout) == (2, b"")


def test_package_binds_only_modules_and_version(capsys):
    # Each public name has one import path, its module's: a bare
    # `import gmforms` binds the five library modules and, of other names,
    # only __version__, which every report carries as its tool_version.
    probe = ("import gmforms, json, types; print(json.dumps([gmforms.__version__, "
             "{name: isinstance(value, types.ModuleType) "
             "for name, value in vars(gmforms).items() if not name.startswith('_')}]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    version, public = json.loads(proc.stdout)
    assert public == dict.fromkeys(["arith", "classgroup", "gm", "represent", "verify"], True)
    code, report = run_json(capsys, "classgroup", "-56")
    assert code == 0 and report["tool_version"] == version


def test_cli_imports_no_private_name():
    # Each command formats a library result; no private helper crosses in.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").startswith("gmforms"))
                for alias in node.names]
    assert imported and not [name for name in imported if name.startswith("_")]


README = Path(__file__).resolve().parent.parent / "README.md"


def option_strings(parser):
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= option_strings(sub)
    return found


def test_readme_cli_matches_parser():
    # Every command in README's CLI block parses, and every "Common flags"
    # entry is a real option, so a removed option cannot stay documented.
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    parser = cli.build_parser()
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "gmforms" for argv in commands)
    for argv in commands:
        parser.parse_args(argv[1:])
    common = re.search(r"Common flags:(.*?)\n\n", text, re.S).group(1)
    flags = re.findall(r"`(--[a-z-]+)", common)
    assert flags and set(flags) <= option_strings(parser)
