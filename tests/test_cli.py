import json
import os

import pytest

from gmforms.cli import main
from gmforms.report import verification_record_from_dict, verification_record_to_dict
from gmforms.verify import run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert code == 2 and "error" in err

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
        assert code == 2 and "error" in err

    def test_nonpositive_d_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "represent", "--p", "7", "--d", "0")
        assert code == 2


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

    def test_records_sorted_by_p_d(self, capsys):
        code, envelope = run_json(capsys, "verify", "--pmax", "170",
                                  "--d", "31,7", "--generalized")
        assert code == 0
        keys = [(rec["p"], rec["d"]) for rec in envelope["records"]]
        assert keys == sorted(keys)

    def test_invalid_generalized_d_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--pmax", "120", "--d", "9",
                             "--generalized")
        assert code == 2

    def test_non_generalized_requires_d7(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--pmax", "120", "--d", "31")
        assert code == 2

    def test_json_roundtrip(self, capsys):
        _, envelope = run_json(capsys, "verify", "--pmax", "120", "--d", "7")
        records, _ = run_suite(120, [7])
        parsed = [verification_record_from_dict(rec) for rec in envelope["records"]]
        assert parsed == records
        assert [verification_record_to_dict(r) for r in records] == envelope["records"]

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

    def test_invalid_discriminant_exits_2(self, capsys):
        assert run_cli(capsys, "classgroup", "5")[0] == 2
        assert run_cli(capsys, "classgroup", "-6")[0] == 2


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
        with pytest.raises(OSError):
            main(["scan", "--pmin", "3", "--pmax", "60", "--out", str(out_file)])
        assert out_file.read_text() == "old report"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_table_emit(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--pmin", "3", "--pmax", "60",
                               "--emit", "table")
        assert code == 0 and "# scan" in out

    def test_config_cap_enforced(self, capsys, tmp_path):
        config = tmp_path / "gmforms.conf"
        config.write_text("max_exponent = 100  # desk cap\n")
        code, _, err = run_cli(capsys, "--config", str(config),
                               "scan", "--pmin", "3", "--pmax", "120")
        assert code == 2 and "pmax" in err

    def test_env_var_points_to_config(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "alt.conf"
        config.write_text("max_exponent = 50\n")
        monkeypatch.setenv("GMFORMS_CONFIG", str(config))
        code, _, _ = run_cli(capsys, "scan", "--pmin", "3", "--pmax", "120")
        assert code == 2

    def test_flag_overrides_config_workers(self, capsys, tmp_path):
        config = tmp_path / "gmforms.conf"
        config.write_text("workers = 2\n")
        code, envelope = run_json(capsys, "--config", str(config),
                                  "verify", "--pmax", "120", "--d", "7",
                                  "--workers", "1")
        assert code == 0 and envelope["summary"]["confirmed"] == 4

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "gmforms.conf"
        config.write_text("threads = 4\n")
        code, _, _ = run_cli(capsys, "--config", str(config),
                             "scan", "--pmin", "3", "--pmax", "60")
        assert code == 2
