import json
import os

import pytest

from multipot import Kernel, condition_d_check
from multipot.cli import CSV_HEADER, main


def run_cli(args):
    return main([str(a) for a in args])


class TestCheckConditionD:
    def test_matches_library(self, tmp_path):
        code = run_cli(["check-condition-d", "--kernel", "frac0.5",
                        "--k=-3..0", "--out-dir", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        K = Kernel("fractional", 1, 1, alpha=0.5)
        rep = condition_d_check(K, k_range=range(-3, 1))
        for k, r in rep["per_k"].items():
            assert doc["result"]["per_k"][str(k)] == pytest.approx(r, rel=1e-12)
        assert doc["result"]["C_max"] == pytest.approx(rep["C_max"], rel=1e-12)
        assert (tmp_path / "condition_d.dat").exists()

    def test_malformed_kernel_exits_one(self, tmp_path, capsys):
        code = run_cli(["check-condition-d", "--kernel", "frac-1",
                        "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert "alpha" in err


class TestEvalOp:
    def test_writes_output(self, tmp_path):
        code = run_cli(["eval-op", "--kernel", "frac0.5", "--m", 1,
                        "--N", 16, "--weights", "one", "--out-dir", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["result"]["max"] > 0
        assert (tmp_path / "operator_output.csv").exists()


class TestCzDecompose:
    def test_writes_json(self, tmp_path):
        code = run_cli(["cz-decompose", "--m", 1, "--N", 64,
                        "--out-dir", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["result"]["output"] == "cz.json"
        cz = json.loads((tmp_path / "cz.json").read_text())
        assert "levels" in cz


class TestVerify:
    def test_report_and_summary(self, tmp_path):
        code = run_cli(["verify", "--theorem", "coifman", "--case", "i",
                        "--p", 1.0, "--kernel", "frac0.5", "--m", 1,
                        "--N", 16, "--corpus", 3, "--out-dir", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["result"]["theorem"] == "coifman"
        assert doc["result"]["max_ratio"] > 0
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "coifman"
        assert (tmp_path / "ratios.dat").exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["verify", "--theorem", "coifman", "--case", "i",
                "--p", 1.0, "--kernel", "frac0.5", "--m", 1,
                "--N", 16, "--corpus", 3, "--seed", 5, "--out-dir", tmp_path]
        assert run_cli(args) == 0
        first = (tmp_path / "report.json").read_bytes()
        assert run_cli(args) == 0
        second = (tmp_path / "report.json").read_bytes()
        assert first == second

    def test_unmet_hypothesis_exits_two(self, tmp_path, capsys):
        cfg = {
            "theorem": "strong",
            "exponents": {"p": [2.0], "q": 0.4},
            "m": 1,
            "kernel": "frac0.5",
            "N": 16,
            "corpus": 2,
            "weights": ["one"],
            "out_dir": str(tmp_path),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["verify", "--config", path])
        assert code == 2
        assert "hypothesis unmet" in capsys.readouterr().err

    def test_missing_exponent_exits_one(self, tmp_path, capsys):
        cfg = {"theorem": "strong", "exponents": {"p": [2.0]}, "N": 16,
               "corpus": 2, "out_dir": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["verify", "--config", path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "exponents.q" in err


class TestConfigPrecedence:
    def test_cli_overrides_config(self, tmp_path):
        cfg = {"kernel": "frac0.7", "k_range": "-2..0"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["check-condition-d", "--config", path,
                        "--kernel", "frac0.5", "--out-dir", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["kernel"] == "frac0.5"
        assert doc["config"]["k_range"] == "-2..0"
