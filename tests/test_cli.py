import json
import os
from collections import OrderedDict
from pathlib import Path

import pytest

from multipot import Kernel, cli, condition_d_check, dyadic
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

    def test_too_large_a_spectrum_exits_one(self, tmp_path, capsys):
        # 32^5 * 17 spectrum values at (n, m, N) = (3, 2, 16), about 4.6 GB
        code = run_cli(["eval-op", "--n", 3, "--m", 2, "--N", 16, "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the kernel spectrum at n = 3, m = 2, N = 16 needs ") and err.count("\n") == 1


class TestCzDecompose:
    def test_writes_json(self, tmp_path):
        code = run_cli(["cz-decompose", "--m", 1, "--N", 64,
                        "--out-dir", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["result"]["output"] == "cz.json"
        cz = json.loads((tmp_path / "cz.json").read_text())
        assert "levels" in cz

    @pytest.mark.parametrize("args,recorded", [
        (["--m", 1, "--N", 64, "--a", 2, "--seed", 1], "cz_1d_N64_a2_seed1.json"),
        (["--n", 2, "--m", 2, "--N", 16, "--a", 2, "--seed", 3], "cz_2d_N16_m2_a2_seed3.json"),
    ])
    def test_output_matches_recording(self, tmp_path, args, recorded):
        # recorded from the per-threshold selection loop with one mask per cube
        assert run_cli(["cz-decompose", *args, "--out-dir", tmp_path]) == 0
        expected = (Path(__file__).parent / "data" / recorded).read_bytes()
        assert (tmp_path / "cz.json").read_bytes() == expected

    def test_memo_hit_writes_the_same_bytes(self, tmp_path, monkeypatch):
        made, decompose = [], dyadic._decompose
        monkeypatch.setattr(dyadic, "_MEMO", OrderedDict())
        monkeypatch.setattr(dyadic, "_decompose", lambda *a: made.append(a) or decompose(*a))
        for out in ("miss", "hit"):
            assert run_cli(["cz-decompose", "--n", 2, "--N", 32, "--seed", 3, "--out-dir", tmp_path / out]) == 0
        assert len(made) == 1
        expected = (Path(__file__).parent / "data" / "cz_2d_N32_seed3.json").read_bytes()
        assert [(tmp_path / out / "cz.json").read_bytes() for out in ("miss", "hit")] == [expected] * 2

    @pytest.mark.parametrize("args,recorded", [
        (["--n", 3, "--N", 16, "--seed", 3], "cz_3d_N16_seed3.json"),
        (["--n", 2, "--N", 32, "--seed", 3], "cz_2d_N32_seed3.json"),
    ])
    def test_default_base_output_matches_recording(self, tmp_path, args, recorded):
        # recorded from the selection loop over the dyadic levels
        assert run_cli(["cz-decompose", *args, "--out-dir", tmp_path]) == 0
        expected = (Path(__file__).parent / "data" / recorded).read_bytes()
        assert (tmp_path / "cz.json").read_bytes() == expected

    def test_zero_base_exits_one(self, tmp_path, capsys):
        code = run_cli(["cz-decompose", "--a", 0, "--N", 16, "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "CZ base a must exceed 1" in err
        assert not (tmp_path / "report.json").exists()


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

    def test_strong_with_defaults_exits_zero(self, tmp_path):
        # the default exponents p = [2], q = 2 meet 1/m < p <= q
        assert run_cli(["verify", "--theorem", "strong", "--out-dir", tmp_path]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["exponents"] == {"p": [2.0], "q": 2.0}
        assert doc["result"]["max_ratio"] > 0

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

    @pytest.mark.parametrize("ps", [[2.0], [2.0, 2.0, 7.0]])
    def test_fefferman_stein_exponent_count_exits_one(self, tmp_path, capsys, ps):
        cfg = {"theorem": "fefferman-stein", "case": "i", "m": 2, "exponents": {"p": ps},
               "N": 16, "corpus": 2, "out_dir": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["verify", "--config", path])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: one exponent per linear slot\n"
        assert not (tmp_path / "report.json").exists()

    def test_fefferman_stein_two_exponents_at_m2(self, tmp_path):
        cfg = {"theorem": "fefferman-stein", "case": "i", "m": 2, "exponents": {"p": [4.0, 4.0]},
               "N": 16, "corpus": 2, "out_dir": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["verify", "--config", path]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["exponents"]["p"] == [4.0, 4.0]
        assert doc["result"]["max_ratio"] > 0

    def test_empty_corpus_exits_one(self, tmp_path, capsys):
        code = run_cli(["verify", "--theorem", "control", "--corpus", 0,
                        "--N", 16, "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "corpus" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("args,cfg,want", [
        # u and one v per slot: 1 + m = 3 weights
        (["--theorem", "strong", "--m", 2, "--weights", "one", "pow0.3"],
         {"exponents": {"p": [4.0, 4.0], "q": 4.0}}, 3),
        (["--theorem", "fefferman-stein", "--m", 2, "--weights", "one", "pow0.3", "pow0.5"],
         {"exponents": {"p": [4.0, 4.0]}}, 2),
        (["--theorem", "coifman", "--weights", "one", "pow0.3"], {}, 1),
    ])
    def test_weight_count_exits_one(self, tmp_path, capsys, args, cfg, want):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["verify", "--config", path, "--N", 16, "--corpus", 2,
                        "--out-dir", tmp_path] + args)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"weights needs 1 or {want} entries" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("cfg,key", [
        ({"theorem": "weak-maximal", "norms": []}, "norms"),
        ({"theorem": "weak-maximal", "norms": [1.5]}, "norms"),
        ({"theorem": "control", "weights": 5}, "weights"),
    ])
    def test_malformed_spec_list_exits_one(self, tmp_path, capsys, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(cfg, N=16, corpus=2, out_dir=str(tmp_path))))
        code = run_cli(["verify", "--config", path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert key in err


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


class TestConfigTypes:
    @pytest.mark.parametrize("key,val", [
        ("N", 32.7),     # a float for an integer key
        ("corpus", 3.9),
        ("N", "32"),     # a string for an integer key
        ("seed", True),  # a bool for an integer key
        ("ell", None),   # null for an integer key
        ("L", "1.0"),    # a string for a numeric key
        ("delta", False),  # a bool for a numeric key
        ("a", "2"),
        ("kernel", 5),   # a number for a string key
        ("theorem", ["control"]),
        ("case", 3),
        ("k_range", 5),
        ("k_range", "-5"),  # not of the form lo..hi
    ])
    def test_bad_type_exits_one(self, tmp_path, capsys, key, val):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"theorem": "control", "N": 16, "corpus": 2,
                                    "out_dir": str(tmp_path), key: val}))
        code = run_cli(["verify", "--config", path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"config {key} must be" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("cfg,key", [
        ({"out_dir": 5}, "out_dir"),
        ({"exponents": {"p": 2.0, "q": 2.0}}, "exponents"),
        ({"exponents": {"p": [True], "q": 2.0}}, "exponents"),
        ({"exponents": {"p": [2.0], "q": None}}, "exponents"),
        ({"norms": 5}, "norms"),  # a key that strong does not read
    ])
    def test_malformed_key_exits_one_before_compute(self, tmp_path, monkeypatch, capsys, cfg, key):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"N": 16, "corpus": 2, "out_dir": "out", **cfg}))
        code = run_cli(["verify", "--theorem", "strong", "--config", path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {key} must be ") and err.count("\n") == 1
        assert list(tmp_path.rglob("report.json")) == []

    def test_unknown_theorem_exits_one_before_compute(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "make_corpus", lambda *a, **k: calls.append(a))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"theorem": "foo", "N": 16, "corpus": 2, "out_dir": str(tmp_path)}))
        assert run_cli(["verify", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config theorem must be one of coifman, ftd, ") and err.count("\n") == 1
        # the flag is checked by argparse, a usage error that exits 1 too
        assert run_cli(["verify", "--theorem", "foo", "--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --theorem: invalid choice: 'foo'") and err.count("\n") == 1
        assert calls == [] and not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("args,want", [
        (["verify", "--N", "abc"], "argument --N: invalid int value: 'abc'"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["verify", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_error_exits_one(self, tmp_path, capsys, args, want):
        # exit 2 is kept for an unmet hypothesis
        assert run_cli(args + ["--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {want}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: multipot")

    @pytest.mark.parametrize("text", ["[1]", '"ab"'])
    def test_config_not_an_object_exits_one(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code = run_cli(["verify", "--config", path, "--out-dir", tmp_path])
        assert code == 1
        assert capsys.readouterr().err == "error: config file must hold a JSON object\n"
        assert not (tmp_path / "report.json").exists()

    def test_integer_for_numeric_key_and_null_base_run(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"L": 1, "p": 1, "a": None, "N": 16,
                                    "out_dir": str(tmp_path)}))
        assert run_cli(["cz-decompose", "--config", path]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["L"] == 1 and doc["result"]["levels"] >= 1


def assert_same_report(got, want, path="report"):
    """Equal structure and non-float values; floats to rtol 1e-12, which
    covers rounding differences between CPUs."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_report(a, b, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0), path
    else:
        assert got == want, path


FS_M2 = {"exponents": {"p": [1.5, 1.5], "q": 2.0}}


@pytest.mark.parametrize("recorded,args", [
    ("control", ["--theorem", "control", "--ell", 1, "--N", 32, "--corpus", 6]),
    ("coifman_i", ["--theorem", "coifman", "--case", "i", "--m", 2, "--N", 16, "--corpus", 4]),
    ("coifman_iii", ["--theorem", "coifman", "--case", "iii", "--ell", 1, "--p", 2, "--n", 2,
                     "--N", 8, "--corpus", 3]),
    ("ftd_i", ["--theorem", "ftd", "--case", "i", "--ell", 1, "--p", 0.5, "--N", 32, "--corpus", 5]),
    ("weak_maximal", ["--theorem", "weak-maximal", "--m", 2, "--N", 16, "--norms", "Lp1logL1",
                      "--corpus", 4]),
    ("fs_iii", ["--theorem", "fefferman-stein", "--case", "iii", "--ell", 1, "--m", 2, "--N", 16,
                "--weights", "pow0.3", "--corpus", 4]),
])
def test_verify_report_matches_recording(tmp_path, recorded, args):
    # recorded from the harnesses that took one maximal call per tuple
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FS_M2))
    extra = ["--config", config] if recorded == "fs_iii" else []
    assert run_cli(["verify", *extra, *args, "--out-dir", tmp_path / "out"]) == 0
    got = json.loads((tmp_path / "out" / "report.json").read_text())
    assert got["config"].pop("out_dir") == str(tmp_path / "out")
    want = json.loads((Path(__file__).parent / "data" / f"report_{recorded}.json").read_text())
    assert_same_report(got, want)


@pytest.mark.parametrize("recorded,q", [("strong_q_le_1", 0.9), ("strong_q_gt_1", 2.0)])
def test_strong_report_matches_recording(tmp_path, recorded, q):
    # the two branches of the testing conditions, recorded before the scale
    # factor became a plain function of the cube
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"exponents": {"p": [1.5, 1.5], "q": q}}))
    assert run_cli(["verify", "--config", config, "--theorem", "strong", "--m", 2, "--ell", 1,
                    "--weights", "pow0.3", "pow-0.2", "pow0.4", "--N", 16, "--corpus", 4,
                    "--out-dir", tmp_path / "out"]) == 0
    got = json.loads((tmp_path / "out" / "report.json").read_text())
    assert got["config"].pop("out_dir") == str(tmp_path / "out")
    want = json.loads((Path(__file__).parent / "data" / f"report_{recorded}.json").read_text())
    assert_same_report(got, want)


def test_maximal_output_matches_recording(tmp_path):
    assert run_cli(["maximal", "--n", 2, "--m", 2, "--N", 16, "--L", 1.3, "--kernel", "bessel1.0",
                    "--norms", "Lp1logL1", "--out-dir", tmp_path]) == 0
    expected = (Path(__file__).parent / "data" / "maximal_bessel1.0_2d_N16_L1.3.csv").read_bytes()
    assert (tmp_path / "maximal_output.csv").read_bytes() == expected
