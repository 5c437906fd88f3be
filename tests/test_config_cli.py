import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_lab.cli import cli_main
from dirichlet_lab.config import ExperimentConfig, parse_matrix_text
from dirichlet_lab.errors import ValidationError


def test_config_round_trip_simple():
    text = "psi.family=log_drift\npsi.params=1,0.5\nseed=7\n"
    cfg = ExperimentConfig.from_text(text)
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


_key = st.from_regex(r"[a-z][a-z0-9_]{0,8}(\.[a-z][a-z0-9_]{0,8}){0,2}", fullmatch=True)
_value = st.from_regex(r"[A-Za-z0-9_.,:+\- ]{0,20}", fullmatch=True).map(lambda s: s.strip())


@given(st.dictionaries(_key, _value, max_size=8))
def test_config_round_trip_random(entries):
    cfg = ExperimentConfig(dict(entries))
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_config_rejects_garbage():
    with pytest.raises(ValidationError):
        ExperimentConfig.from_text("this is not a config\n")


def test_matrix_parsing():
    assert parse_matrix_text("0.5").shape == (1, 1)
    M = parse_matrix_text("0.1 0.2; 0.3, 0.4")
    assert M.shape == (2, 2)
    assert M[1, 0] == 0.3
    with pytest.raises(ValidationError):
        parse_matrix_text("1 2; 3")


def test_config_builds_psi_and_weights():
    cfg = ExperimentConfig.from_text(
        "psi.family=constant_ratio\npsi.params=0.5\npsi.t0=2.0\n"
        "dims.m=2\ndims.n=1\nweights.alpha=0.6,0.4\nweights.beta=1.0\n"
    )
    psi = cfg.psi()
    assert float(psi.psi(10.0)) == 0.05
    w = cfg.weights()
    assert w.omega1 == pytest.approx(1.2)


def test_cli_classify_divergent(tmp_path, capsys):
    code = cli_main(
        [
            "classify",
            "--set", "psi.family=constant_ratio",
            "--set", "psi.params=0.5",
            "--set", "psi.t0=2.0",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert "Divergent" in capsys.readouterr().out
    assert (tmp_path / "classify.json").exists()
    assert (tmp_path / "manifest.json").exists()


def test_cli_check_zero_matrix(tmp_path, capsys):
    code = cli_main(
        [
            "check",
            "--A", "0.0",
            "--T", "1000",
            "--set", "psi.family=constant_ratio",
            "--set", "psi.params=0.5",
            "--set", "psi.t0=2.0",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    data = json.loads((tmp_path / "check.json").read_text())
    assert data["uncovered"] == []


def test_cli_check_both_oracles(tmp_path, capsys):
    code = cli_main(
        [
            "check",
            "--A", "0.6180339887498949",
            "--T", "900",
            "--oracle", "both",
            "--set", "psi.family=constant_ratio",
            "--set", "psi.params=0.2",
            "--set", "psi.t0=2.0",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    data = json.loads((tmp_path / "check.json").read_text())
    assert data["oracles_agree"] is True
    assert data["passes"] is False


def test_cli_disjoint_guard_exit_code(tmp_path, capsys):
    code = cli_main(["disjoint", "--r", "0.02", "--samples", "5", "--out", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_unknown_flag_exits_1(tmp_path, capsys):
    code = cli_main(["classify", "--bogus"])
    assert code == 1


def test_cli_unknown_subcommand(tmp_path):
    assert cli_main(["frobnicate"]) == 1


def test_cli_budget_exit_code(tmp_path, capsys):
    code = cli_main(
        [
            "check",
            "--A", "0.1 0.2",  # 1x2: q-box of size ~T, past the default budget
            "--T", "1000000000",
            "--classic",
            "--set", "dims.m=1",
            "--set", "dims.n=2",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("kinds,r_values", [("foo", "0.2"), ("sub", "1.5")])
def test_cli_measure_d2_rejects_bad_targets(tmp_path, capsys, kinds, r_values):
    # m = n = 1 (exact path) validates targets as d >= 3 does
    code = cli_main(
        [
            "measure",
            "--kinds", kinds,
            "--r-values", r_values,
            "--N", "1000",
            "--out", str(tmp_path),
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_measure_determinism_and_threads(tmp_path):
    def run(sub, threads):
        out = tmp_path / sub
        code = cli_main(
            [
                "measure",
                "--kinds", "sub",
                "--r-values", "0.1,0.2,0.3",
                "--N", "1500",
                "--s-push", "6.0",
                "--seed", "5",
                "--threads", str(threads),
                "--out", str(out),
            ]
        )
        assert code == 0
        return (out / "measure.csv").read_bytes()

    body1 = run("a", 1)
    body2 = run("b", 2)
    body3 = run("c", 1)
    assert body1 == body2 == body3


def test_cli_manifest_digests_match(tmp_path):
    import hashlib

    code = cli_main(
        [
            "dani",
            "--set", "psi.family=constant_ratio",
            "--set", "psi.params=0.5",
            "--set", "psi.t0=2.0",
            "--s-max", "10",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for name, digest in manifest["file_digests"].items():
        body = (tmp_path / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest


def test_cli_config_file_equivalent(tmp_path):
    cfg_text = (
        "psi.family=constant_ratio\npsi.params=0.5\npsi.t0=2.0\n"
        "series.horizons=500,1000,2000\n"
    )
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(cfg_text)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert cli_main(["classify", "--config", str(cfg_file), "--out", str(out1)]) == 0
    assert (
        cli_main(
            [
                "classify",
                "--set", "psi.family=constant_ratio",
                "--set", "psi.params=0.5",
                "--set", "psi.t0=2.0",
                "--set", "series.horizons=500,1000,2000",
                "--out", str(out2),
            ]
        )
        == 0
    )
    assert (out1 / "classify.json").read_bytes() == (out2 / "classify.json").read_bytes()
