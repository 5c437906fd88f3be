import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_lab import rate
from dirichlet_lab.approx import ConstantRatio, DimensionParams
from dirichlet_lab.cli import _build_parser, cli_main
from dirichlet_lab.config import ExperimentConfig
from dirichlet_lab.errors import ValidationError
from dirichlet_lab.rate import s0_of


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
    def matrix(text):
        return ExperimentConfig({"A": text}).matrix("A")

    assert matrix("0.5").shape == (1, 1)
    M = matrix("0.1 0.2; 0.3, 0.4")
    assert M.shape == (2, 2)
    assert M[1, 0] == 0.3
    with pytest.raises(ValidationError):
        matrix("1 2; 3")


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


# psi = 0.6/t at t = 2, 4, ..., 4096: the chords keep t psi <= 0.675 < 1
_KNOTS_06 = ",".join(f"{2.0**k:g}:{0.6 / 2.0**k!r}" for k in range(1, 13))


def test_cli_check_reduced_tabulated_psi(tmp_path):
    # the reduced psi keeps the last knot as its domain end, so the scan's
    # inversion cap stops there instead of evaluating past it
    def run(sub, *extra):
        argv = [
            "check",
            "--A", "0.3819660112501051",
            "--T", "1000",
            "--set", "psi.family=tabulated",
            "--set", f"psi.knots={_KNOTS_06}",
            *extra,
            "--out", str(tmp_path / sub),
        ]
        assert cli_main(argv) == 0
        return json.loads((tmp_path / sub / "check.json").read_text())

    plain = run("plain")
    reduced = run("reduced", "--set", "psi.reduce=true")
    assert reduced["uncovered"] == plain["uncovered"]


def test_cli_check_rejects_tabulated_psi_above_one_over_t(tmp_path, capsys):
    # psi(26) = 0.1575 on the first chord: t psi ~ 4.1, so F < 0 there
    argv = [
        "check",
        "--A", "0.3819660112501051",
        "--T", "1000",
        "--set", "psi.family=tabulated",
        "--set", "psi.knots=2:0.3,50:0.015,500:0.0015,5000:0.00015",
        "--out", str(tmp_path),
    ]
    assert cli_main(argv) == 1
    assert "below 1/t" in capsys.readouterr().err
    assert not (tmp_path / "check.json").exists()


@pytest.mark.parametrize("variant", ["upper", "lower"])
def test_cli_orbit_series_validates_psi_within_its_domain(tmp_path, variant):
    # psi = 0.9/t at t = 2 * 1.5^k up to ~3.4e4, less than the e^10 validation
    # window from t0 = 2; the window stops at the last knot instead of
    # evaluating past it (chords keep t psi <= 0.9 (1 + 1/24) < 1)
    knots = ",".join(f"{2 * 1.5**k!r}:{0.9 / (2 * 1.5**k)!r}" for k in range(25))
    argv = [
        "orbit",
        "--mode", "series",
        "--variant", variant,
        "--A", "0.3819660112501051",
        "--k-min", "2",
        "--k-max", "7",
        "--set", "psi.family=tabulated",
        "--set", f"psi.knots={knots}",
        "--out", str(tmp_path),
    ]
    assert cli_main(argv) == 0
    data = json.loads((tmp_path / "orbit.json").read_text())
    assert (data["variant"], data["k_lo"], data["k_hi"]) == (variant, 2, 7)
    assert data["warning"] is None and data["constants"]["C_r"] >= 4.0


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


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--A", "0.1 0.2"],
        ["orbit", "--mode", "series", "--A", "0.1 0.2"],
        ["check", "--set", "dims.m=2", "--A", "0.1 0.2"],
        ["check", "--classic", "--set", "dims.n=3", "--A", "0.1 0.2"],
        ["check", "--oracle", "cf", "--A", "0.1 0.2"],
    ],
)
def test_cli_rejects_an_A_that_does_not_fit_dims(tmp_path, capsys, argv):
    psi = ["--set", "psi.family=constant_ratio", "--set", "psi.params=0.6"]
    assert cli_main([*argv, *psi, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "shape" in err, err


def test_cli_dani_inverts_each_row_once(tmp_path, monkeypatch):
    calls = []
    invert = rate._invert_time
    monkeypatch.setattr(rate, "_invert_time", lambda *args: calls.append(args) or invert(*args))
    argv = ["dani", "--s-max", "12", "--set", "psi.family=constant_ratio", "--set", "psi.params=0.6"]
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "dani.csv").read_text().splitlines()[1:]
    assert len(calls) == len(rows) > 10


def test_cli_dani_s_grid_is_the_crossval_grid(tmp_path, capsys):
    psi = ["--set", "psi.family=constant_ratio", "--set", "psi.params=0.6"]
    s0 = s0_of(ConstantRatio(0.6), DimensionParams(1, 1))
    argv = ["dani", "--s-step", "0.1", "--s-max", repr(s0 + 10.0), *psi, "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    rows = (tmp_path / "dani.csv").read_text().splitlines()[1:]
    s_values = [float(row.split(",")[0]) for row in rows]
    assert s_values == np.arange(s0, s0 + 10.0 + 1e-12, 0.1).tolist()
    assert len(s_values) == 101
    for step in ("0", "-0.1"):
        assert cli_main([*argv[:2], step, *argv[3:]]) == 1
        assert "s_step must be positive" in capsys.readouterr().err


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


def test_cli_calls_share_the_parser_but_not_its_values(tmp_path):
    def run(sub, *argv):
        assert cli_main(["check", *argv, "--out", str(tmp_path / sub)]) == 0
        manifest = json.loads((tmp_path / sub / "manifest.json").read_text())
        config = ExperimentConfig.from_text(manifest["config"]).entries
        return config, json.loads((tmp_path / sub / "check.json").read_text())

    first, first_check = run(
        "a", "--A", "0.25", "--T", "100", "--classic", "--seed", "3", "--set", "check.oracle=lattice"
    )
    second, second_check = run(
        "b",
        "--A", "0.0",
        "--T", "50",
        "--set", "psi.family=constant_ratio",
        "--set", "psi.params=0.5",
        "--set", "psi.t0=2.0",
    )
    assert first_check["classic"] and not second_check["classic"]
    want = {"A": "0.25", "check.T": "100", "seed": "3", "check.oracle": "lattice", "check.classic": "true"}
    assert {key: first[key] for key in want} == want
    assert (second["A"], second["check.T"]) == ("0.0", "50")
    assert not {"check.classic", "seed", "check.oracle"} & set(second)
    assert "psi.family" not in first
    assert _build_parser() is _build_parser()


def test_cli_refuses_a_key_no_run_reads(tmp_path, capsys):
    # measure.N for measure.n: before, the run went ahead at N = 10 000
    out = tmp_path / "out"
    assert cli_main(["measure", "--set", "measure.N=1000", "--out", str(out)]) == 1
    assert "'measure.N'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_key_only_another_subcommand_reads(tmp_path, capsys):
    # orbit.a is read by orbit alone; check used to echo it and exit 0
    out = tmp_path / "out"
    assert cli_main(["check", "--A", "0.25", "--set", "orbit.a=0.5", "--out", str(out)]) == 1
    assert "check does not read config key 'orbit.a'" in capsys.readouterr().err
    assert not out.exists()
    # a shared key is taken by every subcommand
    assert cli_main(["check", "--A", "0.25", "--classic", "--set", "rate.eta=0.5", "--out", str(out)]) == 0


def test_cli_refuses_a_config_file_key_no_run_reads(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("measure.n=1000\nmeasure.spush=5\n")
    out = tmp_path / "out"
    assert cli_main(["measure", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert "'measure.spush'" in capsys.readouterr().err
    assert not out.exists()


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


# configs/<subcommand>[-<name>].conf; small sizes keep each run under a second
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.conf"))
SMALL_SETS = {
    "measure": ["measure.n=1000"],
    "orbit": ["ensemble=50", "orbit.k_max=14"],
    "crossval": ["ensemble=2", "crossval.S=10"],
    "disjoint": ["disjoint.samples=5"],
}


def test_every_experiment_config_is_listed():
    assert sorted(p.stem for p in CONFIGS) == [
        "crossval",
        "disjoint",
        "measure-scaling",
        "orbit-contrast-convergent",
        "orbit-contrast-divergent",
    ]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_experiment_configs_run(path, tmp_path, capsys):
    subcommand = path.stem.split("-")[0]
    sets = [arg for item in SMALL_SETS[subcommand] for arg in ("--set", item)]
    code = cli_main([subcommand, "--config", str(path), *sets, "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "manifest.json").exists()
