"""Command-line interface.

Subcommands: classify, dani, check, measure, orbit, disjoint, crossval.
A flag's config key is its argparse dest (--s-push sets measure.s_push);
a run reads a --config file (flat key=value), then each --set KEY=VALUE,
then the flags.  --seed and --out are global.  A key the subcommand does
not read (config.SHARED_KEYS, config.SUBCOMMAND_KEYS) is an error.  Exit
codes: 0 success, 1 validation error, 2 budget error.  Work is keyed by
sample index and aggregated in index order.  --threads is validated (>= 1) and otherwise ignored: all work runs
on one thread, because the lab's pure-Python work gained nothing from more.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .approx import classify_series, validate_psi
from .cf import cf_uncovered_intervals
from .config import SHARED_KEYS, SUBCOMMAND_KEYS, ExperimentConfig
from .dirichlet import psi_dirichlet_scan
from .errors import BudgetError, DirichletLabError, ValidationError
from .exact2d import Exact2D
from .experiments import (
    cross_validate_dani,
    dani_table,
    empirical_zero_one,
    orbit_hit_series,
    verify_disjointness,
)
from .mc import fit_scaling, measure_profile
from .parallel import indexed_map
from .rate import s0_of
from .reports import write_csv, write_json, write_plot_data, write_run_manifest
from .rng import torus_samples
from .targets import KIND_PRIMED, KIND_SUB


class _KeyFormatter(argparse.HelpFormatter):
    """Shows a flag's value as its config key, in the case --set takes it."""

    def _get_default_metavar_for_optional(self, action):
        return action.dest


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=_KeyFormatter, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built on the first call and reused: parsing leaves it unchanged."""
    parser = _Parser(prog="dirichlet-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, metavar="FILE", help="config file (key=value lines)")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    common.add_argument("--seed", type=int)
    common.add_argument(
        "--threads", type=int, help="accepted and validated (>= 1); work runs on one thread"
    )
    common.add_argument("--out", type=str)

    p = sub.add_parser("classify", parents=[common], help="series verdict for psi")
    p.add_argument("--horizons", dest="series.horizons", type=str)

    p = sub.add_parser("dani", parents=[common], help="emit r(s), t(s) tables")
    p.add_argument("--s-max", dest="dani.s_max", type=str)
    p.add_argument("--s-step", dest="dani.s_step", type=str)

    p = sub.add_parser("check", parents=[common], help="psi-Dirichlet scan for a matrix")
    p.add_argument("--A", type=str)
    p.add_argument("--T", dest="check.T", type=str)
    p.add_argument("--classic", dest="check.classic", action="store_const", const="true")
    p.add_argument("--oracle", dest="check.oracle", choices=("cf", "lattice", "both"))

    p = sub.add_parser("measure", parents=[common], help="MC estimates + scaling fit")
    p.add_argument("--kinds", dest="measure.kinds", type=str)
    p.add_argument("--r-values", dest="measure.r_values", type=str)
    p.add_argument("--N", dest="measure.n", type=str)
    p.add_argument("--s-push", dest="measure.s_push", type=str)

    p = sub.add_parser("orbit", parents=[common], help="hit series / zero-one contrast")
    p.add_argument("--mode", dest="orbit.mode", choices=("series", "contrast"))
    p.add_argument("--A", type=str)
    p.add_argument("--k-min", dest="orbit.k_min", type=str)
    p.add_argument("--k-max", dest="orbit.k_max", type=str)
    p.add_argument("--a", dest="orbit.a", type=str)
    p.add_argument("--ensemble", type=str)
    p.add_argument("--variant", dest="orbit.variant", choices=("upper", "lower", "ndi"))

    p = sub.add_parser("disjoint", parents=[common], help="disjointness verification")
    p.add_argument("--r", dest="disjoint.r", type=str)
    p.add_argument("--samples", dest="disjoint.samples", type=str)

    p = sub.add_parser("crossval", parents=[common], help="correspondence cross-validation")
    p.add_argument("--S", dest="crossval.S", type=str)
    p.add_argument("--ensemble", type=str)
    return parser


def _merge_config(args) -> ExperimentConfig:
    """The run's config: the --config file, then --set, then each flag under its dest.

    Raises ValidationError for a key the subcommand does not read
    (config.SHARED_KEYS and its config.SUBCOMMAND_KEYS).
    """
    cfg = ExperimentConfig({})
    if args.config:
        cfg = ExperimentConfig.from_text(Path(args.config).read_text())
    for item in args.set:
        if "=" not in item:
            raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        cfg.entries[key.strip()] = value.strip()
    for key, val in vars(args).items():
        if key not in ("config", "set") and val is not None:
            cfg.entries[key] = str(val)
    subcommand = cfg.entries["subcommand"]
    unknown = sorted(set(cfg.entries) - SHARED_KEYS - SUBCOMMAND_KEYS[subcommand])
    if unknown:
        raise ValidationError(f"{subcommand} does not read config key {', '.join(map(repr, unknown))}")
    return cfg


def _run_classify(cfg: ExperimentConfig, outdir: Path, files: list) -> int:
    psi = cfg.psi()
    dims = cfg.dims()
    horizons = cfg.get_ints("series.horizons", "1000,2000,4000,8000,16000")
    verdict = classify_series(psi, dims, horizons)
    print(verdict.verdict.capitalize())
    if verdict.heuristic:
        print("method: partial-sum heuristic (not analytic)")
    files.append(
        write_json(
            outdir / "classify.json",
            {
                "verdict": verdict.verdict,
                "method": verdict.method,
                "note": verdict.note,
                "partial_sums": verdict.partial_sums,
            },
        )
    )
    files.append(
        write_csv(outdir / "partial_sums.csv", ["k_max", "value"], verdict.partial_sums)
    )
    return 0


def _run_dani(cfg: ExperimentConfig, outdir: Path, files: list) -> int:
    psi = cfg.psi()
    dims = cfg.dims()
    s0 = s0_of(psi, dims)
    s_max = cfg.get_float("dani.s_max", s0 + 10.0)
    rows = dani_table(psi, dims, s_max, cfg.get_float("dani.s_step", 0.25))
    files.append(write_csv(outdir / "dani.csv", ["s", "r", "t"], rows))
    print(f"emitted {len(rows)} (s, r, t) rows from s0={s0!r}")
    return 0


def _run_check(cfg: ExperimentConfig, outdir: Path, files: list) -> int:
    w = cfg.weights()
    classic = cfg.get_bool("check.classic", False)
    T = cfg.get_float("check.T", 1000.0)
    A = cfg.matrix("A")
    psi = None if classic else cfg.psi()
    oracle = cfg.get("check.oracle", "lattice")
    result = {"T": T, "classic": classic, "oracle": oracle}
    scan = None
    if oracle in ("lattice", "both"):
        scan = psi_dirichlet_scan(A, psi, T, w, classic_mode=classic)
        result["uncovered"] = scan.uncovered
        result["passes"] = scan.passes
        result["n_considered"] = scan.n_considered
        result["boundary_points"] = scan.boundary_points
    if oracle in ("cf", "both"):
        if (w.m, w.n) != (1, 1):
            raise ValidationError("the cf oracle needs m = n = 1")
        if classic:
            raise ValidationError("the cf oracle needs an explicit psi")
        ex = Exact2D.of(A)
        cf_intervals = cf_uncovered_intervals(ex.num / ex.den, psi, T)
        result["cf_uncovered"] = cf_intervals
        result["cf_passes"] = not cf_intervals
        if oracle == "both":
            agree = len(cf_intervals) == len(scan.uncovered) and all(
                abs(a - b) <= 1e-6 * max(1.0, abs(a))
                for (a1, a2), (b1, b2) in zip(cf_intervals, scan.uncovered)
                for a, b in ((a1, b1), (a2, b2))
            )
            result["oracles_agree"] = agree
    passes = result.get("passes", result.get("cf_passes"))
    print("PASS" if passes else "FAIL")
    uncovered = result.get("uncovered", result.get("cf_uncovered", []))
    for lo, hi in uncovered[:20]:
        print(f"  uncovered ({lo!r}, {hi!r}]")
    files.append(write_json(outdir / "check.json", result))
    return 0


def _run_measure(cfg: ExperimentConfig, outdir: Path, files: list) -> int:
    w = cfg.weights()
    dims = cfg.dims()
    seed = cfg.get_int("seed")
    kinds = cfg.get("measure.kinds", "sub").replace(",", " ").split()
    if "measure.r_values" in cfg.entries:
        r_values = cfg.get_floats("measure.r_values")
    else:
        r_lo = cfg.get_float("measure.r_min", 0.02)
        r_hi = cfg.get_float("measure.r_max", 0.2)
        count = cfg.get_int("measure.r_count", 8)
        r_values = list(np.geomspace(r_lo, r_hi, count))
    N = cfg.get_int("measure.n", 10_000)
    s_push = cfg.get_float("measure.s_push", 10.0)
    profile = measure_profile(kinds, r_values, w, s_push, N, seed)
    rows = []
    for kind in kinds:
        for r in r_values:
            est = profile[(kind, float(r))]
            rows.append(
                (float(r), kind, dims.d, N, s_push, est.mean, est.ci_low, est.ci_high, seed)
            )
    files.append(
        write_csv(
            outdir / "measure.csv",
            ["r", "kind", "d", "N", "s_push", "mean", "ci_low", "ci_high", "seed"],
            rows,
        )
    )
    for kind in kinds:
        means = [profile[(kind, float(r))].mean for r in r_values]
        thickened = kind not in (KIND_SUB, KIND_PRIMED)
        if all(m > 0 for m in means) and len(r_values) >= 4:
            fit = fit_scaling(
                r_values,
                [profile[(kind, float(r))] for r in r_values],
                dims,
                thickened=thickened,
                freeze_lambda=cfg.get_bool("fit.freeze_lambda", True),
            )
            files.append(write_json(outdir / f"fit_{kind}.json", fit.to_json_dict()))
            print(f"{kind}: kappa_hat={fit.kappa_hat:.4f} (se {fit.se:.4f}, "
                  f"reference {fit.reference_exponent})")
            exponent = fit.reference_exponent
            lam = dims.lambda_d
            reference = f"r^{exponent:g}*log^{lam:g}(1/r)"
        else:
            reference = "n/a"
        files.append(
            write_plot_data(outdir / f"scaling_{kind}.csv", r_values, means, reference)
        )
    return 0


def _run_orbit(cfg: ExperimentConfig, outdir: Path, files: list) -> int:
    w = cfg.weights()
    seed = cfg.get_int("seed")
    rate = cfg.rate()
    mode = cfg.get("orbit.mode", "contrast")
    k_lo = cfg.get_int("orbit.k_min", 10)
    k_hi = cfg.get_int("orbit.k_max", 100)
    a = cfg.get_float("orbit.a", 0.9)
    if mode == "series":
        A = cfg.matrix("A")
        variant = cfg.get("orbit.variant", "ndi")
        warning = None
        if "orbit.C_r" in cfg.entries:
            C_r = cfg.get_float("orbit.C_r")
        elif variant in ("upper", "lower") and "psi.family" in cfg.entries:
            # the bracketing constant from the empirical quasi-decrease bound
            psi = cfg.psi()
            grid = np.geomspace(psi.t0, min(psi.t0 * math.exp(10.0), psi.t_end), 200)
            c_hat = validate_psi(psi, grid).c_hat
            C_r = (2.0 * max(c_hat, 1.0)) ** 2
        else:
            C_r = 1.0
            if variant in ("upper", "lower"):
                warning = "C_r defaulted to 1 (no psi to estimate the quasi-decrease bound)"
                print(f"warning: {warning}")
        series = orbit_hit_series(
            A,
            rate,
            variant,
            (k_lo, k_hi),
            w,
            C_r=C_r,
            a=a if variant == "ndi" else None,
        )
        rows = [(0, int(k), bool(h)) for k, h in zip(series.k_values, series.hits)]
        files.append(write_csv(outdir / "hits.csv", ["member", "k", "hit"], rows))
        files.append(
            write_json(
                outdir / "orbit.json",
                {
                    "variant": series.variant,
                    "k_lo": series.k_lo,
                    "k_hi": series.k_hi,
                    "constants": series.constants,
                    "hit_count": int(series.hits.sum()),
                    "tail_hit": series.tail_hit(),
                    "warning": warning,
                },
            )
        )
        print(f"hits: {int(series.hits.sum())} / {len(series.hits)}")
        return 0
    ensemble = cfg.get_int("ensemble", 100)
    report = empirical_zero_one(rate, w, ensemble, (k_lo, k_hi), a, seed)
    rows = []
    for member, series in enumerate(report.hit_series):
        for offset, hit in enumerate(series):
            rows.append((member, k_lo + offset, hit))
    files.append(write_csv(outdir / "hits.csv", ["member", "k", "hit"], rows))
    count_rows = [(m, c) for m, c in enumerate(report.hit_counts)]
    files.append(
        write_csv(outdir / "hit_counts.csv", ["member", "hit_count"], count_rows)
    )
    files.append(
        write_json(
            outdir / "contrast.json",
            {
                "ensemble": report.ensemble,
                "k_lo": report.k_lo,
                "k_hi": report.k_hi,
                "a": report.a,
                "tail_frequency": report.tail_frequency,
                "histogram": report.histogram(),
                "seed": report.seed,
                "rate": report.rate_label,
            },
        )
    )
    print(f"tail frequency: {report.tail_frequency!r}")
    return 0


def _run_disjoint(cfg: ExperimentConfig, outdir: Path, files: list) -> int:
    w = cfg.weights()
    dims = cfg.dims()
    r = cfg.get_float("disjoint.r", math.exp(-8.0))
    samples = cfg.get_int("disjoint.samples", 1000)
    report = verify_disjointness(r, dims, w, samples, cfg.get_int("seed"))
    files.append(
        write_json(
            outdir / "disjoint.json",
            {
                "r": report.r,
                "J": report.J,
                "samples": report.samples,
                "violations": report.violations,
                "violation_count": report.violation_count,
            },
        )
    )
    print(f"J={report.J}, violations={report.violation_count}/{report.samples}")
    return 0


def _run_crossval(cfg: ExperimentConfig, outdir: Path, files: list) -> int:
    w = cfg.weights()
    dims = cfg.dims()
    psi = cfg.psi()
    seed = cfg.get_int("seed")
    S = cfg.get_float("crossval.S", 20.0)
    ensemble = cfg.get_int("ensemble", 100)
    table = dani_table(psi, dims, S, cfg.get_float("crossval.s_step", 0.05))
    alphas = torus_samples(seed, "crossval", 0, ensemble, 1, 1).ravel().tolist()

    def member(idx: int):
        a = alphas[idx]
        rep = cross_validate_dani(a, psi, dims, w, S, rate_table=table)
        return a, rep

    counterexamples = []
    for idx, (a, rep) in enumerate(indexed_map(member, ensemble)):
        if not rep.consistent:
            counterexamples.append({"member": idx, "alpha": a, "items": rep.counterexamples})
    files.append(
        write_json(
            outdir / "crossval.json",
            {
                "ensemble": ensemble,
                "S": S,
                "counterexample_count": len(counterexamples),
                "counterexamples": counterexamples,
            },
        )
    )
    print(f"counterexamples: {len(counterexamples)}/{ensemble}")
    return 0


_HANDLERS = {
    "classify": _run_classify,
    "dani": _run_dani,
    "check": _run_check,
    "measure": _run_measure,
    "orbit": _run_orbit,
    "disjoint": _run_disjoint,
    "crossval": _run_crossval,
}


def cli_main(argv=None) -> int:
    t_start = time.time()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args)
        threads = cfg.get_int("threads")
        if threads < 1:
            raise ValidationError("threads must be >= 1")
        outdir = Path(cfg.get("out"))
        outdir.mkdir(parents=True, exist_ok=True)
        files: list = []
        code = _HANDLERS[cfg.entries["subcommand"]](cfg, outdir, files)
        write_run_manifest(outdir, cfg.to_text(), files, __version__, t_start)
        return code
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, DirichletLabError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
