"""The benchmark's workloads: CLI invocations made from a seed, and their checks.

A workload is a sequence of batches.  Batch i is a fixed list of
`cli_main` calls whose inputs come only from (seed, workload, i), and it
does `units` units of work: samples for `measure`, ensemble members for
`orbit`, matrices A for `check`.  After each batch the outputs are checked
with rules that hold for every seed; for the default seed the byte-stable
outputs must also match the sha256 digests recorded in `digests.json`.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
DIGESTS = Path(__file__).resolve().with_name("digests.json")


def derived_seed(seed: int, workload: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}|{workload}|{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    units: int  # units per batch: samples, ensemble members or matrices A
    calls: Callable  # (seed, index) -> [(tag, argv)]; tag names the call's output directory
    outputs: tuple  # glob patterns of byte-stable files in each output directory
    check: Callable  # {tag: output directory} -> error message or None
    trace_batches: int  # batches a traced run replays


def _read_json(path: Path):
    return json.loads(path.read_text())


# -- measure ---------------------------------------------------------------------

MEASURE_N = 1000  # the smallest N measure_profile accepts


def _measure_calls(workload, kinds, extra):
    def calls(seed, index):
        argv = [
            "measure", "--kinds", kinds, "--N", str(MEASURE_N), "--s-push", "10",
            "--threads", "1", "--seed", str(derived_seed(seed, workload, index)), *extra,
        ]
        return [("measure", argv)]

    return calls


def _means(out: Path):
    with open(out / "measure.csv", newline="") as fh:
        return {(row["kind"], float(row["r"])): float(row["mean"]) for row in csv.DictReader(fh)}


def _nested(inner, outer, radii):
    """A check that kind `inner`'s target lies inside kind `outer`'s at every r."""

    def check(dirs):
        means = _means(dirs["measure"])
        found = sorted({r for _, r in means})
        if len(found) != radii:
            return f"measure.csv has {len(found)} radii, expected {radii}"
        for r in found:
            small, large = means[(inner, r)], means[(outer, r)]
            if small > large:
                return f"{inner} mean {small} > {outer} mean {large} at r={r}"
        return None

    return check


# -- orbit -----------------------------------------------------------------------

ORBIT_ENSEMBLE = 50  # the smallest ensemble empirical_zero_one accepts
ORBIT_K = (10, 100)


def _orbit_calls(seed, index):
    argv = [
        "orbit", "--mode", "contrast", "--k-min", str(ORBIT_K[0]), "--k-max", str(ORBIT_K[1]),
        "--a", "0.9", "--ensemble", str(ORBIT_ENSEMBLE),
        "--set", "psi.family=log_drift", "--set", "psi.params=1,0.5",
        "--set", f"psi.t0={math.exp(4.0)!r}", "--set", "psi.reduce=true",
        "--threads", str(min(2, nproc())),
        "--seed", str(derived_seed(seed, "orbit-contrast", index)),
    ]
    return [("orbit", argv)]


def _orbit_check(dirs):
    out = dirs["orbit"]
    k_lo, k_hi = ORBIT_K
    with open(out / "hits.csv", newline="") as fh:
        rows = [(int(r["member"]), int(r["k"]), int(r["hit"])) for r in csv.DictReader(fh)]
    with open(out / "hit_counts.csv", newline="") as fh:
        counts = {int(r["member"]): int(r["hit_count"]) for r in csv.DictReader(fh)}
    report = _read_json(out / "contrast.json")
    if len(rows) != ORBIT_ENSEMBLE * (k_hi - k_lo + 1):
        return f"hits.csv has {len(rows)} rows"
    sums = [0] * ORBIT_ENSEMBLE
    tail = [False] * ORBIT_ENSEMBLE
    for member, k, hit in rows:
        sums[member] += hit
        tail[member] |= bool(hit) and k > (k_lo + k_hi) // 2
    if [counts.get(m) for m in range(ORBIT_ENSEMBLE)] != sums:
        return "hit_counts.csv disagrees with hits.csv"
    if report["ensemble"] != ORBIT_ENSEMBLE or sum(report["histogram"].values()) != ORBIT_ENSEMBLE:
        return "contrast.json ensemble or histogram is wrong"
    if report["tail_frequency"] != sum(tail) / ORBIT_ENSEMBLE:
        return f"tail_frequency {report['tail_frequency']} != {sum(tail)}/{ORBIT_ENSEMBLE}"
    return None


# -- scan ------------------------------------------------------------------------


def _unit_draw(rng: random.Random) -> float:
    """Uniform on the open interval (0, 1)."""
    while True:
        x = rng.random()
        if x > 0.0:
            return x


def _scan_calls(seed, index):
    rng = random.Random(derived_seed(seed, "scan", index))
    a, b = _unit_draw(rng), _unit_draw(rng)
    return [
        ("both", [
            "check", "--oracle", "both", "--T", "1e4", "--A", repr(a),
            "--set", "psi.family=constant_ratio", "--set", "psi.params=0.6",
        ]),
        ("lattice", [
            "check", "--oracle", "lattice", "--T", "1e10", "--A", repr(a),
            "--set", "psi.family=log_drift", "--set", "psi.params=1,1",
            "--set", f"psi.t0={math.exp(2.0)!r}",
        ]),
        ("classic", [
            "check", "--classic", "--T", "1000", "--A", f"{a!r};{b!r}",
            "--set", "dims.m=2", "--set", "dims.n=1",
        ]),
    ]


def _scan_check(dirs):
    both = _read_json(dirs["both"] / "check.json")
    if both.get("oracles_agree") is not True:
        return "lattice scan and continued-fraction oracle disagree"
    walk = _read_json(dirs["lattice"] / "check.json")
    if walk["passes"] != (not walk["uncovered"]):
        return "walk scan: passes disagrees with its uncovered list"
    if _read_json(dirs["classic"] / "check.json")["passes"] is not True:
        return "classic Dirichlet scan left part of (1, T] uncovered"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="measure-d2",
            units=MEASURE_N,
            calls=_measure_calls("measure-d2", "sub,primed", []),
            outputs=("measure.csv", "fit_*.json"),
            check=_nested("primed", "sub", 8),
            trace_batches=20,
        ),
        Workload(
            name="measure-d3",
            units=MEASURE_N,
            calls=_measure_calls(
                "measure-d3", "sub,primed", ["--set", "dims.m=1", "--set", "dims.n=2"]
            ),
            outputs=("measure.csv", "fit_*.json"),
            check=_nested("primed", "sub", 8),
            trace_batches=1,
        ),
        Workload(
            name="thick-d3",
            units=MEASURE_N,
            calls=_measure_calls(
                "thick-d3", "thick,thick_primed",
                ["--r-values", "0.2", "--set", "dims.m=1", "--set", "dims.n=2"],
            ),
            outputs=("measure.csv", "fit_*.json"),
            check=_nested("thick_primed", "thick", 1),
            trace_batches=1,
        ),
        Workload(
            name="orbit-contrast",
            units=ORBIT_ENSEMBLE,
            calls=_orbit_calls,
            outputs=("hits.csv", "hit_counts.csv", "contrast.json"),
            check=_orbit_check,
            trace_batches=5,
        ),
        Workload(
            name="scan",
            units=1,
            calls=_scan_calls,
            outputs=("check.json",),
            check=_scan_check,
            trace_batches=100,
        ),
    )
}


def output_digests(workload: Workload, dirs: dict) -> dict:
    """"tag/file" -> sha256 of every byte-stable output of one batch."""
    out = {}
    for tag, path in dirs.items():
        for pattern in workload.outputs:
            for file in sorted(glob.glob(str(path / pattern))):
                data = Path(file).read_bytes()
                out[f"{tag}/{Path(file).name}"] = hashlib.sha256(data).hexdigest()
    return out


def load_digests() -> dict:
    """workload -> list of per-batch digest maps recorded for DEFAULT_SEED."""
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
