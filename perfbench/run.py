"""dirichlet-lab benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the lab is imported from `src/`.  With
--trace 0 the run starts SETUP_SAMPLES child processes: all but the last
stop at their first `cli_main` call and give set-up time only, and the
last runs the workload for about S seconds.  With --trace 1 one child
replays a fixed set of batches without and then with tracing.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Every run is appended to
perfbench/.work/runs.jsonl with the machine, the load before and after,
and the unit counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# one BLAS thread per process; Python threads are set by the workload itself
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, nproc  # noqa: E402


class BenchError(Exception):
    pass


def spawn(args, work, log, deadline) -> dict:
    """Run worker.py with args; returns its result plus the monotonic spawn time."""
    result = work / "result.json"
    result.unlink(missing_ok=True)
    env = {**os.environ, **CHILD_ENV}
    cmd = [sys.executable, str(WORKER), *args, "--result", str(result)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run time limit: {' '.join(args)}") from exc
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"worker exited with code {proc.returncode}; see {log.name}")
    data = json.loads(result.read_text())
    data["spawned"] = spawned
    return data


def quantile(values, q):
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_sha():
    """HEAD of the checkout's .git directory, read without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def read_first(path, prefix=""):
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip() if prefix else line.strip()
    except OSError:
        pass
    return None


def set_up_s(worker):
    """From spawning the child to its first cli_main call, at reference speed."""
    return (worker["entry"] - worker["spawned"]) * worker["entry_speed"]


def end_to_end(worker, setups):
    """Timings are at reference speed (see SpeedProbe in worker.py)."""
    done = worker["attempted"] - worker["failed"]
    return {
        "throughput_per_s": (done / worker["reference_busy_s"], "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        "success_fraction": (done / worker["attempted"], "fraction"),
        "unit_p50_ms": (quantile(worker["unit_ms"], 0.50), "ms"),
        "unit_p99_ms": (quantile(worker["unit_ms"], 0.99), "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dirichlet_lab" / "__init__.py").is_file():
        print(f"error: no dirichlet_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "nproc": nproc(),
        "cpu": read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "loadavg_before": read_first("/proc/loadavg"),
    }
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    try:
        with open(work / "worker.log", "w") as log:
            setups = []
            if not args.trace:
                for _ in range(SETUP_SAMPLES - 1):
                    probe = spawn([*common, "--setup-only"], work, log, deadline)
                    setups.append(set_up_s(probe))
            worker = spawn(
                [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                work, log, deadline,
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(set_up_s(worker))
    record["loadavg_after"] = read_first("/proc/loadavg")

    if args.trace:
        metrics = worker["layers"]
        record["absent"] = worker["absent"]
        if worker["absent"]:
            print(f"absent layer metrics: {', '.join(worker['absent'])}", file=sys.stderr)
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end(worker, setups).items()
        }
    for key in ("python", "numpy", "batches", "digest_checked", "attempted", "failed",
                "busy_s", "reference_busy_s", "speed", "errors"):
        record[key] = worker[key]
    record["setup_samples_s"] = setups
    record["unit_ms_count"] = len(worker["unit_ms"])
    record["metrics"] = metrics
    with open(WORK / "runs.jsonl", "a") as runs:
        runs.write(json.dumps(record, sort_keys=True) + "\n")
    for error in worker["errors"]:
        print(f"failed batch: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
