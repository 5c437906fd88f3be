"""One benchmark process: imports dirichlet_lab from the checkout and runs a workload.

`run.py` starts this file as a child process.  Every batch calls
`dirichlet_lab.cli.cli_main` in this process, one call after the other
(a closed loop with one client).  The result goes to the file named by
--result as JSON.

Modes:
  --setup-only       stop just before the first cli_main call (a set-up sample)
  --trace 0          closed loop until --seconds would be exceeded
  --trace 1          replay the workload's first trace_batches batches without
                     tracing, then again with tracing, and report layer metrics
  --record-digests   write digests.json from DEFAULT_SEED runs of every workload
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS, load_digests, output_digests  # noqa: E402


PROBE_PERIOD_S = 0.1
PROBE_LOOP = 10_000
PROBE_REFERENCE_S = 6.0e-4  # PROBE_LOOP's thread CPU time on an idle core of the reference host


def _probe_loop():
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    return total


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_PERIOD_S seconds (SIGALRM).

    The host runs other tenants, and for stretches of a fraction of a
    second to several seconds this process runs up to 50% slower.  Each
    sample's speed is PROBE_REFERENCE_S over the loop's thread CPU time;
    `reference_s` turns a wall-clock interval into the time it would have
    taken at reference speed, so runs made in slow and fast stretches
    agree.  The loop costs about 0.6% of the run.
    """

    def __init__(self):
        self.times = []
        self.speeds = []

    @staticmethod
    def sample(loops=1) -> float:
        """Mean speed of `loops` back-to-back probe loops."""
        t0 = time.thread_time()
        for _ in range(loops):
            _probe_loop()
        return loops * PROBE_REFERENCE_S / (time.thread_time() - t0)

    def _tick(self, signum, frame):
        self.speeds.append(self.sample())
        self.times.append(perf_counter())

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def reference_s(self, elapsed_s, start, end) -> float:
        """elapsed_s times the mean speed of the samples in [start, end], widened by a period."""
        lo = bisect.bisect_left(self.times, start - PROBE_PERIOD_S)
        hi = bisect.bisect_right(self.times, end + PROBE_PERIOD_S)
        return elapsed_s * statistics.fmean(self.speeds[lo:hi] or self.speeds)

    def speed(self) -> float:
        return statistics.fmean(self.speeds)


class Batch:
    __slots__ = ("start", "end", "elapsed_s", "reference_s", "error", "digests")

    def __init__(self, start, end, elapsed_s, error, digests):
        self.start = start
        self.end = end
        self.elapsed_s = elapsed_s  # time inside cli_main only
        self.reference_s = elapsed_s  # the same at reference speed, set by normalise()
        self.error = error
        self.digests = digests


def normalise(batches, probe: SpeedProbe):
    for b in batches:
        b.reference_s = probe.reference_s(b.elapsed_s, b.start, b.end)
    return batches


def import_cli():
    from dirichlet_lab import cli

    if Path(cli.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"dirichlet_lab was imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def run_batch(cli, workload, seed, index, work: Path, expected=None) -> Batch:
    """Run batch `index`, check its outputs, and compare digests when `expected` is given."""
    dirs = {}
    elapsed = 0.0
    error = None
    start = perf_counter()
    for tag, argv in workload.calls(seed, index):
        out = work / tag
        shutil.rmtree(out, ignore_errors=True)
        t0 = perf_counter()
        try:
            code = cli.cli_main([*argv, "--out", str(out)])
        except Exception:
            code = None
            error = error or f"{tag}: {traceback.format_exc(limit=3)}"
        elapsed += perf_counter() - t0
        dirs[tag] = out
        if code != 0:
            error = error or f"{tag}: exit code {code}"
    if error is None:
        try:
            error = workload.check(dirs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            error = f"output check raised {exc!r}"
    digests = output_digests(workload, dirs)
    if error is None and expected is not None and digests != expected:
        error = f"batch {index}: outputs differ from the recorded digests"
    return Batch(start, perf_counter(), elapsed, error, digests)


def closed_loop(cli, workload, seed, seconds, work, recorded):
    """Batches 0, 1, ... until another batch of average length would pass `seconds`."""
    batches = []
    start = perf_counter()
    with SpeedProbe() as probe:
        while True:
            index = len(batches)
            expected = recorded[index] if index < len(recorded) else None
            batches.append(run_batch(cli, workload, seed, index, work, expected))
            wall = perf_counter() - start
            if wall + wall / len(batches) > seconds:
                break
    return normalise(batches, probe), probe.speed()


def traced_replay(cli, workload, seed, work, recorded):
    """Untraced pass, then traced pass, over the same batches."""
    count = workload.trace_batches
    with SpeedProbe() as plain_probe:
        plain = [
            run_batch(cli, workload, seed, i, work, recorded[i] if i < len(recorded) else None)
            for i in range(count)
        ]
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    with SpeedProbe() as traced_probe:
        traced = [run_batch(cli, workload, seed, i, work, plain[i].digests) for i in range(count)]
    tracer.uninstall()
    for p, t in zip(plain, traced):
        if t.error and not p.error:
            p.error = f"traced pass: {t.error}"
    metrics, absent = tracing.layer_metrics(tracer)
    traced_s = sum(b.reference_s for b in normalise(traced, traced_probe))
    plain_s = sum(b.reference_s for b in normalise(plain, plain_probe))
    metrics[tracing.OVERHEAD] = {"value": traced_s / plain_s - 1.0, "unit": "ratio"}
    return plain, metrics, absent, plain_probe.speed()


def record_digests(work: Path):
    cli = import_cli()
    table = {}
    for name, workload in WORKLOADS.items():
        batches = [
            run_batch(cli, workload, DEFAULT_SEED, i, work / name)
            for i in range(workload.trace_batches)
        ]
        failed = [b.error for b in batches if b.error]
        if failed:
            raise SystemExit(f"{name}: {failed[0]}")
        table[name] = [b.digests for b in batches]
        print(f"{name}: {len(batches)} batches recorded", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, default=ROOT / "perfbench" / ".work")
    parser.add_argument("--result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests(args.work)
        return 0
    if args.workload is None or args.result is None:
        parser.error("--workload and --result are required")

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    recorded = load_digests().get(workload.name, []) if args.seed == DEFAULT_SEED else []
    args.work.mkdir(parents=True, exist_ok=True)
    entry = time.monotonic()
    result = {"entry": entry, "entry_speed": SpeedProbe.sample(3)}
    if not args.setup_only:
        import numpy

        if args.trace:
            batches, metrics, absent, speed = traced_replay(
                cli, workload, args.seed, args.work, recorded
            )
            result.update(layers=metrics, absent=absent)
        else:
            batches, speed = closed_loop(
                cli, workload, args.seed, args.seconds, args.work, recorded
            )
        errors = [b.error for b in batches if b.error]
        result.update(
            numpy=numpy.__version__,
            python=sys.version.split()[0],
            batches=len(batches),
            digest_checked=min(len(batches), len(recorded)),
            attempted=len(batches) * workload.units,
            failed=len(errors) * workload.units,
            busy_s=sum(b.elapsed_s for b in batches),
            reference_busy_s=sum(b.reference_s for b in batches),
            speed=speed,
            unit_ms=[1000.0 * b.reference_s / workload.units for b in batches],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            errors=errors[:5],
        )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
