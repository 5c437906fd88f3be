"""Self-test of the benchmark harness: python3 -m pytest -q perfbench/test_harness.py"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


@pytest.fixture
def fakelab(monkeypatch):
    """Package `fakelab` with a core module and a module that imported names from it."""
    clock = Clock()
    monkeypatch.setattr(tracing, "perf_counter", clock)

    class Leaf:
        def hit(self):
            return True

    core = types.ModuleType("fakelab.core")

    def inner():
        clock.tick(2.0)
        for _ in range(3):
            Leaf().hit()

    def outer():
        clock.tick(1.0)
        core.inner()
        clock.tick(1.0)
        return [1, 2]

    def walk():
        for item in (10, 20):
            clock.tick(0.5)
            yield item

    def consume():
        return sum(core.walk())

    core.Leaf, core.inner, core.outer, core.walk, core.consume = Leaf, inner, outer, walk, consume
    user = types.ModuleType("fakelab.user")
    user.inner, user.outer = inner, outer  # as `from .core import inner, outer`
    package = types.ModuleType("fakelab")
    for name, module in (("fakelab", package), ("fakelab.core", core), ("fakelab.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return clock, core, user


def test_span_nesting_and_self_time(fakelab):
    clock, core, user = fakelab
    tracer = tracing.Tracer(package="fakelab")
    tracer.install([
        ("core", "outer", "span", "outer", lambda stat, res, span, args: stat.add("n", len(res))),
        ("core", "inner", "span", "inner", None),
        ("core", "Leaf.hit", "counter", "leaf", "hit"),
        ("core", "walk", "generator", "walk", "items"),
        ("core", "consume", "span", "consume", None),
    ])
    assert user.inner is core.inner and user.inner.__wrapped__ is not None
    user.outer()
    assert core.consume() == 30
    stats = tracer.stats()
    assert (stats["outer"].calls, stats["outer"].total_s, stats["outer"].self_s) == (1, 4.0, 2.0)
    assert (stats["inner"].calls, stats["inner"].self_s) == (1, 2.0)
    assert stats["outer"].counts == {"n": 2}
    assert stats["inner"].leaf == {"hit": 3} and stats["outer"].leaf == {"hit": 3}
    assert stats[""].leaf == {"hit": 3, "items": 2}  # whole-run leaf counts
    walk = stats["walk"]
    assert (walk.calls, walk.self_s, walk.counts) == (1, 1.0, {"yields": 2})
    assert (stats["consume"].self_s, stats["consume"].leaf) == (0.0, {"items": 2})
    tracer.uninstall()
    assert not hasattr(core.inner, "__wrapped__") and user.inner is core.inner


def test_pool_tasks_stay_with_caller(fakelab):
    clock, core, _ = fakelab

    def indexed_map(fn, count, threads=1):
        return [fn(i) for i in range(count)]

    def caller():
        clock.tick(1.0)
        return core.indexed_map(lambda i: clock.tick(2.0), 3)

    core.indexed_map, core.caller = indexed_map, caller
    tracer = tracing.Tracer(package="fakelab")
    tracer.install([
        ("core", "indexed_map", "pool", "pool", None),
        ("core", "caller", "span", "caller", None),
    ])
    core.caller()
    stats = tracer.stats()
    assert (stats["caller"].calls, stats["caller"].self_s) == (1, 7.0)
    assert (stats["pool"].total_s, stats["pool"].self_s) == (6.0, 0.0)
    assert stats["pool"].counts == {"busy_s": 6.0, "capacity_s": 6.0}


def test_missing_names_are_absent_not_fatal():
    tracer = tracing.Tracer()
    tracer.install([
        *tracing.TARGETS,
        ("lattice", "no_such_function", "span", "lattice.no_such_function", None),
        ("no_such_module", "f", "span", "no_such_module.f", None),
        ("exact2d", "NoSuchClass.f", "span", "exact2d.NoSuchClass.f", None),
    ])
    tracer.uninstall()
    assert tracer.missing == {
        "lattice.no_such_function", "no_such_module.f", "exact2d.NoSuchClass.f",
    }
    tracer.missing.update({"lattice.lll_reduce", "approx.PsiFunction.psi"})
    metrics, absent = tracing.layer_metrics(tracer)
    assert set(absent) == {
        "lattice.lll_reduce.calls", "lattice.lll_reduce.self_s",
        "approx.PsiFunction.psi.calls", "dirichlet.psi_inverse.psi_evals",
    }
    assert not set(absent) & set(metrics)
    assert set(metrics) | set(absent) == set(tracing.metric_units()) - {tracing.OVERHEAD}


def test_traced_replay_reports_every_layer_and_unwraps(tmp_path):
    from dirichlet_lab import dirichlet

    original = dirichlet.psi_inverse
    cli = worker.import_cli()
    two = dataclasses.replace(WORKLOADS["scan"], trace_batches=2)
    plain, metrics, absent, _ = worker.traced_replay(cli, two, 5, tmp_path, [])
    assert dirichlet.psi_inverse is original
    assert absent == [] and all(b.error is None for b in plain)
    assert list(metrics) == list(tracing.metric_units())
    assert metrics["dirichlet._records_dense.calls"]["value"] == 2
    assert metrics["dirichlet.psi_inverse.psi_evals"]["value"] > 0


def test_forced_digest_mismatch_fails_the_batch(tmp_path, monkeypatch):
    wrong = {"scan": [{"both/check.json": "0" * 64}]}
    monkeypatch.setattr(worker, "load_digests", lambda: wrong)
    result = tmp_path / "result.json"
    worker.main([
        "--workload", "scan", "--seed", str(DEFAULT_SEED), "--seconds", "0.001",
        "--work", str(tmp_path), "--result", str(result),
    ])
    data = json.loads(result.read_text())
    assert (data["attempted"], data["failed"], data["digest_checked"]) == (1, 1, 1)
    assert "recorded digests" in data["errors"][0]
    assert run.end_to_end(data, [0.1])["success_fraction"][0] == 0.0


def test_recorded_digests_match_at_default_seed(tmp_path):
    cli = worker.import_cli()
    recorded = worker.load_digests()["scan"]
    batch = worker.run_batch(cli, WORKLOADS["scan"], DEFAULT_SEED, 0, tmp_path, recorded[0])
    assert batch.error is None


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    data = {
        "attempted": 2, "failed": 0, "reference_busy_s": 1.0, "peak_rss_mb": 1.0, "unit_ms": [1.0],
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in run.end_to_end(data, [0.1]).items()
    }
