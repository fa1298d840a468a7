"""Tests for the structured tracing/metrics layer."""

import json

import pytest

from repro.analysis import tables
from repro.core.attack_mdp import build_attack_mdp, clear_attack_mdp_cache
from repro.core.config import AttackConfig
from repro.core.incentives import IncentiveModel
from repro.core.solve import analyze, solve_relative_revenue
from repro.errors import ReproError
from repro.runtime import telemetry
from repro.runtime.telemetry import (
    Tracer,
    aggregate_spans,
    counter_add,
    gauge_set,
    load_trace,
    span,
    summarize_trace,
    use_tracer,
)


@pytest.fixture(autouse=True)
def _isolated_tracing():
    """Every test starts and ends with tracing globally disabled."""
    telemetry.disable_tracing()
    yield
    telemetry.disable_tracing()


def small_config(alpha=0.10, ratio=(1, 1), **kwargs) -> AttackConfig:
    return AttackConfig.from_ratio(alpha, ratio, setting=1, ad=2,
                                   **kwargs)


# -- registry primitives ----------------------------------------------

def test_disabled_hooks_are_noops():
    assert not telemetry.tracing_enabled()
    counter_add("x")
    gauge_set("y", 1.0)
    with span("z"):
        pass
    # The disabled span is one shared instance, not a per-call object.
    assert span("a") is span("b")
    assert telemetry.current_tracer() is None


def test_counters_accumulate_and_gauges_overwrite():
    tracer = telemetry.enable_tracing()
    counter_add("hits")
    counter_add("hits", 4)
    gauge_set("residual", 0.5)
    gauge_set("residual", 0.25)
    assert tracer.counters == {"hits": 5}
    assert tracer.gauges == {"residual": 0.25}


def test_nested_spans_record_slash_paths():
    tracer = telemetry.enable_tracing()
    with span("solve"):
        with span("inner"):
            pass
    paths = [e["path"] for e in tracer.events if e["type"] == "span"]
    assert paths == ["solve/inner", "solve"]  # completion order
    assert all(e["dur_s"] >= 0.0 for e in tracer.events)


def test_use_tracer_swaps_and_restores():
    outer = telemetry.enable_tracing()
    inner = Tracer()
    with use_tracer(inner):
        counter_add("n")
        assert telemetry.current_tracer() is inner
    counter_add("n")
    assert telemetry.current_tracer() is outer
    assert inner.counters == {"n": 1}
    assert outer.counters == {"n": 1}


# -- concurrency: threads and asyncio tasks ----------------------------

def test_spans_from_concurrent_threads_keep_their_own_paths():
    """Regression: one shared span stack let 4 threads leave orphaned
    entries behind and nest spans under another thread's span
    (``outer-3/outer-0/.../inner``)."""
    import threading
    import time

    tracer = telemetry.enable_tracing()
    start = threading.Barrier(4, timeout=30)

    def work(i):
        start.wait()
        for _ in range(50):
            with span(f"outer-{i}"):
                time.sleep(0.0002)
                with span("inner"):
                    time.sleep(0.0002)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    paths = [e["path"] for e in tracer.events if e["type"] == "span"]
    assert len(paths) == 400
    assert sorted(set(paths)) == sorted(
        [f"outer-{i}" for i in range(4)]
        + [f"outer-{i}/inner" for i in range(4)])
    assert all(paths.count(f"outer-{i}/inner") == 50 for i in range(4))
    with span("after"):
        pass
    assert tracer.events[-1]["path"] == "after"  # nothing left open


def test_counters_lose_no_increments_across_threads():
    """Regression: the unlocked read-modify-write lost increments of
    4 threads under a short switch interval."""
    import sys
    import threading

    tracer = telemetry.enable_tracing()
    per_thread = 20_000

    def work():
        for _ in range(per_thread):
            counter_add("x")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert tracer.counters["x"] == 4 * per_thread


def test_asyncio_tasks_interleaving_spans_keep_their_own_paths():
    import asyncio

    tracer = telemetry.enable_tracing()

    async def request(name):
        with span(name):
            await asyncio.sleep(0)
            with span("solve"):
                await asyncio.sleep(0)
            await asyncio.sleep(0)

    async def main():
        await asyncio.gather(request("a"), request("b"))

    asyncio.run(main())
    paths = [e["path"] for e in tracer.events if e["type"] == "span"]
    assert sorted(paths) == ["a", "a/solve", "b", "b/solve"]


def test_merge_snapshot_sums_counters_overwrites_gauges():
    parent = Tracer()
    parent.add("cells", 2)
    parent.set("last", 1.0)
    parent.events.append({"type": "span", "path": "a", "name": "a",
                          "dur_s": 0.1})
    worker = Tracer()
    worker.add("cells", 3)
    worker.add("extra")
    worker.set("last", 2.0)
    parent.merge_snapshot(worker.snapshot())
    assert parent.counters == {"cells": 5, "extra": 1}
    assert parent.gauges == {"last": 2.0}
    assert len(parent.events) == 1


def test_write_load_roundtrip(tmp_path):
    tracer = telemetry.enable_tracing()
    with span("phase"):
        counter_add("steps", 7)
    gauge_set("residual", 1e-9)
    path = tmp_path / "run.trace"
    tracer.write(path)
    trace = load_trace(path)
    assert trace["counters"] == {"steps": 7}
    assert trace["gauges"] == {"residual": 1e-9}
    assert [e["path"] for e in trace["events"]] == ["phase"]
    text = summarize_trace(trace)
    assert "phase" in text and "steps" in text and "residual" in text


def test_load_trace_rejects_non_trace_files(tmp_path):
    path = tmp_path / "bogus"
    path.write_text(json.dumps({"kind": "journal"}) + "\n")
    with pytest.raises(ReproError, match="not a trace file"):
        load_trace(path)
    path.write_text("")
    with pytest.raises(ReproError, match="empty"):
        load_trace(path)
    with pytest.raises(ReproError, match="cannot read"):
        load_trace(tmp_path / "missing")


def test_load_trace_rejects_wrong_schema(tmp_path):
    path = tmp_path / "t"
    path.write_text(json.dumps(
        {"kind": "trace", "schema": telemetry.TRACE_SCHEMA + 1}) + "\n")
    with pytest.raises(ReproError, match="schema"):
        load_trace(path)


def test_aggregate_spans_statistics():
    events = [{"type": "span", "path": "a", "name": "a", "dur_s": 1.0},
              {"type": "span", "path": "a", "name": "a", "dur_s": 3.0},
              {"type": "other"}]
    stats = aggregate_spans(events)
    assert stats == {"a": {"count": 2, "total_s": 4.0, "mean_s": 2.0,
                           "max_s": 3.0}}


# -- end-to-end instrumentation ---------------------------------------

def test_every_solver_phase_reports_iterations():
    """Each incentive model's solve leaves non-zero iteration counters
    for the solver phases it exercises."""
    tracer = telemetry.enable_tracing()
    clear_attack_mdp_cache()
    for model in IncentiveModel:
        analyze(small_config(), model)
    c = tracer.counters
    assert c["solver/pi/iterations"] > 0
    assert c["solver/pi/solves"] > 0
    assert c["solver/ratio/transformed_solves"] > 0
    assert c["solver/ratio/dinkelbach_rounds"] > 0
    assert c["solver/ratio/solves"] == 2  # relative + orphans
    assert c["kernel/q_backups"] > 0
    assert c["build_cache/misses"] > 0
    assert c["solve/relative"] == 1
    assert c["solve/absolute"] == 1
    assert c["solve/orphans"] == 1


def test_eval_cache_counters_match_stats():
    """Trace counters equal the PolicyEvalCache's own stats object --
    they are incremented at the same sites."""
    tracer = telemetry.enable_tracing()
    clear_attack_mdp_cache()
    config = small_config()
    mdp = build_attack_mdp(config)
    solve_relative_revenue(config, mdp)
    stats = mdp.eval_cache().stats
    for name in ("factorizations", "eval_hits", "eval_misses",
                 "policy_hits", "policy_misses"):
        assert tracer.counters.get(f"eval_cache/{name}", 0) == \
            getattr(stats, name), name


def test_build_cache_counters_match_stats():
    from repro.core.attack_mdp import attack_mdp_cache_stats
    from dataclasses import replace
    tracer = telemetry.enable_tracing()
    clear_attack_mdp_cache()
    config = small_config()
    build_attack_mdp(config)
    build_attack_mdp(config)                      # hit
    build_attack_mdp(replace(config, rds=2.0))    # reward rebuild
    stats = attack_mdp_cache_stats()
    assert tracer.counters["build_cache/misses"] == stats.misses == 1
    assert tracer.counters["build_cache/hits"] == stats.hits == 1
    assert tracer.counters["build_cache/reward_rebuilds"] == \
        stats.reward_rebuilds == 1


def _table_counters(workers: int):
    clear_attack_mdp_cache()
    with use_tracer(Tracer()) as tracer:
        tables.table2(setting=1, alphas=(0.10, 0.15),
                      ratios=((1, 1), (1, 2)), workers=workers)
        return dict(tracer.counters)


def test_tables_counters_are_worker_count_independent():
    """The acceptance property: a merged parallel trace reports the
    same counters as a serial run of the same table."""
    serial = _table_counters(workers=1)
    parallel = _table_counters(workers=4)
    assert parallel == serial
    assert serial["solver/ratio/solves"] == 4  # one per cell
    assert serial["build_cache/misses"] == 4   # distinct configs


def test_bench_documents_embed_counters():
    from repro.runtime.bench import run_benchmark
    doc = run_benchmark("attack-e2e", fast=True)
    assert not telemetry.tracing_enabled()  # private tracer removed
    assert doc["counters"]["solver/ratio/solves"] >= 1
    assert doc["counters"]["build_cache/misses"] >= 1
    assert doc["counters"]["solver/pi/iterations"] >= 1


def test_bench_reuses_active_tracer():
    from repro.runtime.bench import run_benchmark
    tracer = telemetry.enable_tracing()
    counter_add("solver/pi/iterations", 1000)  # pre-existing total
    doc = run_benchmark("attack-build", fast=True)
    # The doc sees only the delta, while the session tracer keeps the
    # benchmark's increments on top of the pre-existing count.
    assert doc["counters"]["build_cache/misses"] == 1
    assert doc["counters"].get("solver/pi/iterations", 0) == 0
    assert tracer.counters["build_cache/misses"] >= 1
    assert tracer.counters["solver/pi/iterations"] == 1000
