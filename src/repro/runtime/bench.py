"""Benchmark trajectory of the attack-MDP pipeline.

``python -m repro bench`` runs a small registry of named benchmarks
over the pipeline's hot path -- building the setting-2 attack MDP,
solving it, rebuilding reward channels against the structure cache,
sampling the optimal policy through the Monte-Carlo engines -- and
emits one ``BENCH_<name>.json`` per benchmark (wall time, state
count, solve/cache counters).  Committed result files form a
performance trajectory across PRs; the optional ``--baseline``
comparison turns the same files into a CI regression gate: the run
fails when any benchmark takes more than ``--max-regression`` times
its baseline wall time, or when a recorded utility drifts.

Wall times are machine-dependent, so the gate is deliberately loose
(default 2x) -- it catches algorithmic regressions, not noise.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.runtime import telemetry
from repro.runtime.journal import atomic_write_text

#: Format version of the BENCH_*.json files.
BENCH_SCHEMA = 1

#: Utilities are deterministic; any drift beyond this fails the gate.
UTILITY_TOL = 1e-9

#: Baselines shorter than this are padded up before applying the
#: regression factor -- sub-50ms timings are mostly scheduler noise.
WALL_FLOOR_S = 0.05


def _set2_config(fast: bool):
    """The Table 2 setting-2 acceptance cell (alpha = 25%, beta:gamma
    = 1:1); ``fast`` shrinks AD so CI smoke finishes in seconds."""
    from repro.core.config import AttackConfig
    return AttackConfig.from_ratio(0.25, (1, 1), setting=2,
                                   ad=2 if fast else 6)


def bench_attack_build(fast: bool) -> Dict:
    """Cold build of the setting-2 attack MDP (cache cleared)."""
    from repro.core.attack_mdp import build_attack_mdp, \
        clear_attack_mdp_cache
    config = _set2_config(fast)
    clear_attack_mdp_cache()
    start = time.perf_counter()
    mdp = build_attack_mdp(config)
    wall = time.perf_counter() - start
    return {"wall_time_s": wall,
            "metrics": {"n_states": mdp.n_states,
                        "n_actions": mdp.n_actions}}


def bench_attack_solve(fast: bool) -> Dict:
    """Relative-revenue solve of a pre-built setting-2 MDP.

    The build cache is cleared first so the timed solve starts from a
    cold policy-evaluation cache (build time itself is excluded).
    """
    from repro.core.attack_mdp import build_attack_mdp, \
        clear_attack_mdp_cache
    from repro.core.solve import solve_relative_revenue
    config = _set2_config(fast)
    clear_attack_mdp_cache()
    mdp = build_attack_mdp(config)
    start = time.perf_counter()
    analysis = solve_relative_revenue(config, mdp)
    wall = time.perf_counter() - start
    stats = mdp.eval_cache().stats
    return {"wall_time_s": wall,
            "metrics": {"n_states": mdp.n_states,
                        "utility": analysis.utility,
                        "factorizations": stats.factorizations,
                        "policy_misses": stats.policy_misses,
                        "policy_hits": stats.policy_hits}}


def bench_attack_e2e(fast: bool) -> Dict:
    """Cold end-to-end cell: build + solve from an empty cache.

    This is the acceptance trajectory -- compare against the seed's
    build + solve wall time for the same cell.
    """
    from repro.core.attack_mdp import build_attack_mdp, \
        clear_attack_mdp_cache
    from repro.core.solve import solve_relative_revenue
    config = _set2_config(fast)
    clear_attack_mdp_cache()
    start = time.perf_counter()
    mdp = build_attack_mdp(config)
    analysis = solve_relative_revenue(config, mdp)
    wall = time.perf_counter() - start
    return {"wall_time_s": wall,
            "metrics": {"n_states": mdp.n_states,
                        "utility": analysis.utility,
                        "factorizations":
                            mdp.eval_cache().stats.factorizations}}


def bench_reward_rebuild(fast: bool) -> Dict:
    """Reward-channel-only rebuild against a warm structure cache.

    Rebuilding the double-spend channel for a new ``rds`` must not
    re-enumerate the state space; this benchmark times the cached
    variant build and records the cache counters proving it took the
    reward-only path.
    """
    from dataclasses import replace

    from repro.core.attack_mdp import attack_mdp_cache_stats, \
        build_attack_mdp, clear_attack_mdp_cache
    config = _set2_config(fast)
    clear_attack_mdp_cache()
    base = build_attack_mdp(config)
    start = time.perf_counter()
    variant = build_attack_mdp(replace(config, rds=2.0))
    wall = time.perf_counter() - start
    stats = attack_mdp_cache_stats()
    if variant.transition[0] is not base.transition[0]:
        raise ReproError("reward variant rebuilt its transition "
                         "matrices; the structure cache is broken")
    return {"wall_time_s": wall,
            "metrics": {"n_states": variant.n_states,
                        "reward_rebuilds": stats.reward_rebuilds,
                        "misses": stats.misses}}


def bench_sim_rollout(fast: bool) -> Dict:
    """Monte-Carlo rollout throughput: serial vs batched vs pooled.

    Samples the same total number of policy-chain steps through the
    three :mod:`repro.mdp.simulate` engines on the setting-2
    acceptance cell and records steps/second for each plus the batched
    and pooled speedups over the serial reference.  Policy tables are
    prebuilt and shared so the timings isolate the sampling kernels;
    the gated wall time is the pooled run (the validation workhorse).
    """
    import numpy as np

    from repro.core.attack_mdp import build_attack_mdp
    from repro.core.solve import solve_relative_revenue
    from repro.mdp.simulate import build_policy_tables, rollout, \
        rollout_batch, rollout_pooled
    config = _set2_config(fast)
    mdp = build_attack_mdp(config)
    analysis = solve_relative_revenue(config, mdp)
    policy = np.asarray(analysis.policy.action_indices)
    tables = build_policy_tables(mdp, policy)
    total = 60_000 if fast else 300_000
    n_traj = 64 if fast else 256

    start = time.perf_counter()
    rollout(mdp, policy, total, rng=np.random.default_rng(0),
            tables=tables)
    serial_wall = time.perf_counter() - start
    serial_sps = total / serial_wall

    per_traj = total // n_traj
    start = time.perf_counter()
    batch = rollout_batch(mdp, policy, per_traj, n_traj=n_traj,
                          seed=0, tables=tables)
    batch_wall = time.perf_counter() - start
    batch_sps = batch.total_steps / batch_wall

    start = time.perf_counter()
    pooled = rollout_pooled(mdp, policy, per_traj, n_traj=n_traj,
                            seed=0, tables=tables)
    pooled_wall = time.perf_counter() - start
    pooled_sps = pooled.steps / pooled_wall

    # Alias-method throughput (informational, not the gated wall):
    # table build happens outside the timed region, like the cdf runs.
    tables.alias_tables()
    start = time.perf_counter()
    alias = rollout_pooled(mdp, policy, per_traj, n_traj=n_traj,
                           seed=0, tables=tables, method="alias")
    alias_wall = time.perf_counter() - start
    alias_sps = alias.steps / alias_wall

    return {"wall_time_s": pooled_wall,
            "metrics": {"n_states": mdp.n_states,
                        "total_steps": total,
                        "n_traj": n_traj,
                        "serial_steps_per_s": round(serial_sps),
                        "batch_steps_per_s": round(batch_sps),
                        "pooled_steps_per_s": round(pooled_sps),
                        "alias_steps_per_s": round(alias_sps),
                        "batch_speedup":
                            round(batch_sps / serial_sps, 2),
                        "pooled_speedup":
                            round(pooled_sps / serial_sps, 2)}}


def bench_sim_validate(fast: bool) -> Dict:
    """Multi-seed Monte-Carlo validation of the exact gain.

    Times :func:`repro.analysis.validation.validate_against_sim` with
    the ``"rollout"`` engine (seeds x trajectories utility samples,
    99% confidence interval) on the setting-2 acceptance cell and
    fails -- deterministically, the seeds are pinned -- when the exact
    gain falls outside the sampled interval.  The recorded ``utility``
    is the exact gain (deterministic, drift-gated); the sampled
    statistics are informational.
    """
    from repro.analysis.validation import validate_against_sim
    from repro.core.attack_mdp import build_attack_mdp
    from repro.core.incentives import IncentiveModel
    config = _set2_config(fast)
    # Warm the build cache so the timed region is solve + sampling.
    mdp = build_attack_mdp(config)
    steps = 20_000 if fast else 100_000
    start = time.perf_counter()
    report = validate_against_sim(
        config, IncentiveModel.COMPLIANT_PROFIT, steps=steps,
        seeds=4, trajectories=8, workers=1, engine="rollout", seed=0)
    wall = time.perf_counter() - start
    multi = report.multi
    if not multi.contains_exact():
        raise ReproError(
            f"statistical agreement failure: exact utility "
            f"{report.analysis.utility!r} outside the {multi.level:.0%} "
            f"confidence interval [{multi.lo!r}, {multi.hi!r}] "
            f"(z = {multi.z_score:.2f})")
    return {"wall_time_s": wall,
            "metrics": {"n_states": mdp.n_states,
                        "utility": report.analysis.utility,
                        "sampled_mean": multi.mean,
                        "sampled_stderr": multi.stderr,
                        "z_score": round(multi.z_score, 3),
                        "n_samples": multi.n,
                        "total_steps": report.steps}}


def bench_serve_smoke(fast: bool) -> Dict:
    """Serving-layer smoke: atlas-hit latency, coalescing, index/LRU.

    Pre-solves one setting-1 cell into a scratch atlas, then drives
    the :class:`~repro.serve.service.SolverService` through two
    phases: a sequential atlas-hit loop (recording p50/p99 per-request
    latency -- the common path a deployed service must keep fast) and
    a concurrent burst of identical cold requests against a slow
    backend (recording the coalescing hit-rate, which must collapse
    the burst into one solve).  A third phase measures the atlas
    itself at size: against a few-hundred-entry atlas it records
    cached-``get`` and hot indexed-``nearest`` p50/p99 -- both
    asserted to do **zero disk reads** via the
    :attr:`~repro.serve.atlas.AtlasStats.disk_reads` counter -- and
    compares against the pre-index baseline (a fresh
    :class:`~repro.serve.atlas.PolicyAtlas` per query, which must
    re-scan the directory the way ``nearest`` used to).  The indexed
    path must beat the scan baseline by >= 10x at p99 or the
    benchmark fails outright.  The gated wall time is the atlas-hit
    phase; the recorded ``utility`` is the exact solved utility
    (deterministic, drift-gated).
    """
    import asyncio
    import dataclasses
    import gc
    import tempfile

    import numpy as np

    from repro.analysis.store import analysis_to_payload
    from repro.core.config import AttackConfig
    from repro.core.incentives import IncentiveModel
    from repro.core.solve import analyze
    from repro.serve.atlas import PolicyAtlas, atlas_key
    from repro.serve.service import SolveRequest, SolverService

    def _p50_p99(samples) -> Tuple[float, float]:
        p50, p99 = np.percentile(np.asarray(samples) * 1e3, [50, 99])
        return round(float(p50), 4), round(float(p99), 4)

    config = AttackConfig.from_ratio(0.25, (2, 3), setting=1,
                                     ad=2 if fast else 6)
    model = IncentiveModel.COMPLIANT_PROFIT
    analysis = analyze(config, model)
    hits = 200 if fast else 1000
    burst = 32 if fast else 128

    async def drive(atlas: PolicyAtlas):
        async def slow_solve(request, deadline):
            await asyncio.sleep(0.02)
            payload = analysis_to_payload(analysis)
            payload["config"] = dataclasses.asdict(request.config)
            return payload

        service = SolverService(atlas, solve_fn=slow_solve)
        request = SolveRequest(config=config, model=model)
        latencies = []
        start = time.perf_counter()
        for _ in range(hits):
            t0 = time.perf_counter()
            response = await service.submit(request)
            latencies.append(time.perf_counter() - t0)
            if response.source != "atlas":
                raise ReproError(
                    f"expected an atlas hit, got {response.source!r}")
        hit_wall = time.perf_counter() - start

        cold = SolveRequest(
            config=AttackConfig.from_ratio(0.2, (2, 3), setting=1,
                                           ad=config.ad),
            model=model)
        responses = await asyncio.gather(
            *(service.submit(cold) for _ in range(burst)))
        await service.close()
        return service, latencies, hit_wall, responses

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as root:
        atlas = PolicyAtlas(root)
        atlas.put_analysis(analysis)
        service, latencies, hit_wall, responses = \
            asyncio.run(drive(atlas))

    coalesced = sum(1 for r in responses if r.coalesced)
    if coalesced != burst - 1:
        raise ReproError(
            f"coalescing broke: {burst} identical requests produced "
            f"{burst - coalesced} solves (expected 1)")
    hit_p50, hit_p99 = _p50_p99(latencies)

    # -- phase 3: the atlas at size -- cached gets and indexed nearest
    # against a few-hundred-entry directory, with the pre-index
    # full-scan behaviour as the baseline.
    n_entries = 120 if fast else 500
    get_queries = 200 if fast else 500
    near_queries = 100 if fast else 200
    scan_queries = 8 if fast else 12
    payload = analysis_to_payload(analysis)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as root:
        big = PolicyAtlas(root)
        keys = []
        for i in range(n_entries):
            alpha = 0.01 + 0.47 * i / (n_entries - 1)
            cfg = AttackConfig.from_ratio(alpha, (2, 3), setting=1,
                                          ad=2 if fast else 6)
            body = dict(payload)
            body["config"] = dataclasses.asdict(cfg)
            key = atlas_key(cfg, model)
            big.put(key, body)
            keys.append(key)

        hot_key = keys[n_entries // 2]
        big.get(hot_key)  # warm: one validated disk load, then cached
        before = big.stats.disk_reads
        get_lat = []
        for _ in range(get_queries):
            t0 = time.perf_counter()
            if big.get(hot_key) is None:
                raise ReproError("hot get missed a stored entry")
            get_lat.append(time.perf_counter() - t0)
        if big.stats.disk_reads != before:
            raise ReproError(
                f"cached get() touched disk: {big.stats.disk_reads - before} "
                f"reads across {get_queries} hot hits (expected 0)")

        # A probe between grid points, so nearest() really searches.
        probe = atlas_key(
            AttackConfig.from_ratio(0.2345, (2, 3), setting=1,
                                    ad=2 if fast else 6), model)

        def measure_pair():
            near = []
            for _ in range(near_queries):
                t0 = time.perf_counter()
                if big.nearest(probe) is None:
                    raise ReproError("nearest() missed a populated "
                                     "atlas")
                near.append(time.perf_counter() - t0)
            # Pre-index baseline: a fresh instance per query must
            # rebuild its view of the directory from disk, as
            # nearest() always did before the in-memory index.
            scan = []
            for _ in range(scan_queries):
                fresh = PolicyAtlas(root, cache_entries=0)
                t0 = time.perf_counter()
                if fresh.nearest(probe) is None:
                    raise ReproError("scan nearest() missed a "
                                     "populated atlas")
                scan.append(time.perf_counter() - t0)
            return near, scan

        big.nearest(probe)  # warm: builds the index, caches the winner
        before = big.stats.disk_reads
        # GC off and one remeasure: the hot path is sub-millisecond,
        # so its p99 is otherwise at the mercy of a single collector
        # pause or scheduler preemption on a loaded CI box.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _attempt in range(2):
                near_lat, scan_lat = measure_pair()
                near_p50, near_p99 = _p50_p99(near_lat)
                scan_p50, scan_p99 = _p50_p99(scan_lat)
                speedup = scan_p99 / near_p99 if near_p99 > 0 \
                    else float("inf")
                if speedup >= 10:
                    break
        finally:
            if gc_was_enabled:
                gc.enable()
        if big.stats.disk_reads != before:
            raise ReproError(
                f"hot nearest() touched disk: "
                f"{big.stats.disk_reads - before} reads across the "
                f"hot query loops (expected 0)")

    get_p50, get_p99 = _p50_p99(get_lat)
    if speedup < 10:
        raise ReproError(
            f"indexed nearest lost its edge: p99 {near_p99}ms hot vs "
            f"{scan_p99}ms full-scan baseline on {n_entries} entries "
            f"({speedup:.1f}x, expected >= 10x)")
    return {"wall_time_s": hit_wall,
            "metrics": {"utility": analysis.utility,
                        "n_states": analysis.policy.mdp.n_states,
                        "atlas_hits": hits,
                        "hit_p50_ms": hit_p50,
                        "hit_p99_ms": hit_p99,
                        "burst_requests": burst,
                        "coalesce_hit_rate":
                            round(coalesced / burst, 4),
                        "atlas_entries": n_entries,
                        "cached_get_p50_ms": get_p50,
                        "cached_get_p99_ms": get_p99,
                        "nearest_hot_p50_ms": near_p50,
                        "nearest_hot_p99_ms": near_p99,
                        "nearest_scan_p50_ms": scan_p50,
                        "nearest_scan_p99_ms": scan_p99,
                        "nearest_speedup":
                            round(min(speedup, 1e6), 1)}}


def bench_ratio_methods(fast: bool) -> Dict:
    """Per-method cost of the relative-revenue ratio solve.

    Runs the setting-2 acceptance cell through each ratio-objective
    method (Dinkelbach, bisection, PTO) from a cold cache and records
    per-method wall time, transformed average-reward solve counts
    (``solver/ratio/transformed_solves``), PT evaluation counts
    (``solver/ratio/pto/transformed_solves``) and warm-start hits.

    Two correctness gates fail the benchmark outright, independent of
    timing: every method must agree on the utility within 1e-6, and
    PTO must answer as PTO (no silent fallback) while performing at
    least 5x fewer transformed average-reward solves than Dinkelbach
    -- the PTO reduction's entire point is replacing those solves with
    rho-independent terminated evaluations, so it performs zero.  The
    gated wall time and drift-gated ``utility`` are PTO's.
    """
    from repro.core.attack_mdp import build_attack_mdp, \
        clear_attack_mdp_cache
    from repro.core.solve import solve_relative_revenue

    config = _set2_config(fast)
    per_method: Dict[str, Dict] = {}
    for method in ("dinkelbach", "bisection", "pto"):
        clear_attack_mdp_cache()
        mdp = build_attack_mdp(config)

        def run(method=method, mdp=mdp):
            start = time.perf_counter()
            analysis = solve_relative_revenue(config, mdp,
                                              ratio_method=method)
            return analysis, time.perf_counter() - start

        (analysis, wall), counters = _counters_during(run)
        per_method[method] = {
            "wall_s": wall,
            "value": analysis.utility,
            "method_used": analysis.solver["method"],
            "avg_solves":
                counters.get("solver/ratio/transformed_solves", 0),
            "pt_solves":
                counters.get("solver/ratio/pto/transformed_solves", 0),
            "warm_start_hits":
                counters.get("solver/ratio/warm_start_hits", 0)
                + counters.get("solver/ratio/pto/warm_start_hits", 0),
            "factorizations": mdp.eval_cache().stats.factorizations,
        }

    dink, pto = per_method["dinkelbach"], per_method["pto"]
    if pto["method_used"] != "pto":
        raise ReproError(
            f"PTO fell back to {pto['method_used']!r} on the "
            "acceptance cell; the reduction is not earning its keep")
    for method, record in per_method.items():
        drift = abs(record["value"] - dink["value"])
        if drift > 1e-6 * max(1.0, abs(dink["value"])):
            raise ReproError(
                f"ratio methods disagree: {method} utility "
                f"{record['value']!r} vs dinkelbach {dink['value']!r}")
    if pto["avg_solves"] * 5 > dink["avg_solves"]:
        raise ReproError(
            f"PTO used {pto['avg_solves']} transformed average-reward "
            f"solves vs Dinkelbach's {dink['avg_solves']}; expected "
            ">= 5x fewer")
    return {"wall_time_s": pto["wall_s"],
            "metrics": {"n_states": mdp.n_states,
                        "utility": pto["value"],
                        "dinkelbach_avg_solves": dink["avg_solves"],
                        "dinkelbach_wall_s":
                            round(dink["wall_s"], 4),
                        "bisection_avg_solves":
                            per_method["bisection"]["avg_solves"],
                        "bisection_wall_s":
                            round(per_method["bisection"]["wall_s"], 4),
                        "pto_avg_solves": pto["avg_solves"],
                        "pto_pt_solves": pto["pt_solves"],
                        "pto_warm_start_hits": pto["warm_start_hits"],
                        "pto_wall_s": round(pto["wall_s"], 4)}}


def bench_approx_scale(fast: bool) -> Dict:
    """Approximate-engine relative-revenue solve past the exact scale.

    Builds the setting-2 cell at ``ad=12`` -- 435,580 states, more
    than 10x the 30,595-state acceptance cell -- and times a
    Dinkelbach solve whose inner average-reward solves all run on the
    approximate engine (:mod:`repro.mdp.approx`); ``fast`` shrinks the
    cap to ``ad=4`` so CI smoke finishes in seconds.

    Three correctness gates fail the benchmark outright, independent
    of timing: every inner solve must answer as the approximate engine
    with a certificate (no silent fallback); the certified truncation
    bound of the final inner solve must stay below 1e-6; and in fast
    mode (where the exact solver is cheap) the approx utility must
    agree with the exact Dinkelbach utility within 1e-6.
    """
    from repro.core.attack_mdp import build_attack_mdp, \
        clear_attack_mdp_cache
    from repro.core.config import AttackConfig
    from repro.core.incentives import IncentiveModel
    from repro.mdp.approx import ApproxSolution, approx_average_solver
    from repro.mdp.ratio import maximize_ratio

    config = AttackConfig.from_ratio(0.25, (1, 1), setting=2,
                                     ad=4 if fast else 12)
    clear_attack_mdp_cache()
    mdp = build_attack_mdp(config)
    num, den = IncentiveModel.COMPLIANT_PROFIT.utility_channels()

    inner: List = []
    base_solver = approx_average_solver()

    def solver(model, reward, warm=None):
        solution = base_solver(model, reward, warm)
        inner.append(solution)
        return solution

    def run():
        start = time.perf_counter()
        solution = maximize_ratio(mdp, num, den, lo=0.0, hi=1.0,
                                  tol=1e-7, method="dinkelbach",
                                  solver=solver)
        return solution, time.perf_counter() - start

    (solution, wall), counters = _counters_during(run)

    if not inner or not all(isinstance(sol, ApproxSolution)
                            and sol.certified for sol in inner):
        raise ReproError(
            "approx-scale inner solves did not all answer as the "
            "certified approximate engine; the benchmark is not "
            "measuring what it claims")
    bound = inner[-1].bound
    if not bound <= 1e-6:
        raise ReproError(
            f"approx-scale certified bound {bound!r} exceeds the 1e-6 "
            "target; the engine no longer solves this cell within its "
            "certificate")
    if fast:
        exact = maximize_ratio(mdp, num, den, lo=0.0, hi=1.0,
                               tol=1e-7, method="dinkelbach")
        drift = abs(solution.value - exact.value)
        if drift > 1e-6 * max(1.0, abs(exact.value)):
            raise ReproError(
                f"approx utility {solution.value!r} disagrees with the "
                f"exact Dinkelbach utility {exact.value!r}")
    return {"wall_time_s": wall,
            "metrics": {"n_states": mdp.n_states,
                        "utility": solution.value,
                        "bound": bound,
                        "inner_solves": len(inner),
                        "sweeps":
                            counters.get("solver/approx/sweeps", 0),
                        "queue_pops":
                            counters.get("solver/approx/queue_pops", 0),
                        "degraded":
                            counters.get("solver/approx/degraded", 0)}}


#: name -> benchmark callable; each returns {"wall_time_s", "metrics"}.
BENCHMARKS: Dict[str, Callable[[bool], Dict]] = {
    "attack-build": bench_attack_build,
    "attack-solve": bench_attack_solve,
    "attack-e2e": bench_attack_e2e,
    "reward-rebuild": bench_reward_rebuild,
    "ratio-methods": bench_ratio_methods,
    "approx-scale": bench_approx_scale,
    "sim-rollout": bench_sim_rollout,
    "sim-validate": bench_sim_validate,
    "serve-smoke": bench_serve_smoke,
}


def bench_filename(name: str, backend: str = "numpy") -> str:
    """The committed artifact name for one benchmark.

    Non-default compute backends get their own trajectory files
    (``BENCH_<name>@<backend>.json``) so an accelerated run never
    overwrites -- or gates against -- the committed numpy baseline.
    """
    if backend != "numpy":
        return f"BENCH_{name}@{backend}.json"
    return f"BENCH_{name}.json"


def environment_fingerprint() -> Dict:
    """Versions and machine facts that explain a wall-time delta.

    Recorded in every BENCH document so a regression can be told apart
    from an environment change (interpreter bump, BLAS swap, different
    core count) before anyone bisects code.
    """
    def _version(module_name: str) -> Optional[str]:
        try:
            module = __import__(module_name)
        except ImportError:
            return None
        return getattr(module, "__version__", None)

    from repro.mdp import backends
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": _version("numba"),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": os.cpu_count(),
        "backend": backends.current_backend_name(),
    }


def _counters_during(fn: Callable[[], Dict]):
    """Run ``fn`` and return ``(result, counter_delta)``.

    An active tracer is reused (the delta is its counter increase),
    so the run's telemetry still reaches ``--trace`` output; otherwise
    a private tracer is installed for the duration, keeping tracing
    globally disabled before and after.
    """
    active = telemetry.current_tracer()
    if active is not None:
        before = dict(active.counters)
        result = fn()
        return result, {key: value - before.get(key, 0)
                        for key, value in active.counters.items()
                        if value != before.get(key, 0)}
    with telemetry.use_tracer(telemetry.Tracer()) as tracer:
        result = fn()
        return result, dict(tracer.counters)


def run_benchmark(name: str, fast: bool = False,
                  repeat: int = 1) -> Dict:
    """Run one registered benchmark and return its BENCH document.

    With ``repeat > 1`` the benchmark runs that many times and the
    recorded wall time is the minimum -- the standard noise filter for
    a timing gate; metrics and counters come from the first run.

    The ``counters`` block snapshots the telemetry counters the
    benchmark incremented (solver iterations, cache hits/misses, ...);
    it is informational -- :func:`compare_to_baseline` gates only the
    wall time and the recorded utility.
    """
    if name not in BENCHMARKS:
        raise ReproError(
            f"unknown benchmark {name!r}; "
            f"available: {', '.join(sorted(BENCHMARKS))}")
    if repeat < 1:
        raise ReproError(f"repeat must be >= 1, got {repeat!r}")
    result, counters = _counters_during(lambda: BENCHMARKS[name](fast))
    wall = result["wall_time_s"]
    for _ in range(repeat - 1):
        wall = min(wall, BENCHMARKS[name](fast)["wall_time_s"])
    from repro.mdp import backends
    return {"schema": BENCH_SCHEMA, "name": name, "fast": fast,
            "machine": platform.machine(),
            "backend": backends.current_backend_name(),
            "environment": environment_fingerprint(),
            "wall_time_s": wall,
            "metrics": result["metrics"],
            "counters": counters}


def compare_to_baseline(doc: Dict, baseline: Dict,
                        max_regression: float) -> List[str]:
    """Failures of ``doc`` against its committed ``baseline``.

    Returns human-readable failure strings (empty = pass).  A baseline
    recorded in the other ``fast`` mode is skipped -- the two modes
    solve different state spaces and their wall times are not
    comparable.  So is a baseline recorded under a different compute
    backend (``backend`` defaults to ``"numpy"`` for documents that
    predate the field): each backend gates against its own trajectory.
    """
    if baseline.get("fast") != doc.get("fast"):
        return []
    if baseline.get("backend", "numpy") != doc.get("backend", "numpy"):
        return []
    failures = []
    limit = max_regression * max(baseline["wall_time_s"], WALL_FLOOR_S)
    if doc["wall_time_s"] > limit:
        failures.append(
            f"{doc['name']}: wall time {doc['wall_time_s']:.4f}s "
            f"exceeds {max_regression:g}x baseline "
            f"({baseline['wall_time_s']:.4f}s)")
    base_utility = baseline.get("metrics", {}).get("utility")
    utility = doc.get("metrics", {}).get("utility")
    if base_utility is not None and utility is not None:
        if abs(utility - base_utility) > UTILITY_TOL:
            failures.append(
                f"{doc['name']}: utility {utility!r} drifted from "
                f"baseline {base_utility!r}")
    return failures


def check_speedup(doc: Dict, numpy_doc: Dict,
                  min_speedup: float) -> List[str]:
    """Failures of an accelerated run against the numpy trajectory.

    Used with ``--min-speedup``: a compiled backend that fails to beat
    the committed numpy wall time by the required factor is a
    regression of the *accelerator* (stale JIT cache, fallback to
    object mode, ...), even when it passes its own trajectory gate.
    Sub-floor baselines are skipped -- there is nothing meaningful to
    speed up below scheduler noise.
    """
    if numpy_doc.get("fast") != doc.get("fast"):
        return []
    base_wall = numpy_doc["wall_time_s"]
    if base_wall < WALL_FLOOR_S:
        return []
    limit = base_wall / min_speedup
    if doc["wall_time_s"] > limit:
        return [f"{doc['name']}: backend {doc.get('backend')!r} wall "
                f"time {doc['wall_time_s']:.4f}s is not {min_speedup:g}x "
                f"faster than the numpy baseline ({base_wall:.4f}s)"]
    return []


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro bench`` entry point."""
    import argparse
    parser = argparse.ArgumentParser(prog="repro bench")
    parser.add_argument("names", nargs="*",
                        help="benchmarks to run (default: all)")
    parser.add_argument("--fast", action="store_true",
                        help="shrink the MDPs for a CI smoke run")
    parser.add_argument("--output-dir", default=".", metavar="DIR")
    parser.add_argument("--baseline", default=None, metavar="DIR",
                        help="directory of committed BENCH_*.json to "
                             "gate against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        metavar="X",
                        help="fail when wall time exceeds X times the "
                             "baseline (default 2.0)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run each benchmark N times, record the "
                             "minimum wall time")
    from repro.mdp import backends
    parser.add_argument("--backend", default=None,
                        choices=backends.BACKEND_NAMES,
                        help="compute backend to benchmark (results "
                             "land in BENCH_<name>@<backend>.json for "
                             "non-numpy backends)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="with a non-numpy --backend: fail unless "
                             "each benchmark beats the committed numpy "
                             "baseline by at least a factor of X")
    args = parser.parse_args(argv)
    if args.backend is not None:
        os.environ[backends.BACKEND_ENV] = args.backend
        backends.set_backend(args.backend)
    backend = backends.current_backend_name()
    names = args.names or sorted(BENCHMARKS)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures: List[str] = []
    for name in names:
        doc = run_benchmark(name, fast=args.fast, repeat=args.repeat)
        path = out_dir / bench_filename(name, backend)
        atomic_write_text(path, json.dumps(doc, indent=2,
                                           sort_keys=True) + "\n")
        print(f"{name}: {doc['wall_time_s']:.4f}s "
              f"{doc['metrics']} -> {path}")
        if args.baseline is not None:
            base_path = Path(args.baseline) / bench_filename(name,
                                                             backend)
            if base_path.exists():
                baseline = json.loads(base_path.read_text())
                failures.extend(compare_to_baseline(
                    doc, baseline, args.max_regression))
            else:
                print(f"{name}: no baseline at {base_path}, skipping "
                      "comparison")
            if args.min_speedup is not None and backend != "numpy":
                numpy_path = Path(args.baseline) / bench_filename(name)
                if numpy_path.exists():
                    numpy_doc = json.loads(numpy_path.read_text())
                    failures.extend(check_speedup(
                        doc, numpy_doc, args.min_speedup))
                else:
                    print(f"{name}: no numpy baseline at "
                          f"{numpy_path}, skipping speedup check")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0
