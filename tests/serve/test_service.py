"""Tests for the resilient solver service: coalescing, deadlines,
retries, admission control, degraded modes, graceful shutdown."""

import asyncio
import dataclasses

import pytest

from repro.core.config import AttackConfig
from repro.core.incentives import IncentiveModel
from repro.errors import (
    ServiceOverloadError,
    ServiceShutdownError,
    SolverBudgetExceededError,
    SolverError,
    SolverInputError,
)
from repro.serve.atlas import PolicyAtlas, atlas_key
from repro.serve.service import (
    RetryPolicy,
    SolveRequest,
    SolverService,
    request_from_json,
    serve_batch,
)

MODEL = IncentiveModel.COMPLIANT_PROFIT


def config(alpha=0.25, **kwargs):
    return AttackConfig.from_ratio(alpha, (2, 3), setting=1, **kwargs)


def fake_payload(cfg, utility=0.5):
    return {"schema": 1, "kind": "attack-analysis",
            "config": dataclasses.asdict(cfg), "model": MODEL.value,
            "utility": utility, "honest_utility": cfg.alpha,
            "rates": {}, "policy": {}}


def make_service(tmp_path, solve_fn, **kwargs):
    atlas = PolicyAtlas(tmp_path / "atlas")
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3,
                                           base_backoff_s=0.001))
    return SolverService(atlas, solve_fn=solve_fn, **kwargs)


def test_atlas_hit_fast_path(tmp_path):
    calls = []

    async def solve(request, deadline):
        calls.append(request)
        return fake_payload(request.config)

    async def run():
        service = make_service(tmp_path, solve)
        cfg = config()
        service.atlas.put(atlas_key(cfg, MODEL), fake_payload(cfg, 0.7))
        async with service:
            response = await service.submit(
                SolveRequest(config=cfg, model=MODEL))
        return response

    response = asyncio.run(run())
    assert response.source == "atlas"
    assert response.utility == pytest.approx(0.7)
    assert not response.degraded and not calls


def test_coalescing_single_flight(tmp_path):
    """Five concurrent identical requests -> exactly one solve; the
    four waiters share the leader's result, flagged coalesced."""
    calls = []
    release = asyncio.Event()

    async def solve(request, deadline):
        calls.append(request)
        await release.wait()
        return fake_payload(request.config, utility=0.42)

    async def run():
        service = make_service(tmp_path, solve)
        request = SolveRequest(config=config(), model=MODEL)
        async with service:
            tasks = [asyncio.ensure_future(service.submit(request))
                     for _ in range(5)]
            await asyncio.sleep(0.01)
            release.set()
            return await asyncio.gather(*tasks)

    responses = asyncio.run(run())
    assert len(calls) == 1
    assert all(r.utility == pytest.approx(0.42) for r in responses)
    assert sorted(r.coalesced for r in responses) == \
        [False, True, True, True, True]


def test_coalesced_waiters_share_typed_error(tmp_path):
    """An error storm is coalesced too: one failing solve, every
    waiter gets the same typed error (not a hang, not garbage)."""

    async def solve(request, deadline):
        await asyncio.sleep(0.005)
        raise SolverInputError("bad bracket")

    async def run():
        service = make_service(tmp_path, solve)
        request = SolveRequest(config=config(), model=MODEL,
                               allow_degraded=False)
        async with service:
            results = await asyncio.gather(
                *(service.submit(request) for _ in range(3)),
                return_exceptions=True)
        return results

    results = asyncio.run(run())
    assert all(isinstance(r, SolverInputError) for r in results)


def test_retry_with_backoff_recovers_transient_failures(tmp_path):
    calls = []

    async def solve(request, deadline):
        calls.append(request)
        if len(calls) < 3:
            raise SolverError("transient numerical divergence")
        return fake_payload(request.config)

    async def run():
        service = make_service(tmp_path, solve)
        async with service:
            return await service.submit(
                SolveRequest(config=config(), model=MODEL))

    response = asyncio.run(run())
    assert response.source == "solve"
    assert response.attempts == 3 and len(calls) == 3
    assert response.payload == fake_payload(config())


def test_input_errors_are_not_retried(tmp_path):
    calls = []

    async def solve(request, deadline):
        calls.append(request)
        raise SolverInputError("alpha out of range")

    async def run():
        service = make_service(tmp_path, solve)
        async with service:
            with pytest.raises(SolverInputError):
                await service.submit(
                    SolveRequest(config=config(), model=MODEL))

    asyncio.run(run())
    assert len(calls) == 1  # retrying cannot fix a caller bug


def test_deadline_cancels_hung_solve(tmp_path):
    """A hung async solve is genuinely cancelled at the deadline and
    surfaces as the typed budget/deadline error."""
    cancelled = []

    async def solve(request, deadline):
        try:
            await asyncio.sleep(60.0)
        except asyncio.CancelledError:
            cancelled.append(True)
            raise
        return fake_payload(request.config)

    async def run():
        service = make_service(tmp_path, solve)
        async with service:
            with pytest.raises(SolverBudgetExceededError):
                await service.submit(SolveRequest(
                    config=config(), model=MODEL, deadline_s=0.05,
                    allow_degraded=False))

    asyncio.run(run())
    assert cancelled == [True]  # the hung task did not leak


def test_degraded_nearest_served_flagged(tmp_path):
    async def solve(request, deadline):
        await asyncio.sleep(60.0)

    async def run():
        service = make_service(tmp_path, solve, nearest_max_distance=1.0)
        neighbor = config(0.30)
        service.atlas.put(atlas_key(neighbor, MODEL),
                          fake_payload(neighbor, utility=0.9))
        async with service:
            return await service.submit(SolveRequest(
                config=config(0.25), model=MODEL, deadline_s=0.05))

    response = asyncio.run(run())
    assert response.source == "degraded-nearest"
    assert response.degraded
    assert "nearest atlas entry" in response.degraded_reason
    assert response.utility == pytest.approx(0.9)


def test_degraded_reduced_backfills_under_reduced_key(tmp_path):
    """The reduced-lookahead fallback answers the request but must be
    stored under the *reduced* config's key -- never the exact key,
    which would turn a degraded answer into a future 'exact' hit."""

    async def solve(request, deadline):
        if request.config.ad > 2:
            await asyncio.sleep(60.0)  # exact solve hangs
        return fake_payload(request.config, utility=0.33)

    exact = config(ad=6)

    async def run():
        service = make_service(tmp_path, solve, degraded_ad=2,
                               degraded_grace_s=5.0)
        async with service:
            return await service.submit(SolveRequest(
                config=exact, model=MODEL, deadline_s=0.05)), service

    response, service = asyncio.run(run())
    assert response.source == "degraded-reduced"
    assert response.degraded and "AD 6 -> 2" in response.degraded_reason
    reduced = dataclasses.replace(exact, ad=2)
    assert atlas_key(exact, MODEL) not in service.atlas
    assert atlas_key(reduced, MODEL) in service.atlas


def test_degradation_disabled_raises_typed_error(tmp_path):
    async def solve(request, deadline):
        await asyncio.sleep(60.0)

    async def run():
        service = make_service(tmp_path, solve, nearest_max_distance=1.0)
        neighbor = config(0.30)
        service.atlas.put(atlas_key(neighbor, MODEL),
                          fake_payload(neighbor))
        async with service:
            with pytest.raises(SolverBudgetExceededError):
                await service.submit(SolveRequest(
                    config=config(0.25), model=MODEL, deadline_s=0.05,
                    allow_degraded=False))

    asyncio.run(run())


def test_admission_control_rejects_excess_solves(tmp_path):
    """With the queue full, cold requests get the typed 429 while
    atlas hits keep being served."""
    release = asyncio.Event()

    async def solve(request, deadline):
        await release.wait()
        return fake_payload(request.config)

    async def run():
        service = make_service(tmp_path, solve, max_pending=1,
                               max_concurrency=1)
        cached = config(0.35)
        service.atlas.put(atlas_key(cached, MODEL),
                          fake_payload(cached))
        async with service:
            leader = asyncio.ensure_future(service.submit(
                SolveRequest(config=config(0.20), model=MODEL)))
            await asyncio.sleep(0.01)
            with pytest.raises(ServiceOverloadError, match="in flight"):
                await service.submit(
                    SolveRequest(config=config(0.25), model=MODEL))
            assert service.stats.overloads == 1
            # Atlas fast path unaffected by admission control.
            hit = await service.submit(
                SolveRequest(config=cached, model=MODEL))
            assert hit.source == "atlas"
            # Coalescing onto the in-flight solve is also unaffected.
            waiter = asyncio.ensure_future(service.submit(
                SolveRequest(config=config(0.20), model=MODEL)))
            await asyncio.sleep(0.01)
            release.set()
            return await asyncio.gather(leader, waiter)

    leader, waiter = asyncio.run(run())
    assert leader.source == "solve" and waiter.coalesced


def test_shutdown_resolves_inflight_with_typed_error(tmp_path):
    """close() never drops an in-flight request: leader and waiters
    all get the typed shutdown error, and new submits are refused."""

    async def solve(request, deadline):
        await asyncio.sleep(60.0)

    async def run():
        service = make_service(tmp_path, solve)
        request = SolveRequest(config=config(), model=MODEL)
        tasks = [asyncio.ensure_future(service.submit(request))
                 for _ in range(3)]
        await asyncio.sleep(0.01)
        await service.close()
        results = await asyncio.gather(*tasks, return_exceptions=True)
        with pytest.raises(ServiceShutdownError):
            await service.submit(request)
        return results, service

    results, service = asyncio.run(run())
    assert all(isinstance(r, ServiceShutdownError) for r in results)
    assert not service._inflight  # nothing leaked
    assert service.stats.shutdown_cancelled == 1


def test_sync_solve_fn_runs_in_executor(tmp_path):
    def solve(request, deadline):  # plain callable, no async
        assert deadline.remaining() > 0
        return fake_payload(request.config, utility=0.11)

    async def run():
        service = make_service(tmp_path, solve)
        async with service:
            return await service.submit(
                SolveRequest(config=config(), model=MODEL))

    response = asyncio.run(run())
    assert response.source == "solve"
    assert response.utility == pytest.approx(0.11)


def test_orphan_model_repeats_are_answered_from_the_atlas(tmp_path):
    """The orphan model is solved with Wait and stored under the key
    its request maps to, so a repeat is an atlas hit rather than a
    quarantine and a fresh solve."""
    request = SolveRequest(
        config=AttackConfig.from_ratio(0.10, (1, 1), setting=1, ad=2),
        model=IncentiveModel.NON_PROFIT)

    async def run():
        service = SolverService(PolicyAtlas(tmp_path / "atlas"))
        async with service:
            responses = [await service.submit(request)
                         for _ in range(3)]
        return service, responses

    service, responses = asyncio.run(run())
    assert [r.source for r in responses] == ["solve", "atlas", "atlas"]
    assert service.atlas.stats.quarantined == 0
    assert len({r.utility for r in responses}) == 1


def test_request_from_json_variants():
    request = request_from_json(
        {"alpha": 0.25, "ratio": "2:3", "model": "relative",
         "deadline_s": 3.0, "ad": 4})
    assert request.config.alpha == pytest.approx(0.25)
    assert request.config.ad == 4
    assert request.deadline_s == pytest.approx(3.0)
    assert request.model is IncentiveModel.COMPLIANT_PROFIT

    explicit = request_from_json(
        {"alpha": 0.2, "beta": 0.5, "gamma": 0.3,
         "model": "non-profit-driven", "allow_degraded": False})
    assert explicit.model is IncentiveModel.NON_PROFIT
    assert not explicit.allow_degraded


def test_serve_batch_preserves_order_and_types_errors(tmp_path):
    async def solve(request, deadline):
        return fake_payload(request.config,
                            utility=request.config.alpha)

    async def run():
        service = make_service(tmp_path, solve)
        async with service:
            return await serve_batch(service, [
                {"alpha": 0.2, "ratio": "2:3"},
                {"alpha": "not a number", "ratio": "2:3"},
                {"alpha": 0.3, "ratio": "2:3"},
            ])

    results = asyncio.run(run())
    assert [r["ok"] for r in results] == [True, False, True]
    assert results[0]["utility"] == pytest.approx(0.2)
    assert results[2]["utility"] == pytest.approx(0.3)
    assert "message" in results[1]


def test_retry_policy_backoff_grows_with_jitter():
    import numpy as np
    policy = RetryPolicy(base_backoff_s=0.1, backoff_factor=2.0,
                         jitter=0.5)
    rng = np.random.default_rng(0)
    first = policy.backoff(1, rng)
    second = policy.backoff(2, rng)
    assert 0.1 <= first <= 0.15
    assert 0.2 <= second <= 0.3


def test_telemetry_counters_prove_coalescing(tmp_path):
    from repro.runtime import telemetry

    async def solve(request, deadline):
        await asyncio.sleep(0.01)
        return fake_payload(request.config)

    async def run():
        service = make_service(tmp_path, solve)
        request = SolveRequest(config=config(), model=MODEL)
        async with service:
            await asyncio.gather(
                *(service.submit(request) for _ in range(4)))
            await service.submit(request)  # now an atlas hit
        return service

    tracer = telemetry.enable_tracing()
    try:
        service = asyncio.run(run())
    finally:
        telemetry.disable_tracing()
    counters = tracer.snapshot()["counters"]
    assert counters["serve/requests"] == 5
    assert counters["serve/coalesced"] == 3
    assert counters["serve/solves"] == 1
    assert counters["serve/atlas_hits"] == 1
    assert service.stats.coalesce_hit_rate() == pytest.approx(0.6)


# -- multi-process workers over one shared atlas -----------------------


def prewarm(tmp_path, alphas):
    atlas = PolicyAtlas(tmp_path / "atlas")
    for alpha in alphas:
        cfg = config(alpha)
        atlas.put(atlas_key(cfg, MODEL),
                  fake_payload(cfg, utility=alpha))
    return tmp_path / "atlas"


def test_serve_batch_multiprocess_preserves_order(tmp_path):
    from repro.serve.service import serve_batch_multiprocess
    alphas = [0.20, 0.25, 0.30]
    root = prewarm(tmp_path, alphas)
    requests = [{"alpha": a, "ratio": "2:3"}
                for a in alphas * 2]  # six requests over two workers
    results = serve_batch_multiprocess(root, requests, processes=2)
    assert len(results) == len(requests)
    assert all(r["ok"] for r in results)
    assert all(r["source"] == "atlas" for r in results)
    for request, result in zip(requests, results):
        assert result["utility"] == pytest.approx(request["alpha"])


def test_serve_batch_multiprocess_single_process_path(tmp_path):
    from repro.serve.service import serve_batch_multiprocess
    root = prewarm(tmp_path, [0.20])
    results = serve_batch_multiprocess(
        root, [{"alpha": 0.20, "ratio": "2:3"}], processes=1)
    assert results[0]["ok"] and results[0]["source"] == "atlas"
    with pytest.raises(Exception, match="processes"):
        serve_batch_multiprocess(root, [], processes=0)


def test_serve_batch_multiprocess_merges_worker_telemetry(tmp_path):
    """Counters must be worker-count-independent over a prewarmed
    atlas (cold solves may duplicate across processes -- single-flight
    is per-process -- but hits cannot)."""
    from repro.runtime import telemetry
    from repro.serve.service import serve_batch_multiprocess

    alphas = [0.20, 0.25, 0.30, 0.35]
    root = prewarm(tmp_path, alphas)
    requests = [{"alpha": a, "ratio": "2:3"} for a in alphas * 2]

    def counters(processes):
        tracer = telemetry.enable_tracing()
        try:
            results = serve_batch_multiprocess(root, requests,
                                               processes=processes)
        finally:
            telemetry.disable_tracing()
        assert all(r["ok"] for r in results)
        return tracer.snapshot()["counters"]

    one, two = counters(1), counters(2)
    for name in ("serve/requests", "serve/atlas_hits"):
        assert one[name] == two[name] == len(requests)
