"""Tests for process-parallel sweep cells and their resume semantics."""

import pytest

from repro.analysis import tables
from repro.analysis.sweeps import sweep_attack
from repro.core.config import AttackConfig
from repro.core.incentives import IncentiveModel
from repro.core.solve import analyze
from repro.errors import ReproError, SolverBudgetExceededError
from repro.runtime import Budget, Journal, SweepRunner
from repro.runtime.parallel import SolveTask, execute_task, run_cells


class Killed(RuntimeError):
    """Simulated crash injected mid-sweep."""


def kill_after(n):
    def hook(solved):
        if solved >= n:
            raise Killed(f"killed after {n} cells")
    return hook


def small_config(alpha=0.10, ratio=(1, 1), **kwargs) -> AttackConfig:
    return AttackConfig.from_ratio(alpha, ratio, setting=2, ad=2,
                                   **kwargs)


def relative_tasks():
    return [SolveTask(kind="relative", key=("cell", i),
                      config=small_config(alpha=alpha))
            for i, alpha in enumerate((0.10, 0.15, 0.20))]


def test_run_cells_rejects_bad_worker_count():
    with pytest.raises(ReproError):
        run_cells([], workers=0)


def test_execute_task_rejects_unknown_kind():
    with pytest.raises(ReproError):
        execute_task(SolveTask(kind="nope", key=("x",)))


def test_parallel_equals_serial_exactly():
    tasks = relative_tasks()
    serial = run_cells(tasks, workers=1)
    parallel = run_cells(tasks, workers=2)
    assert parallel == serial  # float-exact, not approx


def test_serial_progress_preserves_input_order():
    tasks = relative_tasks()
    seen = []
    values = run_cells(tasks, workers=1,
                       progress=lambda task, value: seen.append(task.key))
    assert seen == [task.key for task in tasks]
    assert len(values) == len(tasks)


def test_analyze_tasks_round_trip_through_payload():
    config = small_config()
    model = IncentiveModel.NONCOMPLIANT_PROFIT
    task = SolveTask(kind="analyze", key=("a",), config=config,
                     model=model)
    [restored] = run_cells([task], workers=1)
    direct = analyze(config, model)
    assert restored.utility == pytest.approx(direct.utility, abs=1e-12)


def test_parallel_run_records_journal_and_resumes(tmp_path):
    tasks = relative_tasks()
    reference = run_cells(tasks, workers=1)

    journal_path = tmp_path / "cells.journal"
    crashed = SweepRunner(journal=Journal(journal_path, sweep="cells"),
                          fault_hook=kill_after(1))
    with pytest.raises(Killed):
        run_cells(tasks, runner=crashed, workers=2)
    assert crashed.stats.solved == 1

    resumed = SweepRunner(journal=Journal(journal_path, sweep="cells"))
    values = run_cells(tasks, runner=resumed, workers=2)
    assert resumed.stats.restored == 1
    assert resumed.stats.solved == len(tasks) - 1
    assert values == reference


def test_parallel_failure_salvages_done_cells_and_tags_key(tmp_path):
    """A worker exception must not abandon completed cells: whatever
    finished before the failure is journaled, in-flight work is
    cancelled, and the original exception propagates with the failing
    cell's key attached."""
    good = relative_tasks()
    bad = SolveTask(kind="nope", key=("bad",))
    journal_path = tmp_path / "cells.journal"
    crashed = SweepRunner(journal=Journal(journal_path, sweep="cells"))
    with pytest.raises(ReproError) as info:
        run_cells(good + [bad], runner=crashed, workers=2)
    assert info.value.task_key == ("bad",)

    # Every journaled cell counts as solved; the resume restores
    # exactly those and solves only the remainder.
    reference = run_cells(good, workers=1)
    resumed = SweepRunner(journal=Journal(journal_path, sweep="cells"))
    values = run_cells(good, runner=resumed, workers=2)
    assert values == reference
    assert resumed.stats.restored == crashed.stats.solved
    assert resumed.stats.restored + resumed.stats.solved == len(good)


def test_parallel_failure_without_runner_tags_key():
    bad = SolveTask(kind="nope", key=("lone",))
    with pytest.raises(ReproError) as info:
        run_cells(relative_tasks() + [bad, bad], workers=2)
    assert info.value.task_key == ("lone",)


def test_journal_resume_counters_match_sweep_stats(tmp_path):
    """Telemetry acceptance: a journal-resumed parallel run reports
    restored-vs-solved counters equal to ``SweepRunner.stats``."""
    from repro.runtime.telemetry import Tracer, use_tracer
    tasks = relative_tasks()
    journal_path = tmp_path / "cells.journal"
    crashed = SweepRunner(journal=Journal(journal_path, sweep="cells"),
                          fault_hook=kill_after(1))
    with pytest.raises(Killed):
        run_cells(tasks, runner=crashed, workers=2)

    resumed = SweepRunner(journal=Journal(journal_path, sweep="cells"))
    with use_tracer(Tracer()) as tracer:
        run_cells(tasks, runner=resumed, workers=2)
    assert tracer.counters["journal/restored"] == resumed.stats.restored
    assert tracer.counters["journal/solved"] == resumed.stats.solved
    assert resumed.stats.restored + resumed.stats.solved == len(tasks)

    # The serial path reports through the same counters.
    serial = SweepRunner(journal=Journal(journal_path, sweep="cells"))
    with use_tracer(Tracer()) as tracer:
        run_cells(tasks, runner=serial, workers=1)
    assert tracer.counters["journal/restored"] == len(tasks)
    assert tracer.counters["journal/restored"] == serial.stats.restored
    assert "journal/solved" not in tracer.counters


def test_validate_seed_tasks_execute():
    model = IncentiveModel.COMPLIANT_PROFIT
    analysis = analyze(small_config(), model)
    policy = tuple(int(a) for a in analysis.policy.action_indices)
    task = SolveTask(kind="validate_seed", key=("v", 0),
                     config=analysis.config, model=model,
                     params=(("seed", 0), ("steps", 2_000),
                             ("trajectories", 2),
                             ("engine", "rollout"),
                             ("policy", policy)))
    payload = execute_task(task)
    assert set(payload) == {"utilities", "rates", "steps"}
    assert run_cells([task], workers=1) == [payload]


def test_analyze_task_runs_under_its_budget():
    task = SolveTask(kind="analyze", key=("budget",),
                     config=AttackConfig.from_ratio(0.25, (2, 3)),
                     model=IncentiveModel.COMPLIANT_PROFIT,
                     budget=Budget(max_ticks=1))
    with pytest.raises(SolverBudgetExceededError) as info:
        execute_task(task)
    assert info.value.diagnostics[-1].stage == "dinkelbach"


def test_table2_parallel_matches_serial():
    kwargs = dict(setting=1, alphas=(0.10,), ratios=((1, 1), (1, 2)))
    serial = tables.table2(**kwargs)
    parallel = tables.table2(workers=2, **kwargs)
    assert parallel.cells == serial.cells
    assert parallel.paper == serial.paper


def test_sweep_cells_solve_their_own_config(tmp_path):
    """Regression: the journaled sweep path once captured the loop
    variable in a bare closure, so every deferred cell solved the
    *final* config."""
    values = [0.0, 1.0, 2.0]
    runner = SweepRunner(journal=Journal(tmp_path / "s.journal",
                                         sweep="rds"))
    model = IncentiveModel.NONCOMPLIANT_PROFIT
    result = sweep_attack(small_config(), "rds", values, model,
                          runner=runner)
    assert [a.config.rds for a in result.analyses] == values
    from dataclasses import replace
    for value, got in zip(values, result.analyses):
        direct = analyze(replace(small_config(), rds=value), model)
        assert got.utility == pytest.approx(direct.utility, abs=1e-12)


def test_sweep_parallel_matches_serial():
    values = [0.0, 2.0]
    model = IncentiveModel.NONCOMPLIANT_PROFIT
    serial = sweep_attack(small_config(), "rds", values, model)
    parallel = sweep_attack(small_config(), "rds", values, model,
                            workers=2)
    assert parallel.utilities() == pytest.approx(serial.utilities(),
                                                 abs=1e-12)
