"""Regeneration of the paper's result tables.

Each ``tableN`` function sweeps the same parameter grid as the paper
and returns a :class:`TableResult` whose cells can be compared against
the recorded paper values (``PAPER_TABLE*`` constants, transcribed from
the CoNEXT '17 camera-ready).  Cells the paper leaves blank violate the
threat-model assumption ``alpha <= min(beta, gamma)`` and are skipped.

Run ``python -m repro.analysis.tables all`` to print every table; see
EXPERIMENTS.md for the recorded paper-vs-measured comparison.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.formatting import format_table
from repro.baselines.selfish_ds import solve_selfish_mining_double_spend
from repro.core.config import AttackConfig
from repro.core.solve import (
    solve_absolute_reward,
    solve_orphan_rate,
    solve_relative_revenue,
)
from repro.errors import ReproError

Ratio = Tuple[int, int]

#: Parameter grids from Section 4.1.2.
TABLE2_ALPHAS = (0.10, 0.15, 0.20, 0.25)
TABLE2_RATIOS: Tuple[Ratio, ...] = ((3, 2), (1, 1), (2, 3), (1, 2),
                                    (1, 3), (1, 4))
TABLE3_ALPHAS = (0.01, 0.025, 0.05, 0.10, 0.15, 0.20, 0.25)
TABLE3_RATIOS: Tuple[Ratio, ...] = ((4, 1), (2, 1), (1, 1), (1, 2), (1, 4))
TABLE4_RATIOS: Tuple[Ratio, ...] = ((4, 1), (3, 1), (2, 1), (3, 2), (1, 1),
                                    (2, 3), (1, 2), (1, 3), (1, 4))

#: Paper values (Table 2): (ratio, alpha) -> relative revenue, setting 1.
PAPER_TABLE2: Dict[Tuple[Ratio, float], float] = {
    ((3, 2), 0.10): 0.10, ((3, 2), 0.15): 0.15,
    ((3, 2), 0.20): 0.20, ((3, 2), 0.25): 0.25,
    ((1, 1), 0.10): 0.10, ((1, 1), 0.15): 0.15,
    ((1, 1), 0.20): 0.20, ((1, 1), 0.25): 0.2624,
    ((2, 3), 0.10): 0.10, ((2, 3), 0.15): 0.1505,
    ((2, 3), 0.20): 0.2115, ((2, 3), 0.25): 0.2739,
    ((1, 2), 0.10): 0.10, ((1, 2), 0.15): 0.1562,
    ((1, 2), 0.20): 0.2156, ((1, 2), 0.25): 0.2756,
    ((1, 3), 0.10): 0.1026, ((1, 3), 0.15): 0.1587,
    ((1, 3), 0.20): 0.2158,
    ((1, 4), 0.10): 0.1034, ((1, 4), 0.15): 0.1584,
}

#: Paper values (Table 2, setting 2, alpha = 25%).
PAPER_TABLE2_SET2: Dict[Tuple[Ratio, float], float] = {
    ((3, 2), 0.25): 0.2529, ((1, 1), 0.25): 0.2624,
    ((2, 3), 0.25): 0.2529, ((1, 2), 0.25): 0.25,
}

#: Paper values (Table 3, BU): (ratio, alpha) -> absolute reward.
PAPER_TABLE3_SET1: Dict[Tuple[Ratio, float], float] = {
    ((4, 1), 0.01): 0.013, ((2, 1), 0.01): 0.035, ((1, 1), 0.01): 0.042,
    ((1, 2), 0.01): 0.025, ((1, 4), 0.01): 0.013,
    ((4, 1), 0.025): 0.038, ((2, 1), 0.025): 0.089, ((1, 1), 0.025): 0.10,
    ((1, 2), 0.025): 0.063, ((1, 4), 0.025): 0.033,
    ((4, 1), 0.05): 0.090, ((2, 1), 0.05): 0.18, ((1, 1), 0.05): 0.20,
    ((1, 2), 0.05): 0.13, ((1, 4), 0.05): 0.067,
    ((4, 1), 0.10): 0.24, ((2, 1), 0.10): 0.39, ((1, 1), 0.10): 0.40,
    ((1, 2), 0.10): 0.26, ((1, 4), 0.10): 0.14,
    ((4, 1), 0.15): 0.44, ((2, 1), 0.15): 0.61, ((1, 1), 0.15): 0.59,
    ((1, 2), 0.15): 0.40, ((1, 4), 0.15): 0.23,
    ((2, 1), 0.20): 0.83, ((1, 1), 0.20): 0.78, ((1, 2), 0.20): 0.55,
    ((2, 1), 0.25): 1.1, ((1, 1), 0.25): 0.97, ((1, 2), 0.25): 0.71,
}

PAPER_TABLE3_SET2: Dict[Tuple[Ratio, float], float] = {
    ((4, 1), 0.01): 0.01, ((2, 1), 0.01): 0.025, ((1, 1), 0.01): 0.034,
    ((1, 2), 0.01): 0.024, ((1, 4), 0.01): 0.011,
    ((4, 1), 0.025): 0.027, ((2, 1), 0.025): 0.064, ((1, 1), 0.025): 0.084,
    ((1, 2), 0.025): 0.063, ((1, 4), 0.025): 0.028,
    ((4, 1), 0.05): 0.063, ((2, 1), 0.05): 0.13, ((1, 1), 0.05): 0.16,
    ((1, 2), 0.05): 0.13, ((1, 4), 0.05): 0.064,
    ((4, 1), 0.10): 0.16, ((2, 1), 0.10): 0.27, ((1, 1), 0.10): 0.31,
    ((1, 2), 0.10): 0.27, ((1, 4), 0.10): 0.16,
    ((4, 1), 0.15): 0.28, ((2, 1), 0.15): 0.41, ((1, 1), 0.15): 0.46,
    ((1, 2), 0.15): 0.41, ((1, 4), 0.15): 0.29,
    ((2, 1), 0.20): 0.55, ((1, 1), 0.20): 0.59, ((1, 2), 0.20): 0.55,
    ((2, 1), 0.25): 0.69, ((1, 1), 0.25): 0.73, ((1, 2), 0.25): 0.69,
}

#: Paper values (Table 3, Bitcoin): (tie_power, alpha) -> absolute reward.
PAPER_TABLE3_BITCOIN: Dict[Tuple[float, float], float] = {
    (0.5, 0.10): 0.1, (0.5, 0.15): 0.15, (0.5, 0.20): 0.2,
    (0.5, 0.25): 0.38,
    (1.0, 0.10): 0.11, (1.0, 0.15): 0.18, (1.0, 0.20): 0.30,
    (1.0, 0.25): 0.52,
}

#: Paper values (Table 4): (ratio, setting) -> orphans per Alice block.
PAPER_TABLE4: Dict[Tuple[Ratio, int], float] = {
    ((4, 1), 1): 0.61, ((4, 1), 2): 0.62,
    ((3, 1), 1): 0.83, ((3, 1), 2): 0.85,
    ((2, 1), 1): 1.22, ((2, 1), 2): 1.26,
    ((3, 2), 1): 1.50, ((3, 2), 2): 1.55,
    ((1, 1), 1): 1.76, ((1, 1), 2): 1.76,
    ((2, 3), 1): 1.77, ((2, 3), 2): 1.77,
    ((1, 2), 1): 1.62, ((1, 2), 2): 1.62,
    ((1, 3), 1): 1.30, ((1, 3), 2): 1.30,
    ((1, 4), 1): 1.06, ((1, 4), 2): 1.06,
}


def feasible(alpha: float, ratio: Ratio) -> bool:
    """The paper's constraint alpha <= min(beta, gamma)."""
    b, g = ratio
    rest = 1.0 - alpha
    beta = rest * b / (b + g)
    gamma = rest - beta
    return alpha <= min(beta, gamma) + 1e-12


@dataclass
class TableResult:
    """A regenerated table.

    Attributes
    ----------
    name:
        Table identifier (e.g. ``"table2-setting1"``).
    row_labels, col_labels:
        Axis labels in display order.
    cells:
        (row_label, col_label) -> computed value (missing = infeasible).
    paper:
        Same keying, the paper's reported values where available.
    """

    name: str
    row_labels: List
    col_labels: List
    cells: Dict = field(default_factory=dict)
    paper: Dict = field(default_factory=dict)

    def render(self, precision: int = 4) -> str:
        """ASCII rendering in the paper's orientation."""
        headers = [self.name] + [str(c) for c in self.col_labels]
        rows = []
        for r in self.row_labels:
            rows.append([str(r)] + [self.cells.get((r, c))
                                    for c in self.col_labels])
        return format_table(headers, rows, precision=precision)

    def max_paper_deviation(self) -> float:
        """Largest |computed - paper| across cells both sides report."""
        devs = [abs(self.cells[k] - v) for k, v in self.paper.items()
                if k in self.cells]
        if not devs:
            raise ReproError("no overlapping cells with paper values")
        return max(devs)


ProgressFn = Optional[Callable[[str], None]]


def _progress(progress: ProgressFn, message: str) -> None:
    if progress is not None:
        progress(message)


def _cell(runner, key, solve: Callable[[], float]) -> float:
    """Solve one table cell, through the checkpoint runner when given.

    ``runner`` is a :class:`repro.runtime.sweeprunner.SweepRunner`
    (or ``None``); cells already present in its journal are restored
    without re-solving, which is what makes a killed table run
    resumable.
    """
    if runner is None:
        return solve()
    return runner.cell(list(key), solve)


def _fill_cells(result: TableResult, specs, runner, workers: int,
                progress: ProgressFn, label: str,
                serial_solve=None) -> None:
    """Solve the cells described by ``specs`` into ``result``.

    ``specs`` is a list of ``(key, task, paper_value)`` triples where
    ``task`` is a :class:`repro.runtime.parallel.SolveTask`.  With
    ``workers == 1`` each task runs in-process through
    ``serial_solve`` (which resolves the solver from this module, so
    tests can monkeypatch it); with ``workers > 1`` the tasks fan out
    through :func:`repro.runtime.parallel.run_cells`.
    """
    if workers > 1:
        from repro.runtime.parallel import run_cells
        paper_by_key = {key: pv for key, _t, pv in specs
                        if pv is not None}

        def on_done(task, value) -> None:
            _progress(progress, f"{label} {task.key}: {value:.4f}")

        values = run_cells([task for _k, task, _p in specs],
                           runner=runner, workers=workers,
                           progress=on_done)
        for (key, _task, _pv), value in zip(specs, values):
            result.cells[key] = value
        result.paper.update(paper_by_key)
        return
    for key, task, paper_value in specs:
        value = _cell(runner, key, lambda task=task: serial_solve(task))
        result.cells[key] = value
        if paper_value is not None:
            result.paper[key] = paper_value
        _progress(progress, f"{label} {key}: {value:.4f}")


def table2(setting: int = 1,
           alphas: Iterable[float] = TABLE2_ALPHAS,
           ratios: Iterable[Ratio] = TABLE2_RATIOS,
           progress: ProgressFn = None,
           runner=None, workers: int = 1) -> TableResult:
    """Regenerate Table 2 (relative revenue of a compliant and
    profit-driven Alice) for one setting.

    ``runner`` enables checkpoint/resume via a
    :class:`repro.runtime.sweeprunner.SweepRunner`; ``workers > 1``
    fans the cells out over that many processes.
    """
    from repro.runtime.parallel import SolveTask
    alphas, ratios = list(alphas), list(ratios)
    paper = PAPER_TABLE2 if setting == 1 else PAPER_TABLE2_SET2
    result = TableResult(name=f"table2-setting{setting}",
                         row_labels=[f"{b}:{g}" for b, g in ratios],
                         col_labels=[f"{a:.0%}" for a in alphas])
    specs = []
    for ratio in ratios:
        for alpha in alphas:
            if not feasible(alpha, ratio):
                continue
            config = AttackConfig.from_ratio(alpha, ratio, setting=setting)
            key = (f"{ratio[0]}:{ratio[1]}", f"{alpha:.0%}")
            specs.append((key, SolveTask(kind="relative", key=key,
                                         config=config),
                          paper.get((ratio, alpha))))
    _fill_cells(result, specs, runner, workers, progress,
                f"table2 s{setting}",
                serial_solve=lambda task: solve_relative_revenue(
                    task.config).utility)
    return result


def table3(setting: int = 1,
           alphas: Iterable[float] = TABLE3_ALPHAS,
           ratios: Iterable[Ratio] = TABLE3_RATIOS,
           progress: ProgressFn = None,
           runner=None, workers: int = 1) -> TableResult:
    """Regenerate Table 3's BU block (absolute reward of a
    non-compliant, profit-driven Alice) for one setting."""
    from repro.runtime.parallel import SolveTask
    alphas, ratios = list(alphas), list(ratios)
    paper = PAPER_TABLE3_SET1 if setting == 1 else PAPER_TABLE3_SET2
    result = TableResult(name=f"table3-setting{setting}",
                         row_labels=[f"{a:.4g}" for a in alphas],
                         col_labels=[f"{b}:{g}" for b, g in ratios])
    specs = []
    for alpha in alphas:
        for ratio in ratios:
            if not feasible(alpha, ratio):
                continue
            config = AttackConfig.from_ratio(alpha, ratio, setting=setting)
            key = (f"{alpha:.4g}", f"{ratio[0]}:{ratio[1]}")
            specs.append((key, SolveTask(kind="absolute", key=key,
                                         config=config),
                          paper.get((ratio, alpha))))
    _fill_cells(result, specs, runner, workers, progress,
                f"table3 s{setting}",
                serial_solve=lambda task: solve_absolute_reward(
                    task.config).utility)
    return result


def table3_bitcoin(ties: Iterable[float] = (0.5, 1.0),
                   alphas: Iterable[float] = (0.10, 0.15, 0.20, 0.25),
                   max_len: int = 24,
                   progress: ProgressFn = None,
                   runner=None, workers: int = 1) -> TableResult:
    """Regenerate Table 3's Bitcoin block (selfish mining combined with
    double-spending)."""
    from repro.runtime.parallel import SolveTask
    ties, alphas = list(ties), list(alphas)
    result = TableResult(name="table3-bitcoin",
                         row_labels=[f"tie={t:.0%}" for t in ties],
                         col_labels=[f"{a:.0%}" for a in alphas])
    specs = []
    for tie in ties:
        for alpha in alphas:
            key = (f"tie={tie:.0%}", f"{alpha:.0%}")
            specs.append((key, SolveTask(
                kind="selfish_ds", key=key,
                params=(("alpha", alpha), ("tie_power", tie),
                        ("max_len", max_len))),
                PAPER_TABLE3_BITCOIN.get((tie, alpha))))
    _fill_cells(result, specs, runner, workers, progress,
                "table3 bitcoin",
                serial_solve=lambda task: solve_selfish_mining_double_spend(
                    **dict(task.params)).absolute_reward)
    return result


def table4(alpha: float = 0.01,
           ratios: Iterable[Ratio] = TABLE4_RATIOS,
           settings: Iterable[int] = (1, 2),
           progress: ProgressFn = None,
           runner=None, workers: int = 1) -> TableResult:
    """Regenerate Table 4 (others' blocks orphaned per Alice block,
    non-profit-driven Alice)."""
    from repro.runtime.parallel import SolveTask
    ratios, settings = list(ratios), list(settings)
    result = TableResult(name=f"table4-alpha{alpha:.0%}",
                         row_labels=[f"{b}:{g}" for b, g in ratios],
                         col_labels=[f"setting{s}" for s in settings])
    specs = []
    for ratio in ratios:
        for setting in settings:
            if not feasible(alpha, ratio):
                continue
            config = AttackConfig.from_ratio(alpha, ratio, setting=setting)
            key = (f"{ratio[0]}:{ratio[1]}", f"setting{setting}")
            specs.append((key, SolveTask(kind="orphans", key=key,
                                         config=config),
                          PAPER_TABLE4.get((ratio, setting))))
    _fill_cells(result, specs, runner, workers, progress,
                "table4",
                serial_solve=lambda task: solve_orphan_rate(
                    task.config).utility)
    return result


def _make_runner(journal_dir, sweep: str):
    """Build a journal-backed runner for one table, or ``None``."""
    if journal_dir is None:
        return None
    from pathlib import Path

    from repro.runtime.journal import Journal
    from repro.runtime.sweeprunner import SweepRunner

    directory = Path(journal_dir)
    directory.mkdir(parents=True, exist_ok=True)
    journal = Journal(directory / f"{sweep}.journal", sweep=sweep)
    return SweepRunner(journal=journal)


def _main(argv: List[str]) -> int:
    argv = list(argv)
    journal_dir = None
    if "--journal" in argv:
        at = argv.index("--journal")
        try:
            journal_dir = argv[at + 1]
        except IndexError:
            print("--journal requires a directory argument")
            return 2
        del argv[at:at + 2]
    workers = 1
    if "--workers" in argv:
        at = argv.index("--workers")
        try:
            workers = int(argv[at + 1])
        except (IndexError, ValueError):
            print("--workers requires an integer argument")
            return 2
        del argv[at:at + 2]
    which = argv[0] if argv else "all"
    fast = "--fast" in argv

    def echo(msg: str) -> None:
        print(msg, file=sys.stderr)

    def runner_for(sweep: str):
        return _make_runner(journal_dir, sweep)

    outputs: List[TableResult] = []
    if which in ("table2", "all"):
        outputs.append(table2(setting=1, progress=echo, workers=workers,
                              runner=runner_for("table2-setting1")))
        outputs.append(table2(setting=2, alphas=(0.25,),
                              ratios=TABLE2_RATIOS[:4],
                              progress=echo, workers=workers,
                              runner=runner_for("table2-setting2")))
    if which in ("table3", "all"):
        alphas = (0.01, 0.10) if fast else TABLE3_ALPHAS
        outputs.append(table3(setting=1, alphas=alphas, progress=echo,
                              workers=workers,
                              runner=runner_for("table3-setting1")))
        outputs.append(table3(setting=2, alphas=alphas, progress=echo,
                              workers=workers,
                              runner=runner_for("table3-setting2")))
        outputs.append(table3_bitcoin(progress=echo, workers=workers,
                                      runner=runner_for("table3-bitcoin")))
    if which in ("table4", "all"):
        settings = (1,) if fast else (1, 2)
        outputs.append(table4(settings=settings, progress=echo,
                              workers=workers,
                              runner=runner_for("table4-alpha1%")))
    if not outputs:
        print(f"unknown table {which!r}; use table2|table3|table4|all")
        return 2
    for out in outputs:
        print(out.render())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(_main(sys.argv[1:]))
