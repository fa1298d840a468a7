"""Supervised runtime for long-running computations.

This package is the robustness layer between the mathematical toolkit
and production-scale sweeps:

- :mod:`repro.runtime.budget` -- wall-clock/iteration budgets enforced
  cooperatively through the solvers' ``on_iter`` hooks;
- :mod:`repro.runtime.fallbacks` -- declarative solver fallback chains
  (Dinkelbach -> bisection -> value iteration -> LP) with per-stage
  diagnostics;
- :mod:`repro.runtime.supervisor` -- ``solve_ratio`` and
  ``solve_average``, the one path every solve takes: input validation,
  a fallback chain under a budget, output validation;
- :mod:`repro.runtime.journal` -- atomic file writes and the
  append-only checkpoint journal;
- :mod:`repro.runtime.sweeprunner` -- :class:`SweepRunner`,
  checkpointed resumable execution of sweep cells;
- :mod:`repro.runtime.telemetry` -- structured tracing and metrics
  (spans, counters, gauges, JSONL trace files);
- :mod:`repro.runtime.faults` -- fault plans (loss, delay,
  duplication, crashes, partitions) for the network simulator.

Exports resolve lazily (PEP 562): instrumented low-level modules (e.g.
:mod:`repro.mdp.kernels`) import :mod:`repro.runtime.telemetry`, and an
eager ``__init__`` would close an import cycle back through
:mod:`repro.runtime.fallbacks` into :mod:`repro.mdp`.

See ``docs/robustness.md`` and ``docs/observability.md`` for the full
design.
"""

from importlib import import_module

#: Re-exported name -> defining submodule.
_EXPORTS = {
    "Budget": "repro.runtime.budget",
    "BudgetClock": "repro.runtime.budget",
    "RATIO_CHAIN": "repro.runtime.fallbacks",
    "AVERAGE_CHAIN": "repro.runtime.fallbacks",
    "RatioRequest": "repro.runtime.fallbacks",
    "AverageRequest": "repro.runtime.fallbacks",
    "ChainResult": "repro.runtime.fallbacks",
    "StageDiagnostics": "repro.runtime.fallbacks",
    "run_chain": "repro.runtime.fallbacks",
    "Journal": "repro.runtime.journal",
    "JOURNAL_SCHEMA": "repro.runtime.journal",
    "atomic_write_text": "repro.runtime.journal",
    "SweepRunner": "repro.runtime.sweeprunner",
    "SweepStats": "repro.runtime.sweeprunner",
    "FaultPlan": "repro.runtime.faults",
    "FaultInjector": "repro.runtime.faults",
    "FaultStats": "repro.runtime.faults",
    "CrashWindow": "repro.runtime.faults",
    "PartitionWindow": "repro.runtime.faults",
    "ServiceFaultPlan": "repro.runtime.faults",
    "ServiceFaultInjector": "repro.runtime.faults",
    "ServiceFaultStats": "repro.runtime.faults",
    "Tracer": "repro.runtime.telemetry",
    "enable_tracing": "repro.runtime.telemetry",
    "disable_tracing": "repro.runtime.telemetry",
    "tracing_enabled": "repro.runtime.telemetry",
}

_SUBMODULES = frozenset({
    "bench", "budget", "fallbacks", "faults", "journal", "parallel",
    "supervisor", "sweeprunner", "telemetry",
})

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(_EXPORTS[name]), name)
    if name in _SUBMODULES:
        return import_module(f"repro.runtime.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(__all__) | set(globals()) | _SUBMODULES)
