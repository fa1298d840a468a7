"""Structured tracing and metrics for solvers, sweeps and simulation.

The pipeline's hot layers (Dinkelbach/bisection ratio solves, policy
iteration, the attack-MDP build cache, :class:`PolicyEvalCache`,
journaled sweeps, parallel workers, Monte-Carlo rollouts) each expose
behavior that a bare wall-clock number cannot explain: how many
transformed solves a ratio took, whether a sweep cell hit the build
cache or re-enumerated 30k states, how restored and fresh cells split
on a resume.  This module gives them one zero-dependency instrument:

- **spans** -- nestable timed regions (``with span("solve/relative")``)
  whose names form ``/``-separated paths (see
  ``docs/observability.md`` for the naming conventions);
- **counters** -- monotonic event counts (``counter_add(name, n)``),
  the worker-merge-safe signal: counters from parallel workers are
  summed into the parent, so merged totals are independent of worker
  count and scheduling;
- **gauges** -- last-write-wins observations (final residuals, sampled
  throughput); informative but *not* guaranteed worker-count
  independent under parallel merge.

Tracing is off by default and every instrumentation hook is a no-op
fast path (one module-global ``None`` check) so instrumented code pays
nothing measurable when disabled.  Enabling installs a
:class:`Tracer` -- the in-memory registry -- which can be serialized
to a JSON-lines event file (written atomically via
:func:`repro.runtime.journal.atomic_write_text`) and summarized back
with :func:`load_trace` / :func:`summarize_trace` (the ``repro trace``
subcommand).

One tracer may be fed from several threads (the serving layer runs
solves on executor threads) and asyncio tasks.  Each thread and task
sees its own innermost open span through a
:class:`contextvars.ContextVar`, so concurrent spans never nest under
one another, and one lock guards every mutation of the counters,
gauges and events.

Worker processes do not share the parent's tracer.  Instead,
:mod:`repro.runtime.parallel` runs each task under a fresh local
tracer (:func:`use_tracer`) and ships the resulting
:meth:`Tracer.snapshot` back with the payload; the parent merges it
with :meth:`Tracer.merge_snapshot`.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from typing import Dict, List, Optional, Union

from repro.errors import ReproError
from repro.runtime.journal import PathLike, atomic_write_text

#: Format version of trace files.
TRACE_SCHEMA = 1

Number = Union[int, float]

#: The active tracer, or ``None`` when tracing is disabled.  Kept as a
#: bare module global so the disabled fast path is a single load+test.
_TRACER: Optional["Tracer"] = None


class _NullSpan:
    """Shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: Innermost open span of the running thread or asyncio task (each has
#: its own context), or ``None``.
_OPEN_SPAN: "contextvars.ContextVar[Optional[_Span]]" = \
    contextvars.ContextVar("repro_open_span", default=None)


class _Span:
    """One live timed region of a :class:`Tracer`."""

    __slots__ = ("_tracer", "name", "path", "_parent", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.path = name
        self._parent: Optional[_Span] = None
        self._start = 0.0

    def __enter__(self) -> "_Span":
        parent = self._parent = _OPEN_SPAN.get()
        # Open spans of another tracer (one swapped out by use_tracer)
        # are not part of this tracer's paths.
        while parent is not None and parent._tracer is not self._tracer:
            parent = parent._parent
        if parent is not None:
            self.path = f"{parent.path}/{self.name}"
        _OPEN_SPAN.set(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        elapsed = time.perf_counter() - self._start
        _OPEN_SPAN.set(self._parent)
        self._tracer.add_event(
            {"type": "span", "path": self.path, "name": self.name,
             "dur_s": elapsed})
        return False


class Tracer:
    """In-memory registry of spans, counters and gauges.

    Safe to feed from several threads: every mutation, and every read
    through :meth:`snapshot` / :meth:`write`, holds one lock.

    Attributes
    ----------
    counters:
        Name -> monotonic total.  The only channel with worker-merge
        guarantees (merge sums; addition is commutative, so merged
        totals are independent of worker count and completion order).
    gauges:
        Name -> last observed value.
    events:
        Chronological list of JSON-compatible event dicts (span
        completions, worker-cell records).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, Number] = {}
        self.events: List[Dict] = []
        self._lock = threading.Lock()
        self._created = time.time()

    # -- recording ----------------------------------------------------

    def add(self, name: str, value: Number = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set(self, name: str, value: Number) -> None:
        """Record gauge ``name`` (last write wins)."""
        with self._lock:
            self.gauges[name] = value

    def add_event(self, record: Dict) -> None:
        """Append one JSON-compatible event record."""
        with self._lock:
            self.events.append(record)

    def span(self, name: str) -> _Span:
        """A context manager timing one nested region."""
        return _Span(self, name)

    # -- snapshots / merging ------------------------------------------

    def snapshot(self) -> Dict:
        """JSON-compatible copy of this tracer's state, suitable for
        shipping across a process boundary."""
        with self._lock:
            return {"counters": dict(self.counters),
                    "gauges": dict(self.gauges),
                    "events": list(self.events)}

    def merge_snapshot(self, snapshot: Dict) -> None:
        """Fold a worker's :meth:`snapshot` into this tracer.

        Counters are summed (worker-count independent); gauges are
        overwritten (last merge wins); events are appended.
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            self.gauges.update(snapshot.get("gauges", {}))
            self.events.extend(snapshot.get("events", ()))

    # -- serialization ------------------------------------------------

    def write(self, path: PathLike) -> None:
        """Serialize the registry to a JSON-lines trace file.

        Layout: one header record, one record per event, then one
        ``counters`` and one ``gauges`` record.  Written atomically so
        a crash mid-write never leaves a truncated trace.
        """
        with self._lock:
            lines = [json.dumps({"schema": TRACE_SCHEMA,
                                 "kind": "trace",
                                 "created": self._created})]
            lines.extend(json.dumps(event) for event in self.events)
            lines.append(json.dumps({"type": "counters",
                                     "values": self.counters}))
            lines.append(json.dumps({"type": "gauges",
                                     "values": self.gauges}))
        atomic_write_text(path, "\n".join(lines) + "\n")


# -- module-level fast-path API ---------------------------------------

def current_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _TRACER


def tracing_enabled() -> bool:
    """Whether a tracer is currently installed."""
    return _TRACER is not None


def enable_tracing(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the active tracer."""
    global _TRACER
    _TRACER = tracer if tracer is not None else Tracer()
    return _TRACER


def disable_tracing() -> None:
    """Uninstall the active tracer; hooks revert to no-ops."""
    global _TRACER
    _TRACER = None


class use_tracer:
    """Context manager installing ``tracer`` for the duration and
    restoring the previous one after -- how parallel workers isolate
    their local registries from a (fork-inherited) parent tracer."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Optional[Tracer]:
        global _TRACER
        self._previous = _TRACER
        _TRACER = self._tracer
        return self._tracer

    def __exit__(self, *_exc) -> bool:
        global _TRACER
        _TRACER = self._previous
        return False


def span(name: str):
    """A timed region; free when tracing is disabled."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name)


def counter_add(name: str, value: Number = 1) -> None:
    """Increment a monotonic counter; free when tracing is disabled."""
    tracer = _TRACER
    if tracer is not None:
        tracer.add(name, value)


def gauge_set(name: str, value: Number) -> None:
    """Record a gauge observation; free when tracing is disabled."""
    tracer = _TRACER
    if tracer is not None:
        tracer.set(name, value)


def event(type_: str, **fields) -> None:
    """Append one structured event record to the active trace; free
    when tracing is disabled.

    Events land in the trace's chronological event stream next to span
    completions and worker-cell records.  Field values must be
    JSON-compatible.  The serving layer uses this for per-request
    records (``serve-request`` events carrying source, degradation and
    latency), which :func:`load_trace` returns verbatim for offline
    latency analysis.
    """
    tracer = _TRACER
    if tracer is not None:
        tracer.add_event({"type": type_, **fields})


# -- trace files: loading and summarizing ------------------------------

def load_trace(path: PathLike) -> Dict:
    """Parse a trace file into ``{"events", "counters", "gauges"}``.

    Raises
    ------
    ReproError
        On a missing header, wrong schema, or corrupt records.
    """
    try:
        with open(path) as handle:
            lines = [line for line in handle.read().split("\n") if line]
    except OSError as exc:
        raise ReproError(f"cannot read trace file {path}: {exc}") from exc
    if not lines:
        raise ReproError(f"{path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path} has a corrupt header") from exc
    if not isinstance(header, dict) or header.get("kind") != "trace":
        raise ReproError(f"{path} is not a trace file")
    if header.get("schema") != TRACE_SCHEMA:
        raise ReproError(
            f"{path} uses unsupported trace schema "
            f"{header.get('schema')!r} (expected {TRACE_SCHEMA})")
    events: List[Dict] = []
    counters: Dict[str, Number] = {}
    gauges: Dict[str, Number] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path}:{lineno} is corrupt") from exc
        kind = record.get("type")
        if kind == "counters":
            for name, value in record.get("values", {}).items():
                counters[name] = counters.get(name, 0) + value
        elif kind == "gauges":
            gauges.update(record.get("values", {}))
        else:
            events.append(record)
    return {"header": header, "events": events, "counters": counters,
            "gauges": gauges}


def aggregate_spans(events: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Per-path span statistics: count, total / mean / max seconds."""
    stats: Dict[str, Dict[str, float]] = {}
    for event in events:
        if event.get("type") != "span":
            continue
        path = event.get("path", event.get("name", "?"))
        dur = float(event.get("dur_s", 0.0))
        agg = stats.setdefault(path, {"count": 0, "total_s": 0.0,
                                      "max_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += dur
        agg["max_s"] = max(agg["max_s"], dur)
    for agg in stats.values():
        agg["mean_s"] = agg["total_s"] / agg["count"]
    return stats


def summarize_trace(trace: Dict) -> str:
    """Human-readable per-phase / per-counter summary of a loaded
    trace (the ``repro trace`` subcommand's output)."""
    from repro.analysis.formatting import format_table
    sections: List[str] = []
    spans = aggregate_spans(trace["events"])
    if spans:
        rows = [[path, agg["count"], agg["total_s"], agg["mean_s"],
                 agg["max_s"]]
                for path, agg in sorted(spans.items(),
                                        key=lambda kv: -kv[1]["total_s"])]
        sections.append(format_table(
            ["span", "count", "total s", "mean s", "max s"], rows,
            title="spans", precision=6))
    if trace["counters"]:
        rows = [[name, value]
                for name, value in sorted(trace["counters"].items())]
        sections.append(format_table(["counter", "total"], rows,
                                     title="counters"))
    wins = {name[len("solver/ratio/"):-len("_wins")]: value
            for name, value in trace["counters"].items()
            if name.startswith("solver/ratio/")
            and name.endswith("_wins") and "/" not in
            name[len("solver/ratio/"):-len("_wins")]}
    if wins:
        total = sum(wins.values())
        rows = [[method, value,
                 100.0 * value / total if total else 0.0]
                for method, value in sorted(wins.items(),
                                            key=lambda kv: -kv[1])]
        sections.append(format_table(
            ["method", "solves won", "share %"], rows,
            title="ratio method wins", precision=1))
    if trace["gauges"]:
        rows = [[name, value]
                for name, value in sorted(trace["gauges"].items())]
        sections.append(format_table(["gauge", "last value"], rows,
                                     title="gauges", precision=6))
    if not sections:
        return "(empty trace)"
    return "\n\n".join(sections)
