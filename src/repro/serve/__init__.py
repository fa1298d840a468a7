"""Solver-as-a-service: the resilient serving layer.

``repro serve`` answers policy/utility queries for arbitrary
``(incentive model, MG/EB/AD, alpha, gamma, lookahead)`` configurations
from a persistent, content-addressed policy atlas, with a full
resilience layer in front of the solvers:

- :mod:`repro.serve.atlas` -- :class:`PolicyAtlas`, the crash-safe
  artifact store (per-entry SHA-256 checksums, schema validation on
  load, quarantine-and-resolve for corrupt entries), fronted by an
  in-memory digest index plus a bounded LRU cache of hot policy
  bodies so repeat ``get``/``nearest`` queries do zero disk reads;
- :mod:`repro.serve.service` -- :class:`SolverService`, the asyncio
  service: single-flight request coalescing, admission control with
  explicit backpressure, deadline propagation with jittered
  exponential-backoff retries, and graceful degradation (flagged
  nearest-neighbor atlas entries or reduced-lookahead solves); plus
  multi-process batch workers sharing one atlas directory;
- :mod:`repro.serve.http` -- the stdlib/asyncio HTTP front-end
  (``POST /solve``, ``GET /health``) with typed JSON error bodies and
  an error-type -> status mapping (429/503/413/...);
- :mod:`repro.serve.warm` -- ``repro serve --warm``: journal-resumable
  precompute of the paper's parameter grids into the atlas through
  the shared process-parallel sweep runner;
- :mod:`repro.serve.chaos` -- the chaos harness injecting solver
  hangs, worker crashes, artifact corruption and clock skew into a
  running service, plus the resilience and cache-coherence invariant
  checks.

See ``docs/robustness.md`` ("Serving and degraded modes", "Serving at
scale") for the semantics and the README for a quickstart.
"""

from repro.serve.atlas import PolicyAtlas, atlas_key, key_digest
from repro.serve.http import serve_http
from repro.serve.service import (
    RetryPolicy,
    ServeResponse,
    SolveRequest,
    SolverService,
    serve_batch_multiprocess,
)
from repro.serve.warm import WarmReport, warm_atlas

__all__ = [
    "PolicyAtlas",
    "RetryPolicy",
    "ServeResponse",
    "SolveRequest",
    "SolverService",
    "WarmReport",
    "atlas_key",
    "key_digest",
    "serve_batch_multiprocess",
    "serve_http",
    "warm_atlas",
]
