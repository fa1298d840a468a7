"""Differential-testing and conformance tooling (``repro.qa``).

The paper's headline numbers rest on the agreement of five independent
solver paths (value iteration, policy iteration, relative value
iteration, the occupation-measure LP and the Dinkelbach/bisection ratio
solvers).  Nothing in the float solvers themselves can certify that
agreement -- a confidently-wrong solver produces finite, plausible
numbers.  This package closes that gap:

- :mod:`repro.qa.exact` -- ``fractions.Fraction`` reference
  implementations of policy evaluation (gain/bias), stationary
  distributions, Howard policy iteration, discounted solves and the
  Dinkelbach ratio iteration.  They terminate with exact rational
  certificates (``f(rho*) == 0``) instead of float tolerances.
- :mod:`repro.qa.generators` -- seeded adversarial MDP instance
  generators: unichain, multichain, periodic chains, near-degenerate
  probabilities (~1e-12 mass), duplicated actions, reward channels
  spanning ~8 orders of magnitude and acyclic block races.
  Probabilities and rewards are dyadic rationals, so
  ``Fraction(float)`` round-trips exactly and the exact solvers stay
  fast.
- :mod:`repro.qa.conformance` -- the differential runner: every float
  solver runs on the same instances and is checked against the exact
  reference within certified per-solver tolerances, producing a
  per-(solver, instance-class) matrix; metamorphic invariants (reward
  shift/scale equivariance, state-permutation invariance,
  duplicate-action no-op) ride along.

Entry points: the ``repro qa`` CLI command, the ``conformance`` pytest
marker, and :func:`repro.qa.conformance.run_conformance` for
programmatic use.  See ``docs/correctness.md``.
"""

from repro.qa.exact import (
    ExactAverageSolution,
    ExactDiscountedSolution,
    ExactRatioSolution,
    exact_channel_gains,
    exact_discounted_solve,
    exact_gain_bias,
    exact_policy_iteration,
    exact_ratio,
    exact_stationary,
)
from repro.qa.generators import (
    INSTANCE_CLASSES,
    QAInstance,
    make_instance,
    permute_mdp,
    with_duplicate_action,
)
from repro.qa.conformance import (
    CHECKS,
    ConformanceCell,
    ConformanceReport,
    run_cell,
    run_conformance,
)

__all__ = [
    "ExactAverageSolution",
    "ExactDiscountedSolution",
    "ExactRatioSolution",
    "exact_channel_gains",
    "exact_discounted_solve",
    "exact_gain_bias",
    "exact_policy_iteration",
    "exact_ratio",
    "exact_stationary",
    "INSTANCE_CLASSES",
    "QAInstance",
    "make_instance",
    "permute_mdp",
    "with_duplicate_action",
    "CHECKS",
    "ConformanceCell",
    "ConformanceReport",
    "run_cell",
    "run_conformance",
]
