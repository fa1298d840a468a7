"""Tests for the exception hierarchy."""

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, errors.ReproError)


def test_subsystem_bases():
    assert issubclass(errors.UnknownBlockError, errors.ChainError)
    assert issubclass(errors.DuplicateBlockError, errors.ChainError)
    assert issubclass(errors.InvalidTransitionError, errors.MDPError)
    assert issubclass(errors.SolverError, errors.MDPError)
    assert issubclass(errors.InvalidPowerVectorError, errors.GameError)


def test_catch_all_surface():
    """One except clause covers any library failure."""
    with pytest.raises(errors.ReproError):
        raise errors.SimulationError("boom")
    with pytest.raises(errors.ReproError):
        raise errors.NoActionError("boom")


class TestEveryErrorIsRaisedByTheLibrary:
    """Each concrete error class must be reachable through a real API
    path -- dead error classes hide behind the hierarchy otherwise."""

    def test_unknown_block_error(self, tree):
        with pytest.raises(errors.UnknownBlockError):
            tree.get("no-such-block")

    def test_duplicate_block_error(self, tree):
        from repro.chain.block import make_block
        block = make_block(tree.genesis, size=1.0, miner="m")
        tree.add(block)
        with pytest.raises(errors.DuplicateBlockError):
            tree.add(block)

    def test_orphan_parent_error(self, tree):
        from repro.chain.block import make_block
        orphaned = make_block(make_block(tree.genesis, size=1.0, miner="m"),
                              size=1.0, miner="m")
        with pytest.raises(errors.OrphanParentError):
            tree.add(orphaned)

    def test_invalid_block_error(self, tree):
        from repro.chain.block import make_block
        with pytest.raises(errors.InvalidBlockError):
            make_block(tree.genesis, size=-1.0, miner="m")

    def test_invalid_transition_error(self):
        from repro.mdp.builder import MDPBuilder
        b = MDPBuilder(actions=["a"], channels=["r"])
        b.add(0, "a", 0, 0.5)  # probabilities sum to 0.5, not 1
        with pytest.raises(errors.InvalidTransitionError):
            b.build(start=0)

    def test_no_action_error(self):
        from repro.mdp.builder import MDPBuilder
        b = MDPBuilder(actions=["a"], channels=["r"])
        b.add(0, "a", 1, 1.0)  # state 1 has no outgoing action
        with pytest.raises(errors.NoActionError):
            b.build(start=0)

    def _ratio_mdp(self):
        from repro.mdp.builder import MDPBuilder
        b = MDPBuilder(actions=["a"], channels=["num", "den"])
        b.add(0, "a", 0, 1.0, num=1.0, den=1.0)
        return b.build(start=0)

    def test_solver_error(self):
        from repro.mdp.ratio import maximize_ratio
        with pytest.raises(errors.SolverError):
            maximize_ratio(self._ratio_mdp(), {"num": 1.0}, {"den": 1.0},
                           lo=1.0, hi=1.0)

    def test_solver_input_error(self):
        from repro.mdp.ratio import maximize_ratio
        with pytest.raises(errors.SolverInputError):
            maximize_ratio(self._ratio_mdp(), {}, {"den": 1.0},
                           lo=0.0, hi=1.0)

    def test_solver_diverged_error(self, monkeypatch):
        import numpy as np

        from repro.runtime import supervisor

        class FakeSolution:
            gain = np.nan
            policy = np.zeros(1, dtype=int)

        def stage(_request, _clock):
            return FakeSolution()

        monkeypatch.setattr(supervisor, "AVERAGE_CHAIN", (("fake", stage),))
        with pytest.raises(errors.SolverDivergedError):
            supervisor.solve_average(self._ratio_mdp(), np.zeros((1, 1)))

    def test_solver_budget_exceeded_error(self):
        from repro.runtime import Budget
        clock = Budget(max_ticks=1).start()
        clock.tick()
        with pytest.raises(errors.SolverBudgetExceededError):
            clock.tick()

    def test_fallback_exhausted_error(self):
        from repro.runtime import run_chain

        def failing(_request, _clock):
            raise errors.SolverError("nope")

        with pytest.raises(errors.FallbackExhaustedError):
            run_chain((("only", failing),), request=None)

    def test_invalid_power_vector_error(self):
        from repro.games import EBChoosingGame
        with pytest.raises(errors.InvalidPowerVectorError):
            EBChoosingGame([0.5, 0.6])

    def test_simulation_error(self):
        from repro.sim.network import NetworkSimulation
        with pytest.raises(errors.SimulationError):
            NetworkSimulation([])

    def test_fault_injection_error(self):
        from repro.runtime import FaultPlan
        with pytest.raises(errors.FaultInjectionError):
            FaultPlan(loss_rate=-0.1)

    def test_checkpoint_error(self, tmp_path):
        from repro.runtime import Journal
        Journal(tmp_path / "j", sweep="one")
        with pytest.raises(errors.CheckpointError):
            Journal(tmp_path / "j", sweep="two")

    def test_repro_error_from_store(self, tmp_path):
        from repro.analysis.store import load_table
        path = tmp_path / "bogus.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(errors.ReproError):
            load_table(path)

    def test_subsystem_bases_catch_their_errors(self, tree):
        from repro.mdp.ratio import maximize_ratio
        with pytest.raises(errors.ChainError):
            tree.get("missing")
        with pytest.raises(errors.MDPError):
            maximize_ratio(self._ratio_mdp(), {"num": 1.0}, {"den": 1.0},
                           lo=2.0, hi=1.0)
        with pytest.raises(errors.GameError):
            from repro.games import EBChoosingGame
            EBChoosingGame([1.0])
