"""The single LIF sampling path and its independent reference.

``NeuromorphicCircuit.sample_cuts`` is a batch-of-1 engine call, so the
engine-equivalence tests are only meaningful while
:func:`repro.engine.sequential_solve` stays a separate implementation.  These
tests pin that independence, the circuit metadata a one-trial view carries,
and the engine spans the paper workloads now emit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.engine as engine_module
import repro.engine.simulator as simulator_module
from repro.circuits.config import LIFGWConfig, LIFTrevisanConfig
from repro.circuits.lif_gw import LIFGWCircuit
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.engine import (
    SolveRequest,
    coalesce_requests,
    sequential_solve,
    solve,
    split_result,
)
from repro.experiments.config import Figure3Config
from repro.experiments.figure3 import run_figure3_graph
from repro.obs.trace import capture
from repro.utils.rng import spawn_generators

GW_CONFIG = LIFGWConfig(burn_in_steps=20, sample_interval=3)
TR_CONFIG = LIFTrevisanConfig(burn_in_steps=20, sample_interval=3)


class _SimulatorUnavailable:
    def __init__(self, *args, **kwargs):
        raise AssertionError("the reference must not use BatchLIFSimulator")


class TestReferenceIndependence:
    @pytest.mark.parametrize("readout", ["membrane", "spike", "plasticity"])
    def test_reference_never_touches_the_batched_simulator(
        self, monkeypatch, small_er_graph, readout
    ):
        if readout == "plasticity":
            circuit = LIFTrevisanCircuit(small_er_graph, config=TR_CONFIG)
        else:
            config = LIFGWConfig(
                burn_in_steps=20, sample_interval=3, readout=readout
            )
            circuit = LIFGWCircuit(small_er_graph, config=config, seed=1)
        request = SolveRequest(circuit=circuit, n_trials=2, n_samples=6, seed=4)
        expected = solve(request)

        for module in (engine_module, simulator_module):
            monkeypatch.setattr(module, "BatchLIFSimulator", _SimulatorUnavailable)
        with pytest.raises(AssertionError):
            solve(request)
        reference = sequential_solve(request)

        assert reference.backend_name == "sequential"
        assert np.array_equal(reference.trajectories, expected.trajectories)
        assert np.array_equal(
            reference.trial_best_assignments, expected.trial_best_assignments
        )


class TestCircuitResultMetadata:
    def test_gw_view_keeps_circuit_metadata(self, small_er_graph):
        circuit = LIFGWCircuit(small_er_graph, config=GW_CONFIG, seed=2)
        result = solve(SolveRequest(circuit=circuit, n_trials=2, n_samples=5, seed=3))
        metadata = result.circuit_result(1).metadata
        assert metadata["sdp_objective"] == circuit.sdp_result.objective
        assert metadata["sdp_converged"] == circuit.sdp_result.converged
        assert metadata["sdp_stop_reason"] == circuit.sdp_result.stop_reason
        assert metadata["sdp_iterations"] == circuit.sdp_result.n_iterations
        assert metadata["rank"] == GW_CONFIG.rank
        assert metadata["n_devices"] == GW_CONFIG.rank
        assert metadata["readout"] == "membrane"
        assert metadata["trial"] == 1

    def test_tr_view_carries_its_own_trials_learner_state(self, small_er_graph):
        circuit = LIFTrevisanCircuit(small_er_graph, config=TR_CONFIG)
        result = solve(SolveRequest(circuit=circuit, n_trials=3, n_samples=4, seed=5))
        for trial in range(3):
            view = result.circuit_result(trial)
            direct = circuit.sample_cuts(
                4, seed=np.random.SeedSequence(5, spawn_key=(trial,))
            )
            assert np.array_equal(
                view.metadata["final_plasticity_weights"],
                direct.metadata["final_plasticity_weights"],
            )
            updates = view.metadata["n_plasticity_updates"]
            assert updates == 4 * TR_CONFIG.sample_interval
            assert view.metadata["learning_rate"] == TR_CONFIG.learning_rate
            assert view.metadata["n_devices"] == small_er_graph.n_vertices

    def test_split_result_narrows_per_trial_metadata(self, small_er_graph):
        circuit = LIFTrevisanCircuit(small_er_graph, config=TR_CONFIG)
        requests = [
            SolveRequest(circuit=circuit, n_trials=1, n_samples=4, seed=7),
            SolveRequest(circuit=circuit, n_trials=2, n_samples=4, seed=8),
        ]
        merged, slices = coalesce_requests(requests)
        for request, part in zip(requests, split_result(solve(merged), slices)):
            alone = solve(request)
            assert np.array_equal(
                part.metadata["final_plasticity_weights"],
                alone.metadata["final_plasticity_weights"],
            )
            assert np.array_equal(
                part.circuit_result(part.n_trials - 1).metadata[
                    "final_plasticity_weights"
                ],
                alone.circuit_result(alone.n_trials - 1).metadata[
                    "final_plasticity_weights"
                ],
            )


class TestSeedConversion:
    def test_generator_seed_consumes_the_same_draws(self, small_er_graph):
        """A Generator seed is converted once, exactly as spawn_generators does."""
        circuit = LIFGWCircuit(small_er_graph, config=GW_CONFIG, seed=1)
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        circuit.sample_cuts(3, seed=a)
        spawn_generators(b, 2)
        assert a.integers(0, 2**62) == b.integers(0, 2**62)


class TestPaperWorkloadSpans:
    def test_figure3_graph_runs_both_circuits_on_the_engine(self):
        config = Figure3Config(
            n_samples=8, n_solver_samples=4, seed=0,
            lif_gw=LIFGWConfig(
                burn_in_steps=10, sample_interval=2, sdp_max_iterations=50
            ),
            lif_tr=TR_CONFIG,
        )
        with capture() as trace:
            run_figure3_graph(12, 0.3, 0, config)
        by_id = {s.span_id: s for s in trace.spans}

        def ancestors(record):
            while record.parent_id is not None:
                record = by_id[record.parent_id]
                yield record

        (graph_span,) = [s for s in trace.spans if s.name == "figure3.graph"]
        solves = [s for s in trace.spans if s.name == "engine.solve"]
        assert sorted(s.attrs["circuit"] for s in solves) == ["lif_gw", "lif_tr"]
        for solve_span in solves:
            assert graph_span in ancestors(solve_span)
        integrates = [s for s in trace.spans if s.name == "engine.integrate"]
        for solve_span in solves:
            assert any(solve_span in ancestors(s) for s in integrates)
