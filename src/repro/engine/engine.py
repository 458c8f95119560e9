"""The batched solver engine: trial-parallel device + LIF simulation.

:class:`BatchedSolverEngine` owns batched stochastic-circuit simulation end
to end.  Given a :class:`repro.engine.request.SolveRequest` it

1. resolves the circuit (building it — SDP solve included — when given a
   name),
2. derives one ``SeedSequence`` per trial from the root seed,
3. draws every trial's device states through the circuit's own pool factory
   (:class:`repro.engine.sampler.BatchDeviceSampler`),
4. integrates all trials' membranes in lock-step
   (:class:`repro.engine.simulator.BatchLIFSimulator`) with the weight
   product routed through a pluggable dense/sparse backend, and
5. streams cut read-outs through a :class:`repro.engine.tracker.BestCutTracker`,
   optionally terminating early once the best-cut distribution plateaus.

With the default dense backend and early stopping disabled, the engine's
read-outs are bit-identical to :func:`sequential_solve`, the plan-driven
reference that simulates one trial at a time with
:class:`repro.neurons.lif.LIFPopulation` and the matching
``SeedSequence(root, spawn_key=(i,))`` seed.  ``circuit.sample_cuts`` is a
batch-of-1 engine call.

Trials are processed in memory-bounded blocks, so graph size x step count
never forces the full ``trials x steps x neurons`` current tensor into RAM.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.circuits.base import NeuromorphicCircuit
from repro.cuts.cut import BatchCutEvaluator, Cut, cut_weights_batch
from repro.engine.backends import WeightBackend
from repro.engine.coalesce import request_trial_seeds as _request_trial_seeds
from repro.engine.request import SolveRequest, SolveResult
from repro.engine.sampler import BatchDeviceSampler
from repro.engine.simulator import BatchLIFSimulator
from repro.engine.tracker import BestCutTracker
from repro.neurons.encoding import (
    membrane_sign_assignments,
    membrane_sign_assignments_xp,
    spikes_to_assignments,
    spikes_to_assignments_xp,
)
from repro.neurons.lif import LIFPopulation
from repro.obs.trace import span
from repro.utils.logging import get_logger
from repro.utils.rng import spawn_generators
from repro.utils.validation import ValidationError

__all__ = ["BatchedSolverEngine", "solve", "sequential_solve"]

_logger = get_logger("engine")


class BatchedSolverEngine:
    """Trial-parallel executor for circuits exposing an ``engine_plan``."""

    def solve(self, request: SolveRequest) -> SolveResult:
        """Run the batch described by *request* and return its result."""
        # Tracing wraps the run without touching it: spans consume no RNG
        # and alter no control flow, so results are bit-identical with
        # tracing on, off, or toggled mid-process.
        with span(
            "engine.solve", n_trials=request.n_trials, n_samples=request.n_samples
        ) as solve_span:
            result = self._solve(request)
            solve_span.set(
                graph=result.graph_name,
                circuit=result.circuit_name,
                backend=result.backend_name,
                n_rounds=result.n_rounds,
            )
            return result

    def _solve(self, request: SolveRequest) -> SolveResult:
        start = time.perf_counter()
        with span("engine.circuit_build"):
            circuit = self._resolve_circuit(request)
        graph = circuit.graph
        plan = circuit.engine_plan()
        n_neurons = plan.n_neurons
        n_steps = plan.burn_in + request.n_samples * plan.interval

        # One resolution point for both seams: the request's backend spec
        # ("auto", "sparse", "torch:dense", ...) picks the array namespace
        # and the weight backend together; an explicit weight name in the
        # spec always wins over the density heuristic.
        backend = WeightBackend.for_graph(
            graph, plan.weights, policy=request.backend,
            sparse_weights=plan.sparse_weights,
        )
        xp = backend.array

        if request.n_trials == 0:
            return self._empty_result(request, circuit, backend.name, graph)

        seeds = _request_trial_seeds(request)
        sampler = BatchDeviceSampler(
            circuit.build_device_pool, seeds, n_devices=plan.n_devices
        )
        simulator = BatchLIFSimulator(backend, plan.lif, n_neurons)
        ceiling = self._cut_ceiling(graph)
        deadline = (
            None if request.deadline_seconds is None
            else start + request.deadline_seconds
        )
        tracker = BestCutTracker(
            request.early_stop, ceiling=ceiling, deadline=deadline
        )

        trial_best_weights = np.full(request.n_trials, -np.inf)
        trial_best_assignments = np.zeros((request.n_trials, n_neurons), dtype=np.int8)
        trajectory_blocks: List[np.ndarray] = []
        potential_blocks: List[np.ndarray] = []
        assignment_blocks: List[np.ndarray] = []
        learners: List[object] = [None] * request.n_trials

        block_size = self._block_size(request, n_steps, n_neurons)
        blocks = [
            list(range(lo, min(lo + block_size, request.n_trials)))
            for lo in range(0, request.n_trials, block_size)
        ]
        rounds_limit = request.n_samples
        for block_index, trials in enumerate(blocks):
            with span(
                "engine.block", block=block_index, n_trials=len(trials)
            ):
                completed = self._run_block(
                    request, plan, graph, sampler, simulator, tracker,
                    trials, n_steps, rounds_limit,
                    trial_best_weights, trial_best_assignments,
                    trajectory_blocks, potential_blocks, assignment_blocks,
                    learners, allow_stop=(block_index == 0),
                )
            # The first block fixes the round count; later blocks replay it so
            # every trial's trajectory has the same length.  A wall-clock
            # deadline may truncate a later block further still — the final
            # round count is the minimum, enforced when stacking below.
            rounds_limit = completed

        n_rounds = rounds_limit
        best_trial = int(np.argmax(trial_best_weights))
        best_cut = Cut(
            assignment=trial_best_assignments[best_trial].copy(),
            weight=float(trial_best_weights[best_trial]),
            graph_name=graph.name,
        )
        elapsed = time.perf_counter() - start
        # "Early stopped" means the run was actually truncated.  The tracker
        # can also trip on the very last round, or during a later block's
        # replayed rounds (where stopping is disallowed); neither shortens
        # the run, so neither counts.
        early_stopped = n_rounds < request.n_samples
        plasticity = {}
        if plan.readout == "plasticity":
            plasticity = {
                "final_plasticity_weights": np.stack(
                    [learner.weights.copy() for learner in learners]
                ),
                "n_plasticity_updates": np.array(
                    [learner.n_updates for learner in learners]
                ),
            }
        _logger.debug(
            "engine: %s on %s, %d trials x %d/%d rounds via %s in %.3fs (best %.1f)",
            type(circuit).__name__, graph.name, request.n_trials, n_rounds,
            request.n_samples, backend.name, elapsed, best_cut.weight,
        )
        return SolveResult(
            graph_name=graph.name,
            circuit_name=circuit.name,
            backend_name=backend.name,
            n_trials=request.n_trials,
            n_samples=request.n_samples,
            n_rounds=n_rounds,
            n_steps=plan.burn_in + n_rounds * plan.interval,
            best_cut=best_cut,
            trial_best_weights=trial_best_weights,
            trial_best_assignments=trial_best_assignments,
            # Blocks are truncated to the final (minimum) round count: a
            # deadline firing in a later block shortens rounds_limit after
            # earlier blocks already recorded more rounds.  Their extra
            # rounds still contributed to the per-trial bests above — the
            # "partial but valid" contract — only the rectangular trajectory
            # tensor drops them.
            trajectories=np.vstack([t[:, :n_rounds] for t in trajectory_blocks]),
            early_stopped=early_stopped,
            elapsed_seconds=elapsed,
            potentials=(
                np.vstack([p[:, :n_rounds] for p in potential_blocks])
                if potential_blocks else None
            ),
            assignments=(
                np.vstack([a[:, :n_rounds] for a in assignment_blocks])
                if assignment_blocks else None
            ),
            metadata={
                "n_blocks": len(blocks),
                "n_devices": plan.n_devices,
                "readout": plan.readout,
                "array_backend": xp.name,
                "array_device": xp.device_label(),
                "early_stop_round": tracker.stop_round if early_stopped else None,
                "deadline_exceeded": tracker.deadline_exceeded,
                **plan.metadata,
                **plasticity,
            },
        )

    # ------------------------------------------------------------------
    def _run_block(
        self,
        request: SolveRequest,
        plan,
        graph,
        sampler: BatchDeviceSampler,
        simulator: BatchLIFSimulator,
        tracker: BestCutTracker,
        trials: Sequence[int],
        n_steps: int,
        rounds_limit: int,
        trial_best_weights: np.ndarray,
        trial_best_assignments: np.ndarray,
        trajectory_blocks: List[np.ndarray],
        potential_blocks: List[np.ndarray],
        assignment_blocks: List[np.ndarray],
        learners: List[object],
        allow_stop: bool,
    ) -> int:
        """Simulate one trial block; returns the number of rounds completed."""
        trials = list(trials)
        n_trials = len(trials)
        xp = simulator.xp
        evaluator = BatchCutEvaluator(graph, array_backend=xp)
        # Device sampling always covers the full requested step count so each
        # trial's RNG consumption matches the sequential path (the RNG bridge:
        # sampling stays on host NumPy whatever the array backend), but blocks
        # that replay an earlier block's truncated round count only pay the
        # weight product for the steps they will actually integrate.
        states = sampler.sample_block(trials, n_steps)
        needed_steps = plan.burn_in + rounds_limit * plan.interval
        if needed_steps < n_steps:
            states = states[:, :needed_steps]
        split = plan.burn_in if plan.readout == "spike" else 0
        # The one host->device transfer per block; identity on numpy.
        currents = simulator.drive_currents(xp.asarray(states), split_at=split)
        del states

        if plan.readout == "plasticity":
            for trial in trials:
                learners[trial] = plan.plasticity_builder(
                    sampler.aux_generator(trial)
                )
            rounds = simulator.iter_subthreshold_rounds(
                currents, plan.burn_in, plan.interval, rounds_limit
            )
        elif plan.readout == "membrane":
            rounds = simulator.iter_membrane_readouts(
                currents, plan.burn_in, plan.interval, rounds_limit
            )
        else:
            rounds = simulator.iter_spike_readouts(
                currents, plan.burn_in, plan.interval, rounds_limit
            )

        trial_index = np.asarray(trials)
        trajectories = np.zeros((n_trials, rounds_limit))
        potentials_out = (
            np.zeros((n_trials, rounds_limit, plan.n_neurons))
            if request.record_potentials and plan.readout != "spike"
            else None
        )
        assignments_out = (
            np.zeros((n_trials, rounds_limit, plan.n_neurons), dtype=np.int8)
            if request.record_assignments
            else None
        )

        tracker.start_block()
        completed = 0
        with span(
            "engine.integrate", n_trials=n_trials, rounds_limit=rounds_limit,
            readout=plan.readout,
        ) as integrate_span:
            for r, payload in rounds:
                # Assignments are computed in the array namespace; only the
                # small per-round products (cut weights, int8 assignments,
                # recorded potentials) cross back to the host, where the
                # tracker and the per-trial bests live.  Every `to_numpy`
                # below is the identity on the numpy backend, so the host
                # path is unchanged bitwise.
                if plan.readout == "membrane":
                    readout_rows = None
                    if potentials_out is not None:
                        readout_rows = xp.to_numpy(payload)
                    assignments = membrane_sign_assignments_xp(xp, payload)
                elif plan.readout == "spike":
                    readout_rows = None
                    assignments = spikes_to_assignments_xp(xp, payload)
                else:
                    # Plasticity learners are host objects (the circuits' own
                    # rule implementations), so this read-out bridges each
                    # round's rows back to NumPy before stepping them.
                    rows = xp.to_numpy(payload)
                    readout_rows = rows[:, -1]
                    assignments = np.empty((n_trials, plan.n_neurons), dtype=np.int8)
                    for j, trial in enumerate(trials):
                        learner = learners[trial]
                        for k in range(plan.interval):
                            learner.step(rows[j, k])
                        assignments[j] = learner.sign_assignment()

                weights = xp.to_numpy(evaluator.weights(assignments))
                assignments = xp.to_numpy(assignments)
                trajectories[:, r] = weights
                if potentials_out is not None and readout_rows is not None:
                    potentials_out[:, r] = readout_rows
                if assignments_out is not None:
                    assignments_out[:, r] = assignments

                improved = weights > trial_best_weights[trial_index]
                if improved.any():
                    trial_best_weights[trial_index[improved]] = weights[improved]
                    trial_best_assignments[trial_index[improved]] = assignments[improved]

                completed = r + 1
                if tracker.update(r, weights) and (
                    allow_stop or tracker.deadline_exceeded
                ):
                    # Plateau/ceiling stops are only honoured in the first
                    # block (later blocks replay its round count); the
                    # wall-clock deadline truncates wherever it fires.
                    break
            integrate_span.set(rounds_completed=completed)

        trajectory_blocks.append(trajectories[:, :completed])
        if potentials_out is not None:
            potential_blocks.append(potentials_out[:, :completed])
        if assignments_out is not None:
            assignment_blocks.append(assignments_out[:, :completed])
        return completed

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_circuit(request: SolveRequest) -> NeuromorphicCircuit:
        if isinstance(request.circuit, NeuromorphicCircuit):
            return request.circuit
        name = request.circuit
        if name == "lif_gw":
            from repro.circuits.lif_gw import LIFGWCircuit

            return LIFGWCircuit(request.graph, config=request.config, seed=request.seed)
        if name == "lif_tr":
            from repro.circuits.lif_trevisan import LIFTrevisanCircuit

            return LIFTrevisanCircuit(request.graph, config=request.config)
        raise ValidationError(
            f"unknown circuit {name!r}; expected 'lif_gw' or 'lif_tr' "
            "or a NeuromorphicCircuit instance"
        )

    @staticmethod
    def _cut_ceiling(graph) -> Optional[float]:
        """Total edge weight, valid as a cut upper bound only if no weight is negative."""
        if graph.n_edges == 0:
            return None
        weights = graph.edge_weights
        if np.all(weights >= 0):
            return float(weights.sum())
        return None

    @staticmethod
    def _block_size(request: SolveRequest, n_steps: int, n_neurons: int) -> int:
        """Trials per block such that the current buffer stays under the cap."""
        bytes_per_trial = max(1, n_steps * n_neurons * 8)
        by_memory = max(1, request.max_block_bytes // bytes_per_trial)
        return int(min(request.n_trials, by_memory))

    @staticmethod
    def _empty_result(
        request: SolveRequest, circuit, backend_name: str, graph
    ) -> SolveResult:
        n_neurons = graph.n_vertices
        return SolveResult(
            graph_name=graph.name,
            circuit_name=circuit.name,
            backend_name=backend_name,
            n_trials=0,
            n_samples=request.n_samples,
            n_rounds=0,
            n_steps=0,
            best_cut=None,
            trial_best_weights=np.zeros(0),
            trial_best_assignments=np.zeros((0, n_neurons), dtype=np.int8),
            trajectories=np.zeros((0, 0)),
            early_stopped=False,
            elapsed_seconds=0.0,
            metadata={"n_blocks": 0},
        )


def solve(request: SolveRequest) -> SolveResult:
    """Module-level convenience wrapper: ``BatchedSolverEngine().solve(request)``."""
    return BatchedSolverEngine().solve(request)


def sequential_solve(request: SolveRequest) -> SolveResult:
    """Reference implementation: the circuit's ``BatchPlan``, one trial at a time.

    Each trial replays the engine's RNG chain (``spawn_generators(seed, 2)``
    into device and plasticity streams, one ``pool.sample`` call) and
    integrates a fresh :class:`~repro.neurons.lif.LIFPopulation` with
    ``run`` (spike read-out) or ``run_subthreshold`` (membrane and
    plasticity read-outs).  It shares no integration code with
    :class:`BatchedSolverEngine`, so it is the oracle the engine-equivalence
    tests and the throughput benchmarks measure against; early stopping and
    backend selection do not apply.
    """
    start = time.perf_counter()
    engine = BatchedSolverEngine()
    circuit = engine._resolve_circuit(request)
    graph = circuit.graph
    plan = circuit.engine_plan()
    n_samples, interval = request.n_samples, plan.interval
    n_steps = plan.burn_in + n_samples * interval
    if request.n_trials == 0:
        return engine._empty_result(request, circuit, "sequential", graph)

    trajectories = np.zeros((request.n_trials, n_samples))
    best_weights = np.full(request.n_trials, -np.inf)
    best_assignments = np.zeros((request.n_trials, plan.n_neurons), dtype=np.int8)
    for i, trial_seed in enumerate(_request_trial_seeds(request)):
        device_rng, aux_rng = spawn_generators(trial_seed, 2)
        states = plan.pool_builder(device_rng).sample(n_steps)
        population = LIFPopulation(plan.weights, params=plan.lif)
        if plan.readout == "spike":
            spikes = population.run(states, burn_in=plan.burn_in)["spikes"]
            assignments = spikes_to_assignments(spikes[interval - 1 :: interval])
        elif plan.readout == "membrane":
            potentials = population.run_subthreshold(states, burn_in=plan.burn_in)
            assignments = membrane_sign_assignments(potentials[interval - 1 :: interval])
        else:
            potentials = population.run_subthreshold(states, burn_in=plan.burn_in)
            learner = plan.plasticity_builder(aux_rng)
            assignments = np.empty((n_samples, plan.n_neurons), dtype=np.int8)
            for r in range(n_samples):
                for row in potentials[r * interval : (r + 1) * interval]:
                    learner.step(row)
                assignments[r] = learner.sign_assignment()
        weights = cut_weights_batch(graph, assignments)
        best = int(np.argmax(weights))
        trajectories[i] = weights
        best_weights[i] = weights[best]
        best_assignments[i] = assignments[best]
    best_trial = int(np.argmax(best_weights))
    best_cut = Cut(
        assignment=best_assignments[best_trial].copy(),
        weight=float(best_weights[best_trial]),
        graph_name=graph.name,
    )
    return SolveResult(
        graph_name=graph.name,
        circuit_name=circuit.name,
        backend_name="sequential",
        n_trials=request.n_trials,
        n_samples=n_samples,
        n_rounds=n_samples,
        n_steps=n_steps,
        best_cut=best_cut,
        trial_best_weights=best_weights,
        trial_best_assignments=best_assignments,
        trajectories=trajectories,
        elapsed_seconds=time.perf_counter() - start,
        metadata={"sequential": True},
    )
