"""Benchmark: the solver arena's engine route vs. the per-trial reference.

The arena's promise is that batchable circuits ride the trial-parallel
engine for free.  This benchmark times the same LIF-TR trials two ways —
inside a 3-solver arena race (engine route) and one trial at a time through
the ``sequential_solve`` reference — so the engine's contribution to
end-to-end comparison wall time is visible next to the timing numbers.
Both legs must produce identical per-trial best cuts.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import sample_budget
from repro.experiments.reporting import format_arena_leaderboard
from repro.experiments.runner import run_circuit_trials
from repro.graphs.generators import erdos_renyi
from repro.utils.rng import paired_seed
from repro.workloads import arena_result_from_report, run_workload

SOLVERS = ("lif_tr", "random", "trevisan")
SEED = 17
TRIALS = 8


@pytest.fixture(scope="module")
def arena_graphs():
    return [
        erdos_renyi(80, 0.25, seed=21, name="arena_er80"),
        erdos_renyi(120, 0.15, seed=22, name="arena_er120"),
    ]


def _run_arena(graphs):
    return arena_result_from_report(run_workload(
        "arena", solvers=SOLVERS, suite=graphs, trials=TRIALS,
        samples=sample_budget(128, 1024), seed=SEED,
    ))


def _run_reference(graphs):
    return [
        run_circuit_trials(
            graph, circuit="lif_tr", n_trials=TRIALS,
            n_samples=sample_budget(128, 1024), seed=paired_seed(SEED, g),
            use_engine=False,
        ).trial_best_weights.tolist()
        for g, graph in enumerate(graphs)
    ]


@pytest.mark.slow
@pytest.mark.parametrize("route", ["engine", "sequential"])
def test_bench_arena_routing(benchmark, arena_graphs, route):
    """Time LIF-TR's arena trials on the engine route or the reference."""
    if route == "engine":
        result = benchmark.pedantic(
            _run_arena, args=(arena_graphs,), iterations=1, rounds=1,
        )
        reference = _run_reference(arena_graphs)
    else:
        reference = benchmark.pedantic(
            _run_reference, args=(arena_graphs,), iterations=1, rounds=1,
        )
        result = _run_arena(arena_graphs)

    for g, graph in enumerate(arena_graphs):
        entries = {e.solver: e for e in result.entries_for_graph(graph.name)}
        assert entries["lif_tr"].used_engine
        assert entries["lif_tr"].metadata["trial_weights"] == reference[g]
    print("\n" + format_arena_leaderboard(result))
