"""Golden outputs of the paper workloads, pinned as exact values.

Every paper workload (Figure 3, Figure 4, Table I, the ablations) reaches
the LIF circuits through ``NeuromorphicCircuit.sample_cuts``.  These values
were recorded before ``sample_cuts`` was routed through the batched engine
and must never change under a refactor that claims to keep outputs
seed-for-seed identical.  A change that legitimately moves floats re-pins
them explicitly and says why.
"""

import numpy as np

from repro.circuits.config import LIFGWConfig, LIFTrevisanConfig
from repro.circuits.lif_gw import LIFGWCircuit
from repro.experiments.ablations import run_device_imperfection_ablation
from repro.experiments.config import (
    AblationConfig,
    Figure3Config,
    Figure4Config,
    Table1Config,
)
from repro.experiments.figure3 import run_figure3_graph
from repro.experiments.figure4 import run_figure4_panel
from repro.experiments.table1 import run_table1_row
from repro.graphs.generators import erdos_renyi
from repro.neurons.lif import LIFParameters

FAST_GW = LIFGWConfig(burn_in_steps=20, sample_interval=3, sdp_max_iterations=300)
FAST_TR = LIFTrevisanConfig(burn_in_steps=20, sample_interval=3, learning_rate=0.1)

FIGURE3 = {
    "sample_counts": [
        1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 15, 19, 22, 27, 32,
    ],
    "lif_gw": [
        0.9387755102040817, 0.9591836734693877, 0.9795918367346939,
        0.9795918367346939, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        1.0,
    ],
    "lif_tr": [
        0.5918367346938775, 0.5918367346938775, 0.5918367346938775,
        0.5918367346938775, 0.5918367346938775, 0.5918367346938775,
        0.5918367346938775, 0.5918367346938775, 0.6122448979591837,
        0.6326530612244898, 0.6326530612244898, 0.6326530612244898,
        0.6326530612244898, 0.6326530612244898, 0.6326530612244898,
    ],
    "solver": [
        0.9387755102040817, 0.9795918367346939, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
    ],
    "random": [
        0.6938775510204082, 0.6938775510204082, 0.7142857142857143,
        0.7346938775510204, 0.7346938775510204, 0.7346938775510204,
        0.7346938775510204, 0.7346938775510204, 0.7346938775510204,
        0.7346938775510204, 0.7346938775510204, 0.7346938775510204,
        0.7346938775510204, 0.7551020408163265, 0.8367346938775511,
    ],
    "solver_best": [
        49.0,
    ],
}

FIGURE4 = {
    "lif_gw": [
        0.9389312977099237, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        1.0, 1.0, 1.0, 1.0,
    ],
    "lif_tr": [
        0.6870229007633588, 0.6870229007633588, 0.6870229007633588,
        0.6870229007633588, 0.6870229007633588, 0.6870229007633588,
        0.7404580152671756, 0.7404580152671756, 0.7404580152671756,
        0.7404580152671756, 0.7404580152671756, 0.7404580152671756,
        0.7404580152671756, 0.7404580152671756, 0.7404580152671756,
    ],
    "solver": [
        0.9389312977099237, 0.9770992366412213, 0.9770992366412213,
        0.9847328244274809, 0.9847328244274809, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        1.0, 1.0, 1.0, 1.0,
    ],
    "random": [
        0.7022900763358778, 0.7022900763358778, 0.7099236641221374,
        0.7099236641221374, 0.8091603053435115, 0.8091603053435115,
        0.8091603053435115, 0.8091603053435115, 0.8091603053435115,
        0.8091603053435115, 0.8091603053435115, 0.8091603053435115,
        0.8091603053435115, 0.8091603053435115, 0.8091603053435115,
    ],
}

FIGURE4_BEST = {"lif_gw": 131.0, "lif_tr": 97.0, "solver": 131.0, "random": 106.0}

TABLE1 = {"lif_gw": 233.0, "lif_tr": 188.0, "solver": 235.0, "random": 192.0}

ABLATION_GW_CORRELATED = [
    0.9818181818181818, 0.9852941176470589,
]

ABLATION_TR_TELEGRAPH = [
    0.6909090909090909, 0.6470588235294118,
]

SPIKE_TRAJECTORY = [
    0.0, 4.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 11.0, 6.0, 0.0, 0.0, 4.0,
    5.0, 0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0,
]

SPIKE_BEST_ASSIGNMENT = [
    -1, -1, -1, -1, 1, -1, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, -1, -1,
]


def _assert_exact(actual, expected):
    actual = np.asarray(actual)
    assert actual.shape == np.asarray(expected).shape
    assert np.array_equal(actual, np.asarray(expected, dtype=actual.dtype))


def test_figure3_graph_pinned():
    config = Figure3Config(
        n_samples=32, n_solver_samples=16, seed=5, lif_gw=FAST_GW, lif_tr=FAST_TR
    )
    result = run_figure3_graph(20, 0.3, 0, config)
    assert set(result) == set(FIGURE3)
    for key, expected in FIGURE3.items():
        _assert_exact(result[key], expected)


def test_figure4_panel_pinned():
    config = Figure4Config(
        n_samples=32, n_solver_samples=16, seed=2, lif_gw=FAST_GW, lif_tr=FAST_TR
    )
    panel = run_figure4_panel("road-chesapeake", config, graph_index=1)
    assert set(panel.curves) == set(FIGURE4)
    for key, expected in FIGURE4.items():
        _assert_exact(panel.curves[key], expected)
    assert dict(panel.best_weights) == FIGURE4_BEST


def test_table1_row_pinned():
    config = Table1Config(
        n_samples=32, n_solver_samples=16, n_random_samples=32, seed=3,
        lif_gw=FAST_GW, lif_tr=FAST_TR,
    )
    row = run_table1_row("eco-stmarks", config, graph_index=2)
    assert dict(row.measured) == TABLE1


def test_device_ablation_pinned():
    """Non-default device pools: correlated devices (GW), telegraph noise (TR)."""
    config = AblationConfig(
        n_vertices=24, edge_probability=0.3, n_graphs=2, n_samples=6, seed=7
    )
    (gw,) = run_device_imperfection_ablation(config, circuit="lif_gw", only=[4])
    (tr,) = run_device_imperfection_ablation(config, circuit="lif_tr", only=[5])
    assert (gw.setting, tr.setting) == ("correlated_0.5", "telegraph_slow")
    _assert_exact(gw.per_graph, ABLATION_GW_CORRELATED)
    _assert_exact(tr.per_graph, ABLATION_TR_TELEGRAPH)


def test_spike_readout_sample_cuts_pinned():
    graph = erdos_renyi(18, 0.35, seed=41, name="er18")
    config = LIFGWConfig(
        burn_in_steps=25, sample_interval=4, readout="spike",
        lif=LIFParameters(threshold=0.1),
    )
    result = LIFGWCircuit(graph, config=config, seed=3).sample_cuts(24, seed=9)
    _assert_exact(result.trajectory.weights, SPIKE_TRAJECTORY)
    _assert_exact(result.best_cut.assignment, SPIKE_BEST_ASSIGNMENT)
    assert result.best_weight == 11.0
    assert (result.n_samples, result.n_steps) == (24, 121)
