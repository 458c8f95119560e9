"""Tests for the Burer-Monteiro MAXCUT SDP solver."""

import numpy as np
import pytest

from repro.cuts.exact import exact_maxcut_value
from repro.graphs.generators import complete_bipartite, complete_graph, cycle_graph, erdos_renyi
from repro.graphs.graph import Graph
from repro.sdp.burer_monteiro import sdp_objective, solve_maxcut_sdp
from repro.sdp.manifold import (
    is_on_manifold,
    project_rows_to_sphere,
    random_oblique_point,
    retract,
    tangent_project,
)
from repro.utils.validation import ValidationError


def _edge_gather_loop(
    graph,
    rank=4,
    max_iterations=2000,
    tolerance=1e-6,
    initial_step=1.0,
    seed=None,
    initial_vectors=None,
):
    """Frozen oracle: the ascent loop before the one-product-per-trial rewrite.

    Every Armijo trial evaluates the objective by an edge gather and the
    gradient is a separate ``-(A @ W)`` product.  A failed line search is
    reported as ``converged=True`` here, as it was then.  Used only to pin the
    solver's iterates; returns ``(vectors, objective, n_iterations, converged)``.
    """
    if initial_vectors is not None:
        W = project_rows_to_sphere(np.asarray(initial_vectors, dtype=np.float64))
    else:
        W = random_oblique_point(graph.n_vertices, rank, seed=seed)
    scale = max(graph.total_weight, 1.0)
    objective = sdp_objective(graph, W)
    step = float(initial_step)
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        euclidean_grad = -(graph.adjacency_sparse() @ W)
        riemannian_grad = tangent_project(W, euclidean_grad)
        grad_norm = float(np.linalg.norm(riemannian_grad))
        if grad_norm <= tolerance * scale:
            converged = True
            break
        improved = False
        trial_step = step
        for _ in range(40):
            candidate = retract(W, trial_step * riemannian_grad)
            candidate_objective = sdp_objective(graph, candidate)
            if candidate_objective >= objective + 1e-4 * trial_step * grad_norm**2 / scale:
                W = candidate
                objective = candidate_objective
                step = min(trial_step * 2.0, 1e3)
                improved = True
                break
            trial_step *= 0.5
        if not improved:
            converged = True
            break
    return W, objective, iteration, converged


def _mixed_sign_graph():
    rng = np.random.default_rng(31)
    base = erdos_renyi(60, 0.15, seed=32)
    weights = rng.uniform(-1.0, 2.0, size=base.n_edges)
    return Graph(60, [(int(u), int(v), float(w)) for (u, v), w in zip(base.edges, weights)])


def _isolated_vertex_graph():
    # Edges among the first 20 vertices; the last 10 touch no edge.
    base = erdos_renyi(20, 0.3, seed=33)
    return Graph(30, [(int(u), int(v)) for u, v in base.edges])


_PIN_GRID = {
    "er100-rank4": (lambda: erdos_renyi(100, 0.1, seed=21), dict(rank=4, seed=22)),
    "er100-rank16": (lambda: erdos_renyi(100, 0.1, seed=21), dict(rank=16, seed=23)),
    "er128-rank4": (lambda: erdos_renyi(128, 0.1, seed=24), dict(rank=4, seed=25)),
    "mixed-sign-weights": (_mixed_sign_graph, dict(rank=4, seed=26)),
    "isolated-vertices": (_isolated_vertex_graph, dict(rank=4, seed=27)),
    "warm-start": (lambda: erdos_renyi(100, 0.1, seed=28), dict(rank=4, warm=True)),
    "max-iterations-cap": (
        lambda: erdos_renyi(100, 0.1, seed=29), dict(rank=4, seed=30, max_iterations=50)
    ),
}


class TestObjective:
    def test_zero_for_identical_vectors(self, triangle):
        W = np.tile(np.array([1.0, 0.0]), (3, 1))
        assert sdp_objective(triangle, W) == pytest.approx(0.0)

    def test_full_cut_for_antipodal_bipartite(self, small_bipartite):
        n_left = 3
        W = np.zeros((small_bipartite.n_vertices, 2))
        W[:n_left, 0] = 1.0
        W[n_left:, 0] = -1.0
        assert sdp_objective(small_bipartite, W) == pytest.approx(
            small_bipartite.total_weight
        )

    def test_matches_cut_value_for_spin_embedding(self, small_er_graph, rng):
        from repro.cuts.cut import cut_weight

        v = np.where(rng.random(small_er_graph.n_vertices) < 0.5, 1.0, -1.0)
        W = np.zeros((small_er_graph.n_vertices, 3))
        W[:, 0] = v
        assert sdp_objective(small_er_graph, W) == pytest.approx(
            cut_weight(small_er_graph, v.astype(int))
        )

    def test_wrong_shape_raises(self, triangle):
        with pytest.raises(ValidationError):
            sdp_objective(triangle, np.ones((5, 2)))

    def test_empty_graph(self, empty_graph):
        assert sdp_objective(empty_graph, np.ones((5, 2))) == 0.0


class TestSolver:
    def test_result_on_manifold(self, small_er_graph):
        result = solve_maxcut_sdp(small_er_graph, rank=4, seed=0)
        assert is_on_manifold(result.vectors)

    def test_objective_history_monotone(self, small_er_graph):
        result = solve_maxcut_sdp(small_er_graph, rank=4, seed=0)
        history = np.array(result.objective_history)
        assert np.all(np.diff(history) >= -1e-9)

    def test_objective_upper_bounds_maxcut(self, small_er_graph):
        # with a generous rank the BM solution reaches the SDP optimum >= OPT
        opt = exact_maxcut_value(small_er_graph)
        result = solve_maxcut_sdp(small_er_graph, rank=8, seed=1)
        assert result.objective >= opt - 1e-6

    def test_bipartite_reaches_total_weight(self, small_bipartite):
        result = solve_maxcut_sdp(small_bipartite, rank=4, seed=2)
        assert result.objective == pytest.approx(small_bipartite.total_weight, rel=1e-3)

    def test_triangle_sdp_value(self, triangle):
        # SDP value of K3 is 9/4 (vectors at 120 degrees)
        result = solve_maxcut_sdp(triangle, rank=3, seed=3)
        assert result.objective == pytest.approx(2.25, abs=1e-3)

    def test_five_cycle_sdp_value(self, five_cycle):
        # SDP value of C5 is (5/2)(1 + cos(pi/5)) ~ 4.5225
        result = solve_maxcut_sdp(five_cycle, rank=4, seed=4)
        expected = 2.5 * (1.0 + np.cos(np.pi / 5.0))
        assert result.objective == pytest.approx(expected, abs=1e-2)

    def test_gram_matrix_unit_diagonal_psd(self, small_er_graph):
        result = solve_maxcut_sdp(small_er_graph, rank=5, seed=5)
        X = result.gram_matrix
        np.testing.assert_allclose(np.diag(X), 1.0, atol=1e-9)
        eigenvalues = np.linalg.eigvalsh(X)
        assert eigenvalues.min() >= -1e-9

    def test_warm_start(self, small_er_graph):
        first = solve_maxcut_sdp(small_er_graph, rank=4, seed=6, max_iterations=20)
        warm = solve_maxcut_sdp(
            small_er_graph, rank=4, initial_vectors=first.vectors, max_iterations=500
        )
        assert warm.objective >= first.objective - 1e-9

    def test_warm_start_wrong_shape_raises(self, small_er_graph):
        with pytest.raises(ValidationError):
            solve_maxcut_sdp(small_er_graph, rank=4, initial_vectors=np.ones((3, 4)))

    def test_invalid_rank_raises(self, triangle):
        with pytest.raises(ValidationError):
            solve_maxcut_sdp(triangle, rank=0)

    def test_negative_iterations_raises(self, triangle):
        with pytest.raises(ValidationError):
            solve_maxcut_sdp(triangle, max_iterations=-1)

    def test_empty_graph_short_circuit(self, empty_graph):
        result = solve_maxcut_sdp(empty_graph, rank=3)
        assert result.objective == 0.0
        assert result.converged
        assert result.stop_reason == "tolerance"

    def test_zero_iterations(self, small_er_graph):
        result = solve_maxcut_sdp(small_er_graph, rank=4, max_iterations=0, seed=1)
        assert result.n_iterations == 0
        assert result.stop_reason == "max_iterations"
        assert not result.converged

    def test_reproducible_given_seed(self, small_er_graph):
        a = solve_maxcut_sdp(small_er_graph, rank=4, seed=42)
        b = solve_maxcut_sdp(small_er_graph, rank=4, seed=42)
        np.testing.assert_allclose(a.vectors, b.vectors)

    def test_rank4_close_to_high_rank(self):
        # the paper fixes rank 4; on modest graphs that already matches the SDP value
        g = erdos_renyi(25, 0.4, seed=7)
        low = solve_maxcut_sdp(g, rank=4, seed=8).objective
        high = solve_maxcut_sdp(g, rank=10, seed=9).objective
        assert low >= 0.97 * high


class TestStopReason:
    def test_tolerance(self, small_er_graph):
        result = solve_maxcut_sdp(small_er_graph, rank=4, seed=0)
        assert result.stop_reason == "tolerance"
        assert result.converged
        assert result.n_iterations < 2000

    def test_max_iterations(self, small_er_graph):
        result = solve_maxcut_sdp(small_er_graph, rank=4, seed=0, max_iterations=5)
        assert result.stop_reason == "max_iterations"
        assert not result.converged
        assert result.n_iterations == 5
        assert len(result.objective_history) == 6

    def test_line_search(self):
        # From a converged point with a zero tolerance the ascent runs on until
        # row renormalisation noise makes every Armijo trial a (1-ulp) loss.
        graph = erdos_renyi(12, 0.5, seed=1)
        first = solve_maxcut_sdp(graph, rank=4, seed=0)
        assert first.stop_reason == "tolerance"
        result = solve_maxcut_sdp(
            graph, rank=4, initial_vectors=first.vectors, tolerance=0.0
        )
        assert result.stop_reason == "line_search"
        assert not result.converged
        assert result.n_iterations < 2000
        assert result.objective_history[-1] == result.objective_history[-2]
        assert result.objective >= first.objective - 1e-9

    @pytest.mark.parametrize("graph", [Graph(0, []), Graph(4, [])], ids=["empty", "edgeless"])
    def test_edgeless_graphs_are_tolerance(self, graph):
        for max_iterations in (0, 10):
            result = solve_maxcut_sdp(graph, rank=3, seed=0, max_iterations=max_iterations)
            assert result.stop_reason == "tolerance"
            assert result.converged
            assert result.n_iterations == 0

    def test_objective_is_edge_sum_of_returned_vectors(self, medium_er_graph):
        for max_iterations in (0, 7, 2000):
            result = solve_maxcut_sdp(
                medium_er_graph, rank=4, seed=3, max_iterations=max_iterations
            )
            assert result.objective == sdp_objective(medium_er_graph, result.vectors)


class TestIterateBitIdentity:
    """The one-product loop walks exactly the iterates of the edge-gather loop."""

    @pytest.mark.parametrize("case", sorted(_PIN_GRID))
    def test_matches_edge_gather_loop(self, case):
        make_graph, options = _PIN_GRID[case]
        graph = make_graph()
        options = dict(options)
        if options.pop("warm", False):
            options["initial_vectors"] = solve_maxcut_sdp(
                graph, rank=options["rank"], seed=34, max_iterations=20
            ).vectors
        vectors, objective, n_iterations, converged = _edge_gather_loop(graph, **options)
        result = solve_maxcut_sdp(graph, **options)
        assert np.array_equal(result.vectors, vectors)
        assert result.n_iterations == n_iterations
        assert result.converged == converged
        assert result.objective == objective
        assert result.stop_reason == ("tolerance" if converged else "max_iterations")
