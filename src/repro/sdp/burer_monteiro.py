"""Burer-Monteiro low-rank solver for the MAXCUT semidefinite program.

The Goemans-Williamson relaxation is

    maximise   (1/2) * sum_ij A_ij (1 - <w_i, w_j>)
    subject to ||w_i|| = 1  for every vertex i,

with the vectors ``w_i`` forming the rows of an ``n x r`` matrix ``W``
(the paper fixes r = 4).  Equivalently, with the Laplacian ``L = D - A``,

    maximise  (1/4) * <L, W W^T>.

This module maximises that objective by Riemannian gradient ascent on the
oblique manifold with an Armijo backtracking line search.  For ranks
``r >= ceil(sqrt(2n))`` the Burer-Monteiro landscape has no spurious local
optima, and in practice rank 4 already recovers SDP-quality solutions on the
graph sizes used in the paper — the same regime PyManopt was used in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.graphs.graph import Graph
from repro.sdp.manifold import (
    project_rows_to_sphere,
    random_oblique_point,
    retract,
    tangent_project,
)
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import ValidationError

__all__ = ["SDPResult", "solve_maxcut_sdp", "sdp_objective"]

_logger = get_logger("sdp")


def sdp_objective(graph: Graph, W: np.ndarray) -> float:
    """SDP objective ``(1/2) sum_{ij in E} A_ij (1 - <w_i, w_j>)`` for unit-row W.

    Evaluated over the edge list so the cost is ``O(m r)`` rather than
    ``O(n^2 r)``.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.shape[0] != graph.n_vertices:
        raise ValidationError(
            f"W must have {graph.n_vertices} rows, got {W.shape[0]}"
        )
    if graph.n_edges == 0:
        return 0.0
    edges = graph.edges
    inner = np.sum(W[edges[:, 0]] * W[edges[:, 1]], axis=1)
    return float(0.5 * np.dot(graph.edge_weights, 1.0 - inner))


@dataclass
class SDPResult:
    """Result of a Burer-Monteiro MAXCUT SDP solve.

    Attributes
    ----------
    vectors:
        ``(n, r)`` matrix with unit rows — the relaxed solution consumed by
        the LIF-GW circuit as its device-to-neuron weight matrix.
    objective:
        Final SDP objective value (an upper bound estimate of MAXCUT when the
        solve converges to the global optimum).
    n_iterations:
        Number of gradient-ascent iterations performed.
    rank:
        The factorisation rank used.
    stop_reason:
        Why the ascent stopped: ``"tolerance"`` when the Riemannian gradient
        norm fell below tolerance (also for empty and edgeless graphs),
        ``"line_search"`` when no Armijo step gave sufficient ascent, and
        ``"max_iterations"`` when the iteration cap was reached first.
    objective_history:
        Objective value after every iteration (monotone non-decreasing), in
        the ``<W, AW>`` form the line search compares; it can differ from
        ``objective`` in the last bits.
    """

    vectors: np.ndarray
    objective: float
    n_iterations: int
    rank: int
    stop_reason: str
    objective_history: List[float] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """True only when the gradient-norm tolerance was met."""
        return self.stop_reason == "tolerance"

    @property
    def gram_matrix(self) -> np.ndarray:
        """The PSD Gram matrix ``X = W W^T`` with unit diagonal."""
        return self.vectors @ self.vectors.T


def solve_maxcut_sdp(
    graph: Graph,
    rank: int = 4,
    max_iterations: int = 2000,
    tolerance: float = 1e-6,
    initial_step: float = 1.0,
    seed: RandomState = None,
    initial_vectors: Optional[np.ndarray] = None,
) -> SDPResult:
    """Solve the MAXCUT SDP relaxation with a rank-*rank* factorisation.

    Each Armijo trial costs one sparse product ``AW = A @ W``: it gives the
    trial's objective through ``(1/2)(total - (1/2)<W, AW>)`` and, once the
    trial is accepted, the next iteration's Euclidean gradient ``-AW``.

    Parameters
    ----------
    graph:
        Graph whose MAXCUT SDP is solved.
    rank:
        Factorisation rank r (the paper fixes 4).  Must be >= 1.
    max_iterations:
        Iteration cap for the gradient ascent.
    tolerance:
        Convergence threshold on the Riemannian gradient norm, scaled by the
        total edge weight so the criterion is graph-size independent.
    initial_step:
        Initial step size for the Armijo backtracking line search.
    seed:
        Randomness for the initial point (ignored when *initial_vectors* given).
    initial_vectors:
        Optional warm start; rows are renormalised onto the manifold.

    Returns
    -------
    SDPResult
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    if max_iterations < 0:
        raise ValidationError(f"max_iterations must be >= 0, got {max_iterations}")
    n = graph.n_vertices

    if initial_vectors is not None:
        W = np.asarray(initial_vectors, dtype=np.float64)
        if W.shape != (n, rank):
            raise ValidationError(
                f"initial_vectors must have shape ({n}, {rank}), got {W.shape}"
            )
        W = project_rows_to_sphere(W)
    else:
        W = random_oblique_point(n, rank, seed=seed)

    if n == 0 or graph.n_edges == 0:
        return SDPResult(
            vectors=W, objective=0.0, n_iterations=0, rank=rank,
            stop_reason="tolerance", objective_history=[0.0],
        )

    A = graph.adjacency_sparse()
    total = graph.total_weight
    scale = max(total, 1.0)

    def objective_of(V: np.ndarray, AV: np.ndarray) -> float:
        # <V, AV> counts every edge twice over the symmetric adjacency.
        return 0.5 * (total - 0.5 * float(np.vdot(V, AV)))

    AW = A @ W
    objective = objective_of(W, AW)
    history = [objective]
    step = float(initial_step)
    stop_reason = "max_iterations"
    iteration = 0

    for iteration in range(1, max_iterations + 1):
        # Riemannian ascent direction: the Euclidean gradient -AW of the
        # objective projected onto the tangent space of the oblique manifold.
        riemannian_grad = tangent_project(W, -AW)
        grad_norm = float(np.linalg.norm(riemannian_grad))
        if grad_norm <= tolerance * scale:
            stop_reason = "tolerance"
            break

        # Armijo backtracking line search along the ascent direction.
        improved = False
        trial_step = step
        for _ in range(40):
            candidate = retract(W, trial_step * riemannian_grad)
            candidate_AW = A @ candidate
            candidate_objective = objective_of(candidate, candidate_AW)
            if candidate_objective >= objective + 1e-4 * trial_step * grad_norm**2 / scale:
                W, AW = candidate, candidate_AW
                objective = candidate_objective
                # Gentle step growth keeps the search adaptive in both directions.
                step = min(trial_step * 2.0, 1e3)
                improved = True
                break
            trial_step *= 0.5
        history.append(objective)
        if not improved:
            stop_reason = "line_search"
            break

    objective = sdp_objective(graph, W)
    _logger.debug(
        "SDP solve on %s: objective=%.4f iterations=%d stop=%s",
        graph.name, objective, iteration, stop_reason,
    )
    return SDPResult(
        vectors=W,
        objective=objective,
        n_iterations=iteration,
        rank=rank,
        stop_reason=stop_reason,
        objective_history=history,
    )
