"""Oblique-manifold primitives for the Burer-Monteiro MAXCUT SDP.

The oblique manifold OB(n, r) is the set of ``n x r`` matrices whose rows are
unit vectors, i.e. the product of n copies of the (r-1)-sphere.  The MAXCUT
SDP relaxation constrains the Gram matrix ``X = W W^T`` to have unit diagonal,
which is exactly the statement ``W in OB(n, r)``.

All operations are vectorised over rows.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import ValidationError

__all__ = [
    "project_rows_to_sphere",
    "tangent_project",
    "random_oblique_point",
    "retract",
    "is_on_manifold",
]

_EPS = 1e-12


def project_rows_to_sphere(W: np.ndarray) -> np.ndarray:
    """Normalise every row of *W* to unit Euclidean norm.

    Rows with (numerically) zero norm are replaced by the first basis vector,
    which keeps the projection total and deterministic.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ValidationError(f"W must be 2-D, got shape {W.shape}")
    norms = np.linalg.norm(W, axis=1, keepdims=True)
    safe = norms[:, 0] > _EPS
    if safe.all():
        return W / norms
    out = np.empty_like(W)
    out[safe] = W[safe] / norms[safe]
    out[~safe] = 0.0
    out[~safe, 0] = 1.0
    return out


def is_on_manifold(W: np.ndarray, atol: float = 1e-8) -> bool:
    """True if every row of *W* has unit norm within *atol*."""
    norms = np.linalg.norm(np.asarray(W, dtype=np.float64), axis=1)
    return bool(np.allclose(norms, 1.0, atol=atol))


def tangent_project(W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Project an ambient gradient *G* onto the tangent space of OB(n, r) at *W*.

    The tangent space at a point with unit rows consists of matrices whose
    rows are orthogonal to the corresponding rows of *W*:

        P_W(G) = G - diag(<g_i, w_i>) W
    """
    W = np.asarray(W, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if W.shape != G.shape:
        raise ValidationError(f"W and G must have the same shape, got {W.shape} vs {G.shape}")
    inner = np.sum(W * G, axis=1, keepdims=True)
    return G - inner * W


def retract(W: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Retraction: move from *W* along tangent direction *step* and renormalise rows."""
    return project_rows_to_sphere(np.asarray(W) + np.asarray(step))


def random_oblique_point(n: int, r: int, seed: RandomState = None) -> np.ndarray:
    """Uniformly random point on OB(n, r): i.i.d. Gaussian rows, normalised."""
    if n < 0 or r < 1:
        raise ValidationError(f"need n >= 0 and r >= 1, got n={n}, r={r}")
    rng = as_generator(seed)
    return project_rows_to_sphere(rng.standard_normal((n, r)))
