"""Tests for repro.sdp.manifold."""

import numpy as np
import pytest

from repro.sdp.manifold import (
    _EPS,
    is_on_manifold,
    project_rows_to_sphere,
    random_oblique_point,
    retract,
    tangent_project,
)
from repro.utils.validation import ValidationError


def _masked_projection(W):
    """Reference: the boolean-mask normalisation applied to every input."""
    W = np.asarray(W, dtype=np.float64)
    norms = np.linalg.norm(W, axis=1, keepdims=True)
    out = np.empty_like(W)
    safe = norms[:, 0] > _EPS
    out[safe] = W[safe] / norms[safe]
    out[~safe] = 0.0
    out[~safe, 0] = 1.0
    return out


class TestProjection:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 2), (100, 4), (64, 16)])
    @pytest.mark.parametrize("magnitude", [1e-9, 1.0, 1e9])
    def test_fast_path_matches_masked_path_bitwise(self, rng, shape, magnitude):
        W = magnitude * rng.standard_normal(shape)
        out = project_rows_to_sphere(W)
        assert np.array_equal(out, _masked_projection(W))
        assert out is not W

    def test_zero_rows_among_nonzero_rows(self, rng):
        W = rng.standard_normal((9, 3))
        W[[0, 4, 8]] = 0.0
        W[5] = 0.5 * _EPS
        out = project_rows_to_sphere(W)
        assert np.array_equal(out, _masked_projection(W))
        for row in (0, 4, 5, 8):
            assert np.array_equal(out[row], [1.0, 0.0, 0.0])

    def test_unit_rows(self, rng):
        W = project_rows_to_sphere(rng.standard_normal((10, 4)))
        np.testing.assert_allclose(np.linalg.norm(W, axis=1), 1.0)

    def test_zero_row_handled(self):
        W = project_rows_to_sphere(np.zeros((3, 4)))
        np.testing.assert_allclose(np.linalg.norm(W, axis=1), 1.0)
        np.testing.assert_array_equal(W[:, 0], 1.0)

    def test_already_normalised_unchanged(self, rng):
        W = project_rows_to_sphere(rng.standard_normal((5, 3)))
        np.testing.assert_allclose(project_rows_to_sphere(W), W)

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            project_rows_to_sphere(np.ones(4))

    def test_is_on_manifold(self, rng):
        W = random_oblique_point(6, 3, seed=rng)
        assert is_on_manifold(W)
        assert not is_on_manifold(2.0 * W)


class TestTangentProject:
    def test_orthogonal_to_rows(self, rng):
        W = random_oblique_point(8, 4, seed=1)
        G = rng.standard_normal((8, 4))
        T = tangent_project(W, G)
        np.testing.assert_allclose(np.sum(T * W, axis=1), 0.0, atol=1e-12)

    def test_idempotent(self, rng):
        W = random_oblique_point(8, 4, seed=2)
        G = rng.standard_normal((8, 4))
        T = tangent_project(W, G)
        np.testing.assert_allclose(tangent_project(W, T), T, atol=1e-12)

    def test_tangent_vector_unchanged(self, rng):
        W = random_oblique_point(5, 3, seed=3)
        G = rng.standard_normal((5, 3))
        T = tangent_project(W, G)
        np.testing.assert_allclose(tangent_project(W, T), T)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValidationError):
            tangent_project(np.ones((3, 2)), np.ones((2, 3)))


class TestRetract:
    def test_stays_on_manifold(self, rng):
        W = random_oblique_point(10, 4, seed=4)
        step = 0.3 * rng.standard_normal((10, 4))
        assert is_on_manifold(retract(W, step))

    def test_zero_step_identity(self):
        W = random_oblique_point(6, 3, seed=5)
        np.testing.assert_allclose(retract(W, np.zeros_like(W)), W)


class TestRandomPoint:
    def test_shape_and_norms(self):
        W = random_oblique_point(7, 5, seed=0)
        assert W.shape == (7, 5)
        assert is_on_manifold(W)

    def test_reproducible(self):
        np.testing.assert_allclose(
            random_oblique_point(4, 3, seed=9), random_oblique_point(4, 3, seed=9)
        )

    def test_invalid_rank(self):
        with pytest.raises(ValidationError):
            random_oblique_point(4, 0)
