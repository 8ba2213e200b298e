"""Tests for the particle swarm optimizer (single-problem runs)."""

import numpy as np
import pytest

from repro.control import PsoOptions, pso_minimize_many
from repro.errors import ConfigurationError


def pso_minimize(objective, lower, upper, options, rng, seeds=None):
    """One problem through the lockstep optimizer: a batch of one."""
    [result] = pso_minimize_many(
        lambda batches: [objective(positions) for positions in batches],
        [(lower, upper, rng, seeds)],
        options,
    )
    return result


def sphere(x: np.ndarray) -> np.ndarray:
    return np.sum(x * x, axis=1)


def shifted_rosenbrock(x: np.ndarray) -> np.ndarray:
    a = x[:, 0] - 0.5
    b = x[:, 1] - 0.5
    return (1 - a) ** 2 + 100 * (b - a * a) ** 2


class TestOptimization:
    def test_minimizes_sphere(self, rng):
        result = pso_minimize(
            sphere, np.full(3, -5.0), np.full(3, 5.0),
            PsoOptions(24, 60), rng,
        )
        assert result.best_value < 1e-3

    def test_handles_harder_landscape(self, rng):
        result = pso_minimize(
            shifted_rosenbrock, np.full(2, -2.0), np.full(2, 2.0),
            PsoOptions(32, 120), rng,
        )
        assert result.best_value < 0.05

    def test_deterministic_for_fixed_seed(self):
        r1 = pso_minimize(sphere, np.full(2, -1.0), np.full(2, 1.0),
                          PsoOptions(10, 20), np.random.default_rng(5))
        r2 = pso_minimize(sphere, np.full(2, -1.0), np.full(2, 1.0),
                          PsoOptions(10, 20), np.random.default_rng(5))
        assert r1.best_value == r2.best_value
        np.testing.assert_array_equal(r1.best_position, r2.best_position)

    def test_respects_bounds(self, rng):
        lower = np.array([1.0, 2.0])
        upper = np.array([2.0, 3.0])
        result = pso_minimize(sphere, lower, upper, PsoOptions(12, 30), rng)
        assert np.all(result.best_position >= lower - 1e-12)
        assert np.all(result.best_position <= upper + 1e-12)
        # The constrained optimum is the lower corner.
        np.testing.assert_allclose(result.best_position, lower, atol=1e-2)

    def test_seeds_are_injected(self, rng):
        seeds = np.array([[0.0, 0.0]])
        result = pso_minimize(
            sphere, np.full(2, -10.0), np.full(2, 10.0),
            PsoOptions(8, 1), rng, seeds=seeds,
        )
        assert result.best_value <= 1e-12  # the seed is already optimal

    def test_history_is_monotone(self, rng):
        result = pso_minimize(sphere, np.full(2, -5.0), np.full(2, 5.0),
                              PsoOptions(12, 25), rng)
        assert all(b <= a + 1e-15 for a, b in zip(result.history, result.history[1:]))

    def test_evaluation_count(self, rng):
        options = PsoOptions(10, 7)
        result = pso_minimize(sphere, np.full(2, -1.0), np.full(2, 1.0), options, rng)
        assert result.n_evaluations == 10 * 8  # init + 7 iterations


class TestValidation:
    def test_bad_options(self):
        with pytest.raises(ConfigurationError):
            PsoOptions(n_particles=1)
        with pytest.raises(ConfigurationError):
            PsoOptions(n_iterations=0)
        with pytest.raises(ConfigurationError):
            PsoOptions(velocity_fraction=0.0)

    def test_bad_bounds(self, rng):
        with pytest.raises(ConfigurationError):
            pso_minimize(sphere, np.array([1.0]), np.array([0.0]), PsoOptions(4, 2), rng)

    def test_bad_objective_shape(self, rng):
        bad = lambda x: np.zeros(3)
        with pytest.raises(ConfigurationError):
            pso_minimize(bad, np.zeros(2), np.ones(2), PsoOptions(8, 2), rng)
