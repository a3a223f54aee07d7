"""Randomized invariant checks over wide parameter ranges."""
import math

import numpy as np
import pytest

from lqmarket import (
    LqrSystem,
    NoiseSpec,
    derive_horizon,
    q_alpha,
    solve_discounted_lyapunov,
    solve_riccati,
)
from lqmarket.output import format_cell
from lqmarket.simulate import noise_factor
from lqmarket.util import (
    chord_excess,
    divided_second_diffs,
    symmetrize,
)
from conftest import make_ref_market


def test_derived_horizon_is_always_minimal():
    rng = np.random.default_rng(101)
    for _ in range(200):
        gamma = float(rng.uniform(0.05, 0.95))
        eps = float(10.0 ** rng.uniform(-9, -1))
        bound = float(10.0 ** rng.uniform(-3, 6))
        T = derive_horizon(gamma, eps, bound)
        assert gamma**T * bound / (1.0 - gamma) <= eps
        if T > 1:
            assert gamma ** (T - 1) * bound / (1.0 - gamma) > eps


def test_dual_objective_is_affine_in_the_budget():
    system = make_ref_market().system
    x0 = np.array([25.0, 25.0, 50.0])
    rng = np.random.default_rng(202)
    for _ in range(15):
        lam = float(10.0 ** rng.uniform(-3, 3))
        a1, a2 = sorted(10.0 ** rng.uniform(-2, 3, size=2))
        q1 = q_alpha(system, a1, lam, x0)
        q2 = q_alpha(system, a2, lam, x0)
        assert q1 - q2 == pytest.approx(lam * (a2 - a1), rel=1e-9, abs=1e-12)


def test_affine_samples_have_no_curvature():
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        x = np.sort(rng.uniform(0.01, 100.0, size=n))
        x += 1e-6 * np.arange(n)  # guarantee strictly increasing
        slope, intercept = rng.normal(size=2) * 10.0
        v = slope * x + intercept
        scale = max(np.max(np.abs(v)), 1.0)
        assert np.max(np.abs(chord_excess(x, v))) <= 1e-10 * scale
        assert np.max(np.abs(divided_second_diffs(x, v))) <= 1e-8 * scale


def test_symmetrize_is_idempotent_projection():
    rng = np.random.default_rng(404)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        M = rng.normal(size=(d, d))
        S = symmetrize(M)
        np.testing.assert_array_equal(S, S.T)
        np.testing.assert_allclose(symmetrize(S), S, rtol=0, atol=0)
        # projection never moves a symmetric matrix
        np.testing.assert_allclose(S + symmetrize(M - S), symmetrize(M),
                                   atol=1e-15)


def test_noise_factor_reproduces_any_psd_covariance():
    rng = np.random.default_rng(505)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        G = rng.normal(size=(d, d))
        if rng.uniform() < 0.5:
            G[:, rng.integers(0, d)] = 0.0  # rank deficiency
        cov = G @ G.T
        F = noise_factor(cov)
        np.testing.assert_allclose(F @ F.T, cov, atol=1e-10 * max(1.0, cov.max()))
        eig = np.linalg.eigvalsh(symmetrize(F))
        assert eig.min() >= -1e-10


def test_random_scalar_regulators_satisfy_the_fixed_point():
    rng = np.random.default_rng(606)
    for _ in range(30):
        a = float(rng.uniform(-2.0, 2.0))
        q = float(10.0 ** rng.uniform(-1, 1))
        r = float(10.0 ** rng.uniform(-2, 2))
        gamma = float(rng.uniform(0.1, 0.95))
        system = LqrSystem(
            A=np.array([[a]]), b=np.array([1.0]), noise=NoiseSpec.none(1),
            Q=np.array([[q]]), r=r, gamma=gamma,
        )
        sol = solve_riccati(system)
        k = float(sol.K[0, 0])
        defect = gamma * k * k + k * (r - gamma * q - gamma * a * a * r) - q * r
        assert abs(defect) <= 1e-7 * max(1.0, k * k)
        g = float(sol.gain.gain[0])
        assert gamma * (a + g) ** 2 < 1.0


def test_random_stable_loops_solve_the_evaluation_equation():
    rng = np.random.default_rng(707)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        F = rng.normal(size=(d, d))
        radius = float(np.max(np.abs(np.linalg.eigvals(F))))
        if radius > 0.0:
            F *= 0.8 / radius
        gamma = float(rng.uniform(0.2, 0.95))
        G = rng.normal(size=(d, d))
        C = G @ G.T
        W = solve_discounted_lyapunov(F, C, gamma).S
        defect = C + gamma * (F.T @ W @ F) - W
        assert np.max(np.abs(defect)) <= 1e-9 * max(1.0, float(np.max(np.abs(W))))


def test_format_cell_round_trips_any_finite_float():
    rng = np.random.default_rng(808)
    samples = [0.0, -0.0, 5e-324, -5e-324, math.pi, np.finfo(float).max,
               np.finfo(float).tiny]
    samples += list(
        rng.normal(size=100) * 10.0 ** rng.integers(-300, 300, size=100)
    )
    for x in samples:
        assert float(format_cell(float(x))) == float(x)
