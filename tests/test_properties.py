"""Randomized invariant checks over wide parameter ranges."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lqmarket import (
    LqrSystem,
    NoiseSpec,
    derive_horizon,
    maximize_dual,
    q_alpha,
    solve_constrained,
    solve_discounted_lyapunov,
    solve_riccati,
    solve_riccati_lambda,
)
from lqmarket.functionals import policy_volatility
from lqmarket.output import format_cell
from lqmarket.simulate import noise_factor
from lqmarket.util import (
    chord_excess,
    divided_second_diffs,
    symmetrize,
)
from conftest import make_ref_market
from oracles import dare_weight, grid_maximize


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


# Hypothesis cases: random controllable (hence stabilizable) 2x2 and 3x3
# systems with positive definite state cost and nonzero noise.  Examples
# are derandomized and no example database is kept, so no run depends on
# an earlier one.
RANDOM_SYSTEMS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def stabilizable_systems(draw):
    d = draw(st.integers(2, 3))
    unit = st.floats(-1.0, 1.0)
    A = draw(arrays(float, (d, d), elements=unit))
    b = draw(arrays(float, d, elements=unit))
    assume(np.linalg.norm(b) >= 0.5)
    # well inside the controllable set, so value iteration converges briskly
    ctrb = np.column_stack([np.linalg.matrix_power(A, k) @ b for k in range(d)])
    assume(np.linalg.svd(ctrb, compute_uv=False)[-1] >= 0.05)
    G = draw(arrays(float, (d, d), elements=unit))
    noise = draw(arrays(float, d, elements=st.floats(0.1, 2.0)))
    system = LqrSystem(
        A=A,
        b=b,
        noise=NoiseSpec.diagonal(noise),
        Q=G @ G.T + 0.1 * np.eye(d),
        r=10.0 ** draw(st.floats(-2.0, 2.0)),
        gamma=draw(st.floats(0.3, 0.9)),
    )
    x0 = draw(arrays(float, d, elements=st.floats(-5.0, 5.0)))
    return system, x0


def price_volatility(system, lam, x0):
    """V(lam): volatility of the lam-optimal policy."""
    return policy_volatility(system, solve_riccati_lambda(system, lam).gain, x0)


@RANDOM_SYSTEMS
@given(stabilizable_systems())
def test_riccati_weight_matches_scipy_dare(case):
    system, _ = case
    K = solve_riccati(system).K
    K_oracle = dare_weight(system.A, system.b, system.Q, system.r, system.gamma)
    np.testing.assert_allclose(
        K, K_oracle, rtol=1e-7, atol=1e-9 * np.linalg.norm(K_oracle)
    )


@RANDOM_SYSTEMS
@given(stabilizable_systems())
def test_volatility_is_nonincreasing_in_the_price(case):
    system, x0 = case
    v = np.array([price_volatility(system, lam, x0)
                  for lam in np.geomspace(1e-3, 1e3, 13)])
    assert np.all(np.diff(v) <= 1e-8 * v[0])


@RANDOM_SYSTEMS
@given(stabilizable_systems(), st.floats(-2.0, 2.0))
def test_envelope_root_is_the_dual_maximum(case, log_lam):
    # a budget met exactly at a known price, where V still falls, puts a
    # binding lam* inside the grid (V can be flat: some systems never use
    # the control whatever its price)
    system, x0 = case
    lam = 10.0**log_lam
    alpha = price_volatility(system, lam, x0)
    assume(price_volatility(system, lam / 100.0, x0) > 1.01 * alpha)
    lam_star, L_star = maximize_dual(system, alpha, x0)

    def q(price):
        return q_alpha(system, alpha, price, x0)

    lo, hi = lam / 100.0, lam * 100.0
    slack = 1e-9 * abs(L_star)
    assert all(L_star >= q(price) - slack for price in np.geomspace(lo, hi, 9))
    _, L_grid = grid_maximize(q, lo, hi, n=60)
    assert L_star == pytest.approx(L_grid, rel=1e-6)

    point = solve_constrained(system, alpha, x0)
    assert point.binding
    assert point.achieved_volatility == pytest.approx(alpha, rel=1e-6)
    assert point.efficiency_star == -point.L_star
