"""Riccati and Lyapunov solvers against independent oracles."""
import warnings

import numpy as np
import pytest

from lqmarket import (
    ConfigError,
    InstabilityError,
    LinearPolicy,
    LqrSystem,
    NoiseSpec,
    SolverDivergenceError,
    closed_loop,
    optimal_gain,
    riccati_step,
    solve_discounted_lyapunov,
    solve_riccati,
    solve_riccati_lambda,
    solve_state_penalizing,
)
from conftest import make_ref_market
from oracles import dare_weight, gain_from_weight, scalar_riccati_root, scipy_lyapunov


def scalar_system(a=1.1, q=1.0, r=1.0, gamma=0.9):
    return LqrSystem(
        A=np.array([[a]]), b=np.array([1.0]), noise=NoiseSpec.none(1),
        Q=np.array([[q]]), r=r, gamma=gamma,
    )


def test_scalar_weight_matches_quadratic_formula():
    system = scalar_system()
    sol = solve_riccati(system)
    k_star = scalar_riccati_root(1.1, 1.0, 1.0, 0.9)
    assert abs(sol.K[0, 0] - k_star) <= 1e-8
    # returned residual really is the fixed-point defect
    step = riccati_step(sol.K, system.A, system.b, system.Q, system.r, system.gamma)
    assert np.linalg.norm(step - sol.K) <= 1e-8


def test_reference_market_weight_matches_dare(ref_system):
    sol = solve_riccati(ref_system)
    K_oracle = dare_weight(ref_system.A, ref_system.b, ref_system.Q,
                           ref_system.r, ref_system.gamma)
    np.testing.assert_allclose(sol.K, K_oracle, rtol=1e-8, atol=1e-10)
    g_oracle = gain_from_weight(K_oracle, ref_system.A, ref_system.b,
                                ref_system.r, ref_system.gamma)
    np.testing.assert_allclose(sol.gain.gain, g_oracle, rtol=1e-7, atol=1e-10)


def test_gain_stabilizes_discounted_loop(ref_system):
    sol = solve_riccati(ref_system)
    F = closed_loop(ref_system.A, ref_system.b, sol.gain.gain)
    rho = np.max(np.abs(np.linalg.eigvals(F)))
    assert ref_system.gamma * rho * rho < 1.0


def test_lambda_solve_is_penalty_replacement(ref_system):
    lam = 0.7
    sol = solve_riccati_lambda(ref_system, lam)
    direct = solve_riccati(ref_system.with_r(lam))
    np.testing.assert_array_equal(sol.K, direct.K)
    with pytest.raises(ConfigError):
        solve_riccati_lambda(ref_system, 0.0)


def test_riccati_step_rejects_nonpositive_curvature():
    # a negative definite weight can push the curvature below zero
    K = np.array([[-10.0]])
    with pytest.raises(ConfigError):
        riccati_step(K, np.array([[1.0]]), np.array([1.0]), np.array([[1.0]]),
                     0.5, 0.9)


def test_optimal_gain_formula(ref_system):
    sol = solve_riccati(ref_system)
    g = optimal_gain(sol.K, ref_system.A, ref_system.b, ref_system.r,
                     ref_system.gamma)
    np.testing.assert_allclose(g, sol.gain.gain, rtol=0, atol=0)


def test_lyapunov_matches_dense_solve(ref_system):
    sol = solve_riccati(ref_system)
    F = closed_loop(ref_system.A, ref_system.b, sol.gain.gain)
    C = ref_system.Q
    got = solve_discounted_lyapunov(F, C, ref_system.gamma)
    want = scipy_lyapunov(F, C, ref_system.gamma)
    np.testing.assert_allclose(got.S, want, rtol=1e-9, atol=1e-11)
    assert got.residual <= 1e-8


def test_lyapunov_rejects_divergent_sum():
    F = np.array([[1.2]])
    with pytest.raises(InstabilityError):
        solve_discounted_lyapunov(F, np.array([[1.0]]), 0.9)


def test_lyapunov_solve_is_certified(ref_system):
    # one direct solve leaves a residual at rounding level relative to C
    sol = solve_riccati(ref_system)
    F = closed_loop(ref_system.A, ref_system.b, sol.gain.gain)
    C = ref_system.Q
    got = solve_discounted_lyapunov(F, C, ref_system.gamma)
    assert got.iterations == 1
    assert got.residual <= 1e-12 * (1.0 + np.linalg.norm(C, "fro"))
    # gamma rho(F)^2 = 0.9 * 1.06^2 > 1 even though one mode is damped
    F_bad = np.array([[0.5, 2.0], [0.0, 1.06]])
    with pytest.raises(InstabilityError):
        solve_discounted_lyapunov(F_bad, np.eye(2), 0.9)


def test_riccati_iteration_budget():
    # max_iter caps the Newton steps; this system needs four
    with pytest.raises(SolverDivergenceError) as err:
        solve_riccati(scalar_system(), max_iter=2)
    assert err.value.iterations == 2
    assert solve_riccati(scalar_system(), max_iter=4).iterations == 4


def test_undamped_open_loop_starts_from_value_iteration():
    # gamma rho(A)^2 = 0.9 * 1.1^2 > 1, so the zero gain cannot start Newton
    A = np.array([[1.1, 0.3], [0.0, 0.95]])
    b = np.array([1.0, 0.5])
    for lam in (1e-3, 1.0, 1e3):
        system = LqrSystem(A=A, b=b, noise=NoiseSpec.none(2), Q=np.eye(2),
                           r=lam, gamma=0.9)
        sol = solve_riccati(system)
        K_oracle = dare_weight(A, b, np.eye(2), lam, 0.9)
        np.testing.assert_allclose(sol.K, K_oracle, rtol=1e-12)


def test_undetected_undamped_mode_is_rejected():
    # the cost never sees the first mode, so value iteration settles on a
    # gain that leaves it undamped: gamma * 1.2^2 > 1
    system = LqrSystem(
        A=np.diag([1.2, 0.5]), b=np.array([1.0, 1.0]), noise=NoiseSpec.none(2),
        Q=np.diag([0.0, 1.0]), r=1.0, gamma=0.9,
    )
    with pytest.raises(InstabilityError):
        solve_riccati(system)


def test_state_penalizing_tolerates_unstable_but_contracting_loop():
    # rho(F) = 1.05 with gamma = 0.5 keeps gamma rho^2 = 0.55 < 1
    system = LqrSystem(
        A=np.array([[1.05]]), b=np.array([1.0]), noise=NoiseSpec.none(1),
        Q=np.array([[1.0]]), r=1.0, gamma=0.5,
    )
    sol = solve_state_penalizing(system, LinearPolicy(np.array([0.0])))
    assert sol.warnings
    want = 1.0 / (1.0 - 0.5 * 1.05**2)
    np.testing.assert_allclose(sol.S[0, 0], want, rtol=1e-9)
    # with a patient discount the same loop diverges
    patient = LqrSystem(
        A=np.array([[1.05]]), b=np.array([1.0]), noise=NoiseSpec.none(1),
        Q=np.array([[1.0]]), r=1.0, gamma=0.95,
    )
    with pytest.raises(InstabilityError):
        solve_state_penalizing(patient, LinearPolicy(np.array([0.0])))


def test_uncontrollable_system_is_flagged_not_rejected():
    # second coordinate is untouched by the control and by coupling
    system = LqrSystem(
        A=np.diag([0.5, 0.5]), b=np.array([1.0, 0.0]), noise=NoiseSpec.none(2),
        Q=np.eye(2), r=1.0, gamma=0.9,
    )
    sol = solve_riccati(system)
    assert any("controllable" in w for w in sol.warnings)
    # the decoupled coordinate's weight is the scalar uncontrolled sum
    np.testing.assert_allclose(sol.K[1, 1], 1.0 / (1.0 - 0.9 * 0.25), rtol=1e-9)


def _uncontrolled_first_mode(a):
    return LqrSystem(
        A=np.diag([a, 0.5]), b=np.array([0.0, 1.0]), noise=NoiseSpec.none(2),
        Q=np.eye(2), r=1.0, gamma=0.9,
    )


def test_unstabilizable_system_is_rejected():
    # sqrt(0.9) * 1.5 > 1 and the control never reaches the first mode
    with pytest.raises(InstabilityError):
        solve_riccati(_uncontrolled_first_mode(1.5))


def test_uncontrollable_but_stabilizable_mode_converges():
    # sqrt(0.9) * 1.05 < 1: the free mode's discounted sum still converges
    sol = solve_riccati(_uncontrolled_first_mode(1.05))
    assert any("controllable" in w for w in sol.warnings)
    np.testing.assert_allclose(sol.K[0, 0], 1.0 / (1.0 - 0.9 * 1.05**2), rtol=1e-6)
    assert abs(sol.K[0, 0] - 129.03) < 0.01


def test_non_finite_iterate_fails_at_once():
    system = LqrSystem(
        A=np.array([[1e160]]), b=np.array([1.0]), noise=NoiseSpec.none(1),
        Q=np.eye(1), r=1.0, gamma=0.9,
    )
    # the overflow is reported by the error alone, not by numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverDivergenceError) as info:
            solve_riccati(system)
    assert info.value.iterations < 10
    assert not np.isfinite(info.value.residual)


def test_riccati_weight_solves_lambda_family(ref_system):
    # spot-check a few penalties: package solve vs scipy's DARE
    for lam in (0.01, 1.0, 250.0):
        sol = solve_riccati_lambda(ref_system, lam)
        K_oracle = dare_weight(ref_system.A, ref_system.b, ref_system.Q, lam,
                               ref_system.gamma)
        np.testing.assert_allclose(sol.K, K_oracle, rtol=1e-8, atol=1e-10)
