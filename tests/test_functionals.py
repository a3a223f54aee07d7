"""Closed-form functionals, Bellman updates, and penalty scans."""
import numpy as np
import pytest

from lqmarket import (
    ConfigError,
    LinearPolicy,
    LqrSystem,
    NoiseSpec,
    QuadraticValue,
    bellman_apply,
    closed_loop,
    concavity_scan,
    evaluate_policy,
    optimal_cost,
    solve_riccati,
)
from conftest import make_ref_market
from oracles import bellman_iteration_cost, quadratic_value, scipy_lyapunov


@pytest.fixture(scope="module")
def ref():
    market = make_ref_market()
    system = market.system
    sol = solve_riccati(system)
    return system, sol


def test_evaluate_policy_matches_dense_lyapunov(ref, x0_ref):
    system, sol = ref
    report = evaluate_policy(system, sol.gain, x0_ref)
    g = sol.gain.gain
    F = closed_loop(system.A, system.b, g)
    cov = system.noise.covariance
    gg = np.outer(g, g)
    cost = quadratic_value(
        scipy_lyapunov(F, system.Q + system.r * gg, system.gamma),
        x0_ref, system.gamma, cov,
    )
    vol = quadratic_value(scipy_lyapunov(F, gg, system.gamma), x0_ref,
                          system.gamma, cov)
    eff = -quadratic_value(scipy_lyapunov(F, system.Q, system.gamma), x0_ref,
                           system.gamma, cov)
    np.testing.assert_allclose(report.cost, cost, rtol=1e-9)
    np.testing.assert_allclose(report.volatility, vol, rtol=1e-9)
    np.testing.assert_allclose(report.efficiency, eff, rtol=1e-9)


def test_cost_decomposition_cross_check(ref, x0_ref):
    # cost comes from its own solve, so this is a real consistency check
    system, sol = ref
    report = evaluate_policy(system, sol.gain, x0_ref)
    lhs = report.cost
    rhs = -report.efficiency + system.r * report.volatility
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


def test_optimal_cost_matches_bellman_iteration(ref, x0_ref):
    system, sol = ref
    want = bellman_iteration_cost(
        system.A, system.b, system.Q, system.r, system.gamma,
        system.noise.covariance, x0_ref, n_iter=120,
    )
    got = optimal_cost(system, x0_ref, solution=sol)
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_optimal_gain_beats_perturbations(ref, x0_ref):
    system, sol = ref
    best = optimal_cost(system, x0_ref, solution=sol)
    rng = np.random.default_rng(7)
    for _ in range(8):
        bumped = LinearPolicy(sol.gain.gain + 0.05 * rng.standard_normal(3))
        cost = evaluate_policy(system, bumped, x0_ref).cost
        assert cost >= best - 1e-9 * abs(best)


def test_optimal_cost_equals_policy_cost_of_optimal_gain(ref, x0_ref):
    system, sol = ref
    via_k = optimal_cost(system, x0_ref, solution=sol)
    via_policy = evaluate_policy(system, sol.gain, x0_ref).cost
    np.testing.assert_allclose(via_k, via_policy, rtol=1e-9)


def test_bellman_apply_fixed_point(ref):
    system, sol = ref
    c_star = system.gamma / (1.0 - system.gamma) * float(
        np.trace(sol.K @ system.noise.covariance)
    )
    v = QuadraticValue(M=sol.K, c=c_star)
    v_next = bellman_apply(system, v)
    np.testing.assert_allclose(v_next.M, sol.K, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(v_next.c, c_star, rtol=1e-10)


def test_bellman_apply_from_zero_matches_oracle(ref, x0_ref):
    system, _ = ref
    v = QuadraticValue.zero(system.d)
    for _ in range(6):
        v = bellman_apply(system, v)
    want = bellman_iteration_cost(
        system.A, system.b, system.Q, system.r, system.gamma,
        system.noise.covariance, x0_ref, n_iter=6,
    )
    np.testing.assert_allclose(v(x0_ref), want, rtol=1e-12)


def test_bellman_apply_shape_check(ref):
    system, _ = ref
    with pytest.raises(ConfigError):
        bellman_apply(system, QuadraticValue.zero(2))


def test_optimal_cost_scan_is_increasing_and_concave(ref, x0_ref):
    system, _ = ref
    r_grid = np.geomspace(1e-2, 1e3, 25)
    scan = concavity_scan(system, r_grid, x0_ref, which="optimal_cost")
    assert scan.which == "optimal_cost"
    assert np.all(scan.d1 > 0)
    assert scan.is_increasing()
    assert scan.max_chord_excess() <= 1e-6 * scan.value_scale
    assert np.all(scan.d2 <= 1e-6 * scan.value_scale)


def test_state_penalizing_scan_is_increasing(ref, x0_ref):
    system, _ = ref
    r_grid = np.geomspace(1e-2, 1e3, 25)
    scan = concavity_scan(system, r_grid, x0_ref, which="state_penalizing")
    assert scan.which == "state_penalizing"
    assert np.all(scan.d1 > 0)
    assert scan.is_increasing()


def test_state_penalizing_scan_has_convex_patch_at_small_r(ref, x0_ref):
    # Pins a verified property of this market: the state-only cost of the
    # r-optimal policy is locally convex in r near the left end of the sweep
    # (independent finite differences give a second derivative around +8.5e3
    # at r=0.05), so a global concavity assertion would be wrong here.  The
    # curve is still concave over most of the range.
    system, _ = ref
    r_grid = np.geomspace(1e-2, 1e3, 25)
    scan = concavity_scan(system, r_grid, x0_ref, which="state_penalizing")
    assert scan.d2.max() > 1e-6 * scan.value_scale
    assert scan.max_chord_excess() > 1e-6 * scan.value_scale
    # the violation lives at small r; the right half of the grid is concave
    assert np.all(scan.d2[len(scan.d2) // 2:] <= 1e-6 * scan.value_scale)


def test_scan_values_match_pointwise_solves(ref, x0_ref):
    system, _ = ref
    r_grid = np.array([0.1, 1.0, 10.0])
    scan = concavity_scan(system, r_grid, x0_ref)
    for r, value in zip(r_grid, scan.value):
        np.testing.assert_allclose(
            value, optimal_cost(system.with_r(float(r)), x0_ref), rtol=1e-9
        )


def test_scan_validation(ref, x0_ref):
    system, _ = ref
    with pytest.raises(ConfigError):
        concavity_scan(system, [1.0, 2.0], x0_ref)  # too short
    with pytest.raises(ConfigError):
        concavity_scan(system, [1.0, 3.0, 2.0], x0_ref)  # not increasing
    with pytest.raises(ConfigError):
        concavity_scan(system, [0.0, 1.0, 2.0], x0_ref)  # nonpositive
    with pytest.raises(ConfigError):
        concavity_scan(system, [1.0, 2.0, 3.0], x0_ref, which="unknown")


def test_zero_state_cost_means_zero_efficiency():
    system = LqrSystem(
        A=np.array([[0.9, 0.1], [0.0, 0.8]]), b=np.array([0.0, 1.0]),
        noise=NoiseSpec.diagonal([0.3, 0.3]), Q=np.zeros((2, 2)),
        r=1.0, gamma=0.9,
    )
    report = evaluate_policy(system, LinearPolicy(np.array([-0.1, -0.2])),
                             np.array([1.0, 2.0]))
    assert report.efficiency == 0.0
    assert report.cost == pytest.approx(system.r * report.volatility, rel=1e-12)


def test_noise_free_cost_has_no_tail(ref):
    market = make_ref_market()
    base = market.system
    system = LqrSystem(A=base.A, b=base.b, noise=NoiseSpec.none(3), Q=base.Q,
                       r=base.r, gamma=base.gamma)
    sol = solve_riccati(system)
    x0 = np.array([1.0, 2.0, 3.0])
    head = float(x0 @ sol.K @ x0)
    np.testing.assert_allclose(optimal_cost(system, x0, solution=sol), head,
                               rtol=1e-12)
