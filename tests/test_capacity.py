"""Volatility-budget duality: profiles, constrained solves, sweeps, mixtures."""
from dataclasses import replace

import numpy as np
import pytest

import lqmarket.riccati
from lqmarket import (
    CapacityPoint,
    ConfigError,
    LinearPolicy,
    LqrSystem,
    NoiseSpec,
    UnboundedDualError,
    closed_loop,
    default_alpha_grid,
    evaluate_policy,
    maximize_dual,
    mixture_policy,
    q_alpha,
    solve_constrained,
    solve_riccati,
    solve_riccati_lambda,
    sweep_capacity_region,
)
from lqmarket.capacity import LAMBDA_FLOOR
from lqmarket.functionals import policy_volatility
from lqmarket.util import chord_excess
from conftest import make_ref_market
from oracles import grid_maximize, quadratic_value, scipy_lyapunov

ALPHA_REF = 27.0


@pytest.fixture(scope="module")
def ref():
    return make_ref_market().system


def test_q_alpha_linear_in_budget(ref, x0_ref):
    lam = 0.37
    a1, a2 = 5.0, 40.0
    q1 = q_alpha(ref, a1, lam, x0_ref)
    q2 = q_alpha(ref, a2, lam, x0_ref)
    # same solve both times, so the difference is exactly the price term
    assert q1 - q2 == pytest.approx(lam * (a2 - a1), rel=1e-12)


def test_q_alpha_zero_state_cost():
    system = LqrSystem(
        A=np.array([[0.9]]), b=np.array([1.0]), noise=NoiseSpec.diagonal([1.0]),
        Q=np.zeros((1, 1)), r=1.0, gamma=0.5,
    )
    for lam in (0.1, 1.0, 10.0):
        assert q_alpha(system, 3.0, lam, np.array([2.0])) == -lam * 3.0


def test_q_alpha_validation(ref, x0_ref):
    with pytest.raises(ConfigError):
        q_alpha(ref, -1.0, 0.5, x0_ref)
    with pytest.raises(ConfigError):
        q_alpha(ref, 1.0, 0.0, x0_ref)


def test_dual_profile_single_peaked(ref, x0_ref):
    lam_grid = np.geomspace(1e-3, 1e2, 50)
    q = np.array([q_alpha(ref, ALPHA_REF, lam, x0_ref) for lam in lam_grid])
    scale = float(np.max(np.abs(q)))
    assert np.max(chord_excess(lam_grid, q)) <= 1e-6 * scale
    # increases to the peak, decreases after
    peak = int(np.argmax(q))
    assert 0 < peak < lam_grid.size - 1
    assert np.all(np.diff(q[: peak + 1]) > 0)
    assert np.all(np.diff(q[peak:]) < 0)


def test_maximize_dual_matches_grid_search(ref, x0_ref):
    lam_star, L_star = maximize_dual(ref, ALPHA_REF, x0_ref)
    _, L_grid = grid_maximize(
        lambda lam: q_alpha(ref, ALPHA_REF, lam, x0_ref), 1e-6, 1e3
    )
    assert L_star == pytest.approx(L_grid, rel=1e-6)
    assert lam_star > 0


def test_constrained_budget_is_met_when_binding(ref, x0_ref):
    point = solve_constrained(ref, ALPHA_REF, x0_ref)
    assert point.binding
    assert abs(point.achieved_volatility - ALPHA_REF) <= 0.02 * ALPHA_REF
    assert point.efficiency_star == pytest.approx(-point.L_star, rel=0, abs=0)


def test_feasible_policies_never_beat_the_boundary(ref, x0_ref):
    # weak duality: any stabilizing gain whose volatility fits the budget
    # has efficiency at most the constrained optimum
    point = solve_constrained(ref, ALPHA_REF, x0_ref)
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 10:
        lam = point.lambda_star * float(np.exp(rng.uniform(0.0, np.log(20.0))))
        gain = solve_riccati_lambda(ref, lam).gain
        bumped = np.asarray(gain.gain) * (1.0 + 0.02 * rng.standard_normal(3))
        report = evaluate_policy(ref, LinearPolicy(bumped), x0_ref)
        if report.volatility > ALPHA_REF:
            continue
        assert report.efficiency <= point.efficiency_star + 1e-6 * abs(
            point.efficiency_star
        )
        checked += 1


def test_price_decreases_with_budget(ref, x0_ref):
    alphas = [8.0, 15.0, ALPHA_REF, 60.0, 200.0]
    lams = [solve_constrained(ref, a, x0_ref).lambda_star for a in alphas]
    for tight, loose in zip(lams, lams[1:]):
        assert loose <= tight * (1.0 + 1e-6)


def test_huge_budget_is_nonbinding_and_recovers_cheap_control(ref, x0_ref):
    # a slack budget prices the constraint at the lambda floor, and the
    # point's policy is the near-penalty-free one, not the market policy
    market = evaluate_policy(ref, solve_riccati(ref).gain, x0_ref)
    point = solve_constrained(ref, 50.0 * market.volatility, x0_ref)
    assert not point.binding
    assert point.lambda_star <= 2.0 * LAMBDA_FLOOR
    floor_report = evaluate_policy(
        ref, solve_riccati_lambda(ref, point.lambda_star).gain, x0_ref
    )
    np.testing.assert_allclose(
        point.achieved_volatility, floor_report.volatility, rtol=1e-9
    )
    assert point.achieved_volatility < 0.05 * point.alpha
    # dual bound collapses onto the achieved efficiency once lam* ~ 0
    np.testing.assert_allclose(
        point.efficiency_star, floor_report.efficiency, rtol=1e-3
    )
    assert point.efficiency_star >= floor_report.efficiency - 1e-9
    # cheaper control tracks the state better than the market policy
    assert floor_report.efficiency >= market.efficiency


def test_unreachable_budget_raises():
    # the open-loop dynamics are unstable, so volatility is bounded away
    # from zero and a tiny budget can never be met
    system = LqrSystem(
        A=np.array([[1.1]]), b=np.array([1.0]), noise=NoiseSpec.none(1),
        Q=np.array([[1.0]]), r=1.0, gamma=0.9,
    )
    with pytest.raises(UnboundedDualError):
        solve_constrained(system, 1e-6, np.array([10.0]))


def test_budget_met_exactly_at_a_bracket_decade():
    # V(lam) - alpha vanishes to rounding at a point of the decade ladder;
    # the bracket must keep its sign change when the root search starts
    system = LqrSystem(
        A=np.array([[0.55078125, -0.64413793], [-0.78940292, 0.0]]),
        b=np.array([0.29589196, 0.67420493]),
        noise=NoiseSpec.diagonal([1.0, 1.0]),
        Q=np.array([[0.4589302, -0.49781431], [-0.49781431, 1.1]]),
        r=1.0, gamma=0.8984375,
    )
    x0 = np.zeros(2)
    for lam in (0.1, 1.0, 10.0):
        alpha = policy_volatility(system, solve_riccati_lambda(system, lam).gain, x0)
        lam_star, _ = maximize_dual(system, alpha, x0)
        assert lam_star == pytest.approx(lam, rel=1e-6)


@pytest.mark.parametrize("fraction", [1e-8, 1e-6])
def test_tight_budget_is_met_by_the_policy(x0_ref, fraction):
    # at lam* ~ 1e7 the volatility weight is ~ 1/lam^2; an absolute stop
    # rule would report the budget met while the policy overshoots it
    system = make_ref_market(gamma=0.9).system
    v_unc = evaluate_policy(system, solve_riccati(system).gain, x0_ref).volatility
    alpha = fraction * v_unc
    point = solve_constrained(system, alpha, x0_ref)
    g = point.policy.gain
    W = scipy_lyapunov(
        closed_loop(system.A, system.b, g), np.outer(g, g), system.gamma
    )
    exact = quadratic_value(W, x0_ref, system.gamma, system.noise.covariance)
    assert exact == pytest.approx(alpha, rel=1e-6)


def test_default_grid_brackets_unconstrained_volatility(ref, x0_ref):
    grid = default_alpha_grid(ref, x0_ref, n_points=10)
    assert grid.size == 10
    assert np.all(np.diff(grid) > 0)
    v_unc = evaluate_policy(ref, solve_riccati(ref).gain, x0_ref).volatility
    assert grid[0] < v_unc < grid[-1]


def test_sweep_boundary_monotone_and_concave(ref, x0_ref):
    grid = default_alpha_grid(ref, x0_ref, n_points=14)
    region = sweep_capacity_region(ref, grid, x0_ref)
    assert not region.failures
    assert len(region.points) == 14
    eff = region.efficiencies
    scale = float(np.max(np.abs(eff)))
    assert np.all(np.diff(eff) >= -1e-9 * scale)
    assert np.max(chord_excess(region.alphas, eff)) <= 1e-6 * scale


def test_sweep_threading_is_deterministic(ref, x0_ref):
    grid = np.geomspace(5.0, 500.0, 6)
    first = sweep_capacity_region(ref, grid, x0_ref)
    again = sweep_capacity_region(ref, grid, x0_ref)
    np.testing.assert_array_equal(first.efficiencies, again.efficiencies)
    lam_1 = [p.lambda_star for p in first.points]
    lam_2 = [p.lambda_star for p in again.points]
    assert lam_1 == lam_2


def test_sweep_validation(ref, x0_ref):
    with pytest.raises(ConfigError):
        sweep_capacity_region(ref, [1.0], x0_ref)
    with pytest.raises(ConfigError):
        sweep_capacity_region(ref, [2.0, 1.0], x0_ref)
    with pytest.raises(ConfigError):
        sweep_capacity_region(ref, [-1.0, 1.0], x0_ref)


def test_mixture_interpolates_exactly(ref, x0_ref):
    p1 = solve_constrained(ref, 10.0, x0_ref)
    p2 = solve_constrained(ref, 100.0, x0_ref)
    left = mixture_policy(p1, p2, 1.0)
    assert left.volatility == p1.achieved_volatility
    assert left.efficiency == p1.efficiency_star
    right = mixture_policy(p1, p2, 0.0)
    assert right.volatility == p2.achieved_volatility
    mid = mixture_policy(p1, p2, 0.5)
    assert mid.volatility == pytest.approx(
        0.5 * (p1.achieved_volatility + p2.achieved_volatility), rel=1e-15
    )
    assert mid.policy.weight == 0.5
    # raw triples work too
    tri = mixture_policy((1.0, -2.0, p1.policy), (3.0, -4.0, p2.policy), 0.25)
    assert tri.volatility == pytest.approx(0.25 * 1.0 + 0.75 * 3.0)
    assert tri.efficiency == pytest.approx(0.25 * -2.0 + 0.75 * -4.0)


def test_capacity_point_fields(ref, x0_ref):
    point = solve_constrained(ref, ALPHA_REF, x0_ref)
    assert isinstance(point, CapacityPoint)
    assert point.alpha == ALPHA_REF
    assert point.L_star == pytest.approx(
        q_alpha(ref, ALPHA_REF, point.lambda_star, x0_ref), rel=1e-12
    )


@pytest.mark.parametrize("gamma", [0.5, 0.9])
def test_sweep_solve_count_per_point(ref, x0_ref, monkeypatch, gamma):
    # one budget is a floor check, a few decades of bracket, a brentq root
    # of V(lam) = alpha and two solves at lam*: about ten Riccati solves
    system = replace(ref, gamma=gamma)
    grid = default_alpha_grid(system, x0_ref, n_points=10)
    solve = lqmarket.riccati.solve_riccati
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lqmarket.riccati, "solve_riccati", counted)
    region = sweep_capacity_region(system, grid, x0_ref)
    assert len(region.points) == 10
    assert len(calls) <= 15 * 10
