"""Renewable feed-in augmentation and the behind-the-meter day cycle."""
import dataclasses

import numpy as np
import pytest

from lqmarket import (
    ConfigError,
    LqrSystem,
    MarketInstance,
    NoiseSpec,
    SimConfig,
    SimulationError,
    check_controllability,
    evaluate_policy,
    simulate,
    solve_constrained,
    solve_riccati,
    solve_riccati_lambda,
)
from lqmarket.renewables import (
    DerScenario,
    DerStepper,
    build_renewable_system,
    capacity_shrinkage,
    der_cliff,
    volatility_vs_psi,
)
from conftest import make_ref_market
from oracles import affine_closed_loop_sums

X0_LIFTED = np.array([25.0, 25.0, 50.0, 0.0])


@pytest.fixture(scope="module")
def base():
    return make_ref_market()


# ------------------------------------------------------------- structure


def test_augmented_system_layout(base):
    ren = build_renewable_system(base, psi_r=0.5, sigma_r=0.9, sigma_c=0.01)
    aug = ren.augmented
    assert aug.d == 4
    assert ren.labels == ("demand", "supply", "price", "renewable")
    np.testing.assert_array_equal(aug.A[:3, :3], base.system.A)
    assert aug.A[1, 3] == 1.0
    assert aug.A[3, 2] == 0.01
    assert aug.A[3, 3] == 0.9
    assert np.count_nonzero(aug.A) == 8
    np.testing.assert_array_equal(aug.b, np.array([0.0, 0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(aug.Q[:3, :3], base.system.Q)
    assert np.all(aug.Q[3, :] == 0.0) and np.all(aug.Q[:, 3] == 0.0)
    np.testing.assert_array_equal(
        aug.noise.covariance, np.diag([2.0, 2.0, 0.0, 0.5])
    )
    assert aug.r == base.system.r and aug.gamma == base.system.gamma
    report = check_controllability(aug)
    assert report.rank == 4 and report.controllable


def test_augmented_system_validation(base):
    with pytest.raises(ConfigError):
        build_renewable_system(base, psi_r=-0.1)
    two_dim = LqrSystem(
        A=np.eye(2) * 0.5, b=np.array([0.0, 1.0]), noise=NoiseSpec.none(2),
        Q=np.eye(2), r=1.0, gamma=0.9,
    )
    tiny = MarketInstance(system=two_dim, labels=("a", "b"))
    with pytest.raises(ConfigError):
        build_renewable_system(tiny, psi_r=0.5)


def test_rebuild_is_deterministic(base):
    a = build_renewable_system(base, psi_r=1.0).augmented
    b = build_renewable_system(base, psi_r=1.0).augmented
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.noise.covariance, b.noise.covariance)


# ------------------------------------------------------- matched-budget sweep


def test_volatility_grows_with_feed_in_noise(base):
    table = volatility_vs_psi(base, [0.5, 1.0, 2.0], 27.0, X0_LIFTED)
    assert np.all(np.diff(table.volatility) > 0.0)
    # first row is the matching target itself
    ref = solve_constrained(
        build_renewable_system(base, 0.5).augmented, 27.0, X0_LIFTED
    )
    np.testing.assert_allclose(table.volatility[0], ref.achieved_volatility,
                               rtol=1e-9)
    assert table.alpha_matched[0] == 27.0
    assert table.efficiency_target == pytest.approx(ref.efficiency_star)
    # matched budgets can only grow as noise is added
    assert np.all(np.diff(table.alpha_matched) >= 0.0)


def test_trace_diagnostic_is_affine_in_psi(base):
    psi = np.array([0.5, 1.0, 2.0, 4.0])
    table = volatility_vs_psi(base, psi, 27.0, X0_LIFTED, fixed_lambda=1.0)
    slopes = np.diff(table.trace_term) / np.diff(psi)
    K = solve_riccati_lambda(
        build_renewable_system(base, 0.5).augmented, 1.0
    ).K
    np.testing.assert_allclose(slopes, K[3, 3], rtol=1e-9)
    assert K[3, 3] > 0.0


def test_psi_sweep_validation(base):
    with pytest.raises(ConfigError):
        volatility_vs_psi(base, [0.5], 27.0, X0_LIFTED)
    with pytest.raises(ConfigError):
        volatility_vs_psi(base, [1.0, 0.5], 27.0, X0_LIFTED)
    with pytest.raises(ConfigError):
        volatility_vs_psi(base, [-0.5, 1.0], 27.0, X0_LIFTED)
    with pytest.raises(ConfigError):
        volatility_vs_psi(base, [0.5, 1.0], 27.0, np.zeros(5))


def test_noisier_feed_in_shrinks_the_region(base):
    grid = np.geomspace(10.0, 2000.0, 6)
    result = capacity_shrinkage(base, [0.5, 4.0], grid, X0_LIFTED)
    assert len(result.regions) == 2
    assert all(len(r.points) == 6 for r in result.regions)
    (small_psi, big_psi, dominated, worst), = result.containment
    assert (small_psi, big_psi) == (0.5, 4.0)
    assert dominated
    assert worst <= 0.0 or worst <= 1e-8 * np.max(
        np.abs(result.regions[0].efficiencies)
    )


# ------------------------------------------------------------- day cycle


def test_der_scenario_noise_split(base):
    sc = DerScenario(base=base, sigma_rn=1.0, v1=0.1, v2=0.44,
                     psi_w=1.0, psi_s=1.0)
    assert sc.delta == 0.5
    assert sc.noise_total == 2.0
    resplit = sc.with_delta(0.9)
    assert resplit.noise_total == pytest.approx(2.0)
    assert resplit.delta == pytest.approx(0.9)
    assert resplit.psi_w == pytest.approx(1.8)
    with pytest.raises(ConfigError):
        sc.with_delta(1.0)
    with pytest.raises(ConfigError):
        sc.with_delta(-0.1)
    quiet = DerScenario(base=base, sigma_rn=0.0, v1=0.0, v2=0.0,
                        psi_w=0.0, psi_s=0.0)
    assert quiet.delta == 0.0
    with pytest.raises(ConfigError):
        quiet.with_delta(0.5)


def test_der_scenario_validation(base):
    with pytest.raises(ConfigError):
        DerScenario(base=base, sigma_rn=1.0, v1=0.5, v2=0.1)
    with pytest.raises(ConfigError):
        DerScenario(base=base, sigma_rn=1.0, v1=0.1, v2=0.44, period=0)
    with pytest.raises(ConfigError):
        DerScenario(base=base, sigma_rn=1.0, v1=0.1, v2=0.44, psi_w=-1.0)


def test_daily_profile_two_level_window(base):
    sc = DerScenario(base=base, sigma_rn=1.0, v1=0.1, v2=0.44, period=24)
    # midday plateau spans 30% to 70% of the day
    for t in range(8, 17):
        assert sc.daily_profile(t) == 0.44
    for t in list(range(0, 8)) + list(range(17, 24)):
        assert sc.daily_profile(t) == 0.1
    assert sc.daily_profile(24 + 6) == 0.1
    assert sc.daily_profile(24 + 12) == 0.44


def test_der_stepper_needs_market_rates(base):
    bare = MarketInstance(system=base.system, labels=base.labels, params={})
    sc = DerScenario(base=bare, sigma_rn=0.0, v1=0.0, v2=0.0)
    with pytest.raises(ConfigError):
        DerStepper(sc)


def test_quiet_day_cycle_is_the_base_closed_loop(base):
    # no feed-in, no weather or supply noise, no curtailment kick: the
    # stepper must reproduce the linear closed loop exactly
    sc = DerScenario(base=base, sigma_rn=0.0, v1=0.0, v2=0.0, xi=0.0,
                     psi_w=0.0, psi_s=0.0)
    stepper = DerStepper(sc, clip_demand=False)
    x0 = np.array([25.0, 25.0, 50.0])
    batch = simulate(stepper, None, x0, SimConfig(seed=3, n_paths=2, horizon=35))
    gain = solve_riccati(base.system).gain.gain
    F = base.system.A + np.outer(base.system.b, gain)
    vol, eff = affine_closed_loop_sums(F, gain, base.system.Q, x0,
                                       base.system.gamma, 35)
    np.testing.assert_allclose(batch.volatility.mean, vol, rtol=1e-12)
    np.testing.assert_allclose(batch.efficiency.mean, -eff, rtol=1e-12)
    assert batch.volatility.std_error == 0.0


def test_constant_feed_in_is_an_affine_forcing(base):
    # flat profile v1 = v2 = v acts as a constant demand drain
    v = 0.2
    sc = DerScenario(base=base, sigma_rn=1.0, v1=v, v2=v, xi=0.0,
                     psi_w=0.0, psi_s=0.0)
    stepper = DerStepper(sc, clip_demand=False)
    x0 = np.array([25.0, 25.0, 50.0])
    batch = simulate(stepper, None, x0, SimConfig(seed=3, n_paths=1, horizon=30))
    gain = solve_riccati(base.system).gain.gain
    F = base.system.A + np.outer(base.system.b, gain)
    vol, eff = affine_closed_loop_sums(
        F, gain, base.system.Q, x0, base.system.gamma, 30,
        forcing=lambda t: np.array([-v, 0.0, 0.0]),
    )
    np.testing.assert_allclose(batch.volatility.mean, vol, rtol=1e-12)
    np.testing.assert_allclose(batch.efficiency.mean, -eff, rtol=1e-12)


def test_supply_only_noise_matches_linear_model(base):
    # delta = 0 with no profile and no kick is the linear market with
    # supply noise, so the sampled volatility must agree within 3 SE
    psi = 0.5
    sc = DerScenario(base=base, sigma_rn=0.0, v1=0.0, v2=0.0, xi=0.0,
                     psi_w=0.0, psi_s=psi)
    stepper = DerStepper(sc, clip_demand=False)
    x0 = np.array([25.0, 25.0, 50.0])
    batch = simulate(stepper, None, x0,
                     SimConfig(seed=99, n_paths=3000, horizon=40))
    linear = LqrSystem(
        A=base.system.A, b=base.system.b,
        noise=NoiseSpec.diagonal([0.0, psi, 0.0]),
        Q=base.system.Q, r=base.system.r, gamma=base.system.gamma,
    )
    exact = evaluate_policy(linear, solve_riccati(base.system).gain, x0)
    assert abs(batch.volatility.mean - exact.volatility) \
        <= 3.0 * batch.volatility.std_error


def test_demand_clipping_binds_only_when_enabled(base):
    sc = DerScenario(base=base, sigma_rn=1.0, v1=0.1, v2=0.44, xi=0.0,
                     psi_w=0.0, psi_s=0.0)
    x0 = np.array([1.0, 1.0, 2.0])  # beta*1 - phi1*2 - 0.1 < 0 at t = 0
    cfg = SimConfig(seed=1, n_paths=1, horizon=5)
    clipped = simulate(DerStepper(sc, clip_demand=True), None, x0, cfg,
                       store_paths=True)
    free = simulate(DerStepper(sc, clip_demand=False), None, x0, cfg,
                    store_paths=True)
    assert clipped.states[0, 1, 0] == 0.0
    assert free.states[0, 1, 0] < 0.0


# -------------------------------------------------------------- the cliff


def test_cliff_table_reproducible_across_threads(base):
    sc = DerScenario(base=base, sigma_rn=1.0, v1=0.1, v2=0.44, xi=0.4)
    x0 = np.array([1.0, 1.0, 2.0])
    cfg = SimConfig(seed=7, n_paths=300, horizon=48)
    grid = np.array([0.0, 0.45, 0.9])
    one = der_cliff(sc, grid, x0, cfg)
    again = der_cliff(sc, grid, x0, cfg)
    np.testing.assert_array_equal(one.volatility, again.volatility)
    np.testing.assert_array_equal(one.std_error, again.std_error)
    np.testing.assert_array_equal(one.n_paths_excluded, again.n_paths_excluded)
    assert one.horizon == 48
    assert np.all(np.isfinite(one.volatility)) and np.all(one.volatility > 0.0)


def test_cliff_validation(base):
    sc = DerScenario(base=base, sigma_rn=1.0, v1=0.1, v2=0.44)
    x0 = np.array([1.0, 1.0, 2.0])
    good = SimConfig(seed=1, n_paths=10, horizon=8)
    with pytest.raises(ConfigError):
        der_cliff(sc, [0.5], x0, good)
    with pytest.raises(ConfigError):
        der_cliff(sc, [0.0, 1.0], x0, good)
    with pytest.raises(ConfigError):
        der_cliff(sc, [0.5, 0.2], x0, good)
    with pytest.raises(ConfigError):
        der_cliff(sc, [0.0, 0.5], x0, SimConfig(seed=1, n_paths=10))


def test_runaway_curtailment_kick_fails_loudly(base):
    sc = DerScenario(base=base, sigma_rn=1.0, v1=0.1, v2=0.44, xi=5.0,
                     psi_w=4.0, psi_s=0.01)
    stepper = DerStepper(sc)
    with pytest.raises(SimulationError):
        simulate(stepper, None, np.array([1.0, 1.0, 2.0]),
                 SimConfig(seed=2, n_paths=20, horizon=48, state_bound=1e12))
