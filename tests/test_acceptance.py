"""Acceptance gate: ten numbered criteria, one test per report line.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Every test also enforces a wall-clock budget for its own
computation.

c02 is expected to fail.  Its second clause demands downward curvature
from the state-penalizing cost curve, and on the reference market that
curve genuinely bends upward at small control penalties; the failure
message carries the measured numbers.  The other nine criteria pass.
"""
import time
from dataclasses import replace

import numpy as np

from lqmarket import (
    DerScenario,
    LqrSystem,
    NoiseSpec,
    SimConfig,
    best_response,
    capacity_shrinkage,
    concavity_scan,
    default_alpha_grid,
    der_cliff,
    evaluate_policy,
    maximize_dual,
    mixture_policy,
    optimal_cost,
    q_alpha,
    simulate,
    social_cost_scan,
    solve_constrained,
    solve_nash,
    solve_riccati,
    sweep_capacity_region,
    volatility_vs_psi,
)
from lqmarket.cli import main
from conftest import (
    GAME_X0,
    REF_X0,
    SCENARIO_DIR,
    make_ref_market,
    make_two_player_market,
)
from oracles import bellman_iteration_cost, grid_maximize, scalar_riccati_root


def divided_diffs(x, v):
    d1 = np.diff(v) / np.diff(x)
    d2 = np.diff(d1) / (0.5 * (x[2:] - x[:-2]))
    return d1, d2


def test_c01_riccati_matches_scalar_root_and_value_iteration():
    t0 = time.perf_counter()
    scalar = LqrSystem(
        A=[[1.1]], b=[1.0], noise=NoiseSpec.none(1), Q=[[1.0]], r=1.0, gamma=0.9
    )
    K = solve_riccati(scalar).K[0, 0]

    system = make_ref_market().system
    x0 = np.array(REF_X0)
    J = optimal_cost(system, x0)
    oracle = bellman_iteration_cost(
        system.A, system.b, system.Q, system.r, system.gamma,
        system.noise.covariance, x0, n_iter=80,
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0

    assert abs(K - scalar_riccati_root(1.1, 1.0, 1.0, 0.9)) <= 1e-8
    assert abs(J - oracle) <= 1e-6 * abs(oracle)


def test_c02_both_cost_curves_rise_and_bend_downward():
    t0 = time.perf_counter()
    system = make_ref_market().system
    x0 = np.array(REF_X0)
    r_grid = np.geomspace(1e-2, 1e3, 25)
    opt = concavity_scan(system, r_grid, x0, which="optimal_cost")
    sp = concavity_scan(system, r_grid, x0, which="state_penalizing")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0

    assert np.all(opt.d1 > 0.0)
    assert np.all(opt.d2 <= 1e-6 * opt.value_scale)
    assert np.all(sp.d1 > 0.0)

    worst = float(sp.d2.max())
    r_at = float(sp.r[int(np.argmax(sp.d2)) + 1])
    tol = 1e-6 * sp.value_scale
    assert worst <= tol, (
        "state-penalizing cost curve is not concave on the reference market: "
        f"max divided second difference {worst:+.5g} near r={r_at:.4g} "
        f"(tolerance {tol:.3g}, curve scale {sp.value_scale:.6g}). The upward "
        "bend is genuine, not a solver artifact: an independent evaluation "
        "(scipy DARE plus a dense Lyapunov solve, no shared code) puts the "
        "second derivative near +8.5e3 at r=0.05, stable under step "
        "refinement, and the curve only turns concave past r~0.1; the grid's "
        "right half passes this same check."
    )


def test_c03_dual_profile_single_peaked_and_golden_section_finds_sup():
    t0 = time.perf_counter()
    system = make_ref_market().system
    x0 = np.array(REF_X0)
    lam = np.geomspace(1e-3, 1e2, 50)
    q = np.array([q_alpha(system, 27.0, lv, x0) for lv in lam])
    lam_star, L_star = maximize_dual(system, 27.0, x0)
    _, grid_sup = grid_maximize(lambda lv: q_alpha(system, 27.0, lv, x0), 1e-6, 1e3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0

    peak = int(np.argmax(q))
    assert 0 < peak < lam.size - 1
    steps = np.diff(q)
    assert np.all(steps[:peak] > 0.0)
    assert np.all(steps[peak:] < 0.0)
    _, d2 = divided_diffs(lam, q)
    assert np.all(d2 <= 1e-6 * np.max(np.abs(q)))
    assert abs(L_star - grid_sup) <= 1e-6 * abs(grid_sup)
    assert lam[0] <= lam_star <= lam[-1]


def test_c04_capacity_boundaries_dominate_and_budgets_bind():
    t0 = time.perf_counter()
    sys05 = make_ref_market().system
    sys09 = replace(sys05, gamma=0.9)
    x0 = np.array(REF_X0)
    grid = default_alpha_grid(sys05, x0, n_points=40)
    reg05 = sweep_capacity_region(sys05, grid, x0)
    reg09 = sweep_capacity_region(sys09, grid, x0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0

    assert len(reg05.points) == 40 and len(reg09.points) == 40
    for region in (reg05, reg09):
        eff = region.efficiencies
        scale = float(np.max(np.abs(eff)))
        assert np.all(np.diff(eff) >= -1e-9 * scale)
        _, d2 = divided_diffs(region.alphas, eff)
        assert np.all(d2 <= 1e-6 * scale)
        assert any(p.binding for p in region.points)
        for p in region.points:
            if p.binding:
                assert abs(p.achieved_volatility - p.alpha) <= 0.02 * p.alpha
    gap_scale = float(np.max(np.abs(reg05.efficiencies)))
    assert np.all(reg05.efficiencies >= reg09.efficiencies - 1e-9 * gap_scale)


def test_c05_single_draw_mixtures_trace_the_chord():
    t0 = time.perf_counter()
    system = make_ref_market().system
    x0 = np.array(REF_X0)
    p1 = solve_constrained(system, 27.0, x0)
    p2 = solve_constrained(system, 270.0, x0)
    assert p1.binding and p2.binding
    for mu in (0.25, 0.5, 0.75):
        mix = mixture_policy(p1, p2, mu)
        batch = simulate(
            system, mix.policy, x0, SimConfig(seed=9001, n_paths=10_000)
        )
        assert (
            abs(batch.volatility.mean - mix.volatility)
            <= 3.0 * batch.volatility.std_error
        )
        assert (
            abs(batch.efficiency.mean - mix.efficiency)
            <= 3.0 * batch.efficiency.std_error
        )
    assert time.perf_counter() - t0 < 60.0


def test_c06_closed_form_functionals_match_monte_carlo():
    t0 = time.perf_counter()
    system = make_ref_market().system
    x0 = np.array(REF_X0)
    mc_vol = {}
    for r in (0.01, 1.0, 1000.0):
        sys_r = system.with_r(r)
        gain = solve_riccati(sys_r).gain
        exact = evaluate_policy(sys_r, gain, x0)
        batch = simulate(sys_r, gain, x0, SimConfig(seed=20240601, n_paths=10_000))
        for est, target in (
            (batch.cost, exact.cost),
            (batch.volatility, exact.volatility),
            (batch.efficiency, exact.efficiency),
        ):
            assert abs(est.mean - target) <= 3.0 * est.std_error
        mc_vol[r] = batch.volatility.mean
    assert mc_vol[0.01] >= 1e3 * mc_vol[1000.0]
    assert time.perf_counter() - t0 < 90.0


def test_c07_equilibrium_certified_and_social_cost_concave_in_r():
    t0 = time.perf_counter()
    spec = make_two_player_market()
    x0 = np.array(GAME_X0)
    eq = solve_nash(spec)
    scan = social_cost_scan(spec, np.geomspace(0.1, 100.0, 15), x0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0

    assert eq.residual <= 1e-8
    assert eq.spectral_radius_F < 1.0
    for i in range(2):
        br = best_response(eq.game, eq, i)
        scale = max(1.0, float(np.max(np.abs(eq.p[i]))))
        assert np.max(np.abs(br.gain.gain + eq.p[i])) <= 1e-6 * scale

    scale = float(np.max(np.abs(scan.J_N)))
    assert np.all(scan.d1 >= -1e-12 * scale)
    assert np.all(scan.d2 <= 1e-6 * scale)
    assert scan.J_N[0] < scan.J_N[-1]


def test_c08_feed_in_noise_raises_matched_volatility_and_shrinks_regions():
    t0 = time.perf_counter()
    market = make_ref_market()
    x0 = np.array(REF_X0)
    table = volatility_vs_psi(market, [0.5, 1.0, 2.0, 4.0, 8.0], alpha=27.0, x0=x0)
    shrink = capacity_shrinkage(
        market, [0.5, 8.0], np.geomspace(10.0, 2000.0, 12), x0
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0

    assert np.all(np.diff(table.volatility) > 0.0)
    slopes = np.diff(table.trace_term) / np.diff(table.psi_r)
    assert np.all(slopes > 0.0)
    np.testing.assert_allclose(slopes, slopes[0], rtol=1e-9)
    lo, hi, dominated, _worst = shrink.containment[0]
    assert (lo, hi) == (0.5, 8.0)
    assert dominated


def test_c09_weather_noise_cliff_steepens_and_reruns_bitwise():
    t0 = time.perf_counter()
    # Same numbers as scenarios/fig8_der_cliff.yaml.
    scenario = DerScenario(
        base=make_ref_market(),
        sigma_rn=1.0,
        v1=0.1,
        v2=0.44,
        xi=0.4,
        psi_w=1.0,
        psi_s=1.0,
    )
    config = SimConfig(seed=77, n_paths=20_000, horizon=48)
    deltas = np.round(np.arange(10) * 0.1, 1)
    x0 = np.array([1.0, 1.0, 2.0])
    table = der_cliff(scenario, deltas, x0, config)
    again = der_cliff(scenario, deltas, x0, config)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0

    steps = np.diff(table.volatility)
    assert np.all(steps > 0.0)
    assert steps[-1] >= 2.0 * steps[0]
    np.testing.assert_array_equal(table.volatility, again.volatility)
    np.testing.assert_array_equal(table.std_error, again.std_error)
    np.testing.assert_array_equal(table.n_paths_excluded, again.n_paths_excluded)


def test_c10_shipped_scenarios_reproduce_byte_identical_tables(tmp_path):
    t0 = time.perf_counter()
    stems = sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml"))
    assert len(stems) == 8
    for stem in stems:
        scenario = str(SCENARIO_DIR / f"{stem}.yaml")
        dir_a = tmp_path / "a" / stem
        dir_b = tmp_path / "b" / stem
        assert main(["run", scenario, "--out-dir", str(dir_a), "--threads", "1"]) == 0
        assert main(["run", scenario, "--out-dir", str(dir_b), "--threads", "3"]) == 0
        csvs_a = sorted(dir_a.glob("*.csv"))
        csvs_b = sorted(dir_b.glob("*.csv"))
        assert csvs_a
        assert [p.name for p in csvs_a] == [p.name for p in csvs_b]
        # Manifests carry wall time and a timestamp, so the byte-level
        # contract covers the tables only.
        for fa, fb in zip(csvs_a, csvs_b):
            assert fa.read_bytes() == fb.read_bytes(), (
                f"{stem}: {fa.name} differs between identically seeded runs"
            )
    assert time.perf_counter() - t0 < 300.0
