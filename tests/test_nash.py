"""Two-player market equilibrium: assembly, fixed point, simulation."""
import numpy as np
import pytest

from lqmarket import (
    ConfigError,
    LqrSystem,
    MarketSpecPA,
    NoiseSpec,
    ProsumerSpec,
    SimConfig,
    assemble_aggregate,
    best_response,
    nash_social_cost,
    simulate_equilibrium,
    social_cost_scan,
    solve_nash,
    solve_riccati,
)
from conftest import GAME_X0, make_two_player_market
from oracles import quadratic_value, scipy_lyapunov


@pytest.fixture(scope="module")
def eq(game_spec):
    return solve_nash(game_spec)


# -------------------------------------------------------------- assembly


def test_aggregate_layout(game_spec):
    game = assemble_aggregate(game_spec)
    assert game.dim == 5
    assert not game.has_constant
    assert game.labels == ("demand_0", "allocated_0", "bid_0", "supply_1", "bid_1")
    assert game.alpha_indices == (2, 4)
    w = game_spec.kappa / 2.0
    expected_A = np.array(
        [
            [0.8, 0.0, 0.3 - w, 0.0, -w],
            [0.0, 0.7, 0.2, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, w, 0.85, 0.25 + w],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    np.testing.assert_allclose(game.A, expected_A, atol=1e-15)
    np.testing.assert_array_equal(game.b[0], np.eye(5)[2])
    np.testing.assert_array_equal(game.b[1], np.eye(5)[4])
    assert np.all(game.Q[0][3:, :] == 0.0) and np.all(game.Q[0][:, 3:] == 0.0)
    assert np.all(game.Q[1][:3, :] == 0.0) and np.all(game.Q[1][:, :3] == 0.0)
    np.testing.assert_array_equal(game.Q[0][:3, :3], game_spec.consumers[0].Q_block)
    np.testing.assert_array_equal(game.Q[1][3:, 3:], game_spec.producers[0].Q_block)


def test_clearing_price_is_bid_average(game_spec):
    game = assemble_aggregate(game_spec)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert game.clearing_price(x) == pytest.approx(game_spec.kappa / 2.0 * (3.0 + 5.0))
    X = np.stack([x, 2 * x])
    np.testing.assert_allclose(
        game.clearing_price(X), game_spec.kappa / 2.0 * np.array([8.0, 16.0])
    )


def test_price_offset_adds_constant_coordinate(game_spec):
    spec = MarketSpecPA(
        consumers=game_spec.consumers,
        producers=game_spec.producers,
        kappa=game_spec.kappa,
        zeta=1.5,
        r=game_spec.r,
        gamma=game_spec.gamma,
        noise=game_spec.noise,
    )
    game = assemble_aggregate(spec)
    assert game.has_constant
    assert game.dim == 6
    assert game.labels[-1] == "const"
    assert game.A[5, 5] == 1.0
    w = spec.kappa / 2.0
    assert game.A[0, 5] == pytest.approx(-w * 1.5)
    assert game.A[3, 5] == pytest.approx(+w * 1.5)
    # noise covariance is padded with a silent constant coordinate
    assert game.noise.d == 6
    assert np.all(game.noise.covariance[5, :] == 0.0)
    lifted = game.lift_x0(np.array(GAME_X0))
    assert lifted.shape == (6,)
    assert lifted[-1] == 1.0
    with pytest.raises(ConfigError):
        game.lift_x0(np.concatenate([GAME_X0, [0.0]]))
    x = np.zeros(6)
    x[5] = 1.0
    assert game.clearing_price(x) == pytest.approx(w * 1.5)


def test_participant_template_zeros_are_enforced():
    with pytest.raises(ConfigError):
        ProsumerSpec(
            kind="consumer",
            A_block=np.array([[0.8, 0.1, 0.3], [0.0, 0.7, 0.2], [0.0, 0.0, 0.0]]),
            Q_block=np.eye(3),
        )
    with pytest.raises(ConfigError):
        ProsumerSpec(
            kind="producer",
            A_block=np.array([[0.85, 0.25], [0.1, 0.0]]),
            Q_block=np.eye(2),
        )
    with pytest.raises(ConfigError):
        ProsumerSpec(kind="trader", A_block=np.eye(2), Q_block=np.eye(2))
    with pytest.raises(ConfigError):
        ProsumerSpec(kind="producer", A_block=np.eye(3), Q_block=np.eye(3))


def test_market_spec_validation(game_spec):
    consumer, producer = game_spec.consumers[0], game_spec.producers[0]
    with pytest.raises(ConfigError):
        MarketSpecPA(consumers=(), producers=(), kappa=0.3, zeta=0.0, r=1.0,
                     gamma=0.9, noise=NoiseSpec.none(1))
    with pytest.raises(ConfigError):
        MarketSpecPA(consumers=(producer,), producers=(), kappa=0.3, zeta=0.0,
                     r=1.0, gamma=0.9, noise=NoiseSpec.none(2))
    with pytest.raises(ConfigError):
        MarketSpecPA(consumers=(consumer,), producers=(producer,), kappa=0.3,
                     zeta=0.0, r=0.0, gamma=0.9, noise=NoiseSpec.none(5))
    with pytest.raises(ConfigError):
        MarketSpecPA(consumers=(consumer,), producers=(producer,), kappa=0.3,
                     zeta=0.0, r=1.0, gamma=1.0, noise=NoiseSpec.none(5))
    with pytest.raises(ConfigError):
        MarketSpecPA(consumers=(consumer,), producers=(producer,), kappa=0.3,
                     zeta=0.0, r=1.0, gamma=0.9, noise=NoiseSpec.none(4))


# ------------------------------------------------------------ fixed point


def test_equilibrium_is_certified(eq):
    assert eq.residual <= 1e-8
    assert eq.spectral_radius_F < 1.0
    assert eq.iterations >= 1
    closed = eq.game.A - np.outer(eq.game.b[0], eq.p[0]) - np.outer(
        eq.game.b[1], eq.p[1]
    )
    np.testing.assert_allclose(eq.F, closed, atol=1e-15)
    for policy, p in zip(eq.policies(), eq.p):
        np.testing.assert_array_equal(policy.gain, -p)


def test_each_player_is_at_a_best_response(eq):
    for i in range(2):
        br = best_response(eq.game, eq, i)
        scale = max(1.0, float(np.max(np.abs(eq.p[i]))))
        assert np.max(np.abs(br.gain.gain + eq.p[i])) <= 1e-6 * scale
        np.testing.assert_allclose(br.K, eq.K[i], rtol=1e-6, atol=1e-9)


def test_indifferent_producer_reduces_to_single_agent(game_spec):
    producer = ProsumerSpec(
        kind="producer",
        A_block=game_spec.producers[0].A_block,
        Q_block=np.zeros((2, 2)),
    )
    spec = MarketSpecPA(
        consumers=game_spec.consumers,
        producers=(producer,),
        kappa=game_spec.kappa,
        zeta=0.0,
        r=game_spec.r,
        gamma=game_spec.gamma,
        noise=game_spec.noise,
    )
    eq0 = solve_nash(spec)
    assert np.max(np.abs(eq0.p[1])) <= 1e-10
    game = assemble_aggregate(spec)
    single = LqrSystem(
        A=game.A, b=game.b[0], noise=NoiseSpec.none(5), Q=game.Q[0],
        r=spec.r, gamma=spec.gamma,
    )
    sol = solve_riccati(single)
    np.testing.assert_allclose(-eq0.p[0], sol.gain.gain, rtol=1e-8, atol=1e-10)


def test_identical_producers_play_symmetric_policies(game_spec):
    producer = game_spec.producers[0]
    spec = MarketSpecPA(
        consumers=(),
        producers=(producer, producer),
        kappa=game_spec.kappa,
        zeta=0.0,
        r=1.0,
        gamma=0.9,
        noise=NoiseSpec.diagonal((0.2, 0.0, 0.2, 0.0)),
    )
    eq2 = solve_nash(spec)
    swap = [2, 3, 0, 1]
    np.testing.assert_allclose(eq2.p[1], eq2.p[0][swap], rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(
        eq2.K[1], eq2.K[0][np.ix_(swap, swap)], rtol=1e-9, atol=1e-12
    )


def test_solver_needs_exactly_two_players(game_spec):
    spec = MarketSpecPA(
        consumers=game_spec.consumers, producers=(), kappa=0.3, zeta=0.0,
        r=1.0, gamma=0.9, noise=NoiseSpec.none(3),
    )
    with pytest.raises(ConfigError):
        solve_nash(spec)
    with pytest.raises(ConfigError):
        solve_nash("not a market")


# ------------------------------------------------------------ social cost


def test_social_cost_scan_matches_pointwise_solves(game_spec, game_x0):
    grid = np.geomspace(0.5, 50.0, 5)
    scan = social_cost_scan(game_spec, grid, game_x0)
    assert scan.J_N.shape == (5,)
    assert scan.d1.shape == (4,)
    assert scan.d2.shape == (3,)
    for r, value in zip(grid, scan.J_N):
        eq_r = solve_nash(game_spec.with_r(float(r)))
        np.testing.assert_allclose(
            value, nash_social_cost(eq_r.game, eq_r, game_x0), rtol=1e-9
        )


def test_social_cost_scan_thread_count_is_invisible(game_spec, game_x0):
    grid = np.geomspace(0.5, 50.0, 5)
    one = social_cost_scan(game_spec, grid, game_x0)
    again = social_cost_scan(game_spec, grid, game_x0)
    np.testing.assert_array_equal(one.J_N, again.J_N)


def test_social_cost_scan_validation(game_spec, game_x0):
    with pytest.raises(ConfigError):
        social_cost_scan(game_spec, [1.0, 2.0], game_x0)
    with pytest.raises(ConfigError):
        social_cost_scan(game_spec, [2.0, 1.0, 3.0], game_x0)
    with pytest.raises(ConfigError):
        social_cost_scan(game_spec, [0.0, 1.0, 2.0], game_x0)


# -------------------------------------------------------------- sampling


def test_equilibrium_simulation_requires_horizon(eq, game_x0):
    with pytest.raises(ConfigError):
        simulate_equilibrium(eq.game, eq, game_x0, SimConfig(seed=1, n_paths=4))


def test_equilibrium_simulation_is_deterministic(eq, game_x0):
    cfg = SimConfig(seed=11, n_paths=16, horizon=30)
    b1 = simulate_equilibrium(eq.game, eq, game_x0, cfg, store_paths=True)
    b2 = simulate_equilibrium(eq.game, eq, game_x0, cfg, store_paths=True)
    np.testing.assert_array_equal(b1.alpha_paths, b2.alpha_paths)
    np.testing.assert_array_equal(b1.states, b2.states)
    assert b1.player_volatility[0].mean == b2.player_volatility[0].mean
    assert b1.states.shape == (16, 31, 5)
    np.testing.assert_array_equal(b1.states[:, 0, :], np.tile(game_x0, (16, 1)))


def test_player_control_energy_matches_closed_form(eq, game_x0):
    game = eq.game
    batch = simulate_equilibrium(
        game, eq, game_x0, SimConfig(seed=303, n_paths=2000, horizon=160)
    )
    assert batch.n_excluded == 0
    for i in range(2):
        W = scipy_lyapunov(eq.F, np.outer(eq.p[i], eq.p[i]), game.gamma)
        exact = quadratic_value(W, np.asarray(game_x0), game.gamma,
                                game.noise.covariance)
        est = batch.player_volatility[i]
        assert abs(est.mean - exact) <= 3.0 * est.std_error


def test_quiet_market_stays_exactly_at_rest(game_spec):
    spec = MarketSpecPA(
        consumers=game_spec.consumers,
        producers=game_spec.producers,
        kappa=game_spec.kappa,
        zeta=0.0,
        r=game_spec.r,
        gamma=game_spec.gamma,
        noise=NoiseSpec.none(5),
    )
    eq0 = solve_nash(spec)
    batch = simulate_equilibrium(
        eq0.game, eq0, np.zeros(5), SimConfig(seed=0, n_paths=3, horizon=20)
    )
    assert np.all(batch.alpha_paths == 0.0)
    assert batch.player_volatility[0].mean == 0.0
    assert batch.player_volatility[1].mean == 0.0


def test_price_variance_falls_as_control_gets_expensive(game_spec, game_x0):
    variances = []
    for r in (0.1, 1.0, 10.0, 100.0):
        eq_r = solve_nash(game_spec.with_r(r))
        batch = simulate_equilibrium(
            eq_r.game, eq_r, game_x0,
            SimConfig(seed=20240817, n_paths=400, horizon=160),
        )
        variances.append(float(np.var(batch.alpha_paths[:, -40:])))
    assert all(a > b for a, b in zip(variances, variances[1:]))
