"""Two-player linear-quadratic market equilibrium.

Consumers carry three coordinates (demand, allocated power, bid) and
producers two (supply, bid); each player's control resets its own bid.
Bids feed back into every demand and supply row through the clearing
price, a kappa-weighted average of all bids plus an offset zeta.  A
nonzero zeta is handled by appending a constant-one coordinate.

The equilibrium solver iterates policy evaluation with a joint linear
solve for both feedback rows, damped half-and-half, and certifies the
fixed point by residuals of the stationarity and evaluation equations.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateMarketError, SolverDivergenceError
from .model import LinearPolicy, LqrSystem, NoiseSpec, clean_spsd
from .riccati import solve_discounted_lyapunov, solve_riccati
from .simulate import SimConfig, _draw_paths, noise_factor
from .util import (
    discounted_quadratic_value,
    divided_first_diffs,
    divided_second_diffs,
    increasing_grid,
    spectral_radius,
    symmetrize,
)

CONSUMER_DIM = 3
PRODUCER_DIM = 2
# Entries the block templates force to zero (bid rows are pure controls).
CONSUMER_ZEROS = ((0, 1), (1, 0), (2, 0), (2, 1), (2, 2))
PRODUCER_ZEROS = ((1, 0), (1, 1))

NASH_TOL = 1e-12
NASH_MAX_ITER = 10_000
NASH_DAMPING = 0.5


@dataclass(frozen=True)
class ProsumerSpec:
    """One market participant: a dynamics block and a cost block.

    ``price_response`` scales how the participant's propensity row reacts
    to the clearing price; consumers default to -1 (demand falls with
    price), producers to +1 (supply rises).
    """

    kind: str
    A_block: np.ndarray
    Q_block: np.ndarray
    price_response: float | None = None

    def __post_init__(self):
        if self.kind not in ("consumer", "producer"):
            raise ConfigError(
                f"prosumer kind must be consumer or producer, got {self.kind!r}"
            )
        dim = CONSUMER_DIM if self.kind == "consumer" else PRODUCER_DIM
        A = np.asarray(self.A_block, dtype=float)
        if A.shape != (dim, dim):
            raise ConfigError(
                f"{self.kind} A_block must have shape ({dim}, {dim}), got {A.shape}"
            )
        zeros = CONSUMER_ZEROS if self.kind == "consumer" else PRODUCER_ZEROS
        for i, j in zeros:
            if A[i, j] != 0.0:
                raise ConfigError(
                    f"{self.kind} A_block entry ({i}, {j}) must be zero, "
                    f"got {A[i, j]}"
                )
        Q = clean_spsd(self.Q_block, f"{self.kind} Q_block")
        pr = self.price_response
        if pr is None:
            pr = -1.0 if self.kind == "consumer" else 1.0
        pr = float(pr)
        A = A.copy()
        A.setflags(write=False)
        object.__setattr__(self, "A_block", A)
        object.__setattr__(self, "Q_block", Q)
        object.__setattr__(self, "price_response", pr)

    @property
    def dim(self) -> int:
        return CONSUMER_DIM if self.kind == "consumer" else PRODUCER_DIM


@dataclass(frozen=True)
class MarketSpecPA:
    """A full market: participant blocks plus clearing and cost scalars."""

    consumers: tuple[ProsumerSpec, ...]
    producers: tuple[ProsumerSpec, ...]
    kappa: float
    zeta: float
    r: float
    gamma: float
    noise: NoiseSpec

    def __post_init__(self):
        consumers = tuple(self.consumers)
        producers = tuple(self.producers)
        if not consumers and not producers:
            raise ConfigError("market needs at least one participant")
        for spec, expect in [(consumers, "consumer"), (producers, "producer")]:
            for p in spec:
                if p.kind != expect:
                    raise ConfigError(
                        f"{expect} list contains a {p.kind} block"
                    )
        if not (float(self.r) > 0.0):
            raise ConfigError(f"control penalty r must be positive, got {self.r}")
        if not (0.0 < float(self.gamma) < 1.0):
            raise ConfigError(f"discount gamma must lie in (0, 1), got {self.gamma}")
        if self.noise.d != self.market_dim_of(consumers, producers):
            raise ConfigError(
                f"noise covariance has dimension {self.noise.d}, expected "
                f"{self.market_dim_of(consumers, producers)}"
            )
        object.__setattr__(self, "consumers", consumers)
        object.__setattr__(self, "producers", producers)
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "zeta", float(self.zeta))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "gamma", float(self.gamma))

    @staticmethod
    def market_dim_of(consumers, producers) -> int:
        return CONSUMER_DIM * len(consumers) + PRODUCER_DIM * len(producers)

    @property
    def market_dim(self) -> int:
        return self.market_dim_of(self.consumers, self.producers)

    @property
    def n_players(self) -> int:
        return len(self.consumers) + len(self.producers)

    def with_r(self, r: float) -> "MarketSpecPA":
        return replace(self, r=r)


@dataclass(frozen=True)
class AggregateGame:
    """Stacked market dynamics with one control channel per player."""

    A: np.ndarray
    b: tuple[np.ndarray, ...]
    Q: tuple[np.ndarray, ...]
    noise: NoiseSpec
    alpha_indices: tuple[int, ...]
    labels: tuple[str, ...]
    kappa: float
    zeta: float
    r: float
    gamma: float
    market_dim: int
    has_constant: bool

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def n_players(self) -> int:
        return len(self.b)

    def lift_x0(self, x0) -> np.ndarray:
        """Append the constant-one coordinate when the game carries one."""
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.shape[0] == self.dim:
            if self.has_constant and x0[-1] != 1.0:
                raise ConfigError("constant coordinate of x0 must equal 1")
            return x0
        if self.has_constant and x0.shape[0] == self.market_dim:
            return np.concatenate([x0, [1.0]])
        raise ConfigError(
            f"x0 has length {x0.shape[0]}, expected {self.market_dim}"
            + (f" or {self.dim}" if self.has_constant else "")
        )

    def clearing_price(self, X) -> np.ndarray:
        """kappa-weighted average of all bids plus the offset."""
        X = np.asarray(X, dtype=float)
        total = X[..., list(self.alpha_indices)].sum(axis=-1) + self.zeta
        return self.kappa / self.n_players * total


def assemble_aggregate(spec: MarketSpecPA) -> AggregateGame:
    """Stack participant blocks and wire the clearing-price coupling.

    Each participant's demand or supply row reacts to the clearing price,
    which spreads price_response * kappa / n_players across every bid
    column (and, for zeta != 0, onto a constant-one coordinate appended
    at the end).
    """
    participants = list(spec.consumers) + list(spec.producers)
    n_players = len(participants)
    m = spec.market_dim
    has_constant = spec.zeta != 0.0
    dim = m + 1 if has_constant else m

    A = np.zeros((dim, dim))
    labels: list[str] = []
    alpha_indices: list[int] = []
    price_rows: list[int] = []
    offsets: list[int] = []
    off = 0
    for k, p in enumerate(participants):
        offsets.append(off)
        A[off : off + p.dim, off : off + p.dim] = p.A_block
        if p.kind == "consumer":
            labels += [f"demand_{k}", f"allocated_{k}", f"bid_{k}"]
            alpha_indices.append(off + 2)
        else:
            labels += [f"supply_{k}", f"bid_{k}"]
            alpha_indices.append(off + 1)
        price_rows.append(off)
        off += p.dim

    weight = spec.kappa / n_players
    for k, p in enumerate(participants):
        row = price_rows[k]
        for j in alpha_indices:
            A[row, j] += p.price_response * weight
        if has_constant:
            A[row, m] += p.price_response * weight * spec.zeta

    if has_constant:
        A[m, m] = 1.0
        labels.append("const")

    b = []
    Q = []
    for k, p in enumerate(participants):
        bk = np.zeros(dim)
        bk[alpha_indices[k]] = 1.0
        b.append(bk)
        Qk = np.zeros((dim, dim))
        o = offsets[k]
        Qk[o : o + p.dim, o : o + p.dim] = p.Q_block
        Q.append(Qk)

    noise = spec.noise
    if has_constant:
        cov = np.zeros((dim, dim))
        cov[:m, :m] = spec.noise.covariance
        noise = NoiseSpec(covariance=cov, family=spec.noise.family)

    return AggregateGame(
        A=A,
        b=tuple(b),
        Q=tuple(Q),
        noise=noise,
        alpha_indices=tuple(alpha_indices),
        labels=tuple(labels),
        kappa=spec.kappa,
        zeta=spec.zeta,
        r=spec.r,
        gamma=spec.gamma,
        market_dim=m,
        has_constant=has_constant,
    )


@dataclass(frozen=True)
class NashEquilibrium:
    p: tuple[np.ndarray, ...]
    K: tuple[np.ndarray, ...]
    F: np.ndarray
    gain_residuals: tuple[float, ...]
    evaluation_residuals: tuple[float, ...]
    spectral_radius_F: float
    iterations: int
    game: AggregateGame

    @property
    def residual(self) -> float:
        return max(max(self.gain_residuals), max(self.evaluation_residuals))

    def policies(self) -> tuple[LinearPolicy, ...]:
        return tuple(LinearPolicy(-p) for p in self.p)


def _dynamic_radius(game: AggregateGame, F: np.ndarray) -> float:
    # The constant-one coordinate contributes a structural eigenvalue 1;
    # stability concerns only the market block.
    if game.has_constant:
        return spectral_radius(F[: game.market_dim, : game.market_dim])
    return spectral_radius(F)


def _as_game(market) -> AggregateGame:
    if isinstance(market, MarketSpecPA):
        return assemble_aggregate(market)
    if isinstance(market, AggregateGame):
        return market
    raise ConfigError("expected a MarketSpecPA or AggregateGame")


def solve_nash(
    market,
    tol: float = NASH_TOL,
    max_iter: int = NASH_MAX_ITER,
    damping: float = NASH_DAMPING,
) -> NashEquilibrium:
    """Damped fixed-point solve for a two-player feedback equilibrium.

    Alternates policy evaluation (each player's discounted weight under
    the current closed loop) with a joint 2x2 linear solve for both
    feedback rows, then averages old and new rows with the damping
    weight.  Convergence is declared when the undamped update no longer
    moves; the final iterate is certified by explicit residuals.
    """
    game = _as_game(market)
    if game.n_players != 2:
        raise ConfigError(
            f"equilibrium solve supports exactly two players, got {game.n_players}"
        )
    A, gamma, r = game.A, game.gamma, game.r
    b1, b2 = game.b
    Q1, Q2 = game.Q
    dim = game.dim

    p = [np.zeros(dim), np.zeros(dim)]
    for iteration in range(1, max_iter + 1):
        F = A - np.outer(b1, p[0]) - np.outer(b2, p[1])
        K = [
            solve_discounted_lyapunov(F, r * np.outer(p[i], p[i]) + Qi, gamma).S
            for i, Qi in enumerate((Q1, Q2))
        ]
        k1b = K[0] @ b1, K[0] @ b2
        k2b = K[1] @ b1, K[1] @ b2
        M = np.array(
            [
                [r + gamma * float(b1 @ k1b[0]), gamma * float(b1 @ k1b[1])],
                [gamma * float(b2 @ k2b[0]), r + gamma * float(b2 @ k2b[1])],
            ]
        )
        Y = np.vstack([gamma * (b1 @ K[0] @ A), gamma * (b2 @ K[1] @ A)])
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        scale = float(np.max(np.abs(M)))
        if abs(det) <= 1e-14 * scale * scale:
            raise DegenerateMarketError(
                f"joint best-response system is singular (det = {det:.3e})"
            )
        P_new = np.linalg.solve(M, Y)
        delta = max(
            float(np.max(np.abs(P_new[0] - p[0]))),
            float(np.max(np.abs(P_new[1] - p[1]))),
        )
        scale_p = max(float(np.max(np.abs(P_new))), 1.0)
        p = [
            (1.0 - damping) * p[0] + damping * P_new[0],
            (1.0 - damping) * p[1] + damping * P_new[1],
        ]
        if delta <= tol * scale_p:
            break
    else:
        raise SolverDivergenceError(
            f"equilibrium iteration did not converge in {max_iter} iterations "
            f"(last update {delta:.6e})",
            last_iterate=tuple(p),
            residual=delta,
            iterations=max_iter,
        )

    F = A - np.outer(b1, p[0]) - np.outer(b2, p[1])
    K_final = []
    eval_residuals = []
    for i, Qi in enumerate((Q1, Q2)):
        C = r * np.outer(p[i], p[i]) + Qi
        Ki = solve_discounted_lyapunov(F, C, gamma).S
        K_final.append(Ki)
        eval_residuals.append(
            float(np.linalg.norm(C + gamma * (F.T @ Ki @ F) - Ki, "fro"))
        )
    gain_residuals = []
    for i, (bi, Ki) in enumerate(zip((b1, b2), K_final)):
        other = 1 - i
        b_other = (b1, b2)[other]
        lhs = gamma * (bi @ Ki @ A)
        rhs = (r + gamma * float(bi @ Ki @ bi)) * p[i] + gamma * float(
            bi @ Ki @ b_other
        ) * p[other]
        gain_residuals.append(float(np.max(np.abs(lhs - rhs))))

    return NashEquilibrium(
        p=(p[0].copy(), p[1].copy()),
        K=(K_final[0], K_final[1]),
        F=F,
        gain_residuals=tuple(gain_residuals),
        evaluation_residuals=tuple(eval_residuals),
        spectral_radius_F=_dynamic_radius(game, F),
        iterations=iteration,
        game=game,
    )


def best_response(game: AggregateGame, eq: NashEquilibrium, i: int, tol=1e-12):
    """Player i's optimal response to the opponent's equilibrium row.

    Returns the single-agent Riccati solution of the induced system; at
    equilibrium its gain equals -p_i and its weight equals K_i.
    """
    other = 1 - i
    A_eff = game.A - np.outer(game.b[other], eq.p[other])
    system = LqrSystem(
        A=A_eff,
        b=game.b[i],
        noise=NoiseSpec.none(game.dim),
        Q=game.Q[i],
        r=game.r,
        gamma=game.gamma,
    )
    return solve_riccati(system, tol=tol)


def nash_social_cost(game: AggregateGame, eq: NashEquilibrium, x0) -> float:
    """Sum over players of the discounted state cost at equilibrium."""
    x0 = game.lift_x0(x0)
    total = 0.0
    for Qi in game.Q:
        sol = solve_discounted_lyapunov(eq.F, Qi, game.gamma)
        total += discounted_quadratic_value(
            sol.S, x0, game.gamma, game.noise.covariance
        )
    return total


@dataclass(frozen=True)
class SocialCostScan:
    r: np.ndarray
    J_N: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


def social_cost_scan(spec: MarketSpecPA, r_grid, x0) -> SocialCostScan:
    """Equilibrium social cost over a grid of control penalties."""
    r_grid = increasing_grid(r_grid, "r grid", 3)
    if np.any(r_grid <= 0.0):
        raise ConfigError("r grid must be positive")
    values = np.empty_like(r_grid)
    for i, r in enumerate(r_grid):
        eq = solve_nash(spec.with_r(float(r)))
        values[i] = nash_social_cost(eq.game, eq, x0)
    return SocialCostScan(
        r=r_grid,
        J_N=values,
        d1=divided_first_diffs(r_grid, values),
        d2=divided_second_diffs(r_grid, values),
    )


@dataclass(frozen=True)
class EquilibriumSimBatch:
    alpha_paths: np.ndarray
    player_volatility: tuple
    horizon: int
    n_paths: int
    n_excluded: int
    states: np.ndarray | None = None


def simulate_equilibrium(
    game: AggregateGame,
    eq: NashEquilibrium,
    x0,
    config: SimConfig,
    store_paths: bool = False,
    namespace: int = 0,
) -> EquilibriumSimBatch:
    """Sample closed-loop market paths and per-player control energies.

    Returns the clearing-price path for every sample path plus each
    player's estimated discounted control energy.
    """
    from .simulate import FunctionalEstimate  # local import to keep module light

    x0 = game.lift_x0(x0)
    if config.horizon is None:
        raise ConfigError("equilibrium simulation requires an explicit horizon")
    T = config.horizon
    n = config.n_paths
    factor = None if game.noise.is_zero() else noise_factor(game.noise.covariance)
    noise_dim = 0 if factor is None else game.dim
    Z, _ = _draw_paths(config.seed, n, T, noise_dim, namespace, False)

    X = np.tile(x0, (n, 1))
    alpha_paths = np.empty((n, T))
    vols = [np.zeros(n), np.zeros(n)]
    states = np.empty((n, T + 1, game.dim)) if store_paths else None
    disc = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            if store_paths:
                states[:, t, :] = X
            alpha_paths[:, t] = game.clearing_price(X)
            for i in range(2):
                u = X @ eq.p[i]
                vols[i] += disc * u * u
            X = X @ eq.F.T
            if Z is not None:
                X = X + Z[:, t, :] @ factor.T
            disc *= game.gamma
        if store_paths:
            states[:, T, :] = X

    keep = np.isfinite(vols[0]) & np.isfinite(vols[1])
    keep &= np.all(np.isfinite(alpha_paths), axis=1)
    n_excluded = int(n - keep.sum())

    def estimate(vals):
        vals = vals[keep]
        m = vals.shape[0]
        se = float(vals.std(ddof=1) / np.sqrt(m)) if m >= 2 else float("nan")
        return FunctionalEstimate(mean=float(vals.mean()), std_error=se)

    return EquilibriumSimBatch(
        alpha_paths=alpha_paths,
        player_volatility=(estimate(vols[0]), estimate(vols[1])),
        horizon=T,
        n_paths=n,
        n_excluded=n_excluded,
        states=states,
    )
