"""Renewable-supply extensions of the base market.

Two tools live here.  First, a fourth state coordinate modeling an
autocorrelated renewable feed-in that adds to supply and reacts weakly to
price; sweeping its noise level shows how the volatility required to
hold a fixed efficiency grows, and how the whole efficiency boundary
shrinks.  Second, a nonlinear day-cycle simulator for distributed
generation behind the meter: rooftop output follows a two-level daily
profile plus weather noise, demand is served net of that feed-in and
clipped at zero, and the market operator keeps using the gain tuned for
the three-coordinate model.  Shifting variance from forecastable supply
noise to weather noise raises realized price volatility sharply.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .capacity import CapacityRegion, solve_constrained, sweep_capacity_region
from .errors import ConfigError, NumericalError
from .model import LqrSystem, MarketInstance, NoiseSpec
from .riccati import solve_riccati, solve_riccati_lambda
from .simulate import SimConfig, simulate
from .util import increasing_grid

DEFAULT_SIGMA_R = 0.9
DEFAULT_SIGMA_C = 0.01


@dataclass(frozen=True)
class RenewableSystem:
    """Base market plus one renewable coordinate appended last."""

    base: MarketInstance
    sigma_r: float
    sigma_c: float
    psi_r: float
    augmented: LqrSystem

    @property
    def labels(self) -> tuple[str, ...]:
        return self.base.labels + ("renewable",)


def build_renewable_system(
    base: MarketInstance,
    psi_r: float,
    sigma_r: float = DEFAULT_SIGMA_R,
    sigma_c: float = DEFAULT_SIGMA_C,
) -> RenewableSystem:
    """Append an AR(1) renewable feed-in to the three-coordinate market.

    The new coordinate adds to next-step supply, persists at rate sigma_r,
    and couples back to price with weight sigma_c.  Its own noise level
    psi_r joins the base noise diagonal; the base cost matrix is zero
    padded so the feed-in itself is free.
    """
    sys3 = base.system
    if sys3.d != 3:
        raise ConfigError(f"base market must be 3-dimensional, got {sys3.d}")
    psi_r = float(psi_r)
    if psi_r < 0.0:
        raise ConfigError(f"psi_r must be nonnegative, got {psi_r}")
    A = np.zeros((4, 4))
    A[:3, :3] = sys3.A
    A[1, 3] = 1.0  # feed-in adds to supply
    A[3, 2] = float(sigma_c)
    A[3, 3] = float(sigma_r)
    b = np.array([0.0, 0.0, 1.0, 0.0])
    Q = np.zeros((4, 4))
    Q[:3, :3] = sys3.Q
    cov = np.zeros((4, 4))
    cov[:3, :3] = sys3.noise.covariance
    cov[3, 3] = psi_r
    noise = NoiseSpec(covariance=cov, family="gaussian")
    augmented = LqrSystem(
        A=A, b=b, noise=noise, Q=Q, r=sys3.r, gamma=sys3.gamma
    )
    return RenewableSystem(
        base=base,
        sigma_r=float(sigma_r),
        sigma_c=float(sigma_c),
        psi_r=psi_r,
        augmented=augmented,
    )


@dataclass(frozen=True)
class VolatilityPsiTable:
    psi_r: np.ndarray
    volatility: np.ndarray
    trace_term: np.ndarray
    efficiency_target: float
    alpha_matched: np.ndarray


def volatility_vs_psi(
    base: MarketInstance,
    psi_grid,
    alpha: float,
    x0,
    sigma_r: float = DEFAULT_SIGMA_R,
    sigma_c: float = DEFAULT_SIGMA_C,
    fixed_lambda: float = 1.0,
    tol: float = 1e-10,
) -> VolatilityPsiTable:
    """Volatility needed to hold one efficiency level as feed-in noise grows.

    The efficiency target is the constrained optimum at budget ``alpha``
    on the smallest-psi system.  For every larger psi the budget that
    recovers the same efficiency is root-found on the boundary, and the
    achieved volatility at that budget is reported.  A diagnostic column
    carries tr(K_lambda Psi) at ``fixed_lambda``, which is affine in psi_r
    because the Riccati weight never sees the noise.
    """
    psi_grid = increasing_grid(psi_grid, "psi grid", 2)
    if np.any(psi_grid < 0.0):
        raise ConfigError("psi grid must be nonnegative")
    x0 = _lift_x0(x0)

    systems = [
        build_renewable_system(base, float(p), sigma_r, sigma_c).augmented
        for p in psi_grid
    ]
    ref_point = solve_constrained(systems[0], alpha, x0, tol=tol)
    target = ref_point.efficiency_star

    k_fixed = solve_riccati_lambda(systems[0], fixed_lambda, tol=tol).K

    volatility, trace_term, alpha_matched = [], [], []
    for idx, (psi, system) in enumerate(zip(psi_grid, systems)):
        if idx == 0:
            point = ref_point
        else:
            def gap(a: float) -> float:
                return (
                    solve_constrained(system, a, x0, tol=tol).efficiency_star
                    - target
                )

            lo = alpha
            g_lo = gap(lo)
            if g_lo >= 0.0:
                point = solve_constrained(system, lo, x0, tol=tol)
            else:
                hi = 2.0 * lo
                expansions = 0
                while gap(hi) < 0.0:
                    hi *= 2.0
                    expansions += 1
                    if expansions >= 60:
                        raise NumericalError(
                            f"efficiency target {target:.6g} unreachable at "
                            f"psi_r = {psi:.6g}"
                        )
                a_star = brentq(gap, lo, hi, rtol=1e-6)
                point = solve_constrained(system, a_star, x0, tol=tol)
        volatility.append(point.achieved_volatility)
        trace_term.append(float(np.trace(k_fixed @ system.noise.covariance)))
        alpha_matched.append(point.alpha)

    return VolatilityPsiTable(
        psi_r=psi_grid,
        volatility=np.array(volatility),
        trace_term=np.array(trace_term),
        efficiency_target=target,
        alpha_matched=np.array(alpha_matched),
    )


def _lift_x0(x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] == 3:
        return np.concatenate([x0, [0.0]])
    if x0.shape[0] == 4:
        return x0
    raise ConfigError(f"x0 must have length 3 or 4, got {x0.shape[0]}")


@dataclass(frozen=True)
class ShrinkageResult:
    psi_r: np.ndarray
    regions: tuple[CapacityRegion, ...]
    # (psi_small, psi_big, dominated, worst_violation) per ordered pair
    containment: tuple[tuple[float, float, bool, float], ...]


def capacity_shrinkage(
    base: MarketInstance,
    psi_list,
    alpha_grid,
    x0,
    sigma_r: float = DEFAULT_SIGMA_R,
    sigma_c: float = DEFAULT_SIGMA_C,
    tol: float = 1e-10,
) -> ShrinkageResult:
    """Efficiency boundaries over a shared budget grid as psi_r grows.

    More feed-in noise can only hurt: each larger-psi boundary should lie
    below every smaller-psi boundary pointwise.  The containment report
    records the worst violation for each adjacent pair.
    """
    psi_list = increasing_grid(psi_list, "psi list", 2)
    x0 = _lift_x0(x0)
    regions = []
    for p in psi_list:
        system = build_renewable_system(base, float(p), sigma_r, sigma_c).augmented
        regions.append(sweep_capacity_region(system, alpha_grid, x0, tol=tol))
    containment = []
    for i in range(len(psi_list) - 1):
        small, big = regions[i], regions[i + 1]
        n = min(len(small.points), len(big.points))
        diffs = big.efficiencies[:n] - small.efficiencies[:n]
        scale = max(np.max(np.abs(small.efficiencies[:n])), 1.0)
        worst = float(np.max(diffs))
        containment.append(
            (float(psi_list[i]), float(psi_list[i + 1]), worst <= 1e-8 * scale, worst)
        )
    return ShrinkageResult(
        psi_r=psi_list, regions=tuple(regions), containment=tuple(containment)
    )


@dataclass(frozen=True)
class DerScenario:
    """Behind-the-meter generation layered on the three-coordinate market.

    Rooftop feed-in is sigma_rn * P(t mod period) + weather noise, where
    the daily profile P steps from v1 to the midday level v2.  Demand is
    served net of feed-in and clipped at zero; the price update keeps the
    base market's optimal gain and adds xi * (demand drop)^2, a convexity
    kick from curtailment frictions.  The weather/supply noise split is
    swept through delta = psi_w / (psi_w + psi_s).
    """

    base: MarketInstance
    sigma_rn: float
    v1: float
    v2: float
    period: int = 24
    xi: float = 0.05
    psi_w: float = 1.0
    psi_s: float = 1.0

    def __post_init__(self):
        if self.base.system.d != 3:
            raise ConfigError("DER scenarios build on the 3-dimensional market")
        if self.v1 > self.v2:
            raise ConfigError(
                f"midday level v2 must not fall below v1, got v1={self.v1}, v2={self.v2}"
            )
        if self.period < 1:
            raise ConfigError(f"period must be at least 1, got {self.period}")
        if self.psi_w < 0.0 or self.psi_s < 0.0:
            raise ConfigError("noise levels psi_w and psi_s must be nonnegative")

    @property
    def delta(self) -> float:
        total = self.psi_w + self.psi_s
        if total == 0.0:
            return 0.0
        return self.psi_w / total

    @property
    def noise_total(self) -> float:
        return self.psi_w + self.psi_s

    def daily_profile(self, t: int) -> float:
        """Two-level day cycle: v2 through the midday window, v1 otherwise."""
        h = t % self.period
        if 0.3 * self.period <= h <= 0.7 * self.period:
            return self.v2
        return self.v1

    def with_delta(self, delta: float) -> "DerScenario":
        if not (0.0 <= delta < 1.0):
            raise ConfigError(f"delta must lie in [0, 1), got {delta}")
        total = self.noise_total
        if total == 0.0:
            raise ConfigError("cannot re-split zero total noise")
        return replace(self, psi_w=delta * total, psi_s=(1.0 - delta) * total)


class DerStepper:
    """Path stepper for the DER day-cycle model (see DerScenario).

    Implements the sim engine's stepper protocol.  Column order is
    (demand, supply, price); draws are (weather, supply) normals.
    """

    noise_dim = 2

    def __init__(self, scenario: DerScenario, clip_demand: bool = True):
        self.scenario = scenario
        base = scenario.base
        missing = [k for k in ("beta", "sigma", "phi1", "phi2") if k not in base.params]
        if missing:
            raise ConfigError(
                f"base market params missing rates: {', '.join(missing)}"
            )
        self.params = base.params
        self.gain = solve_riccati(base.system).gain.gain
        self.d = 3
        self.gamma = base.system.gamma
        self.r = base.system.r
        self._Q = base.system.Q
        self._sw = np.sqrt(scenario.psi_w)
        self._ss = np.sqrt(scenario.psi_s)
        self._clip = clip_demand

    def state_cost(self, X: np.ndarray) -> np.ndarray:
        return np.einsum("nd,de,ne->n", X, self._Q, X)

    def step(self, t: int, X: np.ndarray, Z: np.ndarray):
        sc = self.scenario
        beta = self.params["beta"]
        sigma = self.params["sigma"]
        phi1 = self.params["phi1"]
        phi2 = self.params["phi2"]
        d, s, p = X[:, 0], X[:, 1], X[:, 2]
        y = sc.sigma_rn * sc.daily_profile(t) + self._sw * Z[:, 0]
        u = X @ self.gain
        d_next = beta * d - phi1 * p - y
        if self._clip:
            d_next = np.maximum(d_next, 0.0)
        s_next = sigma * s + phi2 * p + self._ss * Z[:, 1]
        drop = d - d_next
        p_next = p + u + sc.xi * drop * drop
        return np.column_stack([d_next, s_next, p_next]), u


@dataclass(frozen=True)
class DerCliffTable:
    delta: np.ndarray
    volatility: np.ndarray
    std_error: np.ndarray
    n_paths_excluded: np.ndarray
    horizon: int


DER_STATE_BOUND = 1e12


def der_cliff(
    scenario: DerScenario,
    delta_grid,
    x0,
    config: SimConfig,
) -> DerCliffTable:
    """Realized price volatility as weather noise displaces supply noise.

    Each delta point reuses the scenario with the noise split re-derived
    at constant total, simulates with streams keyed by (seed, delta
    index, path index), and reports the Monte Carlo volatility with its
    standard error.  Identical inputs give bit-identical tables on every
    rerun.

    The quadratic price kick makes large states absorbing: once the
    price escapes the stable basin it grows without bound.  Paths are
    therefore counted as exploded and excluded when any state magnitude
    passes DER_STATE_BOUND (or config.state_bound if tighter); the
    per-delta exclusion counts are reported in the table.
    """
    delta_grid = increasing_grid(delta_grid, "delta grid", 2)
    if np.any(delta_grid < 0.0) or np.any(delta_grid >= 1.0):
        raise ConfigError("delta values must lie in [0, 1)")
    if config.horizon is None:
        raise ConfigError("der_cliff requires an explicit horizon")
    if config.state_bound > DER_STATE_BOUND:
        config = replace(config, state_bound=DER_STATE_BOUND)

    batches = []
    for idx, delta in enumerate(delta_grid):
        stepper = DerStepper(scenario.with_delta(float(delta)))
        batches.append(simulate(stepper, None, x0, config, namespace=idx))
    return DerCliffTable(
        delta=delta_grid,
        volatility=np.array([b.volatility.mean for b in batches]),
        std_error=np.array([b.volatility.std_error for b in batches]),
        n_paths_excluded=np.array([b.n_excluded for b in batches]),
        horizon=batches[0].horizon,
    )
