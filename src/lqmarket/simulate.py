"""Seeded Monte Carlo estimation of the discounted functionals.

Every path draws from its own counter-based stream: path i of a batch
uses Philox keyed by (seed, namespace << 32 | i).  Estimates therefore
never depend on batch splitting, reruns on identical inputs are
bit-identical, and a longer horizon extends a path without changing its
earlier draws.

The engine accepts either an :class:`~lqmarket.model.LqrSystem` with a
linear (or mixture) policy, or any object implementing the small stepper
protocol (``d``, ``noise_dim``, ``gamma``, ``r``, ``state_cost``,
``step``) for nonlinear dynamics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError
from .model import LinearPolicy, LqrSystem, MixturePolicy
from .util import symmetrize

PILOT_NAMESPACE = 2**32 - 1
PILOT_STEPS = 100
BOUND_SAFETY = 10.0
MAX_BAD_FRACTION = 0.10


@dataclass(frozen=True)
class SimConfig:
    """Batch settings; ``horizon=None`` derives one from a pilot path.

    ``state_bound`` marks a path as exploded once any state coordinate
    exceeds it in magnitude; the default never triggers.
    """

    seed: int
    n_paths: int
    horizon: int | None = None
    truncation_eps: float = 1e-6
    state_bound: float = math.inf

    def __post_init__(self):
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {self.seed}")
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be at least 1, got {self.n_paths}")
        if self.horizon is not None and self.horizon < 1:
            raise ConfigError(f"horizon must be at least 1, got {self.horizon}")
        if not (self.truncation_eps > 0.0):
            raise ConfigError(
                f"truncation_eps must be positive, got {self.truncation_eps}"
            )
        if not (self.state_bound > 0.0):
            raise ConfigError(
                f"state_bound must be positive, got {self.state_bound}"
            )


@dataclass(frozen=True)
class FunctionalEstimate:
    mean: float
    std_error: float


@dataclass(frozen=True)
class SimBatch:
    cost: FunctionalEstimate
    volatility: FunctionalEstimate
    efficiency: FunctionalEstimate
    horizon: int
    n_paths: int
    n_excluded: int
    config: SimConfig
    states: np.ndarray | None = None
    controls: np.ndarray | None = None


def stream(seed: int, path_index: int, namespace: int = 0) -> np.random.Generator:
    """Counter-based generator for one path of one batch."""
    if not (0 <= path_index < 2**32):
        raise ConfigError(f"path_index must be in [0, 2^32), got {path_index}")
    if not (0 <= namespace < 2**32):
        raise ConfigError(f"namespace must be in [0, 2^32), got {namespace}")
    key = [seed, (namespace << 32) | path_index]
    return np.random.Generator(np.random.Philox(key=key))


def derive_horizon(gamma: float, truncation_eps: float, cost_scale_bound: float) -> int:
    """Smallest T with gamma^T * bound / (1 - gamma) <= truncation_eps."""
    if not (0.0 < gamma < 1.0):
        raise ConfigError(f"gamma must lie in (0, 1), got {gamma}")
    if not (truncation_eps > 0.0):
        raise ConfigError(f"truncation_eps must be positive, got {truncation_eps}")
    if cost_scale_bound < 0.0:
        raise ConfigError(
            f"cost_scale_bound must be nonnegative, got {cost_scale_bound}"
        )
    if cost_scale_bound == 0.0:
        return 1
    target = truncation_eps * (1.0 - gamma) / cost_scale_bound
    if target >= 1.0:
        return 1
    T = max(1, math.ceil(math.log(target) / math.log(gamma)))
    while gamma**T > target:
        T += 1
    while T > 1 and gamma ** (T - 1) <= target:
        T -= 1
    return T


def noise_factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root used to color standard normal draws."""
    w, V = np.linalg.eigh(symmetrize(np.asarray(cov, dtype=float)))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


class _LinearStepper:
    """Adapter presenting an LqrSystem + policy as a path stepper."""

    def __init__(self, system: LqrSystem, gains: np.ndarray):
        self._system = system
        self._gains = gains  # (n_paths, d) row gain per path
        self._factor = None if system.noise.is_zero() else noise_factor(
            system.noise.covariance
        )
        self.d = system.d
        self.noise_dim = 0 if self._factor is None else system.d
        self.gamma = system.gamma
        self.r = system.r

    def state_cost(self, X: np.ndarray) -> np.ndarray:
        return np.einsum("nd,de,ne->n", X, self._system.Q, X)

    def step(self, t: int, X: np.ndarray, Z: np.ndarray | None):
        U = np.einsum("nd,nd->n", X, self._gains[: X.shape[0]])
        X_next = X @ self._system.A.T + U[:, None] * self._system.b
        if Z is not None:
            X_next = X_next + Z @ self._factor.T
        return X_next, U


def _mixture_gains(policy: MixturePolicy, picks: np.ndarray) -> np.ndarray:
    g1 = np.asarray(policy.first.gain, dtype=float)
    g2 = np.asarray(policy.second.gain, dtype=float)
    return np.where(picks[:, None], g1[None, :], g2[None, :])


def _draw_paths(seed, n_paths, steps, noise_dim, namespace, want_pick):
    """Per-path draws: an optional policy pick first, then all normals."""
    Z = np.empty((n_paths, steps, noise_dim)) if noise_dim else None
    picks = np.empty(n_paths) if want_pick else None
    for i in range(n_paths):
        g = stream(seed, i, namespace)
        if want_pick:
            picks[i] = g.uniform()
        if noise_dim:
            Z[i] = g.standard_normal((steps, noise_dim))
    return Z, picks


def _make_stepper(system, policy, n_paths, picks):
    if isinstance(system, LqrSystem):
        if isinstance(policy, LinearPolicy):
            gains = np.broadcast_to(policy.gain, (n_paths, system.d))
        elif isinstance(policy, MixturePolicy):
            gains = _mixture_gains(policy, picks < policy.weight)
        else:
            raise ConfigError(
                "a linear system needs a LinearPolicy or MixturePolicy"
            )
        return _LinearStepper(system, gains)
    if policy is not None:
        raise ConfigError("steppers embed their own control; pass policy=None")
    return system


def _run_batch(stepper, x0, steps, Z, store_paths, state_bound):
    n = x0.shape[0]
    vol = np.zeros(n)
    eff = np.zeros(n)
    exploded = np.zeros(n, dtype=bool)
    states = np.empty((n, steps + 1, stepper.d)) if store_paths else None
    controls = np.empty((n, steps)) if store_paths else None
    X = x0
    disc = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            if store_paths:
                states[:, t, :] = X
            c = stepper.state_cost(X)
            X, U = stepper.step(t, X, None if Z is None else Z[:, t, :])
            exploded |= ~np.isfinite(X).all(axis=1)
            exploded |= (np.abs(X) > state_bound).any(axis=1)
            vol += disc * U * U
            eff += disc * c
            if store_paths:
                controls[:, t] = U
            disc *= stepper.gamma
        if store_paths:
            states[:, steps, :] = X
    return vol, eff, exploded, states, controls


def _auto_horizon(stepper_factory, x0, cfg):
    """Bound the per-step cost on a pilot path and size the horizon."""
    Z, picks = _draw_paths(
        cfg.seed, 1, PILOT_STEPS, stepper_factory.noise_dim, PILOT_NAMESPACE,
        stepper_factory.want_pick,
    )
    stepper = stepper_factory.build(1, picks)
    X = np.tile(x0, (1, 1))
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(PILOT_STEPS):
            c = stepper.state_cost(X)
            X, U = stepper.step(t, X, None if Z is None else Z[:, t, :])
            s = float(c[0] + (1.0 + stepper.r) * U[0] * U[0])
            if math.isfinite(s):
                worst = max(worst, s)
    return derive_horizon(stepper.gamma, cfg.truncation_eps, BOUND_SAFETY * worst)


class _StepperFactory:
    """Defers stepper construction until policy picks are drawn."""

    def __init__(self, system, policy):
        self._system = system
        self._policy = policy
        if isinstance(system, LqrSystem):
            self.noise_dim = 0 if system.noise.is_zero() else system.d
            self.want_pick = isinstance(policy, MixturePolicy)
        else:
            self.noise_dim = system.noise_dim
            self.want_pick = False

    def build(self, n_paths, picks):
        return _make_stepper(self._system, self._policy, n_paths, picks)


def simulate(
    system,
    policy,
    x0,
    config: SimConfig,
    store_paths: bool = False,
    namespace: int = 0,
) -> SimBatch:
    """Estimate cost, volatility, and efficiency from seeded sample paths.

    ``system`` is an LqrSystem (with ``policy``) or a stepper object (with
    ``policy=None``).  Paths whose state or accumulators go non-finite, or
    whose state passes ``config.state_bound``, are excluded; more than 10%
    exclusions fails the whole batch.
    """
    factory = _StepperFactory(system, policy)
    d = system.d
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != d:
        raise ConfigError(f"x0 has length {x0.shape[0]}, expected {d}")

    if config.horizon is None:
        steps = _auto_horizon(factory, x0, config)
    else:
        steps = config.horizon

    Z, picks = _draw_paths(
        config.seed, config.n_paths, steps, factory.noise_dim, namespace,
        factory.want_pick,
    )
    stepper = factory.build(config.n_paths, picks)
    X0 = np.tile(x0, (config.n_paths, 1))
    vol, eff, exploded, states, controls = _run_batch(
        stepper, X0, steps, Z, store_paths, config.state_bound
    )

    keep = np.isfinite(vol) & np.isfinite(eff) & ~exploded
    n_excluded = int(config.n_paths - keep.sum())
    if n_excluded > MAX_BAD_FRACTION * config.n_paths:
        raise SimulationError(
            f"{n_excluded} of {config.n_paths} paths exploded or went non-finite"
        )
    cost_vals = eff[keep] + stepper.r * vol[keep]
    vol_vals = vol[keep]
    eff_vals = -eff[keep]

    def estimate(vals: np.ndarray) -> FunctionalEstimate:
        m = vals.shape[0]
        se = float(vals.std(ddof=1) / math.sqrt(m)) if m >= 2 else float("nan")
        return FunctionalEstimate(mean=float(vals.mean()), std_error=se)

    return SimBatch(
        cost=estimate(cost_vals),
        volatility=estimate(vol_vals),
        efficiency=estimate(eff_vals),
        horizon=steps,
        n_paths=config.n_paths,
        n_excluded=n_excluded,
        config=config,
        states=states,
        controls=controls,
    )
