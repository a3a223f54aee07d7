"""Volatility-constrained control via the scalar dual.

For a volatility budget alpha, the best achievable efficiency solves a
one-dimensional concave maximization: q_alpha(lam) is the optimal cost of
the system with control penalty lam, minus lam * alpha.  Its supremum
L*(alpha) equals minus the constrained efficiency, and the maximizing
lam* prices the constraint: where it is interior, the optimal policy's
volatility meets the budget.  By the envelope theorem the slope of
q_alpha is V(lam) - alpha, with V the volatility of the lam-optimal
policy, so lam* is found as the root of V(lam) = alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, NumericalError, UnboundedDualError
from .functionals import evaluate_policy, policy_volatility
from .model import LinearPolicy, LqrSystem, MixturePolicy
from .riccati import solve_riccati, solve_riccati_lambda
from .util import discounted_quadratic_value, increasing_grid

LAMBDA_START = 1e-3
LAMBDA_FLOOR = 1e-6
LAMBDA_CEILING = 1e16
# brentq tolerance on log lam
ROOT_XTOL = 1e-10
# lam* this close to the floor is reported as a non-binding constraint.
NONBINDING_FACTOR = 2.0

CAPACITY_TOL = 1e-10


@dataclass(frozen=True)
class CapacityPoint:
    alpha: float
    lambda_star: float
    L_star: float
    efficiency_star: float
    achieved_volatility: float
    policy: LinearPolicy
    binding: bool


@dataclass(frozen=True)
class CapacityRegion:
    points: tuple[CapacityPoint, ...]
    gamma: float
    x0: np.ndarray
    failures: tuple[tuple[float, str], ...] = ()

    @property
    def alphas(self) -> np.ndarray:
        return np.array([p.alpha for p in self.points])

    @property
    def efficiencies(self) -> np.ndarray:
        return np.array([p.efficiency_star for p in self.points])


def _budget(alpha) -> float:
    alpha = float(alpha)
    if not (alpha > 0.0):
        raise ConfigError(f"volatility budget alpha must be positive, got {alpha}")
    return alpha


def q_alpha(
    system: LqrSystem, alpha: float, lam: float, x0, tol: float = CAPACITY_TOL
) -> float:
    """Dual objective at price lam for volatility budget alpha."""
    alpha = _budget(alpha)
    sol = solve_riccati_lambda(system, lam, tol=tol)
    value = discounted_quadratic_value(
        sol.K, x0, system.gamma, system.noise.covariance
    )
    return value - lam * alpha


def maximize_dual(system: LqrSystem, alpha: float, x0, tol: float = CAPACITY_TOL):
    """Locate sup over lam > 0 of q_alpha as the root of V(lam) = alpha.

    By the envelope theorem dq_alpha/dlam = V(lam) - alpha, where V(lam)
    is the volatility of the lam-optimal policy.  V is nonincreasing, so
    the maximizer is where V crosses the budget.  A budget already met at
    LAMBDA_FLOOR is non-binding and priced at the floor.  Otherwise decades
    upward from LAMBDA_START bracket the crossing and brentq finds it in
    log lam; a budget still exceeded at LAMBDA_CEILING is unreachable.
    """
    alpha = _budget(alpha)

    def excess(s: float) -> float:
        gain = solve_riccati_lambda(system, math.exp(s), tol=tol).gain
        return policy_volatility(system, gain, x0) - alpha

    lam_star = LAMBDA_FLOOR
    if excess(math.log(lam_star)) > 0.0:
        lo, hi = LAMBDA_FLOOR, LAMBDA_START
        while excess(math.log(hi)) > 0.0:
            if hi >= LAMBDA_CEILING:
                raise UnboundedDualError(
                    f"volatility at lambda = {hi:.3e} still exceeds alpha = "
                    f"{alpha:.6g}; volatility budget unreachable"
                )
            lo, hi = hi, 10.0 * hi
        # brentq re-evaluates excess at these same points, so the signs the
        # ladder saw hold even when V(hi) meets alpha to the last digit
        s_star = brentq(excess, math.log(lo), math.log(hi), xtol=ROOT_XTOL)
        lam_star = math.exp(s_star)
    return lam_star, q_alpha(system, alpha, lam_star, x0, tol=tol)


def solve_constrained(
    system: LqrSystem, alpha: float, x0, tol: float = CAPACITY_TOL
) -> CapacityPoint:
    """Best efficiency under a volatility budget, with its dual price."""
    lam_star, L_star = maximize_dual(system, alpha, x0, tol=tol)
    sol = solve_riccati_lambda(system, lam_star, tol=tol)
    report = evaluate_policy(system, sol.gain, x0)
    return CapacityPoint(
        alpha=float(alpha),
        lambda_star=float(lam_star),
        L_star=float(L_star),
        efficiency_star=float(-L_star),
        achieved_volatility=float(report.volatility),
        policy=sol.gain,
        binding=lam_star > NONBINDING_FACTOR * LAMBDA_FLOOR,
    )


def default_alpha_grid(
    system: LqrSystem,
    x0,
    n_points: int = 40,
    lo_factor: float = 0.01,
    hi_factor: float = 100.0,
) -> np.ndarray:
    """Log-spaced budgets bracketing the unconstrained policy's volatility."""
    sol = solve_riccati(system)
    v_unc = evaluate_policy(system, sol.gain, x0).volatility
    if not (v_unc > 0.0):
        raise ConfigError(
            "unconstrained volatility is zero; no meaningful budget grid exists"
        )
    return np.geomspace(lo_factor * v_unc, hi_factor * v_unc, n_points)


def sweep_capacity_region(
    system: LqrSystem,
    alpha_grid,
    x0,
    tol: float = CAPACITY_TOL,
) -> CapacityRegion:
    """Trace the efficiency boundary over a grid of volatility budgets.

    Individual budget failures are recorded and the sweep continues; the
    returned region keeps only the successful points, in grid order.
    """
    alpha_grid = increasing_grid(alpha_grid, "alpha grid", 2)
    if np.any(alpha_grid <= 0.0):
        raise ConfigError("alpha grid must be positive")

    points = []
    failures = []
    for alpha in alpha_grid:
        try:
            points.append(solve_constrained(system, alpha, x0, tol=tol))
        except NumericalError as err:
            failures.append((float(alpha), f"{type(err).__name__}: {err}"))
    return CapacityRegion(
        points=tuple(points),
        gamma=system.gamma,
        x0=np.asarray(x0, dtype=float),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class MixtureResult:
    volatility: float
    efficiency: float
    policy: MixturePolicy


def _as_triple(point):
    if isinstance(point, CapacityPoint):
        return point.achieved_volatility, point.efficiency_star, point.policy
    vol, eff, policy = point
    return float(vol), float(eff), policy


def mixture_policy(point1, point2, mu: float) -> MixtureResult:
    """Combine two evaluated policies by randomizing once at t = 0.

    Each point is a CapacityPoint or a (volatility, efficiency, policy)
    triple; the mixture plays point1's policy with probability mu.  Both
    functionals mix linearly, tracing the chord between the points.
    """
    v1, e1, p1 = _as_triple(point1)
    v2, e2, p2 = _as_triple(point2)
    policy = MixturePolicy(first=p1, second=p2, weight=mu)
    return MixtureResult(
        volatility=mu * v1 + (1.0 - mu) * v2,
        efficiency=mu * e1 + (1.0 - mu) * e2,
        policy=policy,
    )
