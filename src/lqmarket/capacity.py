"""Volatility-constrained control via the scalar dual.

For a volatility budget alpha, the best achievable efficiency solves a
one-dimensional concave maximization: q_alpha(lam) is the optimal cost of
the system with control penalty lam, minus lam * alpha.  Its supremum
L*(alpha) equals minus the constrained efficiency, and the maximizing
lam* prices the constraint: where it is interior, the optimal policy's
volatility meets the budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, UnboundedDualError
from .functionals import evaluate_policy
from .model import LinearPolicy, LqrSystem, MixturePolicy
from .riccati import solve_riccati, solve_riccati_lambda
from .util import discounted_quadratic_value, increasing_grid

LAMBDA_START = 1e-3
LAMBDA_FLOOR = 1e-6
MAX_DOUBLINGS = 60
GOLDEN_REL_TOL = 1e-8
# lam* this close to the floor is reported as a non-binding constraint.
NONBINDING_FACTOR = 2.0

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

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


def q_alpha(
    system: LqrSystem, alpha: float, lam: float, x0, tol: float = CAPACITY_TOL
) -> float:
    """Dual objective at price lam for volatility budget alpha."""
    alpha = float(alpha)
    if not (alpha > 0.0):
        raise ConfigError(f"volatility budget alpha must be positive, got {alpha}")
    sol = solve_riccati_lambda(system, lam, tol=tol)
    value = discounted_quadratic_value(
        sol.K, x0, system.gamma, system.noise.covariance
    )
    return value - lam * alpha


def _golden_max(f, lo: float, hi: float, rel_tol: float = GOLDEN_REL_TOL):
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * max(abs(a), abs(b)) + 1e-18:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def maximize_dual(system: LqrSystem, alpha: float, x0, tol: float = CAPACITY_TOL):
    """Locate sup over lam > 0 of q_alpha by bracketing + golden section.

    Expands a geometric ladder upward from LAMBDA_START while the dual
    keeps improving; more than MAX_DOUBLINGS expansions means the dual is
    unbounded (the budget cannot be met).  The search never goes below
    LAMBDA_FLOOR, so a maximum there signals a non-binding constraint.
    """

    def q(lam: float) -> float:
        return q_alpha(system, alpha, lam, x0, tol=tol)

    lo, mid = LAMBDA_FLOOR, LAMBDA_START
    q_lo, q_mid = q(lo), q(mid)
    if q_lo >= q_mid:
        hi = mid
    else:
        hi = 2.0 * mid
        q_hi = q(hi)
        doublings = 0
        while q_hi > q_mid:
            lo = mid
            mid, q_mid = hi, q_hi
            hi *= 2.0
            q_hi = q(hi)
            doublings += 1
            if doublings >= MAX_DOUBLINGS:
                raise UnboundedDualError(
                    f"dual for alpha = {alpha:.6g} still improving at "
                    f"lambda = {hi:.3e}; volatility budget unreachable"
                )
    return _golden_max(q, lo, hi)


def solve_constrained(
    system: LqrSystem, alpha: float, x0, tol: float = CAPACITY_TOL
) -> CapacityPoint:
    """Best efficiency under a volatility budget, with its dual price."""
    lam_star, L_star = maximize_dual(system, alpha, x0, tol=tol)
    sol = solve_riccati_lambda(system, lam_star, tol=tol)
    report = evaluate_policy(system, sol.gain, x0, tol=tol)
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
