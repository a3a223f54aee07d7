"""Cost, volatility, and efficiency of policies, plus r-sweep scans.

For a fixed linear policy the three discounted functionals are quadratic
forms solved by Lyapunov equations:

* cost        uses C = Q + r gain gain'
* volatility  uses C = gain gain'
* efficiency  is minus the accumulated state cost, C = Q

Cost is evaluated through its own solve, so cost = -efficiency +
r * volatility acts as a genuine cross-check rather than an identity of
the implementation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import LinearPolicy, LqrSystem
from .riccati import (
    DEFAULT_TOL,
    RiccatiSolution,
    closed_loop,
    riccati_step,
    solve_discounted_lyapunov,
    solve_riccati,
    solve_state_penalizing,
)
from .util import (
    chord_excess,
    discounted_quadratic_value,
    divided_first_diffs,
    divided_second_diffs,
    increasing_grid,
)

# Tight tolerance for grid scans: second-difference columns amplify
# solver noise, so scans solve well below the reporting tolerance.
SCAN_TOL = 1e-13


@dataclass(frozen=True)
class StdErrors:
    cost: float
    volatility: float
    efficiency: float


@dataclass(frozen=True)
class FunctionalReport:
    cost: float
    volatility: float
    efficiency: float
    x0: np.ndarray
    method: str
    std_errors: StdErrors | None = None


def optimal_cost(
    system: LqrSystem,
    x0,
    solution: RiccatiSolution | None = None,
    tol: float = DEFAULT_TOL,
) -> float:
    """Minimal discounted cost from x0: x0'Kx0 + gamma/(1-gamma) tr(K Psi)."""
    if solution is None:
        solution = solve_riccati(system, tol=tol)
    return discounted_quadratic_value(
        solution.K, x0, system.gamma, system.noise.covariance
    )


def policy_volatility(system: LqrSystem, policy: LinearPolicy, x0) -> float:
    """Discounted control energy of a fixed policy: one solve with C = g g'."""
    g = policy.gain
    w_vol = solve_discounted_lyapunov(
        closed_loop(system.A, system.b, g), np.outer(g, g), system.gamma
    )
    return discounted_quadratic_value(
        w_vol.S, x0, system.gamma, system.noise.covariance
    )


def evaluate_policy(system: LqrSystem, policy: LinearPolicy, x0) -> FunctionalReport:
    """Closed-form cost, volatility, and efficiency of a fixed policy."""
    g = policy.gain
    F = closed_loop(system.A, system.b, g)
    cov = system.noise.covariance
    gg = np.outer(g, g)
    w_cost = solve_discounted_lyapunov(F, system.Q + system.r * gg, system.gamma)
    w_eff = solve_discounted_lyapunov(F, system.Q, system.gamma)
    return FunctionalReport(
        cost=discounted_quadratic_value(w_cost.S, x0, system.gamma, cov),
        volatility=policy_volatility(system, policy, x0),
        efficiency=-discounted_quadratic_value(w_eff.S, x0, system.gamma, cov),
        x0=np.asarray(x0, dtype=float),
        method="closed_form",
    )


@dataclass(frozen=True)
class QuadraticValue:
    """Value function of the form v(x) = x'Mx + c."""

    M: np.ndarray
    c: float

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.M @ x) + self.c

    @classmethod
    def zero(cls, d: int) -> "QuadraticValue":
        return cls(M=np.zeros((d, d)), c=0.0)


def bellman_apply(system: LqrSystem, value: QuadraticValue) -> QuadraticValue:
    """One Bellman update of a quadratic value function.

    The minimizing control keeps the value quadratic: the weight follows
    the Riccati step and the constant picks up the discounted noise trace.
    Fails if the control curvature gamma b'Mb + r is not positive.
    """
    M = np.asarray(value.M, dtype=float)
    if M.shape != (system.d, system.d):
        raise ConfigError(
            f"value weight has shape {M.shape}, expected {(system.d, system.d)}"
        )
    M_next = riccati_step(M, system.A, system.b, system.Q, system.r, system.gamma)
    c_next = system.gamma * (
        value.c + float(np.trace(M @ system.noise.covariance))
    )
    return QuadraticValue(M=M_next, c=c_next)


SCAN_TARGETS = ("optimal_cost", "state_penalizing")


@dataclass(frozen=True)
class ConcavityScan:
    """Values of a functional over an r grid with difference columns."""

    r: np.ndarray
    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    which: str

    @property
    def value_scale(self) -> float:
        return float(np.max(np.abs(self.value)))

    def max_chord_excess(self) -> float:
        """Largest concavity violation in value units (<= 0 means concave)."""
        return float(np.max(chord_excess(self.r, self.value)))

    def is_increasing(self, tol_rel: float = 1e-9) -> bool:
        return bool(np.all(np.diff(self.value) > -tol_rel * self.value_scale))


def concavity_scan(
    system: LqrSystem,
    r_grid,
    x0,
    which: str = "optimal_cost",
    tol: float = SCAN_TOL,
) -> ConcavityScan:
    """Sweep the control penalty and tabulate a functional with differences.

    ``which`` selects the optimal cost J*(r) or the state-penalizing cost
    of the r-optimal policy.  Both are increasing and concave in r; the
    d1/d2 columns are divided differences so the claim can be checked
    directly on log-spaced grids.
    """
    if which not in SCAN_TARGETS:
        raise ConfigError(f"which must be one of {SCAN_TARGETS}, got {which!r}")
    r_grid = increasing_grid(r_grid, "r grid", 3)
    if np.any(r_grid <= 0.0):
        raise ConfigError("r grid must be positive")
    values = np.empty_like(r_grid)
    for i, r in enumerate(r_grid):
        sys_r = system.with_r(float(r))
        sol = solve_riccati(sys_r, tol=tol)
        if which == "optimal_cost":
            values[i] = optimal_cost(sys_r, x0, solution=sol)
        else:
            sp = solve_state_penalizing(sys_r, sol.gain)
            values[i] = discounted_quadratic_value(
                sp.S, x0, system.gamma, system.noise.covariance
            )
    return ConcavityScan(
        r=r_grid,
        value=values,
        d1=divided_first_diffs(r_grid, values),
        d2=divided_second_diffs(r_grid, values),
        which=which,
    )
