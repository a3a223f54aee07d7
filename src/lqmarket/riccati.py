"""Direct solvers for discounted Riccati and Lyapunov equations.

A discounted Lyapunov equation W = C + gamma F'WF is linear in W and is
solved as one dense system in vec W.  The Riccati equation is solved by
Newton's method in its policy-iteration form (Hewer 1971): evaluate the
current gain by one such Lyapunov solve, switch to the gain that is
optimal for the resulting weight, and repeat until the weight stops
moving.  Both report their step counts and a final residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InstabilityError, SolverDivergenceError
from .model import LinearPolicy, LqrSystem, check_controllability, check_observability
from .model import _matrix_rank
from .util import spectral_radius, symmetrize

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True)
class RiccatiSolution:
    K: np.ndarray
    gain: LinearPolicy
    iterations: int
    residual: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class LyapunovSolution:
    S: np.ndarray
    iterations: int
    residual: float
    warnings: tuple[str, ...] = ()


def riccati_step(K, A, b, Q, r, gamma) -> np.ndarray:
    """One value-iteration update of the discounted Riccati recursion."""
    Kb = K @ b
    denom = gamma * float(b @ Kb) + r
    if denom <= 0.0:
        raise ConfigError(
            f"control curvature gamma b'Kb + r = {denom:.6e} must be positive"
        )
    inner = gamma * K - (gamma * gamma / denom) * np.outer(Kb, Kb)
    return symmetrize(Q + A.T @ inner @ A)


def optimal_gain(K, A, b, r, gamma) -> np.ndarray:
    """Minimizing feedback row for weight K: u = gain . x."""
    denom = gamma * float(b @ K @ b) + r
    return -(gamma / denom) * (b @ K @ A)


def closed_loop(A, b, gain) -> np.ndarray:
    """State transition under u = gain . x."""
    return A + np.outer(b, np.asarray(gain, dtype=float))


def _diverged(what: str, last_iterate, residual, iterations: int):
    return SolverDivergenceError(
        f"{what} step {iterations} is not finite (residual {residual:.6e})",
        last_iterate=last_iterate,
        residual=float(residual),
        iterations=iterations,
    )


def _lyap(F, C, gamma) -> np.ndarray:
    """W = C + gamma F'WF as one dense solve in vec W.

    Row-major vec: vec(F'WF) = (F' kron F') vec W, so the equation is
    (I - gamma F' kron F') vec W = vec C.  The Kronecker matrix is built by
    broadcasting, which is far cheaper than np.kron at this size.
    """
    n = F.shape[0]
    Ft = F.T
    kron = (Ft[:, None, :, None] * Ft[None, :, None, :]).reshape(n * n, n * n)
    W = np.linalg.solve(np.eye(n * n) - gamma * kron, C.reshape(-1))
    return symmetrize(W.reshape(n, n))


def _contracts(F, gamma) -> bool:
    """gamma * rho(F)^2 < 1; a non-finite F has no spectrum and fails."""
    if not np.all(np.isfinite(F)):
        return False
    rho = spectral_radius(F)
    return gamma * rho * rho < 1.0


def solve_riccati(
    system: LqrSystem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RiccatiSolution:
    """Solve the discounted Riccati equation by Newton-Hewer policy iteration.

    Each step evaluates the current gain g by one Lyapunov solve,
    K = Q + r g g' + gamma F_g' K F_g, and takes the gain optimal for K.
    The first gain must stabilize the discounted loop: g = 0 when
    gamma rho(A)^2 < 1, otherwise the gain of the first value-iteration
    step from K = Q that does.  Stops when ||K_next - K||_F <= tol * (1 +
    ||K||_F); ``iterations`` counts the Newton steps, at most max_iter.
    The final gain must satisfy gamma rho(F)^2 < 1.

    An uncontrollable system is flagged in ``warnings`` and solved as long
    as it passes the discounted stabilizability test; otherwise
    InstabilityError is raised.  A non-finite iterate raises
    SolverDivergenceError at once.
    """
    A, b, Q, r, gamma = system.A, system.b, system.Q, system.r, system.gamma
    warnings = []
    ctrb = check_controllability(system)
    if not ctrb.controllable:
        warnings.append(
            f"system is not controllable (rank {ctrb.rank} < {system.d})"
        )
        # discounted PBH test: a mode the discount does not damp must be
        # controllable, or no policy keeps the discounted cost finite
        for mu in np.linalg.eigvals(A):
            pbh = np.column_stack([A - mu * np.eye(system.d), b])
            if math.sqrt(gamma) * abs(mu) >= 1.0 and _matrix_rank(pbh) < system.d:
                raise InstabilityError(
                    f"mode {mu:.6g} is neither damped by gamma = {gamma} nor "
                    "controllable; the system is not stabilizable"
                )
    obs = check_observability(system)
    if not obs.observable:
        warnings.append("cost does not observe every coordinate")

    K = Q.copy()
    gain = np.zeros(system.d)
    # overflow turns into inf/nan, which the finite checks raise as errors
    with np.errstate(over="ignore", invalid="ignore"):
        if not _contracts(A, gamma):
            for step in range(1, max_iter + 1):
                K_next = riccati_step(K, A, b, Q, r, gamma)
                delta = np.linalg.norm(K_next - K, "fro")
                if not math.isfinite(delta):
                    raise _diverged("Riccati value-iteration", K, delta, step)
                converged = delta <= tol * (1.0 + np.linalg.norm(K, "fro"))
                K = K_next
                gain = optimal_gain(K, A, b, r, gamma)
                if _contracts(closed_loop(A, b, gain), gamma):
                    break
                if converged:
                    raise InstabilityError(
                        "value iteration converged to a gain that does not "
                        "stabilize the discounted loop; the cost does not "
                        "detect an undamped mode"
                    )
            else:
                raise SolverDivergenceError(
                    f"value iteration found no stabilizing gain in {max_iter} "
                    f"steps (last change {delta:.6e})",
                    last_iterate=K,
                    residual=float(delta),
                    iterations=max_iter,
                )
        for iteration in range(1, max_iter + 1):
            K_next = _lyap(
                closed_loop(A, b, gain), Q + r * np.outer(gain, gain), gamma
            )
            delta = np.linalg.norm(K_next - K, "fro")
            if not math.isfinite(delta):
                raise _diverged("Riccati", K, delta, iteration)
            bound = tol * (1.0 + np.linalg.norm(K, "fro"))
            K = K_next
            gain = optimal_gain(K, A, b, r, gamma)
            if delta <= bound:
                residual = float(
                    np.linalg.norm(riccati_step(K, A, b, Q, r, gamma) - K, "fro")
                )
                if not math.isfinite(residual):
                    raise _diverged("Riccati", K, residual, iteration)
                if not _contracts(closed_loop(A, b, gain), gamma):
                    raise InstabilityError(
                        "Riccati gain does not satisfy gamma rho(F)^2 < 1"
                    )
                return RiccatiSolution(
                    K=K,
                    gain=LinearPolicy(gain),
                    iterations=iteration,
                    residual=residual,
                    warnings=tuple(warnings),
                )
    residual = float(np.linalg.norm(riccati_step(K, A, b, Q, r, gamma) - K, "fro"))
    raise SolverDivergenceError(
        f"Newton-Hewer iteration did not converge in {max_iter} steps "
        f"(residual {residual:.6e})",
        last_iterate=K,
        residual=residual,
        iterations=max_iter,
    )


def solve_riccati_lambda(
    system: LqrSystem,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RiccatiSolution:
    """Riccati solve with the control penalty replaced by lam."""
    lam = float(lam)
    if not (lam > 0.0):
        raise ConfigError(f"lambda must be positive, got {lam}")
    return solve_riccati(system.with_r(lam), tol=tol, max_iter=max_iter)


def solve_discounted_lyapunov(F, C, gamma: float) -> LyapunovSolution:
    """Solve W = C + gamma F'WF by one dense solve in vec W.

    Requires the discounted contraction gamma * rho(F)^2 < 1; otherwise
    the sum diverges and InstabilityError is raised.  ``residual`` is
    ||C + gamma F'WF - W||_F of the returned W; a non-finite one raises
    SolverDivergenceError.
    """
    F = np.asarray(F, dtype=float)
    C = symmetrize(np.asarray(C, dtype=float))
    rho = spectral_radius(F)
    contraction = gamma * rho * rho
    if contraction >= 1.0:
        raise InstabilityError(
            f"gamma * rho(F)^2 = {contraction:.6f} >= 1; discounted sum diverges"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        W = _lyap(F, C, gamma)
        residual = float(np.linalg.norm(C + gamma * (F.T @ W @ F) - W, "fro"))
    if not math.isfinite(residual):
        raise _diverged("Lyapunov", W, residual, 1)
    return LyapunovSolution(S=W, iterations=1, residual=residual)


def solve_state_penalizing(
    system: LqrSystem,
    policy: LinearPolicy,
) -> LyapunovSolution:
    """Accumulated state cost of a fixed policy: S = Q + gamma F'SF.

    A spectral radius of F at or above one is tolerated with a warning as
    long as the discounted contraction still holds.
    """
    F = closed_loop(system.A, system.b, policy.gain)
    rho = spectral_radius(F)
    warnings: tuple[str, ...] = ()
    if rho >= 1.0:
        if system.gamma * rho * rho >= 1.0:
            raise InstabilityError(
                f"closed loop has rho(F) = {rho:.6f} and "
                f"gamma rho^2 = {system.gamma * rho * rho:.6f} >= 1"
            )
        warnings = (
            f"rho(F) = {rho:.6f} >= 1; discounted sums still converge",
        )
    sol = solve_discounted_lyapunov(F, system.Q, system.gamma)
    return LyapunovSolution(
        S=sol.S, iterations=sol.iterations, residual=sol.residual, warnings=warnings
    )
