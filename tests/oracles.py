"""Independent reference implementations used to pin expected values.

Everything here is coded against raw arrays with a different algorithm
(or a different library) than the package uses, so agreement between the
two is evidence rather than a tautology.
"""
import numpy as np
from scipy.linalg import solve_discrete_are, solve_discrete_lyapunov


def scalar_riccati_root(a, q, r, gamma):
    """Positive root of the scalar fixed point with b = 1.

    k = q + gamma a^2 k - gamma^2 a^2 k^2 / (gamma k + r) rearranges to
    gamma k^2 + (r - gamma q - gamma a^2 r) k - q r = 0; the product of
    the roots is -qr/gamma < 0, so exactly one root is positive.
    """
    c1 = r - gamma * q - gamma * a * a * r
    disc = c1 * c1 + 4.0 * gamma * q * r
    return (-c1 + np.sqrt(disc)) / (2.0 * gamma)


def dare_weight(A, b, Q, r, gamma):
    """Discounted Riccati weight via scipy's undiscounted DARE.

    Scaling both A and b by sqrt(gamma) absorbs the discount exactly:
    the resulting equation is identical term by term.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    s = np.sqrt(gamma)
    return solve_discrete_are(
        s * A, s * b, np.asarray(Q, dtype=float), np.array([[float(r)]])
    )


def gain_from_weight(K, A, b, r, gamma):
    """Minimizing feedback row for a given quadratic weight."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = gamma * float(b @ K @ b) + r
    return -(gamma / denom) * (b @ K @ A)


def scipy_lyapunov(F, C, gamma):
    """Solve W = C + gamma F' W F with scipy's discrete Lyapunov solver.

    scipy solves a X a' - X + q = 0; a = sqrt(gamma) F' turns a X a' into
    gamma F' X F term by term.  The bilinear method maps the equation to a
    continuous one solved by Schur decomposition (Bartels-Stewart); scipy's
    default for small matrices is the Kronecker solve the package uses.
    """
    F = np.asarray(F, dtype=float)
    return solve_discrete_lyapunov(
        np.sqrt(gamma) * F.T, np.asarray(C, dtype=float), method="bilinear"
    )


def quadratic_value(M, x0, gamma, cov):
    x0 = np.asarray(x0, dtype=float)
    return float(x0 @ M @ x0) + gamma / (1.0 - gamma) * float(np.trace(M @ cov))


def bellman_iteration_cost(A, b, Q, r, gamma, cov, x0, n_iter=200):
    """Iterate the Bellman operator from the zero value function.

    Each sweep updates the constant with the old weight (the noise enters
    through the next-step value) and then the weight itself.  Converges
    to the optimal cost for any discount below one.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    Q = np.asarray(Q, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = A.shape[0]
    M = np.zeros((d, d))
    c = 0.0
    for _ in range(n_iter):
        c = gamma * (c + float(np.trace(M @ cov)))
        Mb = M @ b
        denom = gamma * float(b @ Mb) + r
        AtMb = A.T @ Mb
        M = Q + gamma * (A.T @ M @ A) - (gamma * gamma / denom) * np.outer(AtMb, AtMb)
        M = 0.5 * (M + M.T)
    x0 = np.asarray(x0, dtype=float)
    return float(x0 @ M @ x0) + c


def grid_maximize(f, lo, hi, n=300, rounds=3):
    """Dense-grid maximization with refinement around the running peak."""
    best_x, best_v = None, -np.inf
    for _ in range(rounds):
        xs = np.geomspace(lo, hi, n)
        vs = np.array([f(x) for x in xs])
        i = int(np.argmax(vs))
        if vs[i] > best_v:
            best_x, best_v = float(xs[i]), float(vs[i])
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, n - 1)]
    return best_x, best_v


def mc_linear_functionals(A, b, gain, factor, Q, x0, gamma, horizon, seed,
                          n_paths, namespace=0):
    """Plain per-path Monte Carlo written against the published RNG contract.

    Path i draws from Philox keyed by (seed, namespace << 32 | i), takes
    standard normals of shape (horizon, noise_dim), and accumulates the
    discounted control energy and state cost one scalar step at a time.
    Returns per-path arrays (volatility, state_cost_sum).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    gain = np.asarray(gain, dtype=float)
    Q = np.asarray(Q, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    dn = 0 if factor is None else factor.shape[0]
    vol = np.zeros(n_paths)
    eff = np.zeros(n_paths)
    for i in range(n_paths):
        g = np.random.Generator(np.random.Philox(key=[seed, (namespace << 32) | i]))
        Z = g.standard_normal((horizon, dn)) if dn else None
        x = x0.copy()
        disc = 1.0
        for t in range(horizon):
            u = float(gain @ x)
            eff[i] += disc * float(x @ Q @ x)
            vol[i] += disc * u * u
            x = A @ x + u * b
            if dn:
                x = x + factor @ Z[t]
            disc *= gamma
    return vol, eff


def affine_closed_loop_sums(F, gain, Q, x0, gamma, horizon, forcing=None):
    """Deterministic x' = F x + forcing(t) with u = gain . x.

    Returns (discounted control energy, discounted state cost) summed to
    the horizon; used to pin noise-free simulator runs.
    """
    F = np.asarray(F, dtype=float)
    gain = np.asarray(gain, dtype=float)
    Q = np.asarray(Q, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    vol = 0.0
    eff = 0.0
    disc = 1.0
    for t in range(horizon):
        u = float(gain @ x)
        vol += disc * u * u
        eff += disc * float(x @ Q @ x)
        x = F @ x
        if forcing is not None:
            x = x + forcing(t)
        disc *= gamma
    return vol, eff
