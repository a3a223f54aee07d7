"""Solve the reference three-coordinate market and inspect the regulator.

Covers the core loop: build a market, check structural properties, solve the
Riccati equation, and price the optimal policy in closed form.
"""
import numpy as np

from lqmarket import (
    LqrSystem,
    NoiseSpec,
    build_price_taking_market,
    check_controllability,
    check_observability,
    evaluate_policy,
    optimal_cost,
    solve_riccati,
)

np.set_printoptions(precision=6, suppress=True)

market = build_price_taking_market(
    beta=0.995,
    sigma=0.900,
    phi1=0.5,
    phi2=0.25,
    noise=NoiseSpec.diagonal((2.0, 2.0, 0.0)),
    Q=[[2.38, -1.73, -0.15], [-1.73, 2.15, 0.16], [-0.15, 0.16, 0.52]],
    r=0.01,
    gamma=0.5,
)
system = market.system
x0 = np.array([25.0, 25.0, 50.0])

print("state labels:", market.labels)
print("A =")
print(system.A)
ctrl = check_controllability(system)
obs = check_observability(system)
print(f"controllable: {ctrl.controllable} (rank {ctrl.rank})")
print(f"observable:   {obs.observable} (rank {obs.rank})")

sol = solve_riccati(system)
print(f"\nRiccati converged in {sol.iterations} Newton steps, residual {sol.residual:.2e}")
print("K =")
print(sol.K)
print("gain =", sol.gain.gain)

report = evaluate_policy(system, sol.gain, x0)
print(f"\noptimal cost from K:        {optimal_cost(system, x0):.6f}")
print(f"cost of the derived policy: {report.cost:.6f}")
print(f"volatility of the policy:   {report.volatility:.6f}")
print(f"efficiency of the policy:   {report.efficiency:.6f}")
print(f"cost identity |J + E - r V| = {abs(report.cost + report.efficiency - system.r * report.volatility):.2e}")

# a scalar instance where the fixed point has a closed form:
# gamma k^2 + k (r - gamma q - gamma a^2 r) - q r = 0
scalar = LqrSystem(A=[[1.1]], b=[1.0], noise=NoiseSpec.none(1), Q=[[1.0]], r=1.0, gamma=0.9)
k = solve_riccati(scalar).K[0, 0]
a, q, r, g = 1.1, 1.0, 1.0, 0.9
root = max(np.roots([g, r - g * q - g * a * a * r, -q * r]))
print(f"\nscalar check: solved k = {k:.12f}, quadratic root = {root:.12f}")
