"""Trade volatility for efficiency: dual pricing and the capacity boundary.

Profiles the dual objective at one budget, prices the budget at the
envelope root V(lambda) = alpha, where the dual's slope vanishes, sweeps
the whole efficiency boundary at two discount factors, and shows that
single-draw policy mixtures land on the chord between boundary points.
"""
from dataclasses import replace

import numpy as np

from lqmarket import (
    NoiseSpec,
    SimConfig,
    build_price_taking_market,
    default_alpha_grid,
    maximize_dual,
    mixture_policy,
    q_alpha,
    simulate,
    solve_constrained,
    sweep_capacity_region,
)

market = build_price_taking_market(
    beta=0.995, sigma=0.900, phi1=0.5, phi2=0.25,
    noise=NoiseSpec.diagonal((2.0, 2.0, 0.0)),
    Q=[[2.38, -1.73, -0.15], [-1.73, 2.15, 0.16], [-0.15, 0.16, 0.52]],
    r=0.01, gamma=0.5,
)
system = market.system
x0 = np.array([25.0, 25.0, 50.0])
alpha = 27.0

# the dual profile is single peaked; its maximizer prices the budget
lam_star, L_star = maximize_dual(system, alpha, x0)
print(f"budget alpha = {alpha}")
print(f"dual peak:  lambda* = {lam_star:.4f},  L* = {L_star:.4f}")
for lam in (1.0, 10.0, lam_star, 100.0):
    print(f"  q_alpha({lam:8.4f}) = {q_alpha(system, alpha, lam, x0):12.4f}")

point = solve_constrained(system, alpha, x0)
print(f"\nconstrained solve: efficiency* = {point.efficiency_star:.4f}")
print(f"achieved volatility = {point.achieved_volatility:.6f} (binding: {point.binding})")

# boundary sweep at two discount factors over a shared budget grid
grid = default_alpha_grid(system, x0, n_points=12)
patient = sweep_capacity_region(system, grid, x0)
impatient = sweep_capacity_region(replace(system, gamma=0.9), grid, x0)
print(f"\n{'alpha':>12} {'eff (g=0.5)':>14} {'eff (g=0.9)':>14}")
for p5, p9 in zip(patient.points, impatient.points):
    print(f"{p5.alpha:12.2f} {p5.efficiency_star:14.2f} {p9.efficiency_star:14.2f}")
print("the patient boundary sits above the impatient one at every budget")

# mixing two boundary policies with a single draw traces the chord
p1 = solve_constrained(system, 27.0, x0)
p2 = solve_constrained(system, 270.0, x0)
print(f"\nmixing the alpha=27 and alpha=270 policies (2000 paths each):")
for mu in (0.25, 0.5, 0.75):
    mix = mixture_policy(p1, p2, mu)
    batch = simulate(system, mix.policy, x0, SimConfig(seed=11, n_paths=2000))
    print(
        f"  mu={mu:4.2f}: chord vol {mix.volatility:9.3f}, "
        f"simulated {batch.volatility.mean:9.3f} +- {batch.volatility.std_error:.3f}"
    )
