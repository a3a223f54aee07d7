"""Two-player bidding game: equilibrium, certificates, and what r buys.

One consumer and one producer bid into a clearing price.  The coupled
fixed point gives each player a linear policy; we certify it against
single-agent best responses, scan the social cost over the control
penalty, and simulate clearing-price paths to see variance fall as
bidding gets more expensive.
"""
import numpy as np

from lqmarket import (
    MarketSpecPA,
    NoiseSpec,
    ProsumerSpec,
    SimConfig,
    best_response,
    nash_social_cost,
    simulate_equilibrium,
    social_cost_scan,
    solve_nash,
)

np.set_printoptions(precision=5, suppress=True)

consumer = ProsumerSpec(
    kind="consumer",
    A_block=np.array([[0.8, 0.0, 0.3], [0.0, 0.7, 0.2], [0.0, 0.0, 0.0]]),
    Q_block=np.array([[1.2, -1.0, 0.0], [-1.0, 1.1, 0.0], [0.0, 0.0, 0.2]]),
)
producer = ProsumerSpec(
    kind="producer",
    A_block=np.array([[0.85, 0.25], [0.0, 0.0]]),
    Q_block=np.array([[1.0, -0.5], [-0.5, 0.8]]),
)
spec = MarketSpecPA(
    consumers=(consumer,),
    producers=(producer,),
    kappa=0.3,
    zeta=0.0,
    r=1.0,
    gamma=0.9,
    noise=NoiseSpec.diagonal((0.2, 0.05, 0.0, 0.2, 0.0)),
)
x0 = np.array([10.0, 8.0, 1.0, 9.0, 1.0])

eq = solve_nash(spec)
print(f"converged in {eq.iterations} iterations, residual {eq.residual:.2e}")
print(f"closed-loop spectral radius: {eq.spectral_radius_F:.6f}")
print("consumer bid row p_0 =", eq.p[0])
print("producer bid row p_1 =", eq.p[1])

for i, name in enumerate(("consumer", "producer")):
    br = best_response(eq.game, eq, i)
    gap = np.max(np.abs(br.gain.gain + eq.p[i]))
    print(f"{name} best-response gap: {gap:.2e}")

print(f"\nsocial cost at equilibrium: {nash_social_cost(eq.game, eq, x0):.4f}")

scan = social_cost_scan(spec, np.geomspace(0.1, 100.0, 9), x0)
print(f"\n{'r':>10} {'J^N':>12}")
for r, jn in zip(scan.r, scan.J_N):
    print(f"{r:10.3f} {jn:12.4f}")
print("social cost rises with r and flattens: costlier bidding is privately")
print("painful but the lost responsiveness is what hurts the aggregate")

print("\nclearing-price spread from simulation (400 paths, horizon 160):")
for r in (0.1, 1.0, 10.0, 100.0):
    eq_r = solve_nash(spec.with_r(r))
    batch = simulate_equilibrium(
        eq_r.game, eq_r, x0, SimConfig(seed=20240817, n_paths=400, horizon=160)
    )
    tail = batch.alpha_paths[:, -40:]
    print(f"  r={r:6.1f}: price variance {tail.var():8.5f}")
