"""Feed-in noise and the volatility cliff.

Two stories.  First the linear one: grow the variance of an AR(1)
renewable feed-in coordinate and measure how much volatility the market
must spend to hold its efficiency target.  Then the nonlinear one: keep
total noise fixed but shift it from forecastable supply to
behind-the-meter weather, and watch realized price volatility climb
faster and faster as the renewable share approaches one.
"""
import numpy as np

from lqmarket import (
    DerScenario,
    NoiseSpec,
    SimConfig,
    build_price_taking_market,
    build_renewable_system,
    der_cliff,
    volatility_vs_psi,
)

market = build_price_taking_market(
    beta=0.995, sigma=0.900, phi1=0.5, phi2=0.25,
    noise=NoiseSpec.diagonal((2.0, 2.0, 0.0)),
    Q=[[2.38, -1.73, -0.15], [-1.73, 2.15, 0.16], [-0.15, 0.16, 0.52]],
    r=0.01, gamma=0.5,
)
x0 = np.array([25.0, 25.0, 50.0])

aug = build_renewable_system(market, psi_r=1.0)
print("augmented state:", aug.labels)
print("A =")
print(np.round(aug.augmented.A, 4))

table = volatility_vs_psi(market, [0.5, 1.0, 2.0, 4.0, 8.0], alpha=27.0, x0=x0)
print(f"\nholding efficiency at the psi=0.5 budget-27 level:")
print(f"{'psi_r':>8} {'alpha needed':>14} {'volatility':>12} {'tr(K Psi)':>12}")
for p, a, v, tr in zip(table.psi_r, table.alpha_matched, table.volatility, table.trace_term):
    print(f"{p:8.2f} {a:14.4f} {v:12.4f} {tr:12.4f}")
slope = np.diff(table.trace_term) / np.diff(table.psi_r)
print(f"trace column is affine in psi_r, slope {slope[0]:.6f} (the (3,3) entry of K)")

# the cliff: constant total noise, rising weather share
scenario = DerScenario(
    base=market, sigma_rn=1.0, v1=0.1, v2=0.44, xi=0.4, psi_w=1.0, psi_s=1.0
)
deltas = np.round(np.arange(10) * 0.1, 1)
cliff = der_cliff(
    scenario, deltas, np.array([1.0, 1.0, 2.0]),
    SimConfig(seed=77, n_paths=4000, horizon=48),
)
print(f"\nweather share of a fixed noise budget vs realized price volatility:")
print(f"{'delta':>7} {'volatility':>12} {'+-':>8} {'excluded':>9}")
for d, v, se, ex in zip(cliff.delta, cliff.volatility, cliff.std_error, cliff.n_paths_excluded):
    print(f"{d:7.1f} {v:12.4f} {se:8.4f} {ex:9d}")
inc = np.diff(cliff.volatility)
print(f"increments grow from {inc[0]:.4f} to {inc[-1]:.4f}: the last step is")
print(f"{inc[-1] / inc[0]:.1f}x the first, the cliff steepens as delta -> 1")
