"""Discounted LQR toolkit for volatility and efficiency analysis.

The library studies scalar-input linear systems x' = Ax + bu + n under
discounted quadratic cost.  It provides Riccati (Newton-Hewer) and
Lyapunov (one direct solve) solvers, closed-form cost/volatility/efficiency
functionals, capacity regions for volatility-constrained control, a
two-player market equilibrium solver, renewable-supply extensions, and
a seeded Monte Carlo engine.  The ``lqmarket`` command line runs batch
scenarios.
"""
from importlib.metadata import PackageNotFoundError, version

try:
    __version__ = version("lqmarket")
except PackageNotFoundError:  # running from a source tree
    __version__ = "0.0.0+source"

from .capacity import (
    CapacityPoint,
    CapacityRegion,
    MixtureResult,
    default_alpha_grid,
    maximize_dual,
    mixture_policy,
    q_alpha,
    solve_constrained,
    sweep_capacity_region,
)
from .errors import (
    ConfigError,
    DegenerateMarketError,
    InstabilityError,
    LqMarketError,
    NumericalError,
    SimulationError,
    SolverDivergenceError,
    UnboundedDualError,
)
from .functionals import (
    ConcavityScan,
    FunctionalReport,
    QuadraticValue,
    bellman_apply,
    concavity_scan,
    evaluate_policy,
    optimal_cost,
)
from .model import (
    LinearPolicy,
    LqrSystem,
    MarketInstance,
    MixturePolicy,
    NoiseSpec,
    build_price_taking_market,
    check_controllability,
    check_observability,
    system_from_config,
)
from .nash import (
    AggregateGame,
    MarketSpecPA,
    NashEquilibrium,
    ProsumerSpec,
    assemble_aggregate,
    best_response,
    nash_social_cost,
    simulate_equilibrium,
    social_cost_scan,
    solve_nash,
)
from .renewables import (
    DerCliffTable,
    DerScenario,
    DerStepper,
    RenewableSystem,
    build_renewable_system,
    capacity_shrinkage,
    der_cliff,
    volatility_vs_psi,
)
from .riccati import (
    LyapunovSolution,
    RiccatiSolution,
    closed_loop,
    optimal_gain,
    riccati_step,
    solve_discounted_lyapunov,
    solve_riccati,
    solve_riccati_lambda,
    solve_state_penalizing,
)
from .simulate import (
    FunctionalEstimate,
    SimBatch,
    SimConfig,
    derive_horizon,
    simulate,
    stream,
)

__all__ = [
    "AggregateGame",
    "CapacityPoint",
    "CapacityRegion",
    "ConcavityScan",
    "ConfigError",
    "DegenerateMarketError",
    "DerCliffTable",
    "DerScenario",
    "DerStepper",
    "FunctionalEstimate",
    "FunctionalReport",
    "InstabilityError",
    "LinearPolicy",
    "LqMarketError",
    "LqrSystem",
    "LyapunovSolution",
    "MarketInstance",
    "MarketSpecPA",
    "MixturePolicy",
    "MixtureResult",
    "NashEquilibrium",
    "NoiseSpec",
    "NumericalError",
    "ProsumerSpec",
    "QuadraticValue",
    "RenewableSystem",
    "RiccatiSolution",
    "SimBatch",
    "SimConfig",
    "SimulationError",
    "SolverDivergenceError",
    "UnboundedDualError",
    "assemble_aggregate",
    "bellman_apply",
    "best_response",
    "build_price_taking_market",
    "build_renewable_system",
    "capacity_shrinkage",
    "check_controllability",
    "check_observability",
    "closed_loop",
    "concavity_scan",
    "default_alpha_grid",
    "der_cliff",
    "derive_horizon",
    "evaluate_policy",
    "maximize_dual",
    "mixture_policy",
    "nash_social_cost",
    "optimal_cost",
    "optimal_gain",
    "q_alpha",
    "riccati_step",
    "simulate",
    "simulate_equilibrium",
    "social_cost_scan",
    "solve_constrained",
    "solve_discounted_lyapunov",
    "solve_nash",
    "solve_riccati",
    "solve_riccati_lambda",
    "solve_state_penalizing",
    "stream",
    "sweep_capacity_region",
    "system_from_config",
    "__version__",
]
