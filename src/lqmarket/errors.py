"""Exception types shared across the library.

Validation problems raise :class:`ConfigError`; anything that goes wrong
inside a solver or simulation raises a subclass of :class:`NumericalError`.
The command line maps the former to exit code 2 and the latter to 3.
"""


class LqMarketError(Exception):
    """Base class for all library errors."""


class ConfigError(LqMarketError):
    """Invalid inputs: bad parameter ranges, shapes, or scenario files."""


class NumericalError(LqMarketError):
    """Base class for solver and simulation failures."""


class SolverDivergenceError(NumericalError):
    """An iterative solve ran out of steps or produced a non-finite value.

    Raised when the Riccati solve's Newton-Hewer steps (or the
    value-iteration steps that find its first stabilizing gain) or the
    equilibrium iteration exhaust their budget, and when any solve,
    including a direct Lyapunov solve, yields a non-finite result.
    Carries the last iterate and residual so callers can inspect how far
    the solve got before giving up.
    """

    def __init__(self, message, last_iterate=None, residual=None, iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations


class InstabilityError(NumericalError):
    """Closed-loop dynamics violate the discounted contraction condition."""


class UnboundedDualError(NumericalError):
    """The policy volatility still exceeds the budget at the price ceiling.

    The dual's slope V(lam) - alpha is still positive there, so the dual
    keeps improving and the budget is reported as unreachable.
    """


class DegenerateMarketError(NumericalError):
    """The joint best-response system is singular."""


class SimulationError(NumericalError):
    """A Monte Carlo batch produced too many non-finite paths."""
