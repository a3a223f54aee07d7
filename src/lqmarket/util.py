"""Small shared numerics helpers."""
from __future__ import annotations

import numpy as np

from .errors import ConfigError


def symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def discounted_quadratic_value(M, x0, gamma, cov) -> float:
    """x0' M x0 + gamma/(1-gamma) * tr(M cov).

    Value of the discounted quadratic form with weight ``M`` started at
    ``x0`` under additive noise with per-step covariance ``cov``.
    """
    x0 = np.asarray(x0, dtype=float)
    head = float(x0 @ M @ x0)
    tail = gamma / (1.0 - gamma) * float(np.trace(M @ cov))
    return head + tail


def divided_first_diffs(x, v) -> np.ndarray:
    """First divided differences (v[i+1]-v[i])/(x[i+1]-x[i])."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.diff(v) / np.diff(x)


def divided_second_diffs(x, v) -> np.ndarray:
    """Second divided differences, nonpositive for concave samples.

    Computed as successive differences of the first divided differences
    scaled by the outer node spacing, so the sign test is meaningful on
    geometric grids as well as uniform ones.
    """
    x = np.asarray(x, dtype=float)
    d1 = divided_first_diffs(x, v)
    return np.diff(d1) / (x[2:] - x[:-2])


def chord_excess(x, v) -> np.ndarray:
    """How far each interior sample falls below its neighbors' chord.

    Entry i compares v[i+1] against the line through (x[i], v[i]) and
    (x[i+2], v[i+2]).  Positive entries are concavity violations measured
    in value units, which keeps tolerances meaningful on log-spaced grids.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    w = (x[1:-1] - x[:-2]) / (x[2:] - x[:-2])
    chord = (1.0 - w) * v[:-2] + w * v[2:]
    return chord - v[1:-1]


def increasing_grid(values, what: str, min_points: int) -> np.ndarray:
    """``values`` as a 1-d, strictly increasing float array of at least
    ``min_points`` entries, else ConfigError; callers add their range rule."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < min_points:
        raise ConfigError(
            f"{what} must be a 1-d array with at least {min_points} points"
        )
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError(f"{what} must be strictly increasing")
    return grid
