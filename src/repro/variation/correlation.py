"""Sampling spatially-correlated Gaussian random fields.

The variation model of [25, 26] associates a Gaussian process parameter
with each point of a grid overlaid on the die, with correlation that
decays with distance.  We build the full covariance matrix for the grid
and sample via a Cholesky factor; for the paper's 8x8 chip with a 4x4
grid per core this is a 1024-point field, well within one-shot Cholesky
territory.  Every chip of a population shares the grid, so the factor
is computed once per (grid points, sigma, length) and reused: the same
input gives the same LAPACK factor, so cached and uncached draws are
bit-identical.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import linalg

from repro.util.validation import check_positive


def exponential_correlation(distances_mm: np.ndarray, length_mm: float) -> np.ndarray:
    """Exponential spatial correlation ``rho(d) = exp(-d / L)``.

    This is the standard isotropic decaying-correlation form used for
    within-die Vth variation; at ``d = 0`` the correlation is exactly 1.
    """
    check_positive("length_mm", length_mm)
    distances_mm = np.asarray(distances_mm, dtype=float)
    if (distances_mm < 0).any():
        raise ValueError("distances must be non-negative")
    return np.exp(-distances_mm / length_mm)


def build_covariance(
    points_mm: np.ndarray, sigma: float, length_mm: float
) -> np.ndarray:
    """Covariance matrix for grid points at ``points_mm`` ((P, 2) array)."""
    check_positive("sigma", sigma)
    points_mm = np.asarray(points_mm, dtype=float)
    if points_mm.ndim != 2 or points_mm.shape[1] != 2:
        raise ValueError(f"points_mm must be (P, 2), got {points_mm.shape}")
    deltas = points_mm[:, None, :] - points_mm[None, :, :]
    distances = np.sqrt((deltas**2).sum(axis=2))
    return sigma**2 * exponential_correlation(distances, length_mm)


def sample_correlated_field(
    points_mm: np.ndarray,
    mean: float,
    sigma: float,
    length_mm: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one realization of the correlated Gaussian field.

    Returns a flat ``(P,)`` vector of process-parameter values.  A small
    diagonal jitter keeps the Cholesky factorization stable when grid
    points are much closer together than the correlation length (near-
    singular covariance).
    """
    points_mm = np.ascontiguousarray(points_mm, dtype=float)
    chol = _cholesky_factor(
        points_mm.tobytes(), points_mm.shape, sigma, length_mm
    )
    normal = rng.standard_normal(chol.shape[0])
    return mean + chol @ normal


@lru_cache(maxsize=4)
def _cholesky_factor(
    points_bytes: bytes, shape: tuple, sigma: float, length_mm: float
) -> np.ndarray:
    """Read-only lower Cholesky factor of the jittered grid covariance."""
    points_mm = np.frombuffer(points_bytes, dtype=float).reshape(shape)
    cov = build_covariance(points_mm, sigma, length_mm)
    jitter = 1e-10 * sigma**2
    chol = linalg.cholesky(cov + jitter * np.eye(cov.shape[0]), lower=True)
    chol.flags.writeable = False
    return chol
