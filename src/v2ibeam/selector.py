"""Predictive beamformer selection.

Between sounding-driven updates the downlink beamformer is refreshed only
every Omega sounding periods. The belief is extrapolated over the next Omega
steps without measurements, each step's beam direction becomes a Gaussian,
and their mixture (scaled to total mass 2 pi / M) is matched against the
codebook's gain patterns by inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_channel import array_response, spatial_frequency
from .codebook import Codebook, Codeword, psi_grid
from .ekf import StateBelief, predict
from .motion import MotionModel


@dataclass(frozen=True)
class PredictedDirection:
    mean_psi: float
    std_psi: float


def extrapolate(
    belief: StateBelief,
    model: MotionModel,
    alpha_hat: float | None,
    omega: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Predict (mean, covariance) for each of the next omega steps by omega
    repeated measurement-free predictions (see ekf.predict)."""
    if omega < 1:
        raise ValueError("omega must be >= 1")
    out = []
    for _ in range(omega):
        belief = predict(belief, model, alpha_hat)
        out.append((belief.mean, belief.cov))
    return out


def direction_distribution(
    state_pred: np.ndarray, cov_pred: np.ndarray, h: float
) -> PredictedDirection:
    """First-order Gaussian model of the beam direction at a predicted state."""
    x, y = float(state_pred[0]), float(state_pred[1])
    mean = spatial_frequency(x, y, h)
    k2 = y * y + h * h
    slope = math.pi * k2 / (x * x + k2) ** 1.5
    std = abs(slope) * math.sqrt(max(float(cov_pred[0, 0]), 0.0))
    return PredictedDirection(mean_psi=mean, std_psi=std)


def ideal_bp(
    dirs: list[PredictedDirection], num_antennas: int, grid_size: int
) -> np.ndarray:
    """Mixture of the predicted direction pdfs scaled so the trapezoid mass
    is 2 pi / M. Components narrower than the grid become a one-sample spike
    of unit mass at the nearest grid point; tails falling outside the grid
    are truncated without renormalization.
    """
    if not dirs:
        raise ValueError("need at least one predicted direction")
    grid = psi_grid(grid_size)
    delta = 2.0 * math.pi / grid_size
    acc = np.zeros(grid_size)
    for d in dirs:
        if d.std_psi <= delta:
            idx = int(np.clip(round((d.mean_psi - grid[0]) / delta), 0, grid_size - 1))
            acc[idx] += 1.0 / delta
        else:
            z = (grid - d.mean_psi) / d.std_psi
            acc += np.exp(-0.5 * z * z) / (d.std_psi * math.sqrt(2.0 * math.pi))
    scale = 2.0 * math.pi / (num_antennas * len(dirs))
    return scale * acc


def select(book: Codebook, ideal: np.ndarray) -> tuple[int, Codeword]:
    """Pick the codeword whose gain pattern best matches the ideal pattern
    (the samples ideal_bp returns).

    Returns the 1-based codeword index and the codeword; ties go to the
    lowest index.
    """
    if book.size == 0:
        raise ValueError("empty codebook")
    if book.codewords[0].bp_samples.shape[0] != ideal.shape[0]:
        raise ValueError("codebook and ideal pattern use different grids")
    scores = np.abs(book.bp_matrix @ ideal) ** 2
    idx = int(np.argmax(scores))  # argmax returns the first (lowest) maximizer
    return idx + 1, book.codewords[idx]


def dft_beam(psi: float, num_antennas: int) -> tuple[int, np.ndarray]:
    """The M-point DFT beam nearest to psi: its 0-based index k mod M on the
    grid -pi + 2 pi k / M and its unit-norm steering vector.

    The steering vector is taken at the unreduced k, so psi near +pi steers at
    +pi itself while its index wraps to 0.
    """
    step = 2.0 * math.pi / num_antennas
    k = round((psi + math.pi) / step)
    psi_q = -math.pi + k * step
    return k % num_antennas, array_response(num_antennas, psi_q) / math.sqrt(num_antennas)


def dft_midpoint_direction(
    belief: StateBelief,
    model: MotionModel,
    omega: int,
    h: float,
    alpha_hat: float | None = None,
) -> float:
    """Beam direction of DFT scheme 1: the prediction A^{Omega/2} t_hat at the
    middle of the switching period (Omega even)."""
    if omega < 2 or omega % 2:
        raise ValueError("scheme 1 needs an even omega")
    mid_state = extrapolate(belief, model, alpha_hat, omega // 2)[-1][0]
    return spatial_frequency(float(mid_state[0]), float(mid_state[1]), h)
