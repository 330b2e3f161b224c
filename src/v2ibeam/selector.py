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
from .ekf import StateBelief
from .motion import MotionModel, transition_matrices


@dataclass(frozen=True)
class PredictedDirection:
    mean_psi: float
    std_psi: float
    t: int  # step offset from the switching instant, 1..Omega


@dataclass(frozen=True)
class IdealBpVector:
    g: np.ndarray
    omega: int


def extrapolate(
    belief: StateBelief,
    model: MotionModel,
    alpha_hat: float | None,
    omega: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Predict (mean, covariance) for each of the next omega steps.

    Equivalent to omega repeated measurement-free predictions: with an
    accepted acceleration the mean gains the accumulated b term and the
    acceleration covariance is dropped.
    """
    if omega < 1:
        raise ValueError("omega must be >= 1")
    a, b, q_alpha, q_omega = transition_matrices(model)
    added = q_omega if alpha_hat is not None else q_alpha + q_omega
    out = []
    mean = belief.mean.copy()
    cov = belief.cov.copy()
    b_acc = np.zeros(3)
    a_pow_b = b.copy()
    for _ in range(omega):
        mean = a @ mean
        cov = a @ cov @ a.T + added
        cov = (cov + cov.T) / 2.0
        if alpha_hat is not None:
            b_acc = b_acc + a_pow_b  # running sum_{tau} A^{tau-1} b
            a_pow_b = a @ a_pow_b
            out.append((mean + b_acc * alpha_hat, cov.copy()))
        else:
            out.append((mean.copy(), cov.copy()))
    return out


def direction_distribution(
    state_pred: np.ndarray, cov_pred: np.ndarray, h: float, t: int = 0
) -> PredictedDirection:
    """First-order Gaussian model of the beam direction at a predicted state."""
    x, y = float(state_pred[0]), float(state_pred[1])
    mean = spatial_frequency(x, y, h)
    k2 = y * y + h * h
    slope = math.pi * k2 / (x * x + k2) ** 1.5
    std = abs(slope) * math.sqrt(max(float(cov_pred[0, 0]), 0.0))
    return PredictedDirection(mean_psi=mean, std_psi=std, t=t)


def ideal_bp(
    dirs: list[PredictedDirection], num_antennas: int, grid_size: int
) -> IdealBpVector:
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
    return IdealBpVector(g=scale * acc, omega=len(dirs))


def select(book: Codebook, ideal: IdealBpVector) -> tuple[int, Codeword]:
    """Pick the codeword whose gain pattern best matches the ideal pattern.

    Returns the 1-based codeword index and the codeword; ties go to the
    lowest index.
    """
    if book.size == 0:
        raise ValueError("empty codebook")
    if book.codewords[0].bp_samples.shape[0] != ideal.g.shape[0]:
        raise ValueError("codebook and ideal pattern use different grids")
    scores = np.abs(book.bp_matrix() @ ideal.g) ** 2
    idx = int(np.argmax(scores))  # argmax returns the first (lowest) maximizer
    return idx + 1, book.codewords[idx]


def dft_codeword(psi: float, num_antennas: int) -> np.ndarray:
    """Steering vector at the M-point DFT frequency nearest to psi."""
    step = 2.0 * math.pi / num_antennas
    k = round((psi + math.pi) / step)
    psi_q = -math.pi + k * step
    return array_response(num_antennas, psi_q) / math.sqrt(num_antennas)


def dft_bin(psi: float, num_antennas: int) -> int:
    """0-based index of the M-point DFT frequency dft_codeword steers at for psi."""
    step = 2.0 * math.pi / num_antennas
    return int(round((psi + math.pi) / step)) % num_antennas


def dft_scheme_directions(
    belief: StateBelief,
    model: MotionModel,
    omega: int,
    h: float,
    alpha_hat: float | None = None,
) -> tuple[float, float]:
    """Beam directions of the DFT schemes: scheme 1 the midpoint prediction
    A^{Omega/2} t_hat, scheme 2 the current estimate t_hat."""
    if omega > 0 and omega % 2:
        raise ValueError("scheme 1 needs an even omega")
    psi_now = spatial_frequency(float(belief.mean[0]), float(belief.mean[1]), h)
    if omega == 0:
        mid_state = belief.mean
    else:
        mid_state = extrapolate(belief, model, alpha_hat, omega // 2)[-1][0]
    psi_mid = spatial_frequency(float(mid_state[0]), float(mid_state[1]), h)
    return psi_mid, psi_now


def dft_scheme_baselines(
    belief: StateBelief,
    model: MotionModel,
    omega: int,
    num_antennas: int,
    h: float,
    alpha_hat: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """DFT-grid beamformers of schemes 1 and 2 (see dft_scheme_directions)."""
    psi_mid, psi_now = dft_scheme_directions(belief, model, omega, h, alpha_hat)
    return dft_codeword(psi_mid, num_antennas), dft_codeword(psi_now, num_antennas)
