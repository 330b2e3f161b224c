"""Minimum-variance unbiased estimation of the stationary acceleration.

After l steps the tracked state satisfies t_l = A^l t_0 + b_acc * alpha + noise,
so the residual t_res = t_hat_l - A^l t_0 is a linear observation of alpha with
covariance C_l + Q_l. The weighted least-squares estimate is unbiased and its
variance equals the Cramer-Rao bound 1 / (b^T (C+Q)^{-1} b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS_ABS_GATE = 1e-3  # m/s^2, floor for the relative-change denominator
COND_LIMIT = 1e12


@dataclass(frozen=True)
class AccelEstimate:
    alpha_hat: float
    crlb: float
    accepted: bool
    step: int


def residual_state(t_hat: np.ndarray, t0: np.ndarray, a: np.ndarray, steps: int) -> np.ndarray:
    """Residual t_hat - A^steps t0 observed at step `steps`."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return np.asarray(t_hat, float) - np.linalg.matrix_power(a, steps) @ np.asarray(t0, float)


def estimate_alpha(
    t_res: np.ndarray,
    b_acc: np.ndarray,
    c_cov: np.ndarray,
    q_cov: np.ndarray,
    step: int = 0,
) -> AccelEstimate:
    """MVU estimate alpha_hat = b^T W t_res / (b^T W b) with W = (C+Q)^{-1}.

    The returned crlb is (b^T W b)^{-1}. The combined covariance is
    regularized when ill-conditioned.
    """
    b = np.asarray(b_acc, float)
    if not np.any(b):
        raise ValueError("b_acc must be nonzero (needs at least one step)")
    s = np.asarray(c_cov, float) + np.asarray(q_cov, float)
    # For a positive-definite 3x3 matrix tr^3/det bounds the condition number
    # from above, so this regularizes at least whenever cond(s) > COND_LIMIT.
    (s00, s01, s02), (s10, s11, s12), (s20, s21, s22) = s.tolist()
    trace = s00 + s11 + s22
    det = s00 * (s11 * s22 - s12 * s21) - s01 * (s10 * s22 - s12 * s20) + s02 * (
        s10 * s21 - s11 * s20
    )
    if not trace**3 <= COND_LIMIT * det:
        s = s + (trace / 3.0) * 1e-12 * np.eye(3)
    wb = np.linalg.solve(s, b)
    denom = float(b @ wb)
    alpha_hat = float(wb @ np.asarray(t_res, float)) / denom
    return AccelEstimate(alpha_hat=alpha_hat, crlb=1.0 / denom, accepted=False, step=step)


def gate_alpha(
    prev: AccelEstimate | None, new: AccelEstimate, alpha_thres: float
) -> bool:
    """Accept the new estimate when it moved less than alpha_thres relative
    to the previous one. The first estimate is never accepted."""
    if alpha_thres <= 0:
        raise ValueError("alpha_thres must be positive")
    if prev is None:
        return False
    denom = max(abs(prev.alpha_hat), EPS_ABS_GATE)
    return abs(new.alpha_hat - prev.alpha_hat) / denom <= alpha_thres
