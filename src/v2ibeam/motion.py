"""Vehicle kinematics: state transition model, process noise, truth simulation.

State is t = [x, y, v]. Over one sounding period T_s with steering angle
phi_s the state evolves as t' = A t + b alpha + omega, where alpha is the
(per-coherence-period constant) acceleration and omega ~ N(0, Q_omega).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .inputs import _angle, _checked, _nonnegative, _positive


@dataclass(frozen=True)
class StateVector:
    x: float
    y: float
    v: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.v])


@dataclass(frozen=True)
class MotionModel:
    """Discrete-time kinematic model parameters."""

    ts: float
    steering_angle: float = 0.0
    sigma_alpha: float = 0.0
    sigma_omega: float = 0.0

    def __post_init__(self):
        for key, kind in [("ts", _positive), ("steering_angle", _angle),
                          ("sigma_alpha", _nonnegative), ("sigma_omega", _nonnegative)]:
            _checked("MotionModel", key, getattr(self, key), kind)


@dataclass(frozen=True, eq=False)
class LongTermTransition:
    """Transition algebra from step 0 to step l: t_l = A^l t_0 + b_acc alpha + noise."""

    a_pow: np.ndarray  # 3x3, A^l
    b_acc: np.ndarray  # 3-vector
    c_cov: np.ndarray  # 3x3


@functools.lru_cache(maxsize=64)
def transition_matrices(model: MotionModel):
    """Return (A, b, Q_alpha + Q_omega, Q_omega) for one step: the
    prediction noise before and after the acceleration is known.

    A is unit-diagonal upper triangular with A[0,2] = T_s cos(phi_s) and
    A[1,2] = T_s sin(phi_s); b = [T_s^2 cos(phi_s)/2, T_s^2 sin(phi_s)/2, T_s];
    Q_alpha = sigma_alpha^2 b b^T; Q_omega is diagonal. The arrays are cached
    per (frozen) model and shared by every caller, so they are read-only.
    """
    ts = model.ts
    c, s = math.cos(model.steering_angle), math.sin(model.steering_angle)
    a = np.array([[1.0, 0.0, ts * c], [0.0, 1.0, ts * s], [0.0, 0.0, 1.0]])
    b = np.array([ts * ts * c / 2.0, ts * ts * s / 2.0, ts])
    q_alpha = model.sigma_alpha**2 * np.outer(b, b)
    q_omega = np.diag(
        [
            ts * ts * model.sigma_omega**2 * c * c,
            ts * ts * model.sigma_omega**2 * s * s,
            model.sigma_omega**2,
        ]
    )
    q = q_alpha + q_omega
    for arr in (a, b, q, q_omega):
        arr.setflags(write=False)
    return a, b, q, q_omega


@functools.lru_cache(maxsize=64)
def _truth_coefficients(model: MotionModel) -> tuple[float, ...]:
    """A[0,2], A[1,2], b and the standard deviations sqrt(diag Q_omega) as floats."""
    a, b, _, q_omega = transition_matrices(model)
    return (float(a[0, 2]), float(a[1, 2]), *b.tolist(),
            *np.sqrt(np.diag(q_omega)).tolist())


def step_truth(
    rng: np.random.Generator, model: MotionModel, state: StateVector, alpha: float
) -> StateVector:
    """Advance the true state one period: t' = A t + b alpha + omega."""
    a02, a12, b0, b1, b2, sx, sy, sv = _truth_coefficients(model)
    w0, w1, w2 = rng.standard_normal(3).tolist()
    return StateVector(
        state.x + a02 * state.v + b0 * alpha + w0 * sx,
        state.y + a12 * state.v + b1 * alpha + w1 * sy,
        state.v + b2 * alpha + w2 * sv,
    )


# A tracking loop asks for steps 1..horizon in order, so an LRU cache smaller
# than a horizon evicts each entry just before it is needed again. A full
# cache holds about 3.3 MB.
@functools.lru_cache(maxsize=4096)
def long_term(model: MotionModel, steps: int) -> LongTermTransition:
    """Transition algebra from step 0 to step l = `steps`, in closed form.

    N = A - I = p e3^T with p = T_s [cos(phi_s), sin(phi_s), 0]^T satisfies
    N^2 = 0, so A^tau = I + tau N and, with S1 = sum tau = l(l-1)/2 and
    S2 = sum tau^2 = (l-1)l(2l-1)/6 over tau = 0..l-1,
    b_acc = sum A^tau b = [(l T_s)^2 cos(phi_s)/2, (l T_s)^2 sin(phi_s)/2, l T_s];
    c_cov = sum A^tau Q_omega (A^tau)^T
          = l Q_omega + sigma_omega^2 (S1 (p e3^T + e3 p^T) + S2 p p^T).

    Cached per (model, steps); the arrays are shared, so they are read-only.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    c, s = math.cos(model.steering_angle), math.sin(model.steering_angle)
    px, py = model.ts * c, model.ts * s
    var = model.sigma_omega**2
    s1 = steps * (steps - 1) / 2.0
    s2 = (steps - 1) * steps * (2 * steps - 1) / 6.0
    pos = var * (steps + s2)  # Q_omega[0,0] = var px^2, Q_omega[1,1] = var py^2
    cross = var * s1
    lt = steps * model.ts
    out = LongTermTransition(
        a_pow=np.array([[1.0, 0.0, steps * px], [0.0, 1.0, steps * py], [0.0, 0.0, 1.0]]),
        b_acc=np.array([lt * lt * c / 2.0, lt * lt * s / 2.0, lt]),
        c_cov=np.array(
            [
                [pos * px * px, var * s2 * px * py, cross * px],
                [var * s2 * px * py, pos * py * py, cross * py],
                [cross * px, cross * py, steps * var],
            ]
        ),
    )
    for arr in (out.a_pow, out.b_acc, out.c_cov):
        arr.setflags(write=False)
    return out


class LongTermAccumulator:
    """Step counter for a tracking loop: each advance() returns long_term()
    for one more step."""

    def __init__(self, model: MotionModel):
        self._model = model
        self._steps = 0

    def advance(self) -> LongTermTransition:
        self._steps += 1
        return long_term(self._model, self._steps)

