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


@dataclass(frozen=True)
class StateVector:
    x: float
    y: float
    v: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.v])

    @staticmethod
    def from_array(a) -> "StateVector":
        return StateVector(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class MotionModel:
    """Discrete-time kinematic model parameters."""

    ts: float
    steering_angle: float = 0.0
    sigma_alpha: float = 0.0
    sigma_omega: float = 0.0

    def __post_init__(self):
        if self.ts <= 0:
            raise ValueError("ts must be positive")
        if not -math.pi / 2 <= self.steering_angle <= math.pi / 2:
            raise ValueError("steering_angle must be in [-pi/2, pi/2]")
        if self.sigma_alpha < 0 or self.sigma_omega < 0:
            raise ValueError("noise standard deviations must be nonnegative")


@dataclass(frozen=True)
class LongTermTransition:
    """Accumulated acceleration vector and process-noise covariance after l steps."""

    b_acc: np.ndarray  # 3-vector
    c_cov: np.ndarray  # 3x3


@functools.lru_cache(maxsize=64)
def transition_matrices(model: MotionModel):
    """Return (A, b, Q_alpha, Q_omega) for one step.

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
    for arr in (a, b, q_alpha, q_omega):
        arr.setflags(write=False)
    return a, b, q_alpha, q_omega


def step_truth(
    rng: np.random.Generator, model: MotionModel, state: StateVector, alpha: float
) -> StateVector:
    """Advance the true state one period: t' = A t + b alpha + omega."""
    a, b, _, q_omega = transition_matrices(model)
    omega = rng.standard_normal(3) * np.sqrt(np.diag(q_omega))
    return StateVector.from_array(a @ state.as_array() + b * alpha + omega)


def long_term(model: MotionModel, steps: int) -> LongTermTransition:
    """Transition algebra from step 0 to step `steps`.

    b_acc = sum_{tau=1..l} A^{tau-1} b, which collapses to
    [(l T_s)^2 cos(phi_s)/2, (l T_s)^2 sin(phi_s)/2, l T_s];
    c_cov = sum_{tau=1..l} A^{tau-1} Q_omega (A^{tau-1})^T.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    a, _, _, q_omega = transition_matrices(model)
    lt = steps * model.ts
    c, s = math.cos(model.steering_angle), math.sin(model.steering_angle)
    b_acc = np.array([lt * lt * c / 2.0, lt * lt * s / 2.0, lt])
    c_cov = np.zeros((3, 3))
    a_pow = np.eye(3)
    for _ in range(steps):
        c_cov += a_pow @ q_omega @ a_pow.T
        a_pow = a_pow @ a
    return LongTermTransition(b_acc=b_acc, c_cov=c_cov)


class LongTermAccumulator:
    """Incremental long_term() for a tracking loop: O(1) work per step."""

    def __init__(self, model: MotionModel):
        self._a, self._b, _, self._q_omega = transition_matrices(model)
        self._model = model
        self._a_pow = np.eye(3)  # A^l
        self._c_cov = np.zeros((3, 3))
        self._steps = 0

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def a_power(self) -> np.ndarray:
        return self._a_pow

    def advance(self) -> LongTermTransition:
        self._c_cov = self._c_cov + self._a_pow @ self._q_omega @ self._a_pow.T
        self._a_pow = self._a_pow @ self._a
        self._steps += 1
        lt = self._steps * self._model.ts
        c = math.cos(self._model.steering_angle)
        s = math.sin(self._model.steering_angle)
        b_acc = np.array([lt * lt * c / 2.0, lt * lt * s / 2.0, lt])
        return LongTermTransition(b_acc=b_acc, c_cov=self._c_cov.copy())


def simulate_trajectory(
    rng: np.random.Generator,
    model: MotionModel,
    t0: StateVector,
    steps: int,
    alpha: float | None = None,
) -> list[StateVector]:
    """Ground-truth trajectory [t0, ..., t_steps].

    alpha is drawn once from N(0, sigma_alpha^2) when not supplied, matching a
    coherence period spanning the whole run.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if alpha is None:
        alpha = rng.normal(0.0, model.sigma_alpha)
    out = [t0]
    state = t0
    for _ in range(steps):
        state = step_truth(rng, model, state, alpha)
        out.append(state)
    return out
