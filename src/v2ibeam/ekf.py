"""Extended Kalman filter for vehicle state tracking over uplink sounding.

One tracking step: linear state prediction, the rank-one channel Jacobian
D = h_dot grad^T at the predicted state, combiner design from it, one complex
sounding sample r = z^H h(psi) + n, and a scalar rank-one mean/covariance
update. The stationary acceleration is estimated on the side and, once two
consecutive estimates agree, fed back into the prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import accel as accel_mod
from . import sounding as sounding_mod
from .array_channel import (
    ArrayConfig,
    RoadGeometry,
    antenna_ramp,
    channel_vector,
    spatial_frequency,
    vehicle_link,
)
from .motion import (
    LongTermAccumulator,
    MotionModel,
    StateVector,
    process_noise,
    transition_matrices,
)

INIT_COV_REG = 1e-9  # scaled by ||t0||^2


@dataclass(frozen=True, eq=False)
class StateBelief:
    """Gaussian belief over the kinematic state."""

    mean: np.ndarray  # 3-vector
    cov: np.ndarray  # 3x3 symmetric


def init_belief(
    t0: StateVector, sigma_eps: float, rng: np.random.Generator | None
) -> StateBelief:
    """Initial belief from the fed-back state with multiplicative feedback error.

    t_hat0 = (1 + eps) t0 with eps ~ N(0, sigma_eps^2);
    Q0 = sigma_eps^2 t0 t0^T plus a small scale-aware ridge.
    """
    if sigma_eps < 0:
        raise ValueError("sigma_eps must be nonnegative")
    t0v = t0.as_array()
    eps = 0.0
    if sigma_eps > 0 and rng is not None:
        eps = rng.normal(0.0, sigma_eps)
    reg = INIT_COV_REG * float(t0v @ t0v)
    cov = sigma_eps**2 * np.outer(t0v, t0v) + reg * np.eye(3)
    return StateBelief(mean=t0v + eps * t0v, cov=cov)


def predict(
    belief: StateBelief, model: MotionModel, alpha_hat: float | None = None
) -> StateBelief:
    """One-step prediction. With an accepted acceleration estimate the mean
    gains b*alpha_hat and the acceleration covariance term is dropped."""
    a, b, _, q_omega = transition_matrices(model)
    if alpha_hat is None:
        mean = a @ belief.mean
        cov = a @ belief.cov @ a.T + process_noise(model)
    else:
        mean = a @ belief.mean + b * alpha_hat
        cov = a @ belief.cov @ a.T + q_omega
    return StateBelief(mean=mean, cov=(cov + cov.T) / 2.0)


def g_of_state(state: np.ndarray, h: float) -> float:
    """Beam direction of a state: psi = pi x / sqrt(x^2 + y^2 + h^2)."""
    return spatial_frequency(float(state[0]), float(state[1]), h)


def g_gradient(state: np.ndarray, h: float, ts: float, steering_angle: float) -> np.ndarray:
    """Row gradient of the beam direction with respect to [x, y, v].

    The v entry uses the kinematic surrogate dx/dv ~ T_s cos(phi_s).
    """
    x, y = float(state[0]), float(state[1])
    k2 = y * y + h * h
    denom = (x * x + k2) ** 1.5
    return np.array(
        [
            math.pi * k2 / denom,
            math.pi * (-x * y) / denom,
            math.pi * (math.cos(steering_angle) * k2 * ts) / denom,
        ]
    )


def jacobian(
    state_pred: np.ndarray,
    beta: complex,
    num_antennas: int,
    h: float,
    ts: float,
    steering_angle: float,
):
    """Rank-one factors of the channel Jacobian at the predicted state.

    Returns (psi_pred, h_pred, h_dot, grad): the predicted beam direction psi,
    the predicted channel h = beta d_M(psi), its derivative dh/dpsi = j m h_m
    and the state gradient of psi, so that the complex Jacobian is
    D = h_dot grad^T.
    """
    psi = g_of_state(state_pred, h)
    h_pred = channel_vector(beta, psi, num_antennas)
    h_dot = antenna_ramp(num_antennas) * h_pred
    return psi, h_pred, h_dot, g_gradient(state_pred, h, ts, steering_angle)


def kalman_gain(w: np.ndarray, grad: np.ndarray, c: complex, noise_var: float) -> np.ndarray:
    """State factor k = w / den of the Kalman gain, with w = Q grad and
    den = noise_var + grad^T w |c|^2, where c = z^H h_dot.

    The real-domain measurement matrix of the sounding sample is
    [Re c, Im c]^T grad^T, so the 3x2 gain of the lifted observation with
    per-component noise variance noise_var is k [Re c, Im c].
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    return w / (noise_var + float(grad @ w) * abs(c) ** 2)


def update(
    belief_pred: StateBelief,
    obs: sounding_mod.Sounding,
    h_pred: np.ndarray,
    h_dot: np.ndarray,
    grad: np.ndarray,
) -> StateBelief:
    """Scalar rank-one measurement update against one sounding sample.

    With c = z^H h_dot, w = Q grad and innovation nu = r - z^H h_pred:
    mean t + k Re(conj(c) nu), covariance Q - |c|^2 k w^T, symmetrized.
    """
    c = complex(np.vdot(obs.z, h_dot))
    w = belief_pred.cov @ grad
    gain = kalman_gain(w, grad, c, obs.noise_var)
    innovation = complex(obs.r - np.vdot(obs.z, h_pred))
    mean = belief_pred.mean + gain * (c.conjugate() * innovation).real
    cov = belief_pred.cov - abs(c) ** 2 * (gain[:, None] * w)
    return StateBelief(mean=mean, cov=(cov + cov.T) / 2.0)


@dataclass
class TrackStep:
    """The tracker's state after one sounding period."""

    step: int
    belief: StateBelief
    alpha_applied: float | None


class Tracker:
    """Stateful single-vehicle tracking loop.

    combiner_mode selects the sounding combiner: "optimal" is the Rayleigh-
    quotient design, "hybrid" its equal-gain reconstruction, "manifold" the
    steering-vector baseline. Acceleration estimation starts at step
    accel_min_step and feeds predictions only after the gating rule accepts
    two consecutive estimates within alpha_thres of each other.
    """

    def __init__(
        self,
        geometry: RoadGeometry,
        array: ArrayConfig,
        model: MotionModel,
        t0: StateVector,
        sigma_eps: float,
        rng: np.random.Generator | None,
        combiner_mode: str = "optimal",
        estimate_accel: bool = True,
        accel_min_step: int = 10,
        alpha_thres: float = 0.03,
        dictionary: sounding_mod.SteeringDictionary | None = None,
    ):
        if combiner_mode not in ("optimal", "hybrid", "manifold"):
            raise ValueError(f"unknown combiner_mode {combiner_mode!r}")
        self.geometry = geometry
        self.array = array
        self.model = model
        self.combiner_mode = combiner_mode
        self.estimate_accel = estimate_accel
        self.accel_min_step = accel_min_step
        self.alpha_thres = alpha_thres
        self.belief = init_belief(t0, sigma_eps, rng)
        # acceleration-residual anchor: the estimator's noise model assumes an
        # exact initial state, not the perturbed feedback
        self.t0 = t0.as_array()
        self.long_term = LongTermAccumulator(model)
        self.alpha_applied: float | None = None
        self.last_estimate: accel_mod.AccelEstimate | None = None
        self.step_index = 0
        if combiner_mode == "hybrid" and dictionary is None:
            dictionary = sounding_mod.SteeringDictionary.build(array.num_antennas)
        self.dictionary = dictionary

    def design_combiner(
        self, psi_pred: float, h_dot: np.ndarray, grad: np.ndarray, q_pred: np.ndarray
    ) -> sounding_mod.Combiner:
        """Sounding combiner at the predicted belief: its beam direction
        psi_pred, the rank-one factors h_dot, grad of the channel Jacobian
        there (see jacobian) and its covariance q_pred."""
        if self.combiner_mode == "manifold":
            return sounding_mod.dft_manifold_combiner(psi_pred, self.array.num_antennas)
        comb = sounding_mod.optimal_combiner(h_dot, grad, q_pred, fallback_psi=psi_pred)
        if self.combiner_mode == "hybrid":
            comb = sounding_mod.hybrid_approximation(
                comb.z, self.dictionary, self.array.num_rf_chains
            )
        return comb

    def step(
        self,
        truth: StateVector,
        beta: complex,
        rng: np.random.Generator | None,
    ) -> TrackStep:
        """Process one sounding period: new true state and fading coefficient.

        rng=None disables the sounding noise."""
        h = self.geometry.rsu_height_m
        m = self.array.num_antennas
        self.step_index += 1
        lt = self.long_term.advance()

        belief_pred = predict(self.belief, self.model, self.alpha_applied)
        psi_pred, h_pred, h_dot, grad = jacobian(
            belief_pred.mean, beta, m, h, self.model.ts, self.model.steering_angle
        )
        comb = self.design_combiner(psi_pred, h_dot, grad, belief_pred.cov)
        psi_true, rho = vehicle_link(self.array, truth.x, truth.y, h)
        obs = sounding_mod.sound_uplink(rng, comb, channel_vector(beta, psi_true, m), rho)
        self.belief = update(belief_pred, obs, h_pred, h_dot, grad)

        if self.estimate_accel and self.step_index >= self.accel_min_step:
            t_res = self.belief.mean - lt.a_pow @ self.t0
            estimate = accel_mod.estimate_alpha(t_res, lt.b_acc, lt.c_cov, self.belief.cov)
            if accel_mod.gate_alpha(self.last_estimate, estimate, self.alpha_thres):
                self.alpha_applied = estimate.alpha_hat
            self.last_estimate = estimate

        return TrackStep(
            step=self.step_index, belief=self.belief, alpha_applied=self.alpha_applied
        )
