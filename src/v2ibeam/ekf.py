"""Extended Kalman filter for vehicle state tracking over uplink sounding.

One tracking step: linear state prediction, the rank-one channel Jacobian at
the predicted state, combiner design from it, a real-domain lifted sounding
observation, the 3x2 Kalman gain, and the mean/covariance update. The stationary
acceleration is estimated on the side and, once two consecutive estimates
agree, fed back into the prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import accel as accel_mod
from . import sounding as sounding_mod
from .array_channel import (
    ArrayConfig,
    ChannelRealization,
    RoadGeometry,
    array_response,
    array_response_derivative,
    average_snr,
    spatial_frequency,
)
from .motion import LongTermAccumulator, MotionModel, StateVector, transition_matrices

INIT_COV_REG = 1e-9  # scaled by ||t0||^2


@dataclass(frozen=True)
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
    a, b, q_alpha, q_omega = transition_matrices(model)
    if alpha_hat is None:
        mean = a @ belief.mean
        cov = a @ belief.cov @ a.T + q_alpha + q_omega
    else:
        mean = a @ belief.mean + b * alpha_hat
        cov = a @ belief.cov @ a.T + q_omega
    return StateBelief(mean=mean, cov=(cov + cov.T) / 2.0)


def g_of_state(state: np.ndarray | StateVector, h: float) -> float:
    """Beam direction of a state: psi = pi x / sqrt(x^2 + y^2 + h^2)."""
    if isinstance(state, StateVector):
        return spatial_frequency(state.x, state.y, h)
    return spatial_frequency(float(state[0]), float(state[1]), h)


def g_gradient(state: np.ndarray, h: float, ts: float, steering_angle: float) -> np.ndarray:
    """Row gradient of the beam direction with respect to [x, y, v].

    The v entry uses the kinematic surrogate dx/dv ~ T_s cos(phi_s).
    """
    x, y = float(state[0]), float(state[1])
    k2 = y * y + h * h
    denom = (x * x + k2) ** 1.5
    return math.pi * np.array(
        [k2, -x * y, math.cos(steering_angle) * k2 * ts]
    ) / denom


def jacobian(
    state_pred: np.ndarray,
    beta: complex,
    num_antennas: int,
    h: float,
    ts: float,
    steering_angle: float,
):
    """Channel Jacobian at the predicted state.

    Returns (d_lift, d_complex): the 2M x 3 real lifting
    [Re(beta) dd_re - Im(beta) dd_im; Im(beta) dd_re + Re(beta) dd_im] * grad
    and the complex M x 3 variant used by the combiner design.
    """
    psi = g_of_state(state_pred, h)
    dd_re, dd_im = array_response_derivative(num_antennas, psi)
    grad = g_gradient(state_pred, h, ts, steering_angle)
    br, bi = beta.real, beta.imag
    h_re_dot = br * dd_re - bi * dd_im
    h_im_dot = bi * dd_re + br * dd_im
    d_lift = np.outer(np.concatenate([h_re_dot, h_im_dot]), grad)
    d_complex = np.outer(h_re_dot + 1j * h_im_dot, grad)
    return d_lift, d_complex


def kalman_gain(
    q_pred: np.ndarray, d_lift: np.ndarray, z_lift: np.ndarray, rho: float
) -> np.ndarray:
    """Gain K = Q D^T Z^T (Z D Q D^T Z^T + I/(2 rho))^{-1}, shape 3x2."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    zd = z_lift @ d_lift  # 2x3
    cross = q_pred @ zd.T  # 3x2
    (a, b), (c, d) = (zd @ cross).tolist()
    a += 0.5 / rho
    d += 0.5 / rho
    det = a * d - b * c
    if det == 0.0:  # cannot occur for finite rho
        raise ValueError("degenerate sounding: innovation covariance singular")
    return cross @ np.array([[d, -b], [-c, a]]) / det


def update(
    belief_pred: StateBelief,
    obs: sounding_mod.RealSounding,
    d_lift: np.ndarray,
    beta: complex,
    num_antennas: int,
    h: float,
    use_joseph: bool = False,
) -> StateBelief:
    """Measurement update against the lifted sounding sample.

    Mean: t + K (r - Z h_lift(g(t))). Covariance: (I - K Z D) Q, symmetrized;
    the Joseph-form alternative is available behind use_joseph.
    """
    psi_pred = g_of_state(belief_pred.mean, h)
    h_lift = sounding_mod.lift_channel(beta * array_response(num_antennas, psi_pred))
    rho = 1.0 / (2.0 * obs.noise_var)
    gain = kalman_gain(belief_pred.cov, d_lift, obs.z_lift, rho)
    innovation = obs.r_lift - obs.z_lift @ h_lift
    mean = belief_pred.mean + gain @ innovation
    kzd = gain @ (obs.z_lift @ d_lift)
    if use_joseph:
        i_kzd = np.eye(3) - kzd
        cov = i_kzd @ belief_pred.cov @ i_kzd.T + obs.noise_var * gain @ gain.T
    else:
        cov = belief_pred.cov - kzd @ belief_pred.cov
    return StateBelief(mean=mean, cov=(cov + cov.T) / 2.0)


@dataclass
class TrackStep:
    """Everything logged for one sounding period of one trial."""

    step: int
    truth: StateVector
    belief: StateBelief
    beta: complex
    psi_true: float
    rho: float
    alpha_applied: float | None
    alpha_estimate: accel_mod.AccelEstimate | None
    combiner_kind: str


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
        t0_anchor: StateVector | None = None,
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
        anchor = t0_anchor if t0_anchor is not None else t0
        self.t0_anchor = anchor.as_array()
        self.long_term = LongTermAccumulator(model)
        self.alpha_applied: float | None = None
        self.last_estimate: accel_mod.AccelEstimate | None = None
        self.step_index = 0
        if combiner_mode == "hybrid" and dictionary is None:
            dictionary = sounding_mod.SteeringDictionary.build(array.num_antennas)
        self.dictionary = dictionary

    def design_combiner(
        self, belief_pred: StateBelief, d_complex: np.ndarray, rho: float
    ) -> sounding_mod.Combiner:
        """Sounding combiner at the predicted belief; d_complex is the complex
        channel Jacobian there (see jacobian)."""
        psi_pred = g_of_state(belief_pred.mean, self.geometry.rsu_height_m)
        if self.combiner_mode == "manifold":
            return sounding_mod.dft_manifold_combiner(psi_pred, self.array.num_antennas)
        comb = sounding_mod.optimal_combiner(
            d_complex, belief_pred.cov, rho, fallback_psi=psi_pred
        )
        if self.combiner_mode == "hybrid":
            comb = sounding_mod.hybrid_approximation(
                comb, self.dictionary, self.array.num_rf_chains
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
        self.step_index += 1
        lt = self.long_term.advance()

        belief_pred = predict(self.belief, self.model, self.alpha_applied)

        d_true = math.sqrt(truth.x**2 + truth.y**2 + h**2)
        rho = average_snr(self.array, d_true)
        psi_true = spatial_frequency(truth.x, truth.y, h)

        chan = ChannelRealization(beta=beta, psi=psi_true, rho=rho)
        d_lift, d_complex = jacobian(
            belief_pred.mean,
            beta,
            self.array.num_antennas,
            h,
            self.model.ts,
            self.model.steering_angle,
        )
        comb = self.design_combiner(belief_pred, d_complex, rho)
        obs = sounding_mod.sound_uplink(rng, comb, chan, self.array.num_antennas)
        self.belief = update(
            belief_pred, obs, d_lift, beta, self.array.num_antennas, h
        )

        estimate = None
        if self.estimate_accel and self.step_index >= self.accel_min_step:
            t_res = self.belief.mean - self.long_term.a_power @ self.t0_anchor
            estimate = accel_mod.estimate_alpha(
                t_res, lt.b_acc, lt.c_cov, self.belief.cov, step=self.step_index
            )
            accepted = accel_mod.gate_alpha(self.last_estimate, estimate, self.alpha_thres)
            estimate = replace(estimate, accepted=accepted)
            self.last_estimate = estimate
            if accepted:
                self.alpha_applied = estimate.alpha_hat

        return TrackStep(
            step=self.step_index,
            truth=truth,
            belief=self.belief,
            beta=beta,
            psi_true=psi_true,
            rho=rho,
            alpha_applied=self.alpha_applied,
            alpha_estimate=estimate,
            combiner_kind=comb.kind,
        )
