import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2ibeam.array_channel import ArrayConfig, RoadGeometry, array_response, channel_vector
from v2ibeam.ekf import (
    StateBelief,
    Tracker,
    g_gradient,
    g_of_state,
    init_belief,
    jacobian,
    kalman_gain,
    predict,
    update,
)
from v2ibeam.motion import MotionModel, StateVector, transition_matrices
from v2ibeam.sounding import (
    Combiner,
    Sounding,
    SteeringDictionary,
    dft_manifold_combiner,
    hybrid_approximation,
    optimal_combiner,
    sound_uplink,
)
from v2ibeam.units import carrier_to_wavelength, dbm_to_mw


def lifted_channel(state, beta, m, h):
    hh = beta * array_response(m, g_of_state(state, h))
    return np.concatenate([hh.real, hh.imag])


def lifted_jacobian(h_dot, grad):
    """2M x 3 real Jacobian of [Re h; Im h] from the rank-one factors."""
    d = np.outer(h_dot, grad)
    return np.vstack([d.real, d.imag])


def lifted_row(z):
    """2 x 2M real matrix of the combining row z^H acting on [Re h; Im h]."""
    return np.block([[z.real[None, :], z.imag[None, :]], [-z.imag[None, :], z.real[None, :]]])


def test_init_belief_perfect_feedback():
    t0 = StateVector(-50.0, 8.5, 19.4)
    belief = init_belief(t0, 0.0, None)
    np.testing.assert_allclose(belief.mean, t0.as_array())
    reg = 1e-9 * np.dot(t0.as_array(), t0.as_array())
    np.testing.assert_allclose(belief.cov, reg * np.eye(3))


def test_init_belief_rank_one_structure():
    t0 = StateVector(-50.0, 8.5, 19.4)
    t0v = t0.as_array()
    sigma_eps = 10**-1.5
    belief = init_belief(t0, sigma_eps, np.random.default_rng(0))
    reg = 1e-9 * float(t0v @ t0v)
    core = belief.cov - reg * np.eye(3)
    assert np.linalg.matrix_rank(core, tol=1e-12) == 1
    assert np.trace(core) == pytest.approx(sigma_eps**2 * float(t0v @ t0v))
    # the mean error is a single scalar times t0
    err = belief.mean - t0v
    np.testing.assert_allclose(err / t0v, err[0] / t0v[0])


def test_predict_covariance_decomposition():
    model = MotionModel(ts=0.01, steering_angle=0.1, sigma_alpha=1.5, sigma_omega=0.3)
    a, b, q_alpha, q_omega = transition_matrices(model)
    belief = StateBelief(mean=np.array([1.0, 2.0, 3.0]), cov=np.diag([1.0, 2.0, 0.5]))
    pred = predict(belief, model)
    np.testing.assert_allclose(pred.mean, a @ belief.mean)
    np.testing.assert_allclose(
        pred.cov - a @ belief.cov @ a.T, q_alpha + q_omega, atol=1e-15
    )
    assert np.trace(pred.cov) > np.trace(a @ belief.cov @ a.T)


def test_predict_branch_difference_is_q_alpha():
    model = MotionModel(ts=0.01, steering_angle=0.1, sigma_alpha=1.5, sigma_omega=0.3)
    a, b, q_alpha, _ = transition_matrices(model)
    belief = StateBelief(mean=np.array([1.0, 2.0, 3.0]), cov=np.eye(3))
    without = predict(belief, model)
    with_alpha = predict(belief, model, alpha_hat=0.7)
    np.testing.assert_allclose(without.cov - with_alpha.cov, q_alpha, atol=1e-15)
    np.testing.assert_allclose(with_alpha.mean - without.mean, b * 0.7)


def test_g_gradient_structure_at_center():
    grad = g_gradient(np.array([0.0, 8.5, 19.0]), 7.5, 0.01, 0.1)
    k2 = 8.5**2 + 7.5**2
    np.testing.assert_allclose(
        grad,
        math.pi * np.array([k2, 0.0, math.cos(0.1) * k2 * 0.01]) / k2**1.5,
    )


def test_g_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 7.5
    for _ in range(50):
        state = np.array(
            [rng.uniform(-70, 70), rng.uniform(1, 15), rng.uniform(5, 30)]
        )
        grad = g_gradient(state, h, 0.01, 0.1)
        for axis in range(2):
            step = 1e-6
            hi = state.copy(); hi[axis] += step
            lo = state.copy(); lo[axis] -= step
            fd = (g_of_state(hi, h) - g_of_state(lo, h)) / (2 * step)
            assert grad[axis] == pytest.approx(fd, abs=1e-6)


def test_g_gradient_velocity_entry_is_scaled_x_entry():
    grad = g_gradient(np.array([-31.0, 8.5, 22.0]), 7.5, 0.02, 0.3)
    assert grad[2] == pytest.approx(grad[0] * 0.02 * math.cos(0.3))


def test_jacobian_zero_cases():
    state = np.array([-20.0, 8.5, 19.0])
    _, h_pred, h_dot, _ = jacobian(state, 0.0, 16, 7.5, 0.01, 0.1)
    np.testing.assert_allclose(h_pred, 0.0)
    np.testing.assert_allclose(h_dot, 0.0)
    _, _, h_dot, _ = jacobian(state, 1.0 + 0.5j, 1, 7.5, 0.01, 0.1)
    np.testing.assert_allclose(h_dot, 0.0)


def test_jacobian_matches_lifted_finite_differences():
    # the velocity column uses dx/dv ~ Ts cos(phi), so the oracle perturbs x
    # accordingly for the v coordinate
    rng = np.random.default_rng(4)
    h, ts, phi = 7.5, 0.01, 0.1
    step = 1e-5
    for m in (8, 64):
        for _ in range(25):
            state = np.array(
                [rng.uniform(-70, 70), rng.uniform(2, 15), rng.uniform(5, 30)]
            )
            beta = complex(rng.standard_normal(), rng.standard_normal())
            _, _, h_dot, grad = jacobian(state, beta, m, h, ts, phi)
            d_lift = lifted_jacobian(h_dot, grad)
            fd = np.zeros_like(d_lift)
            for axis in range(2):
                hi = state.copy(); hi[axis] += step
                lo = state.copy(); lo[axis] -= step
                fd[:, axis] = (
                    lifted_channel(hi, beta, m, h) - lifted_channel(lo, beta, m, h)
                ) / (2 * step)
            fd[:, 2] = fd[:, 0] * ts * math.cos(phi)
            scale = np.max(np.abs(d_lift))
            assert np.max(np.abs(fd - d_lift)) / scale <= 1e-4


def test_kalman_gain_zero_jacobian():
    # D = h_dot grad^T with grad = 0; the h_dot = 0 case is
    # test_update_zero_gain_leaves_belief
    gain = kalman_gain(np.zeros(3), np.zeros(3), 1.0 + 2.0j, 0.25)
    np.testing.assert_allclose(gain, 0.0)


def test_kalman_gain_vanishes_at_low_snr():
    state = np.array([-20.0, 8.5, 19.0])
    _, _, h_dot, grad = jacobian(state, 1.0 + 0.2j, 8, 7.5, 0.01, 0.1)
    z = array_response(8, 0.3) / math.sqrt(8)
    c = np.vdot(z, h_dot)
    small = kalman_gain(grad, grad, c, 0.5 / 1e-12)  # Q = I, so w = Q grad = grad
    assert np.max(np.abs(small * abs(c))) < 1e-9


def test_kalman_gain_rejects_nonpositive_noise():
    with pytest.raises(ValueError):
        kalman_gain(np.ones(3), np.ones(3), 1.0, 0.0)


def test_kalman_gain_matches_textbook_form():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = int(rng.integers(2, 24))
        state = np.array([rng.uniform(-60, 60), rng.uniform(2, 12), rng.uniform(5, 30)])
        beta = complex(rng.standard_normal(), rng.standard_normal())
        _, _, h_dot, grad = jacobian(state, beta, m, 7.5, 0.01, 0.1)
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        z /= np.linalg.norm(z)
        base = rng.standard_normal((3, 3))
        q = base @ base.T + 0.1 * np.eye(3)
        rho = 10 ** rng.uniform(-1, 2)
        c = np.vdot(z, h_dot)
        gain = kalman_gain(q @ grad, grad, c, 1 / (2 * rho))
        # standard linear-KF gain on the lifted measurement y = (Z D) t + n is
        # the state factor times the measurement direction [Re c, Im c]
        h_mat = lifted_row(z) @ lifted_jacobian(h_dot, grad)
        r_mat = np.eye(2) / (2 * rho)
        ref = q @ h_mat.T @ np.linalg.inv(h_mat @ q @ h_mat.T + r_mat)
        np.testing.assert_allclose(np.outer(gain, [c.real, c.imag]), ref, rtol=1e-8, atol=1e-12)


def test_update_zero_innovation_is_fixed_point():
    m, h = 16, 7.5
    state = np.array([-20.0, 8.5, 19.0])
    belief = StateBelief(mean=state, cov=0.01 * np.eye(3))
    beta = 0.8 - 0.3j
    comb = dft_manifold_combiner(g_of_state(state, h), m)
    obs = sound_uplink(None, comb, channel_vector(beta, g_of_state(state, h), m), 5.0)
    updated = update(belief, obs, *jacobian(state, beta, m, h, 0.01, 0.1)[1:])
    assert np.all(updated.mean == belief.mean)  # bit-identical


def test_update_zero_gain_leaves_belief():
    m, h = 8, 7.5
    state = np.array([-20.0, 8.5, 19.0])
    belief = StateBelief(mean=state, cov=0.01 * np.eye(3))
    beta = 1.0 + 0.0j
    comb = dft_manifold_combiner(0.4, m)
    obs = sound_uplink(np.random.default_rng(0), comb, channel_vector(beta, 0.4, m), 5.0)
    _, h_pred, _, grad = jacobian(state, beta, m, h, 0.01, 0.1)
    updated = update(belief, obs, h_pred, np.zeros(m, dtype=complex), grad)
    np.testing.assert_allclose(updated.mean, belief.mean)
    np.testing.assert_allclose(updated.cov, belief.cov)


def test_update_reduces_direction_error_on_average():
    # noiseless dynamics, initial feedback error only: repeated sounding pulls
    # g(t_hat) toward the true direction
    from v2ibeam.motion import step_truth

    rng = np.random.default_rng(7)
    m, h, ts = 2, 7.5, 0.01
    model = MotionModel(ts=ts, steering_angle=0.0, sigma_omega=0.0)
    errs = np.zeros((200, 3))
    for trial in range(200):
        truth = StateVector(rng.uniform(-40, 40), 8.5, rng.uniform(10, 25))
        belief = init_belief(truth, 10**-1.5, rng)
        checkpoints = []
        for step in range(11):
            if step in (0, 5, 10):
                psi_true = g_of_state(truth.as_array(), h)
                checkpoints.append(abs(g_of_state(belief.mean, h) - psi_true))
            truth = step_truth(rng, model, truth, 0.0)
            psi_true = g_of_state(truth.as_array(), h)
            pred = predict(belief, model)
            beta = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2)
            comb = dft_manifold_combiner(g_of_state(pred.mean, h), m)
            obs = sound_uplink(rng, comb, channel_vector(beta, psi_true, m), 50.0)
            belief = update(pred, obs, *jacobian(pred.mean, beta, m, h, ts, 0.0)[1:])
        errs[trial] = checkpoints
    means = errs.mean(axis=0)
    assert means[1] < means[0]
    assert means[2] < means[1]


def test_update_invariant_to_joint_phase_rotation():
    rng = np.random.default_rng(8)
    m, h = 12, 7.5
    state = np.array([-25.0, 8.5, 18.0])
    belief = StateBelief(mean=state, cov=0.05 * np.eye(3))
    beta = 0.9 + 0.4j
    psi_true = 0.7
    rho = 10.0
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    z /= np.linalg.norm(z)
    noise = (rng.standard_normal() + 1j * rng.standard_normal()) * math.sqrt(
        1 / (2 * rho)
    )

    def run(phase):
        zz = z * np.exp(1j * phase)
        bb = beta * np.exp(1j * phase)
        r = np.vdot(zz, bb * array_response(m, psi_true)) + noise
        obs = Sounding(r=r, z=zz, noise_var=1.0 / (2.0 * rho))
        return update(belief, obs, *jacobian(state, bb, m, h, 0.01, 0.1)[1:])

    base = run(0.0)
    for phase in (0.3, 1.7, -2.5):
        rot = run(phase)
        np.testing.assert_allclose(rot.mean, base.mean, atol=1e-10)
        np.testing.assert_allclose(rot.cov, base.cov, atol=1e-10)


def test_update_covariance_symmetric():
    rng = np.random.default_rng(9)
    m, h = 16, 7.5
    state = np.array([-30.0, 8.5, 20.0])
    belief = StateBelief(mean=state, cov=0.1 * np.eye(3))
    beta = 1.0 + 0.1j
    comb = dft_manifold_combiner(g_of_state(state, h) + 0.01, m)
    obs = sound_uplink(rng, comb, channel_vector(beta, g_of_state(state, h), m), 20.0)
    updated = update(belief, obs, *jacobian(state, beta, m, h, 0.01, 0.1)[1:])
    np.testing.assert_allclose(updated.cov, updated.cov.T, atol=1e-10)


def _tracker(combiner_mode="optimal", m=16):
    geometry = RoadGeometry(7.5, 8.5, -75.0, 75.0)
    array = ArrayConfig(
        num_antennas=m,
        num_rf_chains=4,
        wavelength_m=carrier_to_wavelength(28e9),
        pathloss_exponent=2.0,
        noise_power_mw=dbm_to_mw(-101.0),
        tx_power_mw=dbm_to_mw(10.0),
    )
    model = MotionModel(
        ts=0.01, steering_angle=0.1, sigma_alpha=1.0, sigma_omega=10**-1.5
    )
    return Tracker(
        geometry, array, model, StateVector(-50.0, 8.5, 19.4), 10**-1.5,
        np.random.default_rng(0), combiner_mode=combiner_mode,
    )


def test_tracker_covariance_stays_psd():
    rng = np.random.default_rng(10)
    tracker = _tracker()
    truth = StateVector(-50.0, 8.5, 19.4)
    model = tracker.model
    for _ in range(60):
        from v2ibeam.motion import step_truth

        truth = step_truth(rng, model, truth, 0.3)
        beta = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2)
        step = tracker.step(truth, beta, rng)
        eigs = np.linalg.eigvalsh(step.belief.cov)
        assert eigs.min() >= -1e-9
        np.testing.assert_allclose(step.belief.cov, step.belief.cov.T, atol=1e-10)


def test_tracker_rejects_unknown_mode():
    with pytest.raises(ValueError):
        _tracker(combiner_mode="beamhopper")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    m=st.integers(2, 64),
    rho=st.floats(1e-2, 1e4),
    log_scale=st.floats(-6.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_update_covariance_symmetric_psd_property(m, rho, log_scale, seed):
    rng = np.random.default_rng(seed)
    h = 7.5
    state = np.array([rng.uniform(-70, 70), rng.uniform(2, 15), rng.uniform(5, 30)])
    base = rng.standard_normal((3, 3))
    cov = 10**log_scale * (base @ base.T + 1e-6 * np.eye(3))
    belief = StateBelief(mean=state, cov=cov)
    beta = complex(rng.standard_normal(), rng.standard_normal())
    _, h_pred, h_dot, grad = jacobian(state, beta, m, h, 0.01, 0.1)
    comb = optimal_combiner(h_dot, grad, cov)
    psi = g_of_state(state, h) + rng.normal(0.0, 0.05)
    obs = sound_uplink(rng, comb, channel_vector(beta, psi, m), rho)
    post = update(belief, obs, h_pred, h_dot, grad).cov
    assert np.array_equal(post, post.T)
    assert np.linalg.eigvalsh(post).min() >= -1e-12 * np.linalg.norm(cov, 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    m=st.integers(2, 128),
    rho=st.floats(1e-2, 1e4),
    log_scale=st.floats(-6.0, 2.0),
    kind=st.sampled_from(["optimal", "hybrid", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_update_matches_lifted_joseph_form(m, rho, log_scale, kind, seed):
    # dense textbook EKF on the real lifting [Re r, Im r] = Z D t + n, with
    # the Joseph-form covariance, against the scalar rank-one update
    rng = np.random.default_rng(seed)
    h = 7.5
    state = np.array([rng.uniform(-70, 70), rng.uniform(2, 15), rng.uniform(5, 30)])
    base = rng.standard_normal((3, 3))
    q = 10**log_scale * (base @ base.T + 1e-3 * np.eye(3))
    beta = complex(rng.standard_normal(), rng.standard_normal())
    _, h_pred, h_dot, grad = jacobian(state, beta, m, h, 0.01, 0.1)
    comb = optimal_combiner(h_dot, grad, q)
    if kind == "hybrid":
        comb = hybrid_approximation(comb.z, SteeringDictionary.build(m), min(4, m))
    elif kind == "random":
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        comb = Combiner(z=z / np.linalg.norm(z))
    psi = g_of_state(state, h) + rng.normal(0.0, 0.05)
    obs = sound_uplink(rng, comb, channel_vector(beta, psi, m), rho)
    post = update(StateBelief(mean=state, cov=q), obs, h_pred, h_dot, grad)

    z_row = lifted_row(obs.z)
    h_mat = z_row @ lifted_jacobian(h_dot, grad)
    r_mat = obs.noise_var * np.eye(2)
    gain = q @ h_mat.T @ np.linalg.inv(h_mat @ q @ h_mat.T + r_mat)
    innovation = np.array([obs.r.real, obs.r.imag]) - z_row @ np.concatenate(
        [h_pred.real, h_pred.imag]
    )
    i_kh = np.eye(3) - gain @ h_mat
    joseph = i_kh @ q @ i_kh.T + gain @ r_mat @ gain.T
    shift = gain @ innovation
    scale = np.linalg.norm(gain) * np.linalg.norm(innovation)
    assert np.linalg.norm((post.mean - state) - shift) <= 1e-6 * scale + 1e-13 * np.abs(state).max()
    assert np.max(np.abs(post.cov - joseph)) <= 1e-12 * np.abs(q).max()
