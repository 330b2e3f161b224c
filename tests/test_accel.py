import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from v2ibeam.accel import COND_LIMIT, AccelEstimate, estimate_alpha, gate_alpha
from v2ibeam.motion import MotionModel, long_term, transition_matrices


def _model():
    return MotionModel(ts=0.01, steering_angle=0.1, sigma_omega=0.03, sigma_alpha=1.9)


def test_residual_recovers_acceleration_term():
    model = _model()
    a, b, _, _ = transition_matrices(model)
    t0 = np.array([-50.0, 8.5, 19.4])
    alpha = 0.8
    state = t0.copy()
    for _ in range(25):
        state = a @ state + b * alpha
    lt = long_term(model, 25)
    res = state - lt.a_pow @ t0
    np.testing.assert_allclose(res, lt.b_acc * alpha, rtol=1e-10)


def test_matrix_power_against_repeated_multiplication():
    a, _, _, _ = transition_matrices(_model())
    explicit = np.eye(3)
    for _ in range(33):
        explicit = explicit @ a
    np.testing.assert_allclose(np.linalg.matrix_power(a, 33), explicit, rtol=1e-13)


def test_estimate_exact_in_noiseless_model():
    model = _model()
    lt = long_term(model, 40)
    rng = np.random.default_rng(0)
    base = rng.standard_normal((3, 3))
    q = base @ base.T + 0.1 * np.eye(3)
    for alpha in (-2.0, 0.0, 1.3):
        est = estimate_alpha(lt.b_acc * alpha, lt.b_acc, lt.c_cov, q)
        assert est.alpha_hat == pytest.approx(alpha, abs=1e-10)
        assert est.crlb > 0


def test_estimator_unbiased_and_achieves_crlb():
    model = _model()
    lt = long_term(model, 60)
    rng = np.random.default_rng(21)
    base = rng.standard_normal((3, 3))
    q = 0.01 * (base @ base.T) + 0.005 * np.eye(3)
    s = lt.c_cov + q
    chol = np.linalg.cholesky(s)
    alpha = 1.1
    n = 10000
    draws = lt.b_acc * alpha + (chol @ rng.standard_normal((3, n))).T
    estimates = np.array(
        [estimate_alpha(t, lt.b_acc, lt.c_cov, q).alpha_hat for t in draws]
    )
    crlb = estimate_alpha(draws[0], lt.b_acc, lt.c_cov, q).crlb
    # unbiased within 3 standard errors; variance attains the bound within 5%
    assert abs(np.mean(estimates) - alpha) <= 3.0 * np.sqrt(crlb / n)
    assert np.var(estimates) == pytest.approx(crlb, rel=0.05)


def test_scale_equivariance():
    model = _model()
    lt = long_term(model, 15)
    rng = np.random.default_rng(5)
    t_res = rng.standard_normal(3)
    q = np.diag([0.1, 0.2, 0.3])
    base = estimate_alpha(t_res, lt.b_acc, lt.c_cov, q)
    for c in (0.5, 4.0, 100.0):
        scaled = estimate_alpha(t_res, lt.b_acc, c * lt.c_cov, c * q)
        assert scaled.alpha_hat == pytest.approx(base.alpha_hat, rel=1e-10)
        assert scaled.crlb == pytest.approx(c * base.crlb, rel=1e-10)


def test_crlb_shrinks_with_covariance():
    model = _model()
    lt = long_term(model, 15)
    t_res = np.zeros(3)
    q = np.diag([0.1, 0.2, 0.3])
    full = estimate_alpha(t_res, lt.b_acc, lt.c_cov, q).crlb
    shrunk = estimate_alpha(t_res, lt.b_acc, lt.c_cov, 0.25 * q).crlb
    assert shrunk <= full


def test_estimate_rejects_zero_transition():
    with pytest.raises(ValueError):
        estimate_alpha(np.zeros(3), np.zeros(3), np.eye(3), np.eye(3))


def _reference_estimate(t_res, b_acc, c_cov, q_cov):
    """alpha_hat and crlb of the float inputs in 50-digit arithmetic."""
    with mpmath.workdps(50):
        s = mpmath.matrix(c_cov.tolist()) + mpmath.matrix(q_cov.tolist())
        b = mpmath.matrix(b_acc.tolist())
        wb = mpmath.lu_solve(s, b)
        denom = (b.T * wb)[0]
        numer = (mpmath.matrix(t_res.tolist()).T * wb)[0]
        return float(numer / denom), float(1 / denom)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    log_cond=st.floats(0.0, 11.5),
    middle=st.floats(0.0, 1.0),
    log_scale=st.floats(-6.0, 3.0),
    split=st.floats(0.0, 1.0),
    alpha=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_matches_high_precision_reference(
    log_cond, middle, log_scale, split, alpha, seed
):
    # S = R diag(1, kappa^-middle, kappa^-1) R^T scaled, split into PSD C and
    # Q, observed at t = alpha b + chol(S) n, as the tracker's residual is.
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    lam = 10.0 ** (log_scale - log_cond * np.array([0.0, middle, 1.0]))
    s = (rot * lam) @ rot.T
    c_cov = split * (s + s.T) / 2.0
    q_cov = (1.0 - split) * (s + s.T) / 2.0
    s = c_cov + q_cov
    trace, det = float(np.trace(s)), float(np.linalg.det(s))
    assume(trace**3 <= COND_LIMIT * det)  # inside the gate: no ridge
    b_acc = rng.standard_normal(3)
    t_res = alpha * b_acc + np.linalg.cholesky(s) @ rng.standard_normal(3)
    alpha_ref, crlb_ref = _reference_estimate(t_res, b_acc, c_cov, q_cov)
    assume(abs(alpha_ref) >= 1e-3)
    bound = 1e-13 * np.linalg.cond(s)
    est = estimate_alpha(t_res, b_acc, c_cov, q_cov)
    assert abs(est.alpha_hat - alpha_ref) <= bound * abs(alpha_ref)
    assert abs(est.crlb - crlb_ref) <= bound * crlb_ref


def test_estimate_regularizes_singular_covariance():
    # rank-two S fails the condition gate; the estimate is that of S + ridge I
    rot, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))
    s = (rot * np.array([2.0, 0.5, 0.0])) @ rot.T
    s = (s + s.T) / 2.0
    trace = float(np.trace(s))
    assert not trace**3 <= COND_LIMIT * np.linalg.det(s)
    regularized = s + (trace / 3.0) * 1e-12 * np.eye(3)
    b_acc = np.array([0.3, -1.2, 0.7])
    t_res = np.array([1.5, 0.2, -0.4])
    wb = np.linalg.solve(regularized, b_acc)
    denom = float(b_acc @ wb)
    est = estimate_alpha(t_res, b_acc, s, np.zeros((3, 3)))
    # LU and LDL^T each stay within about 3e-16 cond of the exact value
    bound = 1e-15 * np.linalg.cond(regularized)
    assert math.isfinite(est.alpha_hat) and est.crlb > 0
    assert est.alpha_hat == pytest.approx(float(wb @ t_res) / denom, rel=bound)
    assert est.crlb == pytest.approx(1.0 / denom, rel=bound)


def _est(val):
    return AccelEstimate(alpha_hat=val, crlb=1.0)


def test_gate_first_estimate_rejected():
    assert gate_alpha(None, _est(1.0), 0.03) is False


def test_gate_identical_estimates_accepted():
    assert gate_alpha(_est(0.7), _est(0.7), 0.03) is True


def test_gate_three_percent_threshold():
    prev = _est(1.0)
    assert gate_alpha(prev, _est(1.029), 0.03) is True
    assert gate_alpha(prev, _est(1.031), 0.03) is False


def test_gate_near_zero_previous_uses_absolute_floor():
    prev = _est(1e-9)
    # relative change is huge but the absolute floor keeps the denominator sane
    assert gate_alpha(prev, _est(2e-5), 0.03) is True
    assert gate_alpha(prev, _est(1e-3), 0.03) is False


def test_gate_requires_positive_threshold():
    with pytest.raises(ValueError):
        gate_alpha(None, _est(0.0), 0.0)
