import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2ibeam.motion import (
    LongTermAccumulator,
    MotionModel,
    StateVector,
    long_term,
    step_truth,
    transition_matrices,
)
from v2ibeam.units import kmh_to_ms


def test_transition_straight_road():
    a, b, _, _ = transition_matrices(MotionModel(ts=0.5))
    assert a[1, 2] == 0.0
    np.testing.assert_allclose(b, [0.5**2 / 2, 0.0, 0.5])


@settings(max_examples=25, derandomize=True)
@given(
    ts=st.floats(1e-4, 1.0),
    steering=st.floats(-math.pi / 2, math.pi / 2),
    sigma_alpha=st.floats(0.0, 10.0),
    sigma_omega=st.floats(0.0, 1.0),
)
def test_transition_matrices_read_only(ts, steering, sigma_alpha, sigma_omega):
    model = MotionModel(ts, steering, sigma_alpha, sigma_omega)
    first = transition_matrices(model)
    for arr in first:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[..., 0] = 1.0
    again = transition_matrices(MotionModel(ts, steering, sigma_alpha, sigma_omega))
    assert all(np.array_equal(x, y) for x, y in zip(first, again))


def test_transition_reference_entry():
    # T_s = 10 ms with steering pi/2^7
    a, _, _, _ = transition_matrices(MotionModel(ts=0.01, steering_angle=math.pi / 2**7))
    assert a[0, 2] == pytest.approx(0.01 * math.cos(math.pi / 128), abs=1e-18)
    assert a[0, 2] == pytest.approx(0.009996988186962043, abs=1e-15)


def test_q_alpha_rank_one_psd():
    model = MotionModel(ts=0.1, steering_angle=0.2, sigma_alpha=1.7)
    _, b, q_alpha, _ = transition_matrices(model)
    np.testing.assert_allclose(q_alpha, 1.7**2 * np.outer(b, b))
    assert np.linalg.matrix_rank(q_alpha) == 1
    assert np.min(np.linalg.eigvalsh(q_alpha)) >= -1e-15


def test_q_omega_diagonal_eigenvalues():
    model = MotionModel(ts=0.2, steering_angle=0.3, sigma_omega=0.7)
    _, _, _, q_omega = transition_matrices(model)
    expected = [
        0.2**2 * 0.7**2 * math.cos(0.3) ** 2,
        0.2**2 * 0.7**2 * math.sin(0.3) ** 2,
        0.7**2,
    ]
    np.testing.assert_allclose(np.diag(q_omega), expected)
    np.testing.assert_allclose(q_omega - np.diag(np.diag(q_omega)), 0.0)


def test_step_truth_noiseless_constant_velocity():
    rng = np.random.default_rng(0)
    model = MotionModel(ts=0.05)
    t = StateVector(3.0, 8.5, 12.0)
    nxt = step_truth(rng, model, t, 0.0)
    assert nxt.x == pytest.approx(3.0 + 12.0 * 0.05)
    assert nxt.v == pytest.approx(12.0)
    assert nxt.y == pytest.approx(8.5)


def test_step_truth_noiseless_acceleration():
    rng = np.random.default_rng(0)
    model = MotionModel(ts=0.05)
    nxt = step_truth(rng, model, StateVector(0.0, 0.0, 5.0), 2.0)
    assert nxt.v == pytest.approx(5.0 + 2.0 * 0.05)
    assert nxt.x == pytest.approx(5.0 * 0.05 + 2.0 * 0.05**2 / 2)


def test_step_truth_noise_covariance():
    rng = np.random.default_rng(13)
    model = MotionModel(ts=0.1, steering_angle=0.4, sigma_omega=0.9)
    a, b, _, q_omega = transition_matrices(model)
    t = StateVector(1.0, 2.0, 3.0)
    base = a @ t.as_array() + b * 0.5
    draws = np.array(
        [step_truth(rng, model, t, 0.5).as_array() - base for _ in range(100000)]
    )
    cov = np.cov(draws.T)
    np.testing.assert_allclose(np.diag(cov), np.diag(q_omega), rtol=0.05)


def test_long_term_single_step():
    model = MotionModel(ts=0.1, steering_angle=0.25, sigma_omega=0.5)
    _, b, _, q_omega = transition_matrices(model)
    lt = long_term(model, 1)
    np.testing.assert_allclose(lt.b_acc, b)
    np.testing.assert_allclose(lt.c_cov, q_omega)


@pytest.mark.parametrize("steps", [2, 10, 50])
def test_long_term_closed_form_vs_matrix_power_sum(steps):
    model = MotionModel(ts=0.02, steering_angle=0.1, sigma_omega=0.3)
    a, b, _, q_omega = transition_matrices(model)
    b_sum = np.zeros(3)
    c_sum = np.zeros((3, 3))
    for tau in range(1, steps + 1):
        a_pow = np.linalg.matrix_power(a, tau - 1)
        b_sum += a_pow @ b
        c_sum += a_pow @ q_omega @ a_pow.T
    lt = long_term(model, steps)
    np.testing.assert_allclose(lt.b_acc, b_sum, rtol=1e-12)
    np.testing.assert_allclose(lt.c_cov, c_sum, rtol=1e-12)


def test_long_term_closed_form_large_step_count():
    model = MotionModel(ts=0.01, steering_angle=0.05, sigma_omega=0.2)
    a, b, _, _ = transition_matrices(model)
    b_sum = np.zeros(3)
    a_pow = np.eye(3)
    for _ in range(1000):
        b_sum += a_pow @ b
        a_pow = a_pow @ a
    lt = long_term(model, 1000)
    np.testing.assert_allclose(lt.b_acc, b_sum, rtol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    ts=st.floats(1e-4, 1.0),
    steering=st.floats(-math.pi / 2, math.pi / 2),
    sigma_omega=st.floats(1e-3, 1.0),
    steps=st.integers(1, 3000),
)
def test_long_term_matches_brute_force_sums(ts, steering, sigma_omega, steps):
    model = MotionModel(ts, steering, 0.0, sigma_omega)
    a, b, _, q_omega = transition_matrices(model)
    b_sum = np.zeros(3)
    c_sum = np.zeros((3, 3))
    a_pow = np.eye(3)  # A^tau by repeated multiplication
    for _ in range(steps):
        b_sum += a_pow @ b
        c_sum += a_pow @ q_omega @ a_pow.T
        a_pow = a_pow @ a
    lt = long_term(model, steps)
    # absolute floor: the entries that vanish at phi = 0 underflow near it
    floor = 1e-300
    np.testing.assert_allclose(lt.b_acc, b_sum, rtol=1e-12, atol=floor)
    np.testing.assert_allclose(lt.c_cov, c_sum, rtol=1e-12, atol=floor)
    np.testing.assert_allclose(
        lt.a_pow, np.linalg.matrix_power(a, steps), rtol=1e-12, atol=floor
    )


def test_long_term_psd_and_growing_trace():
    model = MotionModel(ts=0.05, steering_angle=0.3, sigma_omega=0.4)
    prev = 0.0
    for steps in (1, 2, 5, 20):
        lt = long_term(model, steps)
        assert np.min(np.linalg.eigvalsh(lt.c_cov)) >= -1e-12
        assert np.trace(lt.c_cov) >= prev
        prev = np.trace(lt.c_cov)


def test_long_term_rejects_zero_steps():
    with pytest.raises(ValueError):
        long_term(MotionModel(ts=0.1), 0)


@pytest.mark.parametrize("steps", [1, 7, 1000])
def test_long_term_cached_read_only(steps):
    model = MotionModel(ts=0.01, steering_angle=0.12, sigma_omega=0.6)
    first = long_term(model, steps)
    assert long_term(MotionModel(0.01, 0.12, 0.0, 0.6), steps) is first
    fresh = long_term.__wrapped__(model, steps)  # the uncached closed form
    for name in ("a_pow", "b_acc", "c_cov"):
        arr = getattr(first, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[..., 0] = 1.0
        np.testing.assert_array_equal(arr, getattr(fresh, name))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ts=st.floats(1e-3, 0.1),
    steering=st.floats(0.0, math.pi / 2),
    sigma_omega=st.floats(0.0, 1.0),
    x=st.floats(-100.0, -10.0),
    y=st.floats(1.0, 20.0),
    v=st.floats(1.0, 40.0),
    alpha=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_truth_matches_matrix_form(ts, steering, sigma_omega, x, y, v, alpha, seed):
    model = MotionModel(ts, steering, 0.0, sigma_omega)
    a, b, _, q_omega = transition_matrices(model)
    state = StateVector(x, y, v)
    nxt = step_truth(np.random.default_rng(seed), model, state, alpha)
    omega = np.random.default_rng(seed).standard_normal(3) * np.sqrt(np.diag(q_omega))
    ref = a @ state.as_array() + b * alpha + omega
    np.testing.assert_allclose(nxt.as_array(), ref, rtol=1e-15, atol=0.0)


def test_long_term_accumulator_matches_batch():
    model = MotionModel(ts=0.01, steering_angle=0.12, sigma_omega=0.6)
    acc = LongTermAccumulator(model)
    for steps in range(1, 30):
        lt_inc = acc.advance()
        lt_ref = long_term(model, steps)
        np.testing.assert_allclose(lt_inc.b_acc, lt_ref.b_acc, rtol=1e-12)
        np.testing.assert_allclose(lt_inc.c_cov, lt_ref.c_cov, rtol=1e-12, atol=1e-18)
        np.testing.assert_allclose(lt_inc.a_pow, np.linalg.matrix_power(
            transition_matrices(model)[0], steps), rtol=1e-12)


def test_step_truth_deterministic_kinematics():
    rng = np.random.default_rng(2)
    phi = 0.2
    model = MotionModel(ts=0.01, steering_angle=phi)
    t = StateVector(-50.0, 8.5, 20.0)
    for step in range(1, 201):
        t = step_truth(rng, model, t, 0.0)
        assert t.x == pytest.approx(-50.0 + step * 0.01 * 20.0 * math.cos(phi), rel=1e-12)
        assert t.v == pytest.approx(20.0)


def test_initial_speed_unit_conversion():
    # 70 km/h feeds the state vector as ~19.444 m/s
    assert kmh_to_ms(70.0) == pytest.approx(19.444444444444443)


def test_model_validation():
    with pytest.raises(ValueError):
        MotionModel(ts=0.0)
    with pytest.raises(ValueError):
        MotionModel(ts=0.1, steering_angle=2.0)
    with pytest.raises(ValueError):
        MotionModel(ts=0.1, sigma_alpha=-1.0)
    # what a scenario file cannot hold: a bool or a NaN
    for fields, message in [
        (dict(ts=True), "'ts' = True"),
        (dict(ts=math.nan), "'ts' = nan"),
        (dict(ts=0.1, steering_angle=math.nan), "'steering_angle' = nan"),
        (dict(ts=0.1, sigma_alpha=False), "'sigma_alpha' = False"),
        (dict(ts=0.1, sigma_omega=math.nan), "'sigma_omega' = nan"),
    ]:
        with pytest.raises(ValueError, match=f"MotionModel key {re.escape(message)}"):
            MotionModel(**fields)
