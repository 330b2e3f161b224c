import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from v2ibeam.array_channel import RoadGeometry, array_response, spatial_frequency
from v2ibeam.codebook import build_codebook, psi_grid
from v2ibeam.ekf import StateBelief, g_of_state, predict
from v2ibeam.motion import MotionModel, transition_matrices
from v2ibeam.selector import (
    PredictedDirection,
    dft_beam,
    dft_midpoint_direction,
    direction_distribution,
    extrapolate,
    ideal_bp,
    select,
)

GEOM = RoadGeometry(7.5, 8.5, -75.0, 75.0)


def _model():
    return MotionModel(ts=0.01, steering_angle=0.1, sigma_alpha=1.2, sigma_omega=0.4)


def _belief():
    return StateBelief(
        mean=np.array([-20.0, 8.5, 19.0]),
        cov=np.array([[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.2]]),
    )


@pytest.mark.parametrize("alpha_hat", [None, 0.8])
def test_extrapolate_single_step_equals_predict(alpha_hat):
    belief, model = _belief(), _model()
    mean, cov = extrapolate(belief, model, alpha_hat, 1)[0]
    pred = predict(belief, model, alpha_hat)
    np.testing.assert_allclose(mean, pred.mean, rtol=1e-14)
    np.testing.assert_allclose(cov, pred.cov, rtol=1e-14)


@pytest.mark.parametrize("alpha_hat", [None, -0.6])
def test_extrapolate_matches_repeated_predict(alpha_hat):
    belief, model = _belief(), _model()
    preds = extrapolate(belief, model, alpha_hat, 20)
    rolled = belief
    for t in range(20):
        rolled = predict(rolled, model, alpha_hat)
        np.testing.assert_allclose(preds[t][0], rolled.mean, atol=1e-10)
        np.testing.assert_allclose(preds[t][1], rolled.cov, atol=1e-10)


def test_extrapolate_traces_grow():
    preds = extrapolate(_belief(), _model(), None, 15)
    traces = [np.trace(cov) for _, cov in preds]
    assert all(b > a for a, b in zip(traces, traces[1:]))


def test_extrapolate_rejects_zero_omega():
    with pytest.raises(ValueError):
        extrapolate(_belief(), _model(), None, 0)


def test_direction_distribution_deterministic_case():
    state = np.array([-20.0, 8.5, 19.0])
    d = direction_distribution(state, np.zeros((3, 3)), 7.5)
    assert d.std_psi == 0.0
    assert d.mean_psi == pytest.approx(spatial_frequency(-20.0, 8.5, 7.5))
    center = direction_distribution(np.array([0.0, 8.5, 19.0]), np.eye(3), 7.5)
    assert center.mean_psi == 0.0


def test_direction_distribution_slope_matches_finite_difference():
    rng = np.random.default_rng(0)
    h = 7.5
    for _ in range(30):
        x = rng.uniform(-70, 70)
        y = rng.uniform(2, 12)
        cov = np.diag([rng.uniform(0.01, 2.0), 0.0, 0.0])
        d = direction_distribution(np.array([x, y, 10.0]), cov, h)
        step = 1e-6
        fd = (
            spatial_frequency(x + step, y, h) - spatial_frequency(x - step, y, h)
        ) / (2 * step)
        assert d.std_psi == pytest.approx(abs(fd) * math.sqrt(cov[0, 0]), abs=1e-6)


def test_ideal_bp_delta_spike():
    m, grid_size = 32, 4096
    bp = ideal_bp([PredictedDirection(0.5, 0.0)], m, grid_size)
    nonzero = np.nonzero(bp)[0]
    assert len(nonzero) == 1
    grid = psi_grid(grid_size)
    assert abs(grid[nonzero[0]] - 0.5) <= math.pi / grid_size + 1e-12
    mass = np.sum(bp) * 2 * math.pi / grid_size
    assert mass == pytest.approx(2 * math.pi / m, rel=1e-12)


@pytest.mark.parametrize("psi,cell", [(-4.0, 0), (-math.pi, 0), (math.pi, -1), (4.0, -1)])
def test_ideal_bp_spike_beyond_the_grid_lands_on_an_end_cell(psi, cell):
    m, grid_size = 16, 1024
    bp = ideal_bp([PredictedDirection(psi, 0.0)], m, grid_size)
    assert np.flatnonzero(bp).tolist() == [range(grid_size)[cell]]
    assert bp[cell] == pytest.approx(grid_size / m, rel=1e-12)


def test_ideal_bp_identical_components_collapse():
    m, grid_size = 16, 2048
    one = ideal_bp([PredictedDirection(0.3, 0.05)], m, grid_size)
    many = ideal_bp([PredictedDirection(0.3, 0.05)] * 5, m, grid_size)
    np.testing.assert_allclose(many, one, rtol=1e-12)


def test_ideal_bp_mass_within_two_percent():
    rng = np.random.default_rng(1)
    m, grid_size = 64, 4096
    for _ in range(20):
        dirs = [
            PredictedDirection(rng.uniform(-2.5, 2.5), rng.uniform(0.0, 0.1))
            for _ in range(10)
        ]
        bp = ideal_bp(dirs, m, grid_size)
        mass = np.sum(bp) * 2 * math.pi / grid_size
        assert mass == pytest.approx(2 * math.pi / m, rel=0.02)


def test_ideal_bp_requires_directions():
    with pytest.raises(ValueError):
        ideal_bp([], 16, 1024)


@pytest.fixture(scope="module")
def small_book():
    return build_codebook(GEOM, 8.5, 16, 4, 8, seed=11, workers=1)


def test_select_recovers_own_codeword(small_book):
    for q, word in enumerate(small_book.codewords, start=1):
        q_hat, chosen = select(small_book, word.bp_samples.copy())
        assert q_hat == q
        assert np.all(chosen.u == word.u)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    dirs=st.lists(st.builds(PredictedDirection, st.floats(-2.8, 2.8), st.floats(0.0, 0.15)),
                  min_size=1, max_size=7),
    k=st.integers(-60, 60),
    c=st.floats(1e-6, 1e6),
)
@example(dirs=[PredictedDirection(-1.2, 0.08)] * 5, k=-2, c=7.0)
def test_select_scaling_invariance(small_book, dirs, k, c):
    # a power-of-two scale is exact, so the choice is identical; any other
    # positive scale may only flip a near-tie
    ideal = ideal_bp(dirs, 16, small_book.grid_size)
    q_base, _ = select(small_book, ideal)
    assert select(small_book, 2.0**k * ideal)[0] == q_base
    scores = np.abs(small_book.bp_matrix @ ideal) ** 2
    q_c, _ = select(small_book, c * ideal)
    assert scores[q_c - 1] >= scores.max() * (1.0 - 1e-12)


def test_select_matches_exhaustive_scan(small_book):
    rng = np.random.default_rng(2)
    for _ in range(25):
        dirs = [
            PredictedDirection(rng.uniform(-2.8, 2.8), rng.uniform(0, 0.15))
            for _ in range(7)
        ]
        ideal = ideal_bp(dirs, 16, small_book.grid_size)
        q_hat, _ = select(small_book, ideal)
        scores = [
            abs(float(np.dot(w.bp_samples, ideal))) ** 2
            for w in small_book.codewords
        ]
        assert q_hat == int(np.argmax(scores)) + 1


def test_codebook_pattern_matrix_stacked_once_and_read_only(small_book):
    bp = small_book.bp_matrix
    assert small_book.bp_matrix is bp
    assert not bp.flags.writeable
    np.testing.assert_array_equal(bp, np.stack([w.bp_samples for w in small_book.codewords]))


def test_select_winner_dominates_at_its_direction(small_book):
    # a near-certain stationary direction picks a codeword whose own gain at
    # that direction is not beaten by any other codeword
    grid = psi_grid(small_book.grid_size)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-70, 70)
        psi = spatial_frequency(x, 8.5, 7.5)
        ideal = ideal_bp([PredictedDirection(psi, 0.0)], 16, small_book.grid_size)
        _, word = select(small_book, ideal)
        idx = int(np.argmin(np.abs(grid - psi)))
        best = max(w.bp_samples[idx] for w in small_book.codewords)
        assert word.bp_samples[idx] >= best - 1e-9


def test_select_empty_codebook_fails(small_book):
    import dataclasses

    empty = dataclasses.replace(small_book, codewords=())
    ideal = ideal_bp([PredictedDirection(0.0, 0.0)], 16, small_book.grid_size)
    with pytest.raises(ValueError):
        select(empty, ideal)


def test_dft_codeword_on_grid_point():
    m = 16
    psi = 2 * math.pi * 3 / m  # exact DFT frequency
    _, c = dft_beam(psi, m)
    gain = abs(np.vdot(c, array_response(m, psi))) ** 2 / m
    assert gain == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(c) == pytest.approx(1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(psi=st.floats(-math.pi, math.pi), m=st.integers(2, 128))
@example(psi=math.pi, m=16)
@example(psi=-math.pi, m=16)
def test_dft_beam_index_and_codeword_agree(psi, m):
    index, c = dft_beam(psi, m)
    assert 0 <= index < m
    expected = array_response(m, -math.pi + 2 * math.pi * index / m) / math.sqrt(m)
    assert np.max(np.abs(c - expected)) <= 1e-12


def test_dft_schemes_odd_omega_rejected():
    with pytest.raises(ValueError):
        dft_midpoint_direction(_belief(), _model(), 5, 7.5)


def test_dft_scheme1_points_at_midpoint_prediction():
    belief, model = _belief(), _model()
    omega = 10
    for alpha_hat in (None, 0.8):
        got = dft_midpoint_direction(belief, model, omega, 7.5, alpha_hat)
        mid = belief
        for _ in range(omega // 2):
            mid = predict(mid, model, alpha_hat)
        assert got == spatial_frequency(float(mid.mean[0]), float(mid.mean[1]), 7.5)


def test_dft_scheme1_outperforms_scheme2_for_fast_vehicle():
    # when the vehicle sweeps more than a beamwidth per switching period the
    # midpoint-of-period pointing wins on average gain
    model = MotionModel(ts=0.01, steering_angle=0.0)
    m, h, omega = 64, 7.5, 20
    gains1, gains2 = [], []
    for x0 in np.linspace(-15.0, 15.0, 12):
        belief = StateBelief(mean=np.array([x0, 8.5, 25.0]), cov=np.zeros((3, 3)))
        psi_mid = dft_midpoint_direction(belief, model, omega, h)
        c1, c2 = dft_beam(psi_mid, m)[1], dft_beam(g_of_state(belief.mean, h), m)[1]
        state = belief.mean.copy()
        a, b, _, _ = transition_matrices(model)
        for _ in range(omega):
            state = a @ state
            d = array_response(m, spatial_frequency(state[0], state[1], h))
            gains1.append(abs(np.vdot(c1, d)) ** 2 / m)
            gains2.append(abs(np.vdot(c2, d)) ** 2 / m)
    assert np.mean(gains1) > np.mean(gains2)
