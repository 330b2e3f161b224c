import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2ibeam.array_channel import ChannelRealization, array_response
from v2ibeam.ekf import jacobian
from v2ibeam.sounding import (
    Combiner,
    SteeringDictionary,
    dft_manifold_combiner,
    hybrid_approximation,
    lift_channel,
    lift_combiner,
    optimal_combiner,
    rayleigh_quotient,
    sound_uplink,
)


def random_problem(rng, m=16):
    """Random rank-one Jacobian problem like the tracking loop produces."""
    state = np.array([rng.uniform(-60, 60), rng.uniform(2, 12), rng.uniform(5, 30)])
    beta = complex(rng.standard_normal(), rng.standard_normal())
    _, d = jacobian(state, beta, m, 7.5, 0.01, 0.1)
    base = rng.standard_normal((3, 3))
    q = base @ base.T + 10 ** rng.uniform(-4, 0) * np.eye(3)
    rho = 10 ** rng.uniform(-1.5, 2.5)
    return d, q, rho


def test_lift_reproduces_complex_product():
    rng = np.random.default_rng(0)
    m = 9
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    lifted = lift_combiner(z) @ lift_channel(h)
    product = np.vdot(z, h)
    np.testing.assert_allclose(lifted, [product.real, product.imag], atol=1e-14)


def test_lift_block_structure():
    z = np.array([1 + 2j, -0.5 + 0.25j])
    z_lift = lift_combiner(z)
    row = np.conj(z)
    np.testing.assert_allclose(z_lift[0, :2], row.real)
    np.testing.assert_allclose(z_lift[0, 2:], -row.imag)
    np.testing.assert_allclose(z_lift[1, :2], row.imag)
    np.testing.assert_allclose(z_lift[1, 2:], row.real)


def test_optimal_combiner_beats_random_vectors():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d, q, rho = random_problem(rng)
        z = optimal_combiner(d, q, rho).z
        best = rayleigh_quotient(z, d, q, rho)
        m = d.shape[0]
        cand = rng.standard_normal((2000, m)) + 1j * rng.standard_normal((2000, m))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        for zc in cand[:64]:
            assert rayleigh_quotient(zc, d, q, rho) <= best * (1 + 1e-9)
        # vectorized check over the full candidate set
        dq = d @ q
        s_num = dq @ q @ d.conj().T
        s_den = dq @ d.conj().T + np.eye(m) / rho
        nums = np.real(np.einsum("ij,jk,ik->i", cand.conj(), s_num, cand))
        dens = np.real(np.einsum("ij,jk,ik->i", cand.conj(), s_den, cand))
        assert np.max(nums / dens) <= best * (1 + 1e-9)


def test_optimal_combiner_unit_norm():
    rng = np.random.default_rng(2)
    d, q, rho = random_problem(rng)
    z = optimal_combiner(d, q, rho).z
    assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-9)


def test_optimal_combiner_degenerate_falls_back():
    rng = np.random.default_rng(3)
    d, _, rho = random_problem(rng)
    comb = optimal_combiner(d, np.zeros((3, 3)), rho, fallback_psi=0.4)
    assert comb.fallback
    m = d.shape[0]
    np.testing.assert_allclose(comb.z, array_response(m, 0.4) / math.sqrt(m))
    with pytest.raises(ValueError):
        optimal_combiner(d, np.zeros((3, 3)), rho)


def test_optimal_combiner_high_snr_limit_stabilizes():
    rng = np.random.default_rng(4)
    d, q, _ = random_problem(rng)
    z1 = optimal_combiner(d, q, 1e8).z
    z2 = optimal_combiner(d, q, 1e12).z
    assert abs(np.vdot(z1, z2)) == pytest.approx(1.0, abs=1e-4)
    # independent limit oracle: principal eigenvector of pinv(D Q D^H)(D Q^2 D^H)
    dq = d @ q
    s_num = dq @ q @ d.conj().T
    s_den = dq @ d.conj().T
    vals, vecs = np.linalg.eig(np.linalg.pinv(s_den) @ s_num)
    lim = vecs[:, int(np.argmax(vals.real))]
    assert abs(np.vdot(lim, z2)) == pytest.approx(1.0, abs=1e-6)


def test_hybrid_recovers_dictionary_atom():
    d = SteeringDictionary.build(16, oversampling=4)
    target = Combiner(z=d.atoms[:, 11].copy(), kind="optimal")
    hyb = hybrid_approximation(target, d, 1)
    assert hyb.correlation == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(
        np.abs(np.vdot(hyb.z, target.z)), 1.0, atol=1e-9
    )


def test_hybrid_full_rank_recovery():
    # orthogonal (critically sampled) dictionary with N = M spans C^M
    rng = np.random.default_rng(5)
    m = 8
    d = SteeringDictionary.build(m, oversampling=1)
    for _ in range(10):
        target = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        target /= np.linalg.norm(target)
        hyb = hybrid_approximation(target, d, m)
        assert hyb.correlation >= 0.999


def test_hybrid_correlation_nondecreasing_in_chains():
    rng = np.random.default_rng(6)
    m = 32
    d = SteeringDictionary.build(m, oversampling=4)
    target = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    target /= np.linalg.norm(target)
    corr = [hybrid_approximation(target, d, n).correlation for n in (1, 2, 4, 8, 16)]
    assert all(b >= a - 1e-12 for a, b in zip(corr, corr[1:]))


def test_hybrid_rejects_bad_chain_count():
    d = SteeringDictionary.build(8)
    target = np.ones(8, dtype=complex) / math.sqrt(8)
    with pytest.raises(ValueError):
        hybrid_approximation(target, d, 0)
    with pytest.raises(ValueError):
        hybrid_approximation(target, d, 9)


def test_dictionary_atoms_equal_gain():
    d = SteeringDictionary.build(24, oversampling=4)
    np.testing.assert_allclose(np.abs(d.atoms), 1.0 / math.sqrt(24))
    np.testing.assert_allclose(np.linalg.norm(d.atoms, axis=0), 1.0)
    assert d.atoms.shape == (24, 96)


def test_hybrid_analog_columns_equal_gain():
    rng = np.random.default_rng(7)
    m = 16
    d = SteeringDictionary.build(m)
    target = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    hyb = hybrid_approximation(target / np.linalg.norm(target), d, 4)
    np.testing.assert_allclose(np.abs(hyb.analog), 1.0 / math.sqrt(m))
    np.testing.assert_allclose(hyb.analog @ hyb.digital, hyb.z, atol=1e-12)
    assert np.linalg.norm(hyb.z) == pytest.approx(1.0, abs=1e-9)


def test_dft_manifold_combiner():
    comb = dft_manifold_combiner(0.0, 9)
    np.testing.assert_allclose(comb.z, np.ones(9) / 3.0)
    comb = dft_manifold_combiner(1.2, 16)
    assert np.linalg.norm(comb.z) == pytest.approx(1.0)
    # matched normalized gain is 1 when pointed at the true direction
    gain = abs(np.vdot(comb.z, array_response(16, 1.2))) ** 2 / 16
    assert gain == pytest.approx(1.0)


def test_sound_uplink_matched_noiseless():
    m = 25
    comb = dft_manifold_combiner(0.77, m)
    obs = sound_uplink(None, comb, ChannelRealization(1.0, 0.77, 3.0), m)
    np.testing.assert_allclose(obs.r_lift, [math.sqrt(m), 0.0], atol=1e-12)
    assert obs.noise_var == pytest.approx(1.0 / 6.0)


def test_sound_uplink_noise_power():
    rng = np.random.default_rng(8)
    m, rho = 8, 2.5
    comb = dft_manifold_combiner(0.3, m)
    clean = sound_uplink(None, comb, ChannelRealization(0.6 + 0.2j, 0.5, rho), m).r_lift
    err2 = []
    for _ in range(100000):
        noisy = sound_uplink(rng, comb, ChannelRealization(0.6 + 0.2j, 0.5, rho), m).r_lift
        diff = noisy - clean
        err2.append(diff @ diff)
    assert np.mean(err2) == pytest.approx(1.0 / rho, rel=0.03)


def test_sound_uplink_lift_consistency():
    rng = np.random.default_rng(9)
    m = 12
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    z /= np.linalg.norm(z)
    comb = Combiner(z=z, kind="optimal")
    beta, psi = 0.8 - 0.1j, -0.9
    obs = sound_uplink(None, comb, ChannelRealization(beta, psi, 4.0), m)
    h_lift = lift_channel(beta * array_response(m, psi))
    np.testing.assert_allclose(obs.z_lift @ h_lift, obs.r_lift, atol=1e-12)


def test_real_and_complex_objectives_rank_identically():
    # the 2x2 trace objective and the complex Rayleigh quotient pick the same
    # winner over any finite candidate set
    rng = np.random.default_rng(10)
    m = 12
    for _ in range(10):
        d, q, rho = random_problem(rng, m)
        cands = rng.standard_normal((200, m)) + 1j * rng.standard_normal((200, m))
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)
        complex_scores = np.array(
            [rayleigh_quotient(z, d, q, rho) for z in cands]
        )
        trace_scores = []
        for z in cands:
            zd = lift_combiner(z) @ np.vstack(
                [np.real(d), np.imag(d)]
            )  # 2x3 lifted measurement row
            m1 = zd @ q @ zd.T
            m2 = zd @ q @ q @ zd.T
            lam = m1 + np.eye(2) / (2 * rho)
            trace_scores.append(np.trace(np.linalg.solve(lam, m2)))
        assert np.argmax(complex_scores) == np.argmax(trace_scores)


def test_optimal_combiner_rejects_bad_rho():
    rng = np.random.default_rng(11)
    d, q, _ = random_problem(rng)
    with pytest.raises(ValueError):
        optimal_combiner(d, q, 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(2, 128),
    rho=st.floats(1e-2, 1e4),
    seed=st.integers(0, 2**32 - 1),
)
def test_optimal_combiner_matches_dense_eigenvector(m, rho, seed):
    rng = np.random.default_rng(seed)
    d, q, _ = random_problem(rng, m)
    z = optimal_combiner(d, q, rho).z
    dq = d @ q
    s_num = dq @ q @ d.conj().T
    s_den = dq @ d.conj().T + np.eye(m) / rho
    # principal eigenvector of S_den^{-1} S_num through the Cholesky-whitened
    # Hermitian problem L^{-1} S_num L^{-H} y = lam y, x = L^{-H} y, which stays
    # accurate when S_den is ill-conditioned (large rho)
    low = np.linalg.cholesky(s_den)
    white = np.linalg.solve(low, np.linalg.solve(low, s_num).conj().T)
    _, vecs = np.linalg.eigh(white)
    oracle = np.linalg.solve(low.conj().T, vecs[:, -1])
    oracle /= np.linalg.norm(oracle)
    assert abs(np.vdot(z, oracle)) >= 1 - 1e-9
