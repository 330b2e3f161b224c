import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2ibeam.array_channel import array_response, channel_vector
from v2ibeam.ekf import jacobian
from v2ibeam.sounding import (
    SteeringDictionary,
    dft_manifold_combiner,
    hybrid_approximation,
    optimal_combiner,
    orthogonal_matching_pursuit,
    sound_uplink,
)


def _dictionary(m, size):
    """Steering atoms on a grid of G = size points, for the G other than the 4M
    that SteeringDictionary.build gives."""
    grid = -math.pi + 2.0 * math.pi * np.arange(size) / size
    return SteeringDictionary(array_response(m, grid[:, None]) / math.sqrt(m),
                              (-1.0) ** np.arange(m))


def random_problem(rng, m=16):
    """Random rank-one Jacobian problem like the tracking loop produces:
    the factors h_dot, grad of D = h_dot grad^T, a prior covariance and an SNR."""
    state = np.array([rng.uniform(-60, 60), rng.uniform(2, 12), rng.uniform(5, 30)])
    beta = complex(rng.standard_normal(), rng.standard_normal())
    _, _, h_dot, grad = jacobian(state, beta, m, 7.5, 0.01, 0.1)
    base = rng.standard_normal((3, 3))
    q = base @ base.T + 10 ** rng.uniform(-4, 0) * np.eye(3)
    rho = 10 ** rng.uniform(-1.5, 2.5)
    return h_dot, grad, q, rho


def objective_matrices(h_dot, grad, q, rho):
    """Dense numerator D Q^2 D^H and denominator D Q D^H + I/rho of the
    combiner design quotient."""
    d = np.outer(h_dot, grad)
    dq = d @ q
    return dq @ q @ d.conj().T, dq @ d.conj().T + np.eye(len(h_dot)) / rho


def test_optimal_combiner_beats_random_vectors():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h_dot, grad, q, rho = random_problem(rng)
        z = optimal_combiner(h_dot, grad, q).z
        s_num, s_den = objective_matrices(h_dot, grad, q, rho)

        def quotient(v):
            return float(np.real(v.conj() @ s_num @ v) / np.real(v.conj() @ s_den @ v))

        best = quotient(z)
        m = len(h_dot)
        cand = rng.standard_normal((2000, m)) + 1j * rng.standard_normal((2000, m))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        for zc in cand[:64]:
            assert quotient(zc) <= best * (1 + 1e-9)
        # vectorized check over the full candidate set
        nums = np.real(np.einsum("ij,jk,ik->i", cand.conj(), s_num, cand))
        dens = np.real(np.einsum("ij,jk,ik->i", cand.conj(), s_den, cand))
        assert np.max(nums / dens) <= best * (1 + 1e-9)


def test_optimal_combiner_unit_norm():
    rng = np.random.default_rng(2)
    h_dot, grad, q, _ = random_problem(rng)
    z = optimal_combiner(h_dot, grad, q).z
    assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-9)


def test_optimal_combiner_degenerate_falls_back():
    rng = np.random.default_rng(3)
    h_dot, grad, _, _ = random_problem(rng)
    comb = optimal_combiner(h_dot, grad, np.zeros((3, 3)), fallback_psi=0.4)
    assert comb.fallback
    m = len(h_dot)
    np.testing.assert_allclose(comb.z, array_response(m, 0.4) / math.sqrt(m))
    with pytest.raises(ValueError):
        optimal_combiner(h_dot, grad, np.zeros((3, 3)))


def test_optimal_combiner_high_snr_limit_stabilizes():
    rng = np.random.default_rng(4)
    h_dot, grad, q, _ = random_problem(rng)
    # the design takes no rho, so it is the same at every SNR and in the limit
    z1 = optimal_combiner(h_dot, grad, q).z
    z2 = optimal_combiner(h_dot, grad, q).z
    assert abs(np.vdot(z1, z2)) == pytest.approx(1.0, abs=1e-4)
    # independent limit oracle: principal eigenvector of pinv(D Q D^H)(D Q^2 D^H)
    s_num, s_den = objective_matrices(h_dot, grad, q, math.inf)
    vals, vecs = np.linalg.eig(np.linalg.pinv(s_den) @ s_num)
    lim = vecs[:, int(np.argmax(vals.real))]
    assert abs(np.vdot(lim, z2)) == pytest.approx(1.0, abs=1e-6)


def test_hybrid_recovers_dictionary_atom():
    d = SteeringDictionary.build(16)
    target = d.atom_rows[11].copy()
    hyb = hybrid_approximation(target, d, 1)
    assert hyb.correlation == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(
        np.abs(np.vdot(hyb.z, target)), 1.0, atol=1e-9
    )


def test_hybrid_full_rank_recovery():
    # orthogonal (critically sampled) dictionary with N = M spans C^M
    rng = np.random.default_rng(5)
    m = 8
    d = _dictionary(m, m)
    for _ in range(10):
        target = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        target /= np.linalg.norm(target)
        hyb = hybrid_approximation(target, d, m)
        assert hyb.correlation >= 0.999


def test_hybrid_correlation_nondecreasing_in_chains():
    rng = np.random.default_rng(6)
    m = 32
    d = SteeringDictionary.build(m)
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
    d = SteeringDictionary.build(24)
    np.testing.assert_allclose(np.abs(d.atom_rows), 1.0 / math.sqrt(24))
    np.testing.assert_allclose(np.linalg.norm(d.atom_rows, axis=1), 1.0)
    assert d.atom_rows.shape == (96, 24)
    # the atoms are the array responses on the grid psi_g = -pi + 2 pi g / 4M
    np.testing.assert_array_equal(d.atom_rows[40], array_response(24, -math.pi + math.pi * 40 / 48)
                                  / math.sqrt(24))


def test_dictionary_built_once_and_read_only():
    d = SteeringDictionary.build(24)
    assert SteeringDictionary.build(24) is d
    assert SteeringDictionary.build(12) is not d
    assert not d.atom_rows.flags.writeable
    with pytest.raises(ValueError):
        d.atom_rows[0, 0] = 0.0
    # the kernel's constants: atoms as C-ordered rows and the (-1)^m signs
    assert d.atom_rows.flags.c_contiguous
    assert np.array_equal(d.sign, np.where(np.arange(24) % 2, -1.0, 1.0))
    assert not d.atom_rows.flags.writeable and not d.sign.flags.writeable


def test_hybrid_analog_columns_equal_gain():
    rng = np.random.default_rng(7)
    m = 16
    d = SteeringDictionary.build(m)
    target = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    target /= np.linalg.norm(target)
    hyb = hybrid_approximation(target, d, 4)
    analog = d.atom_rows[orthogonal_matching_pursuit(target[None, :], d, 4)[1][0]].T
    np.testing.assert_allclose(np.abs(analog), 1.0 / math.sqrt(m))
    digital = np.linalg.lstsq(analog, hyb.z, rcond=None)[0]  # z in span(analog)
    np.testing.assert_allclose(analog @ digital, hyb.z, atol=1e-12)
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
    obs = sound_uplink(None, comb, channel_vector(1.0, 0.77, m), 3.0)
    assert obs.r == pytest.approx(math.sqrt(m), abs=1e-12)
    assert obs.noise_var == pytest.approx(1.0 / 6.0)


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan])
def test_sound_uplink_rejects_nonpositive_rho(rho):
    comb = dft_manifold_combiner(0.3, 8)
    with pytest.raises(ValueError):
        sound_uplink(None, comb, channel_vector(1.0, 0.3, 8), rho)


def test_sound_uplink_noise_power():
    rng = np.random.default_rng(8)
    m, rho = 8, 2.5
    comb = dft_manifold_combiner(0.3, m)
    h = channel_vector(0.6 + 0.2j, 0.5, m)
    clean = sound_uplink(None, comb, h, rho).r
    err2 = []
    for _ in range(100000):
        noisy = sound_uplink(rng, comb, h, rho).r
        err2.append(abs(noisy - clean) ** 2)
    assert np.mean(err2) == pytest.approx(1.0 / rho, rel=0.03)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(2, 128),
    rho=st.floats(1e-2, 1e4),
    seed=st.integers(0, 2**32 - 1),
)
def test_optimal_combiner_matches_dense_eigenvector(m, rho, seed):
    rng = np.random.default_rng(seed)
    h_dot, grad, q, _ = random_problem(rng, m)
    z = optimal_combiner(h_dot, grad, q).z
    s_num, s_den = objective_matrices(h_dot, grad, q, rho)
    # principal eigenvector of S_den^{-1} S_num through the Cholesky-whitened
    # Hermitian problem L^{-1} S_num L^{-H} y = lam y, x = L^{-H} y, which stays
    # accurate when S_den is ill-conditioned (large rho)
    low = np.linalg.cholesky(s_den)
    white = np.linalg.solve(low, np.linalg.solve(low, s_num).conj().T)
    _, vecs = np.linalg.eigh(white)
    oracle = np.linalg.solve(low.conj().T, vecs[:, -1])
    oracle /= np.linalg.norm(oracle)
    assert abs(np.vdot(z, oracle)) >= 1 - 1e-9


def dense_omp(target, atoms, num_rf_chains):
    """Reference OMP: correlations atoms^H r by matrix product and the refit by
    ridge-regularised normal equations. Also returns, per step, the gap
    between the best and second-best correlation not yet chosen."""
    chosen, gaps = [], []
    residual = target.astype(complex)
    weights = np.zeros(0, dtype=complex)
    for _ in range(num_rf_chains):
        corr = np.abs(atoms.conj().T @ residual)
        corr[chosen] = -1.0
        top = np.sort(corr)[::-1]
        gaps.append(top[0] - top[1] if len(top) > 1 else math.inf)
        chosen.append(int(np.argmax(corr)))
        basis = atoms[:, chosen]
        gram = basis.conj().T @ basis
        weights = np.linalg.solve(
            gram + 1e-12 * np.trace(gram).real * np.eye(len(chosen)), basis.conj().T @ target
        )
        residual = target - basis @ weights
    z = atoms[:, chosen] @ weights
    norm = np.linalg.norm(z)
    z = atoms[:, chosen[0]] if norm == 0 else z / norm
    return z, chosen, gaps


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 128),
    data=st.data(),
    oversampling=st.sampled_from([1, 2, 4]),
    kinds=st.lists(st.sampled_from(["random", "random", "zero", "atom", "ramp", "real"]),
                   min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_omp_kernel_matches_dense_reference(m, data, oversampling, kinds, seed):
    n = data.draw(st.integers(1, min(8, m)), label="num_rf_chains")
    d = SteeringDictionary.build(m) if oversampling == 4 else _dictionary(m, oversampling * m)
    rng = np.random.default_rng(seed)
    targets = rng.standard_normal((len(kinds), m)) + 1j * rng.standard_normal((len(kinds), m))
    for b, kind in enumerate(kinds):
        if kind == "zero":  # falls back to its first chosen atom
            targets[b] = 0.0
        elif kind == "atom":
            gain = complex(*rng.standard_normal(2))
            targets[b] = gain * d.atom_rows[rng.integers(d.atom_rows.shape[0])]
        elif kind == "ramp":  # the tracker's target h_dot/||h_dot|| (zero at M = 1)
            beta = complex(*rng.standard_normal(2))
            h_dot = 1j * np.arange(m) * channel_vector(beta, rng.uniform(-math.pi, math.pi), m)
            targets[b] = h_dot / (np.linalg.norm(h_dot) or 1.0)
        elif kind == "real":
            targets[b] = rng.standard_normal(m)
    z, chosen = orthogonal_matching_pursuit(targets, d, n)
    for b, (target, kind) in enumerate(zip(targets, kinds)):
        z_ref, chosen_ref, gaps = dense_omp(target, d.atom_rows.T, n)
        scale = np.linalg.norm(target)
        # compare picks while the reference's choice is clear; once the residual
        # is rounding noise (an atom target) the order of later picks is arbitrary
        for k, gap in enumerate(gaps):
            if scale and gap <= 1e-9 * scale:
                break
            assert chosen[b, k] == chosen_ref[k]
        if kind == "real":  # |fft| of a real target ties each atom with its mirror,
            # and the mirrored fit is the conjugate one, as close to the target
            assert abs(np.vdot(target, z[b])) == pytest.approx(
                abs(np.vdot(target, z_ref)), abs=1e-12 * scale)
        else:
            assert 1.0 - abs(np.vdot(z[b], z_ref)) <= 1e-12
        assert np.linalg.norm(z[b]) == pytest.approx(1.0, abs=1e-12)
        z_one, chosen_one = orthogonal_matching_pursuit(target[None, :], d, n)
        np.testing.assert_array_equal(z_one[0], z[b])
        np.testing.assert_array_equal(chosen_one[0], chosen[b])
        # the per-step combiner's one-row path keeps the block row's bits
        t = target.real.copy() if kind == "real" else target
        hyb = hybrid_approximation(t, d, n)
        np.testing.assert_array_equal(hyb.z, z[b])
        assert hyb.correlation == abs(np.vdot(t, z[b])) / max(np.linalg.norm(t), 1e-300)
