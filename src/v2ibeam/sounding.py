"""Uplink combiner design and sounding observation synthesis.

The sounding sample is one complex value r = z^H h(psi) + n with a unit-norm
combiner z and n ~ CN(0, 1/rho). The adaptive combiner maximizes the
generalized Rayleigh quotient

    z^H (D Q^2 D^H) z / z^H (D Q D^H + I/rho) z,

where D = h_dot grad^T is the rank-one complex channel Jacobian at the
predicted state; the maximizer is h_dot/||h_dot||. A hybrid (analog/digital)
reconstruction projects it onto N equal-gain steering atoms via orthogonal
matching pursuit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .array_channel import array_response

DEGENERATE_NORM = 1e-30


@dataclass(frozen=True, eq=False)
class Combiner:
    """Unit-norm combiner vector; correlation is set on a hybrid combiner."""

    z: np.ndarray
    fallback: bool = False
    correlation: float | None = None


@dataclass(frozen=True, eq=False)
class Sounding:
    """One sounding sample r = z^H h(psi) + n taken with the combiner z.

    noise_var is the variance 1/(2 rho) of each of the real and imaginary
    parts of n.
    """

    r: complex
    z: np.ndarray
    noise_var: float


@dataclass(frozen=True, eq=False)
class SteeringDictionary:
    """Unit-norm steering atoms d_M(psi_g)/sqrt(M) on the uniform grid
    psi_g = -pi + 2 pi g / G, stored as read-only C-ordered G x M rows, with
    the sign vector of orthogonal_matching_pursuit. build() gives the G = 4M
    grid every caller uses; the kernel takes any G >= M."""

    atom_rows: np.ndarray  # G x M
    sign: np.ndarray  # (-1)^m, m = 0..M-1

    @staticmethod
    def build(num_antennas: int) -> "SteeringDictionary":
        """The G = 4M dictionary for M antennas, built once per process and
        shared, so its arrays are read-only."""
        return _steering_dictionary(num_antennas)


@functools.cache
def _steering_dictionary(num_antennas: int) -> SteeringDictionary:
    size = 4 * num_antennas
    grid = -math.pi + 2.0 * math.pi * np.arange(size) / size
    rows = array_response(num_antennas, grid[:, None]) / math.sqrt(num_antennas)
    sign = (-1.0) ** np.arange(num_antennas)
    for value in (rows, sign):
        value.setflags(write=False)
    return SteeringDictionary(rows, sign)


def optimal_combiner(
    h_dot: np.ndarray,
    grad: np.ndarray,
    q_pred: np.ndarray,
    fallback_psi: float | None = None,
) -> Combiner:
    """Principal eigenvector of (D Q D^H + I/rho)^{-1} (D Q^2 D^H), unit norm.

    The channel Jacobian is rank one, D = h_dot grad^T (see ekf.jacobian), so
    D Q^2 D^H = ||Q grad||^2 h_dot h_dot^H, and the eigenvector
    (D Q D^H + I/rho)^{-1} h_dot is itself proportional to h_dot by the matrix
    inversion lemma. The optimum is therefore h_dot/||h_dot|| for every Q and
    every SNR rho > 0, so rho is not an input. On a degenerate objective
    (tr(D Q^2 D^H) = ||h_dot||^2 ||Q grad||^2 numerically zero) falls back to
    the array-manifold combiner at fallback_psi when given.
    """
    qg = np.asarray(q_pred, float) @ grad
    norm = math.sqrt(np.vdot(h_dot, h_dot).real)
    if not norm**2 * float(qg @ qg) > DEGENERATE_NORM:
        if fallback_psi is None:
            raise ValueError("degenerate combiner objective and no fallback direction")
        return Combiner(z=dft_manifold_combiner(fallback_psi, h_dot.shape[0]).z, fallback=True)
    return Combiner(z=h_dot / norm)


def _check_chains(num_rf_chains: int, num_antennas: int) -> None:
    if not 1 <= num_rf_chains <= num_antennas:
        raise ValueError(f"num_rf_chains must be in 1..{num_antennas}, got {num_rf_chains}")


def orthogonal_matching_pursuit(
    targets: np.ndarray, dictionary: SteeringDictionary, num_rf_chains: int
) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal matching pursuit of each row t of a (B, M) block onto N atoms.

    On the uniform grid the correlations with every atom are one FFT of the
    sign-alternated residual, atoms^H r = fft((-1)^m r, n=G) / sqrt(M); only
    the argmax over atoms not yet chosen for the row is used. The least-squares
    refit keeps an orthonormal basis of the chosen atoms, extended by
    Gram-Schmidt applied twice. Any <= M distinct atoms of this Vandermonde
    dictionary are linearly independent, so the basis never degenerates.

    Returns the unit-norm fits z = (t - r)/||t - r|| as a (B, M) block and the
    (B, N) chosen atom indices in pick order. A zero row has z equal to its
    first chosen atom. Codeword fitting calls it on blocks of starts; the
    per-step hybrid combiner runs the same operations on one row instead
    (_pursue_one), which must keep this kernel's bits.
    """
    rows, m = targets.shape
    _check_chains(num_rf_chains, m)
    atom_rows, sign = dictionary.atom_rows, dictionary.sign
    size = atom_rows.shape[0]
    row_index = np.arange(rows)[:, None]
    residual = targets.astype(complex)
    basis = np.empty((rows, num_rf_chains, m), dtype=complex)
    chosen = np.empty((rows, num_rf_chains), dtype=np.intp)
    for k in range(num_rf_chains):
        corr = np.abs(np.fft.fft(residual * sign, n=size))
        if k:
            corr[row_index, chosen[:, :k]] = -1.0
        chosen[:, k] = np.argmax(corr, axis=1)
        q = atom_rows[chosen[:, k]]
        if k:
            kept = basis[:, :k]
            for _ in range(2):
                q -= np.matmul(np.vecdot(kept, q[:, None, :])[:, None, :], kept)[:, 0]
        q /= np.sqrt(np.vecdot(q, q).real)[:, None]
        basis[:, k] = q
        residual -= np.vecdot(q, residual)[:, None] * q
    fit = targets - residual
    norm = np.sqrt(np.vecdot(fit, fit).real)
    zero = norm == 0.0
    if zero.any():
        norm[zero] = 1.0
        fit[zero] = atom_rows[chosen[zero, 0]]
    return fit / norm[:, None], chosen


def _pursue_one(
    target: np.ndarray, dictionary: SteeringDictionary, num_rf_chains: int
) -> np.ndarray:
    """orthogonal_matching_pursuit of one length-M target, returning only z.

    The same operations in the same order on 1-D arrays, so z is bit for bit
    the block kernel's row; it skips the kernel's per-row bookkeeping (row
    masks, axis-1 argmax, fancy takes, 3-D matmul), which costs more than the
    FFTs at B = 1.
    """
    m = target.shape[0]
    _check_chains(num_rf_chains, m)
    atom_rows, sign = dictionary.atom_rows, dictionary.sign
    size = atom_rows.shape[0]
    residual = target.astype(complex)
    basis = np.empty((num_rf_chains, m), dtype=complex)
    chosen: list[int] = []
    for k in range(num_rf_chains):
        corr = np.abs(np.fft.fft(residual * sign, n=size))
        for pick in chosen:
            corr[pick] = -1.0
        chosen.append(int(corr.argmax()))
        q = atom_rows[chosen[k]].copy()
        if k:
            kept = basis[:k]
            for _ in range(2):
                q -= np.vecdot(kept, q) @ kept
        q /= math.sqrt(np.vecdot(q, q).real)
        basis[k] = q
        residual -= np.vecdot(q, residual) * q
    fit = target - residual
    norm = math.sqrt(np.vecdot(fit, fit).real)
    if norm == 0.0:
        fit, norm = atom_rows[chosen[0]], 1.0
    return fit / norm


def hybrid_approximation(
    target: np.ndarray, dictionary: SteeringDictionary, num_rf_chains: int
) -> Combiner:
    """Hybrid combiner closest to one target: orthogonal matching pursuit of
    the target onto N atoms, through a one-row path whose z equals the block
    kernel's row bit for bit (tests/test_sounding.py pins it). Its z lies in
    the span of the N chosen atoms, the analog columns, each of per-entry
    modulus 1/sqrt(M). correlation is |t^H z| / ||t||."""
    z = _pursue_one(target, dictionary, num_rf_chains)
    # the sum np.linalg.norm evaluates for a vector, without its dispatch
    norm = math.sqrt(target.real @ target.real + target.imag @ target.imag)
    corr_val = float(abs(np.vdot(target, z)) / max(norm, 1e-300))
    return Combiner(z=z, correlation=corr_val)


def dft_manifold_combiner(psi_pred: float, num_antennas: int) -> Combiner:
    """Array-manifold combiner d_M(psi)/sqrt(M) pointed at the predicted beam."""
    z = array_response(num_antennas, psi_pred) / math.sqrt(num_antennas)
    return Combiner(z=z)


def sound_uplink(
    rng: np.random.Generator | None, combiner: Combiner, h: np.ndarray, rho: float
) -> Sounding:
    """Synthesize r = z^H h + n, n ~ CN(0, 1/rho), from the true channel
    vector h = beta d_M(psi) (see array_channel.channel_vector).

    Passing rng=None produces the noiseless sample.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    r = np.vdot(combiner.z, h)
    noise_var = 1.0 / (2.0 * rho)
    if rng is not None:
        r = r + math.sqrt(noise_var) * (rng.standard_normal() + 1j * rng.standard_normal())
    return Sounding(r=r, z=combiner.z, noise_var=noise_var)
