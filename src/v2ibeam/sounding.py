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

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .array_channel import ChannelRealization, array_response

DEGENERATE_NORM = 1e-30


@dataclass(frozen=True)
class Combiner:
    """Unit-norm combiner vector. A hybrid combiner has z = analog @ digital
    with analog columns of per-entry modulus 1/sqrt(M)."""

    z: np.ndarray
    fallback: bool = False
    analog: np.ndarray | None = None
    correlation: float | None = None

    @property
    def digital(self) -> np.ndarray | None:
        """Digital weights of a hybrid combiner: the w with analog @ w = z."""
        if self.analog is None:
            return None
        return np.linalg.pinv(self.analog) @ self.z


@dataclass(frozen=True)
class Sounding:
    """One sounding sample r = z^H h(psi) + n taken with the combiner z.

    noise_var is the variance 1/(2 rho) of each of the real and imaginary
    parts of n.
    """

    r: complex
    z: np.ndarray
    noise_var: float


@dataclass(frozen=True)
class SteeringDictionary:
    """Unit-norm steering atoms d_M(psi_g)/sqrt(M) on the uniform grid
    psi_g = -pi + 2 pi g / G, G = oversampling * M."""

    atoms: np.ndarray  # M x G
    oversampling: int = 4

    _cache: ClassVar[dict[tuple[int, int], "SteeringDictionary"]] = {}

    @staticmethod
    def build(num_antennas: int, oversampling: int = 4) -> "SteeringDictionary":
        """The dictionary for (M, oversampling), built once per process and
        shared, so its atoms are read-only."""
        key = (num_antennas, oversampling)
        if key not in SteeringDictionary._cache:
            size = oversampling * num_antennas
            grid = -math.pi + 2.0 * math.pi * np.arange(size) / size
            m = np.arange(num_antennas)[:, None]
            atoms = np.exp(1j * m * grid[None, :]) / math.sqrt(num_antennas)
            atoms.setflags(write=False)
            SteeringDictionary._cache[key] = SteeringDictionary(atoms, oversampling)
        return SteeringDictionary._cache[key]


def optimal_combiner(
    h_dot: np.ndarray,
    grad: np.ndarray,
    q_pred: np.ndarray,
    rho: float,
    fallback_psi: float | None = None,
) -> Combiner:
    """Principal eigenvector of (D Q D^H + I/rho)^{-1} (D Q^2 D^H), unit norm.

    The channel Jacobian is rank one, D = h_dot grad^T (see ekf.jacobian), so
    D Q^2 D^H = ||Q grad||^2 h_dot h_dot^H, and the eigenvector
    (D Q D^H + I/rho)^{-1} h_dot is itself proportional to h_dot by the matrix
    inversion lemma. The optimum is therefore h_dot/||h_dot|| for every Q and
    rho. On a degenerate objective (tr(D Q^2 D^H) = ||h_dot||^2 ||Q grad||^2
    numerically zero) falls back to the array-manifold combiner at
    fallback_psi when given.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    m = h_dot.shape[0]
    qg = np.asarray(q_pred, float) @ grad
    norm = math.sqrt(np.vdot(h_dot, h_dot).real)
    if not norm**2 * float(qg @ qg) > DEGENERATE_NORM:
        if fallback_psi is None:
            raise ValueError("degenerate combiner objective and no fallback direction")
        z = array_response(m, fallback_psi) / math.sqrt(m)
        return Combiner(z=z, fallback=True)
    return Combiner(z=h_dot / norm)


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
    first chosen atom.
    """
    rows, m = targets.shape
    if num_rf_chains < 1:
        raise ValueError("num_rf_chains must be >= 1")
    if num_rf_chains > m:
        raise ValueError("num_rf_chains cannot exceed the antenna count")
    atoms = dictionary.atoms
    size = atoms.shape[1]
    sign = (-1.0) ** np.arange(m)
    residual = targets.astype(complex)
    basis = np.empty((rows, num_rf_chains, m), dtype=complex)
    chosen = np.empty((rows, num_rf_chains), dtype=np.intp)
    for k in range(num_rf_chains):
        corr = np.abs(np.fft.fft(residual * sign, n=size))
        if k:
            corr[np.arange(rows)[:, None], chosen[:, :k]] = -1.0
        chosen[:, k] = np.argmax(corr, axis=1)
        q = atoms.T[chosen[:, k]]
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
        fit[zero] = atoms.T[chosen[zero, 0]]
    return fit / norm[:, None], chosen


def hybrid_approximation(
    target: np.ndarray, dictionary: SteeringDictionary, num_rf_chains: int
) -> Combiner:
    """Hybrid combiner closest to one target: the B=1 call of
    orthogonal_matching_pursuit, with the chosen atoms as analog columns."""
    z, chosen = orthogonal_matching_pursuit(target[None, :], dictionary, num_rf_chains)
    z = z[0]
    corr_val = float(abs(np.vdot(target, z)) / max(np.linalg.norm(target), 1e-300))
    return Combiner(z=z, analog=dictionary.atoms[:, chosen[0]], correlation=corr_val)


def dft_manifold_combiner(psi_pred: float, num_antennas: int) -> Combiner:
    """Array-manifold combiner d_M(psi)/sqrt(M) pointed at the predicted beam."""
    z = array_response(num_antennas, psi_pred) / math.sqrt(num_antennas)
    return Combiner(z=z)


def sound_uplink(
    rng: np.random.Generator | None,
    combiner: Combiner,
    chan: ChannelRealization,
    num_antennas: int,
) -> Sounding:
    """Synthesize r = z^H h(psi) + n, n ~ CN(0, 1/rho).

    Passing rng=None produces the noiseless sample.
    """
    h = chan.beta * array_response(num_antennas, chan.psi)
    r = np.vdot(combiner.z, h)
    noise_var = 1.0 / (2.0 * chan.rho)
    if rng is not None:
        r = r + math.sqrt(noise_var) * (rng.standard_normal() + 1j * rng.standard_normal())
    return Sounding(r=r, z=combiner.z, noise_var=noise_var)
