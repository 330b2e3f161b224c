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
from dataclasses import dataclass, field

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
    digital: np.ndarray | None = None
    correlation: float | None = None


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
    """Unit-norm steering atoms d_M(psi_g)/sqrt(M) on a uniform psi grid."""

    atoms: np.ndarray  # M x (oversampling * M)
    oversampling: int = 4
    atoms_h: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # conjugate transpose kept once for the OMP correlation step
        object.__setattr__(self, "atoms_h", self.atoms.conj().T)

    @staticmethod
    def build(num_antennas: int, oversampling: int = 4) -> "SteeringDictionary":
        size = oversampling * num_antennas
        grid = -math.pi + 2.0 * math.pi * np.arange(size) / size
        m = np.arange(num_antennas)[:, None]
        atoms = np.exp(1j * m * grid[None, :]) / math.sqrt(num_antennas)
        return SteeringDictionary(atoms=atoms, oversampling=oversampling)


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
    norm = np.linalg.norm(h_dot)
    if not norm**2 * float(qg @ qg) > DEGENERATE_NORM:
        if fallback_psi is None:
            raise ValueError("degenerate combiner objective and no fallback direction")
        z = array_response(m, fallback_psi) / math.sqrt(m)
        return Combiner(z=z, fallback=True)
    return Combiner(z=h_dot / norm)


def hybrid_approximation(
    target: np.ndarray, dictionary: SteeringDictionary, num_rf_chains: int
) -> Combiner:
    """Orthogonal-matching-pursuit projection onto N equal-gain atoms.

    Greedily picks the dictionary atom most correlated with the residual,
    refits the digital weights by least squares, and renormalizes.
    """
    m = target.shape[0]
    if num_rf_chains < 1:
        raise ValueError("num_rf_chains must be >= 1")
    if num_rf_chains > m:
        raise ValueError("num_rf_chains cannot exceed the antenna count")
    atoms, atoms_h = dictionary.atoms, dictionary.atoms_h
    chosen: list[int] = []
    residual = target.astype(complex)
    weights = np.zeros(0, dtype=complex)
    for _ in range(num_rf_chains):
        corr = np.abs(atoms_h @ residual)
        corr[chosen] = -1.0
        chosen.append(int(np.argmax(corr)))
        basis = atoms[:, chosen]
        gram = basis.conj().T @ basis
        rhs = basis.conj().T @ target
        try:
            weights = np.linalg.solve(
                gram + 1e-12 * np.trace(gram).real * np.eye(len(chosen)), rhs
            )
        except np.linalg.LinAlgError:
            weights, *_ = np.linalg.lstsq(basis, target, rcond=None)
        residual = target - basis @ weights
    basis = atoms[:, chosen]
    z = basis @ weights
    norm = np.linalg.norm(z)
    if norm == 0:
        weights = np.zeros(num_rf_chains, dtype=complex)
        weights[0] = 1.0
        z = basis @ weights
        norm = np.linalg.norm(z)
    z = z / norm
    weights = weights / norm
    corr_val = float(abs(np.vdot(target, z)) / max(np.linalg.norm(target), 1e-300))
    return Combiner(z=z, analog=basis, digital=weights, correlation=corr_val)


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
