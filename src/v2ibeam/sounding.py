"""Uplink combiner design and sounding observation synthesis.

The sounding sample is r = z^H h(psi) + n with a unit-norm combiner z and
n ~ CN(0, 1/rho). The adaptive combiner maximizes the generalized Rayleigh
quotient

    z^H (D Q^2 D^H) z / z^H (D Q D^H + I/rho) z,

where D is the complex channel Jacobian at the predicted state. A hybrid
(analog/digital) reconstruction projects it onto N equal-gain steering atoms
via orthogonal matching pursuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .array_channel import ChannelRealization, array_response

DEGENERATE_NORM = 1e-30


@dataclass(frozen=True)
class Combiner:
    """Unit-norm combiner vector. For hybrid kind, z = analog @ digital with
    analog columns of per-entry modulus 1/sqrt(M)."""

    z: np.ndarray
    kind: str  # optimal | hybrid | dft_manifold
    fallback: bool = False
    analog: np.ndarray | None = None
    digital: np.ndarray | None = None
    correlation: float | None = None


@dataclass(frozen=True)
class RealSounding:
    """Real-domain lifting of one sounding sample.

    r_lift = [Re r, Im r]; z_lift is the 2 x 2M block matrix built from the
    combiner row z^H so that z_lift @ h_lift = [Re(z^H h), Im(z^H h)].
    noise_var is the per-component real noise variance 1/(2 rho).
    """

    r_lift: np.ndarray
    z_lift: np.ndarray
    noise_var: float


@dataclass(frozen=True)
class SteeringDictionary:
    """Unit-norm steering atoms d_M(psi_g)/sqrt(M) on a uniform psi grid."""

    atoms: np.ndarray  # M x (oversampling * M)
    grid: np.ndarray
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
        return SteeringDictionary(atoms=atoms, grid=grid, oversampling=oversampling)


def lift_combiner(z: np.ndarray) -> np.ndarray:
    """2 x 2M real block matrix of the combining row z^H."""
    zr = np.real(z)
    zi = -np.imag(z)  # row vector is the conjugate of the stored column
    m = z.shape[0]
    out = np.empty((2, 2 * m))
    out[0, :m] = zr
    out[0, m:] = -zi
    out[1, :m] = zi
    out[1, m:] = zr
    return out


def lift_channel(h: np.ndarray) -> np.ndarray:
    """Stack [Re h; Im h] into a 2M real vector."""
    return np.concatenate([np.real(h), np.imag(h)])


def rayleigh_quotient(z: np.ndarray, d: np.ndarray, q_pred: np.ndarray, rho: float) -> float:
    """Objective value of the combiner design problem at z."""
    dq = d @ q_pred
    num = z.conj() @ (dq @ q_pred @ d.conj().T) @ z
    den = z.conj() @ (dq @ d.conj().T) @ z + (z.conj() @ z) / rho
    return float(np.real(num) / np.real(den))


def optimal_combiner(
    d: np.ndarray,
    q_pred: np.ndarray,
    rho: float,
    fallback_psi: float | None = None,
) -> Combiner:
    """Principal eigenvector of (D Q D^H + I/rho)^{-1} (D Q^2 D^H), unit norm.

    The channel Jacobian is rank one, D = h_dot grad^T (see ekf.jacobian), so
    D Q^2 D^H = c h_dot h_dot^H with c = grad^T Q^2 grad >= 0, and the
    eigenvector (D Q D^H + I/rho)^{-1} h_dot is itself proportional to h_dot
    by the matrix inversion lemma. The optimum is therefore h_dot/||h_dot||
    for every Q and rho; it is taken from the first column of D, whose factor
    dg/dx = pi k^2 / r^3 is positive. On a degenerate objective
    (tr(D Q^2 D^H) numerically zero) falls back to the array-manifold combiner
    at fallback_psi when given.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    m = d.shape[0]
    q = np.asarray(q_pred, float)
    dq = d @ q
    scale = float(np.vdot(dq, dq).real)  # tr(D Q^2 D^H) for symmetric Q
    v = d[:, 0]
    norm = np.linalg.norm(v)
    if not (scale > DEGENERATE_NORM and norm > 0):
        if fallback_psi is None:
            raise ValueError("degenerate combiner objective and no fallback direction")
        z = array_response(m, fallback_psi) / math.sqrt(m)
        return Combiner(z=z, kind="optimal", fallback=True)
    return Combiner(z=v / norm, kind="optimal")


def hybrid_approximation(
    z_opt: Combiner | np.ndarray, dictionary: SteeringDictionary, num_rf_chains: int
) -> Combiner:
    """Orthogonal-matching-pursuit projection onto N equal-gain atoms.

    Greedily picks the dictionary atom most correlated with the residual,
    refits the digital weights by least squares, and renormalizes.
    """
    target = z_opt.z if isinstance(z_opt, Combiner) else np.asarray(z_opt)
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
    return Combiner(
        z=z,
        kind="hybrid",
        analog=basis,
        digital=weights,
        correlation=corr_val,
    )


def dft_manifold_combiner(psi_pred: float, num_antennas: int) -> Combiner:
    """Array-manifold combiner d_M(psi)/sqrt(M) pointed at the predicted beam."""
    z = array_response(num_antennas, psi_pred) / math.sqrt(num_antennas)
    return Combiner(z=z, kind="dft_manifold")


def sound_uplink(
    rng: np.random.Generator | None,
    combiner: Combiner,
    chan: ChannelRealization,
    num_antennas: int,
) -> RealSounding:
    """Synthesize r = z^H h(psi) + n, n ~ CN(0, 1/rho), lifted to the real domain.

    Passing rng=None produces the noiseless sample.
    """
    h = chan.beta * array_response(num_antennas, chan.psi)
    r = np.vdot(combiner.z, h)
    if rng is not None:
        scale = math.sqrt(1.0 / (2.0 * chan.rho))
        r = r + scale * (rng.standard_normal() + 1j * rng.standard_normal())
    return RealSounding(
        r_lift=np.array([r.real, r.imag]),
        z_lift=lift_combiner(combiner.z),
        noise_var=1.0 / (2.0 * chan.rho),
    )
