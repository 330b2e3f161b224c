"""ULA geometry, spatial frequency, array response vectors, and link-budget models.

The roadside unit carries an M-element uniform linear array. A vehicle at
road position (x, y) seen from array height h induces the spatial frequency

    psi = pi * x / sqrt(x^2 + y^2 + h^2),

and the array response is d_M(psi) = [1, e^{j psi}, ..., e^{j (M-1) psi}].
Small-scale fading is a Rician LOS/NLOS composite normalized to unit average
power; the average link SNR follows a log-distance path-loss law.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RoadGeometry:
    """Road layout seen from the RSU: array height and served range."""

    rsu_height_m: float
    lane_offset_m: float
    range_lb_m: float
    range_ub_m: float

    def __post_init__(self):
        if self.rsu_height_m <= 0:
            raise ValueError("rsu_height_m must be positive")
        if self.lane_offset_m < 0:
            raise ValueError("lane_offset_m must be nonnegative")
        if self.range_lb_m >= self.range_ub_m:
            raise ValueError("range_lb_m must be below range_ub_m")


@dataclass(frozen=True)
class ArrayConfig:
    """RSU array and link-budget parameters (linear power units, SI lengths)."""

    num_antennas: int
    num_rf_chains: int
    wavelength_m: float
    pathloss_exponent: float
    noise_power_mw: float
    tx_power_mw: float

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be >= 1")
        if not 1 <= self.num_rf_chains <= self.num_antennas:
            raise ValueError("num_rf_chains must be in [1, num_antennas]")
        if self.wavelength_m <= 0:
            raise ValueError("wavelength_m must be positive")
        if self.noise_power_mw <= 0:
            raise ValueError("noise_power_mw must be positive")


@dataclass(frozen=True)
class ChannelRealization:
    """One sounding instant: fading beta, spatial frequency psi, linear SNR rho."""

    beta: complex
    psi: float
    rho: float


@dataclass(frozen=True)
class RicianConfig:
    """Rician fading with K-factor in dB, block-constant over block_length steps.

    k_factor_db may be -inf (pure Rayleigh) or +inf (pure LOS).
    """

    k_factor_db: float = 13.0
    block_length: int = 1

    def __post_init__(self):
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")

    @property
    def k_linear(self) -> float:
        return 10.0 ** (self.k_factor_db / 10.0)


def spatial_frequency(x: float, y: float, h: float) -> float:
    """Spatial frequency psi = pi*x / sqrt(x^2 + y^2 + h^2), in (-pi, pi).

    Odd and strictly increasing in x for fixed (y, h).
    """
    r2 = x * x + y * y + h * h
    if r2 == 0.0:
        raise ValueError("spatial frequency undefined at x=y=h=0")
    return math.pi * x / math.sqrt(r2)


@functools.lru_cache(maxsize=16)
def antenna_ramp(num_antennas: int) -> np.ndarray:
    """The read-only vector j m, m = 0..M-1: the phase slope of d_M(psi) and
    the factor of its psi-derivative dd_M/dpsi = j m d_M(psi)."""
    ramp = 1j * np.arange(num_antennas)
    ramp.setflags(write=False)
    return ramp


def array_response(num_antennas: int, psi: float) -> np.ndarray:
    """ULA response vector with entries e^{j m psi}, m = 0..M-1.

    The real/imaginary parts are cos(m psi) and sin(m psi).
    """
    if num_antennas < 1:
        raise ValueError("num_antennas must be >= 1")
    return np.exp(antenna_ramp(num_antennas) * psi)


def average_snr(cfg: ArrayConfig, distance_m: float) -> float:
    """Average linear SNR (tx/noise) * (lambda / 4 pi d)^n at distance d."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    fs = cfg.wavelength_m / (4.0 * math.pi * distance_m)
    return (cfg.tx_power_mw / cfg.noise_power_mw) * fs**cfg.pathloss_exponent


def draw_fading(rng: np.random.Generator, ric: RicianConfig) -> complex:
    """Draw one block's fading coefficient.

    beta = sqrt(K/(K+1)) e^{j phi0} + sqrt(1/(K+1)) CN(0,1), with a uniform
    LOS phase phi0 redrawn per block, so E[|beta|^2] = 1.
    """
    k = ric.k_linear
    phi0 = rng.uniform(0.0, 2.0 * math.pi)
    los = cmath.exp(1j * phi0)
    if math.isinf(k):
        return los
    nlos = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
    return complex(math.sqrt(k / (k + 1.0)) * los + math.sqrt(1.0 / (k + 1.0)) * nlos)


class FadingProcess:
    """Block-constant fading sequence: one draw held for block_length steps."""

    def __init__(self, rng: np.random.Generator, ric: RicianConfig):
        self._rng = rng
        self._ric = ric
        self._left = 0
        self._beta = 0j

    def step(self) -> complex:
        if self._left == 0:
            self._beta = draw_fading(self._rng, self._ric)
            self._left = self._ric.block_length
        self._left -= 1
        return self._beta


def channel_vector(beta: complex, psi: float, num_antennas: int) -> np.ndarray:
    """Uplink channel h = beta * d_M(psi)."""
    return beta * array_response(num_antennas, psi)
