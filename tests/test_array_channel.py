import math
import re

import numpy as np
import pytest

from v2ibeam.array_channel import (
    ArrayConfig,
    FadingProcess,
    RicianConfig,
    RoadGeometry,
    array_response,
    average_snr,
    channel_vector,
    draw_fading,
    spatial_frequency,
    vehicle_link,
)
from v2ibeam.units import carrier_to_wavelength, dbm_to_mw


def test_spatial_frequency_zero_at_center():
    assert spatial_frequency(0.0, 8.5, 7.5) == 0.0


def test_spatial_frequency_reference_value():
    # pi * 50 / sqrt(50^2 + 8.5^2 + 7.5^2), denominator 2628.5
    expected = math.pi * 50.0 / math.sqrt(2628.5)
    got = spatial_frequency(50.0, 8.5, 7.5)
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(3.0638386211316035, abs=1e-12)


def test_spatial_frequency_odd_in_x():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-100, 100)
        y = rng.uniform(0, 20)
        h = rng.uniform(1, 10)
        assert spatial_frequency(-x, y, h) == -spatial_frequency(x, y, h)


def test_spatial_frequency_monotone_and_bounded():
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = rng.uniform(0.5, 20)
        h = rng.uniform(1, 10)
        xs = np.sort(rng.uniform(-500, 500, size=30))
        psis = [spatial_frequency(x, y, h) for x in xs]
        assert np.all(np.diff(psis) > 0)
        assert np.all(np.abs(psis) < math.pi)


def test_spatial_frequency_degenerate_input():
    with pytest.raises(ValueError):
        spatial_frequency(0.0, 0.0, 0.0)


def test_array_response_basic_patterns():
    np.testing.assert_allclose(array_response(4, 0.0), np.ones(4))
    np.testing.assert_allclose(
        array_response(4, math.pi), [1, -1, 1, -1], atol=1e-12
    )


def test_array_response_unit_modulus_norm():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(1, 200))
        psi = rng.uniform(-math.pi, math.pi)
        d = array_response(m, psi)
        assert np.linalg.norm(d) ** 2 == pytest.approx(m, rel=1e-12)


def test_array_response_real_imag_split():
    m = np.arange(7)
    psi = 0.83
    d = array_response(7, psi)
    np.testing.assert_allclose(d.real, np.cos(m * psi), atol=1e-15)
    np.testing.assert_allclose(d.imag, np.sin(m * psi), atol=1e-15)


def _cfg(tx_dbm=-20.0, noise_dbm=-101.0, n=2.0, fc_hz=28e9, m=64):
    return ArrayConfig(
        num_antennas=m,
        num_rf_chains=4,
        wavelength_m=carrier_to_wavelength(fc_hz),
        pathloss_exponent=n,
        noise_power_mw=dbm_to_mw(noise_dbm),
        tx_power_mw=dbm_to_mw(tx_dbm),
    )


def test_average_snr_reference_value():
    # 28 GHz, d=10 m, tx -20 dBm over -101 dBm noise, n=2 -> about -0.39 dB
    rho = average_snr(_cfg(), 10.0)
    rho_db = 10 * math.log10(rho)
    assert rho_db == pytest.approx(-0.39094384872776117, abs=1e-9)


def test_noise_power_for_20mhz_band():
    # thermal noise integrated over 20 MHz: -174 + 10 log10(20e6) ~ -101 dBm
    assert -174 + 10 * math.log10(20e6) == pytest.approx(-100.98970004336019)


def test_average_snr_inverse_square():
    cfg = _cfg(n=2.0)
    assert average_snr(cfg, 20.0) == pytest.approx(average_snr(cfg, 10.0) / 4.0)


def test_average_snr_monotone_and_linear_in_power():
    cfg = _cfg()
    ds = np.linspace(1.0, 200.0, 40)
    vals = [average_snr(cfg, d) for d in ds]
    assert np.all(np.diff(vals) < 0)
    cfg2 = _cfg(tx_dbm=-20.0 + 10 * math.log10(3.0))
    assert average_snr(cfg2, 17.0) == pytest.approx(3.0 * average_snr(cfg, 17.0))


def test_average_snr_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        average_snr(_cfg(), 0.0)


def test_vehicle_link_is_direction_and_snr_at_slant_distance():
    cfg = _cfg()
    psi, rho = vehicle_link(cfg, -31.0, 8.5, 7.5)
    assert psi == spatial_frequency(-31.0, 8.5, 7.5)
    assert rho == average_snr(cfg, math.sqrt(31.0**2 + 8.5**2 + 7.5**2))


def test_fading_pure_los_limit():
    rng = np.random.default_rng(8)
    ric = RicianConfig(k_factor_db=math.inf)
    for _ in range(20):
        assert abs(draw_fading(rng, ric)) == pytest.approx(1.0)


def test_fading_pure_rayleigh():
    rng = np.random.default_rng(9)
    ric = RicianConfig(k_factor_db=-math.inf)
    draws = np.array([draw_fading(rng, ric) for _ in range(20000)])
    assert abs(np.mean(draws)) < 0.02
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.03)


@pytest.mark.parametrize("k_db", [0.0, 13.0])
def test_fading_unit_average_power(k_db):
    rng = np.random.default_rng(10)
    ric = RicianConfig(k_factor_db=k_db)
    power = np.mean([abs(draw_fading(rng, ric)) ** 2 for _ in range(100000)])
    assert power == pytest.approx(1.0, abs=0.02)


def test_fading_block_structure():
    rng = np.random.default_rng(11)
    proc = FadingProcess(rng, RicianConfig(k_factor_db=13.0, block_length=4))
    draws = [proc.step() for _ in range(12)]
    for blk in range(3):
        vals = draws[4 * blk:4 * blk + 4]
        assert all(v == vals[0] for v in vals)
    assert draws[0] != draws[4]


def test_channel_vector():
    np.testing.assert_allclose(channel_vector(1.0, 0.0, 5), np.ones(5))
    np.testing.assert_allclose(channel_vector(0.0, 1.0, 5), np.zeros(5))
    rng = np.random.default_rng(12)
    beta = complex(rng.standard_normal(), rng.standard_normal())
    psi = rng.uniform(-math.pi, math.pi)
    h = channel_vector(beta, psi, 16)
    assert np.linalg.norm(h) ** 2 == pytest.approx(abs(beta) ** 2 * 16)
    d = array_response(16, psi)
    assert abs(np.vdot(h, d)) / (abs(beta) * 16) == pytest.approx(1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        RoadGeometry(0.0, 8.5, -75, 75)
    with pytest.raises(ValueError):
        RoadGeometry(7.5, 8.5, 75, -75)
    with pytest.raises(ValueError):
        ArrayConfig(4, 8, 0.01, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RicianConfig(block_length=0)
    # what a scenario file cannot hold: a bool, a NaN, a count that is a float
    for build, message in [
        (lambda: ArrayConfig(8.0, 2, 0.01, 2.0, 1.0, 1.0), "'num_antennas' = 8.0"),
        (lambda: ArrayConfig(8, True, 0.01, 2.0, 1.0, 1.0), "'num_rf_chains' = True"),
        (lambda: ArrayConfig(8, 2, 0.01, math.nan, 1.0, 1.0), "'pathloss_exponent' = nan"),
        (lambda: RoadGeometry(math.nan, 8.5, -75, 75), "'rsu_height_m' = nan"),
        (lambda: RoadGeometry(7.5, True, -75, 75), "'lane_offset_m' = True"),
        (lambda: RoadGeometry(7.5, 8.5, -75, math.nan), "'range_m' = [-75, nan]"),
        (lambda: RicianConfig(k_factor_db=math.nan), "'k_factor_db' = nan"),
        (lambda: RicianConfig(block_length=2.0), "'block_length' = 2.0"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
