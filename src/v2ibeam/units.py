"""Unit conversions between CLI-facing units and internal SI / linear power."""

SPEED_OF_LIGHT = 299792458.0  # m/s


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def kmh_to_ms(kmh: float) -> float:
    return kmh * 1000.0 / 3600.0


def carrier_to_wavelength(fc_hz: float) -> float:
    return SPEED_OF_LIGHT / fc_hz
