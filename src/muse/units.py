"""Power unit conversions.

All internal arithmetic is in linear watts; dBm and dB appear only at
I/O boundaries (scenario files, CSV export, console output).
"""

import math

__all__ = ["dbm_to_watts", "watts_to_dbm", "db_to_linear", "linear_to_db"]


def dbm_to_watts(dbm: float) -> float:
    return db_to_linear(dbm - 30.0)


def watts_to_dbm(watts: float) -> float:
    """Convert watts to dBm. Zero maps to -inf; negative power is an error."""
    if watts < 0.0:
        raise ValueError(f"negative power has no dBm representation: {watts}")
    if watts == 0.0:
        return -math.inf
    return 10.0 * math.log10(watts) + 30.0


def db_to_linear(db: float) -> float:
    """10^(db / 10) as a float; inf where that overflows the float range."""
    try:
        return math.pow(10.0, db / 10.0)
    except OverflowError:
        return math.inf


def linear_to_db(ratio: float) -> float:
    if ratio <= 0.0:
        raise ValueError(f"nonpositive ratio has no dB representation: {ratio}")
    return 10.0 * math.log10(ratio)
