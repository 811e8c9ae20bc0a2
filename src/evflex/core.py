"""Shared input rules and single-EV charging.

Every entry point checks its input with the rules here, each raising the
EVFlexError subclass it owns. A charging profile is a plain 1-D float
ndarray of length T (energy per step), checked at function boundaries
rather than wrapped in a class.
"""

from __future__ import annotations

import math
import operator
import reprlib

import numpy as np

from .errors import DomainError, EnergyOutOfRange, NotAnInteger

DEFAULT_ATOL = 1e-9


def _is_finite(value) -> bool:
    """Whether value is a finite real number; a string, None, other non-number
    or integer beyond the float range is not."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _floats(values, name: str) -> np.ndarray:
    """A new float array of a caller's values; an entry that is not a number
    (a string, bytes or None included), or a ragged nesting, raises
    DomainError naming the argument. Numeric arrays skip the entry scan."""
    try:
        raw = np.asarray(values)
        # numpy parses strings and reads None as NaN, so an object array's entries are looked at
        if raw.dtype.kind in "biuf" or raw.dtype.kind == "O" and not any(
            v is None or isinstance(v, (str, bytes)) for v in raw.flat
        ):
            return np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be numeric: {exc}") from exc
    raise DomainError(f"{name} must be numeric, got {reprlib.repr(values)}")


def _check_power(power) -> None:
    if not (_is_finite(power) and power > 0):
        raise DomainError(f"power must be positive and finite, got {power!r}")


def _check_atol(atol, name: str = "atol") -> None:
    if not (_is_finite(atol) and atol >= 0):
        raise DomainError(f"{name} must be finite and non-negative, got {atol!r}")


def _check_integer(value, name: str, minimum=None, maximum=None) -> int:
    """value as an int; a float, bool or other non-integer raises
    NotAnInteger, and an int outside [minimum, maximum] DomainError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if minimum is not None and value < minimum:
                raise DomainError(f"{name} must be >= {minimum}, got {value!r}")
            if maximum is not None and value > maximum:
                raise DomainError(f"{name} must be <= {maximum}, got {value!r}")
            return value
    raise NotAnInteger(f"{name} must be an integer, got {value!r}")


def _check_horizon(value, name: str, power: float = 1.0) -> int:
    """A horizon T as an int >= 1 whose energy cap power*T is a finite float."""
    value = _check_integer(value, name, minimum=1)
    if not (_is_finite(value) and math.isfinite(float(power) * value)):
        raise DomainError(f"{name} {reprlib.repr(value)} times power {power!r} is not finite")
    return value


def check_energy_domain(e_lo: np.ndarray, e_hi: np.ndarray, cap: float) -> None:
    """Raise EnergyOutOfRange naming the first pair that breaks 0 <= e_lo <= e_hi <= cap.

    The cap is m*T and allows 1e-12 of rounding; a NaN breaks every bound.
    """
    valid = (e_lo >= 0) & (e_lo <= e_hi) & (e_hi <= cap + 1e-12)
    if not valid.all():
        i = np.unravel_index(np.argmin(valid), valid.shape)
        raise EnergyOutOfRange(f"need 0 <= e_lo <= e_hi <= m*T: ({e_lo[i]}, {e_hi[i]}) vs cap {cap}")


def _generating_vectors(energies: np.ndarray, m: float, horizon: int) -> np.ndarray:
    """Sums of fastest-charge profiles over the last axis: (..., N) -> (..., T).

    EV i gives m to each of its floor(e_i/m) full steps (at most T) and the
    remainder e_i - m*floor(e_i/m) to the next step, if there is one. Step
    t's sum is therefore m times the number of EVs with more than t full
    steps plus the remainders that land on t: two bincounts over (row,
    full steps) and a reverse cumulative sum, with no (..., N, T) array.
    """
    lead = energies.shape[:-1]
    rows = math.prod(lead)
    full = np.floor(energies / m).clip(0, horizon)
    rest = (energies - m * full).clip(0.0, m)
    # slot T of each row collects the EVs with T full steps and is dropped
    slot = (full.astype(np.intp) + (horizon + 1) * np.arange(rows).reshape(lead + (1,))).ravel()
    size = rows * (horizon + 1)
    count = np.bincount(slot, minlength=size).reshape(rows, horizon + 1)
    partial = np.bincount(slot, weights=rest.ravel(), minlength=size).reshape(rows, horizon + 1)
    beyond = count[:, :0:-1].cumsum(axis=1)[:, ::-1]  # EVs with more than t full steps
    return (m * beyond + partial[:, :horizon]).reshape(lead + (horizon,))


def fastest_profile(energy: float, power: float, steps: int) -> np.ndarray:
    """Profile delivering `energy` at maximum power from the first step.

    Full-power slots first, then one partial slot carrying the remainder
    (omitted when zero), then zeros: the one-EV row of _generating_vectors,
    which at a power not exact in binary may sum to `energy` only up to rounding.
    """
    _check_power(power)
    steps = _check_horizon(steps, "steps", power)
    if not (_is_finite(energy) and 0 <= energy <= power * steps + 1e-12):
        _floats(energy, "energy")  # a non-number is a DomainError, not an energy out of range
        raise EnergyOutOfRange(f"energy {energy} outside [0, {power * steps}]")
    return _generating_vectors(np.array([float(energy)]), power, steps)
