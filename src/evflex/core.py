"""Charging-job domain types and individual feasibility.

A charging profile is represented throughout as a plain 1-D float ndarray of
length T (energy delivered per step); invariants (length, non-negativity) are
enforced at function boundaries rather than by a wrapper class.
"""

from __future__ import annotations

import math
import operator
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, EnergyOutOfRange, NotAnInteger

DEFAULT_ATOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Discrete horizon of `steps` slots, each of unit duration."""

    steps: int

    def __post_init__(self):
        object.__setattr__(self, "steps", _check_integer(self.steps, "steps", minimum=1))


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


def check_energy_domain(e_lo: np.ndarray, e_hi: np.ndarray, cap: float) -> None:
    """Raise EnergyOutOfRange naming the first pair that breaks 0 <= e_lo <= e_hi <= cap.

    The cap is m*T and allows 1e-12 of rounding; a NaN breaks every bound.
    """
    valid = (e_lo >= 0) & (e_lo <= e_hi) & (e_hi <= cap + 1e-12)
    if not valid.all():
        i = np.unravel_index(np.argmin(valid), valid.shape)
        raise EnergyOutOfRange(f"need 0 <= e_lo <= e_hi <= m*T: ({e_lo[i]}, {e_hi[i]}) vs cap {cap}")


@dataclass(frozen=True, eq=False)
class Population:
    """Homogeneous population of N charging jobs, held as two energy vectors.

    Every EV connects at step 1, departs after the horizon T and charges at
    most `power` per step; EV i needs between e_lo[i] and e_hi[i] energy.
    The vectors are stored as read-only float arrays.
    """

    e_lo: np.ndarray
    e_hi: np.ndarray
    horizon: int
    power: float = 1.0

    def __post_init__(self):
        e_lo = _floats(self.e_lo, "e_lo")
        e_hi = _floats(self.e_hi, "e_hi")
        horizon = _check_integer(self.horizon, "horizon", minimum=1)
        if e_lo.ndim != 1 or e_lo.shape != e_hi.shape or e_lo.size == 0:
            raise DimensionMismatch("e_lo and e_hi must be non-empty 1-D arrays of equal length")
        _check_power(self.power)
        power = float(self.power)
        check_energy_domain(e_lo, e_hi, power * horizon)
        e_lo.flags.writeable = False
        e_hi.flags.writeable = False
        object.__setattr__(self, "e_lo", e_lo)
        object.__setattr__(self, "e_hi", e_hi)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "power", power)

    @classmethod
    def from_energy_pairs(cls, pairs, horizon: int, power: float = 1.0) -> "Population":
        """Population from (e_lo, e_hi) rows."""
        pairs = _floats(pairs, "pairs")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise DimensionMismatch("pairs must be (e_lo, e_hi) rows")
        return cls(pairs[:, 0], pairs[:, 1], horizon, power)

    @property
    def n(self) -> int:
        return int(self.e_lo.size)


def fastest_profile(energy: float, power: float, steps: int) -> np.ndarray:
    """Profile delivering `energy` at maximum power from the first step.

    Full-power slots first, then one partial slot carrying the remainder
    (omitted when zero), then zeros. The entries are non-increasing and sum
    to `energy` exactly.
    """
    steps = _check_integer(steps, "steps", minimum=1)
    _check_power(power)
    if not (_is_finite(energy) and 0 <= energy <= power * steps + 1e-12):
        _floats(energy, "energy")  # a non-number is a DomainError, not an energy out of range
        raise EnergyOutOfRange(f"energy {energy} outside [0, {power * steps}]")
    full = min(int(np.floor(energy / power)), steps)
    rest = energy - power * full
    out = np.zeros(steps)
    out[:full] = power
    if full < steps and rest > 0:
        out[full] = rest
    return out


def is_individually_feasible(
    profile: np.ndarray, e_lo: float, e_hi: float, power: float, atol: float = DEFAULT_ATOL
) -> bool:
    """True when one EV can track `profile`: entries in [0, power] and a
    total in [e_lo, e_hi]."""
    _check_power(power)
    _check_atol(atol)
    u = _floats(profile, "profile")
    if u.ndim != 1:
        raise DimensionMismatch(f"profile must be 1-D, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise DomainError("profile has a non-finite entry")
    if not (_is_finite(e_lo) and _is_finite(e_hi)):
        _floats((e_lo, e_hi), "e_lo and e_hi")  # a non-number is a DomainError
        raise EnergyOutOfRange(f"e_lo and e_hi must be finite, got ({e_lo}, {e_hi})")
    if np.any(u < -atol) or np.any(u > power + atol):
        return False
    total = float(u.sum())
    return e_lo - atol <= total <= e_hi + atol
