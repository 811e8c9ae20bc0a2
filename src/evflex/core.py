"""Charging-job domain types and individual feasibility.

A charging profile is represented throughout as a plain 1-D float ndarray of
length T (energy delivered per step); invariants (length, non-negativity) are
enforced at function boundaries rather than by a wrapper class.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EnergyOutOfRange

DEFAULT_ATOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Discrete horizon of `steps` slots, each of unit duration."""

    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def check_energy_domain(e_lo: np.ndarray, e_hi: np.ndarray, cap: float, error: type) -> None:
    """Raise `error` naming the first pair that breaks 0 <= e_lo <= e_hi <= cap.

    The cap is m*T and allows 1e-12 of rounding; a NaN breaks every bound.
    """
    valid = (e_lo >= 0) & (e_lo <= e_hi) & (e_hi <= cap + 1e-12)
    if not valid.all():
        i = np.unravel_index(np.argmin(valid), valid.shape)
        raise error(f"need 0 <= e_lo <= e_hi <= m*T: ({e_lo[i]}, {e_hi[i]}) vs cap {cap}")


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
        e_lo = np.array(self.e_lo, dtype=float)
        e_hi = np.array(self.e_hi, dtype=float)
        horizon = operator.index(self.horizon)
        power = float(self.power)
        if e_lo.ndim != 1 or e_lo.shape != e_hi.shape or e_lo.size == 0:
            raise ValueError("e_lo and e_hi must be non-empty 1-D arrays of equal length")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if not (math.isfinite(power) and power > 0):
            raise ValueError(f"power must be positive and finite, got {power}")
        check_energy_domain(e_lo, e_hi, power * horizon, ValueError)
        e_lo.flags.writeable = False
        e_hi.flags.writeable = False
        object.__setattr__(self, "e_lo", e_lo)
        object.__setattr__(self, "e_hi", e_hi)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "power", power)

    @classmethod
    def from_energy_pairs(cls, pairs, horizon: int, power: float = 1.0) -> "Population":
        """Population from (e_lo, e_hi) rows."""
        pairs = np.array(pairs, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be (e_lo, e_hi) rows")
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
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if power <= 0:
        raise ValueError("power must be positive")
    if energy < 0 or energy > power * steps + 1e-12:
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
    u = np.asarray(profile, dtype=float)
    if u.ndim != 1:
        raise DimensionMismatch(f"profile must be 1-D, got shape {u.shape}")
    if np.any(u < -atol) or np.any(u > power + atol):
        return False
    total = float(u.sum())
    return e_lo - atol <= total <= e_hi + atol
