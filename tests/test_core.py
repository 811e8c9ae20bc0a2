import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflex import (
    DimensionMismatch,
    DiscreteDistribution,
    DomainError,
    EnergyOutOfRange,
    NegativeEntry,
    Population,
    contains,
    fastest_profile,
    is_individually_feasible,
)
from evflex.aggregate import _generating_vectors


def test_fastest_profile_examples():
    np.testing.assert_allclose(fastest_profile(2.5, 1, 4), [1, 1, 0.5, 0])
    np.testing.assert_allclose(fastest_profile(0, 1, 4), [0, 0, 0, 0])
    np.testing.assert_allclose(fastest_profile(4, 1, 4), [1, 1, 1, 1])
    with pytest.raises(EnergyOutOfRange):
        fastest_profile(4.5, 1, 4)
    with pytest.raises(EnergyOutOfRange):
        fastest_profile(-0.1, 1, 4)


def test_fastest_profile_steps_is_a_count():
    np.testing.assert_allclose(fastest_profile(2.5, 1, np.int64(4)), [1, 1, 0.5, 0])
    for steps in (4.0, True):
        with pytest.raises(TypeError, match="steps"):
            fastest_profile(1.0, 1.0, steps)
    with pytest.raises(ValueError):
        fastest_profile(0.0, 1.0, 0)


def test_fastest_profile_partial_slot_only_when_positive():
    # integer multiples of the power rating leave no partial slot
    np.testing.assert_allclose(fastest_profile(2.0, 1, 4), [1, 1, 0, 0])
    prof = fastest_profile(3.0, 1.5, 4)
    np.testing.assert_allclose(prof, [1.5, 1.5, 0, 0])


def test_fastest_profile_is_the_one_ev_generating_vector():
    # at a non-dyadic power the entries need not sum to the energy exactly,
    # but the profile is the row a one-EV population's set is built from
    rng = np.random.default_rng(20)
    inexact = 0
    for _ in range(2000):
        steps = int(rng.integers(1, 30))
        power = float(rng.uniform(0.1, 3.0))
        energy = float(rng.uniform(0.0, power * steps))
        profile = fastest_profile(energy, power, steps)
        np.testing.assert_array_equal(profile, _generating_vectors(np.array([energy]), power, steps))
        inexact += profile.sum() != energy
    assert inexact > 0


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 4), st.integers(1, 8))
def test_fastest_profile_properties(frac, steps):
    power = 1.0
    energy = frac / 4 * power * steps
    prof = fastest_profile(energy, power, steps)
    assert prof.shape == (steps,)
    assert abs(prof.sum() - energy) < 1e-12
    assert np.all(np.diff(prof) <= 1e-12)
    assert np.all(prof >= 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.integers(1, 8))
def test_fastest_profile_prefix_monotone_in_energy(a, b, steps):
    lo, hi = sorted([a * steps, b * steps])
    p_lo = np.cumsum(fastest_profile(lo, 1.0, steps))
    p_hi = np.cumsum(fastest_profile(hi, 1.0, steps))
    assert np.all(p_lo <= p_hi + 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_fastest_profile_individually_feasible(x, y, z):
    steps = 5
    e_lo, e_hi = sorted([x * steps, y * steps])
    energy = e_lo + z * (e_hi - e_lo)
    assert is_individually_feasible(fastest_profile(energy, 1.0, steps), e_lo, e_hi, 1.0)


def test_individual_feasibility_examples():
    assert is_individually_feasible(np.full(4, 0.25), 1, 2, 1)
    assert not is_individually_feasible(np.array([1, 1, 1, 0.0]), 1, 2, 1)
    assert not is_individually_feasible(np.array([1.2, 0, 0, 0.0]), 1, 2, 1)
    with pytest.raises(DimensionMismatch):
        is_individually_feasible(np.zeros((2, 4)), 1, 2, 1)


def test_individual_feasibility_of_energies_outside_the_domain_is_false():
    # e_lo above m*T: even the full-power profile falls short, and no error is raised
    assert not is_individually_feasible(np.ones(4), 4.5, 5.0, 1.0)
    # e_lo above e_hi: no total lies between them
    assert not is_individually_feasible(np.full(4, 0.375), 2.0, 1.0, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 6), st.data())
def test_individual_feasibility_is_one_ev_membership(quarters, steps, data):
    # every value is a multiple of 1/8, so both cap rows are exact and must
    # agree; a negative entry is -1/8 (NegativeEntry from both) or, read as
    # -1e-12, inside the tolerance (clipped to 0 by both)
    power = quarters / 4
    cap = 2 * quarters * steps  # m*T in eighths
    eighths = data.draw(st.lists(st.integers(-1, 2 * quarters + 1), min_size=steps, max_size=steps))
    total = sum(eighths)
    if data.draw(st.booleans()):  # energies around the profile's total
        lo = min(max(total - data.draw(st.integers(-1, 3)), 0), cap)
        hi = min(max(total + data.draw(st.integers(-1, 3)), lo), cap)
    else:
        lo = data.draw(st.integers(0, cap))
        hi = data.draw(st.integers(lo, cap))
    u = np.array(eighths) / 8
    if data.draw(st.booleans()):
        u[u < 0] = -1e-12
    one_ev = Population([lo / 8], [hi / 8], steps, power)
    if (u < -1e-9).any():
        with pytest.raises(NegativeEntry):
            contains(one_ev, u)
        with pytest.raises(NegativeEntry):
            is_individually_feasible(u, lo / 8, hi / 8, power)
    else:
        assert is_individually_feasible(u, lo / 8, hi / 8, power) == contains(one_ev, u)


@pytest.mark.parametrize("power", [np.inf, np.nan, 0.0, -1.0])
def test_bad_power_rejected(power):
    # an infinite rating would give an all-zero fastest profile, and a NaN
    # one would pass every bound of the feasibility check
    with pytest.raises(ValueError, match="power"):
        fastest_profile(1.0, power, 4)
    with pytest.raises(ValueError, match="power"):
        is_individually_feasible([0.5, 0.5], 0, 2, power)


@pytest.mark.parametrize("atol", [np.nan, np.inf, -np.inf, -1.0])
def test_individual_feasibility_rejects_bad_atol(atol):
    # an infinite tolerance would accept any profile
    with pytest.raises(DomainError, match="atol"):
        is_individually_feasible([3, 0.5], 0.5, 1.5, 1.0, atol=atol)


@pytest.mark.parametrize(
    "make",
    [
        lambda horizon: Population([0.5], [1.0], horizon),
        lambda horizon: DiscreteDistribution([[0.5, 1.0]], [1.0], horizon),
    ],
    ids=["Population", "DiscreteDistribution"],
)
def test_horizon_invariants(make):
    assert make(24).horizon == 24
    horizon = make(np.int64(3)).horizon
    assert horizon == 3 and type(horizon) is int
    with pytest.raises(ValueError):
        make(0)
    for steps in (2.5, True, np.bool_(True), np.float64(3.0)):
        with pytest.raises(TypeError):
            make(steps)


def test_requirement_invariants():
    bad = [
        ([2.0], [1.0], 1.0),  # e_lo > e_hi
        ([0.0], [5.0], 1.0),  # e_hi > m * T
        ([-0.5], [1.0], 1.0),  # negative e_lo
        ([np.nan], [1.0], 1.0),
        ([0.5], [np.inf], 1.0),
        ([0.5], [1.0], np.inf),  # non-finite power
        ([0.5], [1.0], np.nan),
        ([0.5], [1.0], 0.0),
    ]
    for e_lo, e_hi, power in bad:
        with pytest.raises(ValueError):
            Population(e_lo, e_hi, 4, power)


def test_population_invariants():
    good = Population.from_energy_pairs([(0.5, 1.0), (0.2, 2.0)], 4, 1.0)
    assert good.n == 2 and good.horizon == 4 and good.power == 1.0
    np.testing.assert_array_equal(good.e_lo, [0.5, 0.2])
    np.testing.assert_array_equal(good.e_hi, [1.0, 2.0])
    with pytest.raises(ValueError):
        good.e_lo[0] = 0.0  # read-only
    with pytest.raises(ValueError):
        Population([0.5, 0.5], [1.0], 4)  # lengths differ
    with pytest.raises(ValueError):
        Population([], [], 4)
    with pytest.raises(ValueError):
        Population([0.5], [1.0], 0)
    horizon = Population([0.5], [1.0], np.int64(4)).horizon
    assert horizon == 4 and type(horizon) is int
    for horizon in (4.5, 4.0, True, np.bool_(True)):
        with pytest.raises(TypeError):
            Population([0.5], [1.0], horizon)  # the horizon is a step count
    with pytest.raises(ValueError):
        Population.from_energy_pairs([0.5, 1.0], 4)  # not (e_lo, e_hi) rows
