"""House thermal-model tests against the closed-form exponential, plus
thermostat hysteresis and unpowered-drift behavior, and the fleet step
bit for bit against one house stepped at a time."""

import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import analytic_temperature, step_house_reference

from tesgrid.loads import BTU_PER_KWH, HouseState, hvac_power, init_mode, solar_output, step_house, step_houses


def make_house(**overrides):
    params = dict(
        name="h",
        t_in=80.0,
        t_set=75.0,
        deadband=2.0,
        capacitance=2000.0,
        ua=550.0,
        internal_gains=1800.0,
        hvac_kw=4.0,
        cop=3.5,
    )
    params.update(overrides)
    return HouseState(**params)


def test_exponential_approach_matches_euler():
    """Acceptance: 1 h at dt = 1 s within 0.1% of the closed form."""
    house = make_house(t_in=70.0, t_set=200.0)  # thermostat never engages
    init_mode(house)
    assert house.mode == "OFF"
    t_out = 95.0
    for _ in range(3600):
        step_house(house, t_out, 1.0)
    exact = analytic_temperature(70.0, t_out, house.ua, house.capacitance, house.internal_gains, 1.0)
    assert abs(house.t_in - exact) / abs(exact) < 1e-3


def test_cooling_toward_ambient():
    house = make_house(t_in=90.0, t_set=200.0, internal_gains=0.0)
    init_mode(house)
    t_out = 60.0
    for _ in range(3600):
        step_house(house, t_out, 1.0)
    exact = analytic_temperature(90.0, t_out, house.ua, house.capacitance, 0.0, 1.0)
    assert abs(house.t_in - exact) / abs(exact) < 1e-3


def test_thermostat_hysteresis():
    house = make_house(t_in=75.0)
    init_mode(house)
    assert house.mode == "OFF"
    house.t_in = 76.5  # above t_set + deadband/2
    step_house(house, 95.0, 60.0)
    assert house.mode == "COOL"
    # stays COOL inside the band
    house.t_in = 75.0
    step_house(house, 95.0, 60.0)
    assert house.mode == "COOL"
    house.t_in = 73.5  # below t_set - deadband/2 after the step
    step_house(house, 60.0, 60.0)
    assert house.mode == "OFF"


def test_limit_cycle_stays_in_band():
    house = make_house(t_in=75.0)
    init_mode(house)
    for _ in range(24 * 60):
        step_house(house, 95.0, 60.0)
        assert 73.5 <= house.t_in <= 76.5


def test_duty_cycle_matches_heat_balance():
    """Long-run ON fraction equals gain/extraction ratio."""
    house = make_house(t_in=75.0)
    init_mode(house)
    on = 0
    steps = 48 * 60
    for _ in range(steps):
        step_house(house, 95.0, 60.0)
        on += house.mode == "COOL"
    gain = house.ua * (95.0 - 75.0) + house.internal_gains
    expected = gain / (house.hvac_kw * house.cop * BTU_PER_KWH)  # extraction, Btu/h
    assert on / steps == pytest.approx(expected, rel=0.05)


def test_hvac_power():
    house = make_house()
    house.mode = "COOL"
    assert hvac_power(house) == 4.0
    house.mode = "OFF"
    assert hvac_power(house) == 0.0


def test_unpowered_house_drifts_and_stays_off():
    house = make_house(t_in=80.0)
    house.mode = "COOL"
    step_house(house, 95.0, 60.0, powered=False)
    assert house.mode == "OFF"
    before = house.t_in
    step_house(house, 95.0, 60.0, powered=False)
    assert house.t_in > before  # warming, never re-engages
    assert house.mode == "OFF"


def test_init_mode():
    hot = make_house(t_in=80.0)
    init_mode(hot)
    assert hot.mode == "COOL"
    cool = make_house(t_in=74.0)
    init_mode(cool)
    assert cool.mode == "OFF"


def test_solar_output():
    assert solar_output(3.0, 0.9, 0.5) == pytest.approx(1.35)
    assert solar_output(3.0, 0.9, 0.0) == 0.0


def _bits(value):
    """A float as its bytes, so that 0.0 and -0.0 differ and NaN equals itself."""
    return struct.pack("<d", value) if isinstance(value, float) else value


def _state(house):
    return [_bits(v) for v in dataclasses.astuple(house)]


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _house_in_fleet(draw):
    t_set = draw(st.one_of(st.sampled_from([75.0, 72.5]), st.floats(60.0, 90.0)))
    deadband = draw(st.one_of(st.sampled_from([2.0, 0.5, 3.0]), st.floats(0.1, 5.0)))
    # on either threshold, where the thermostat's strict comparisons decide; or
    # not finite, where NaN fails every comparison
    t_in = draw(st.one_of(
        st.sampled_from([t_set + deadband / 2.0, t_set - deadband / 2.0]), st.floats(60.0, 100.0), _NON_FINITE
    ))
    house = HouseState(
        "h", t_in, t_set, deadband,
        capacitance=draw(st.one_of(st.just(2000.0), st.floats(100.0, 1e4))),
        ua=draw(st.one_of(st.just(550.0), st.floats(10.0, 2000.0))),
        internal_gains=draw(st.sampled_from([0.0, -0.0, 1800.0])),
        hvac_kw=draw(st.sampled_from([0.0, -0.0, 4.0, 1.5])),
        cop=draw(st.sampled_from([3.5, 2.0])),
        mode=draw(st.sampled_from(["OFF", "COOL"])),
    )
    return house, draw(st.integers(-1, 2))  # slot, -1 unpowered; houses share slots


@settings(max_examples=100, deadline=None)
@given(
    fleet=st.lists(_house_in_fleet(), max_size=8),
    t_out=st.one_of(st.sampled_from([95.0, 60.0, 0.0, -0.0]), st.floats(-20.0, 120.0), _NON_FINITE),
    dt=st.sampled_from([0.0, 1.0, 60.0, 300.0]),  # 0: t_in stays on its threshold
)
def test_step_houses_matches_one_house_at_a_time(fleet, t_out, dt):
    reference = [(dataclasses.replace(house), slot) for house, slot in fleet]
    ref_kws, ref_slot_kw, ref_hvac = [], [0.0] * 3, 0.0
    for house, slot in reference:
        kw = step_house_reference(house, t_out, dt, powered=slot >= 0)
        ref_kws.append(kw)
        if slot >= 0:
            ref_slot_kw[slot] += kw
            ref_hvac += kw

    slot_kw = [0.0] * 3
    hvac = step_houses(fleet, t_out, dt, slot_kw)
    assert [_state(h) for h, _ in fleet] == [_state(h) for h, _ in reference]
    # each house's kW is `hvac_power` of its state
    assert [_bits(hvac_power(h)) for h, _ in fleet] == list(map(_bits, ref_kws))
    assert list(map(_bits, slot_kw)) == list(map(_bits, ref_slot_kw))
    assert _bits(hvac) == _bits(ref_hvac)
