"""House thermal model, HVAC thermostat, appliance and solar output.

The house is a single thermal mass: capacitance C (Btu/degF), envelope
conductance UA (Btu/h/degF), internal gains (Btu/h), and an HVAC that
removes heat at a fixed rate while in COOL.  The state advances with an
explicit Euler step of

    dT/dt = (UA * (T_out - T_in) + Q_int - Q_hvac * [mode == COOL]) / C

followed by the thermostat: COOL engages above T_set + deadband/2 and
releases below T_set - deadband/2, so the mode changes at most once per
step.  Heating is not modeled (summer scenarios only).

`step_houses` steps a whole fleet in one loop and sums its kW per load
slot; `step_house` is its one-house case.  A house's kW is `hvac_power`
of its state: nothing else holds it.

A house's heat extraction while cooling, `extraction = hvac_kw * cop *
BTU_PER_KWH` (Btu/h), is worked out once, in `__post_init__`.  It cannot
go stale in a run: neither `hvac_rating` nor `cop` has a `write` in
`kernel.PROPERTIES`, and a writer added for either must refresh it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BTU_PER_KWH = 3412.142


@dataclass(slots=True)
class HouseState:
    name: str
    t_in: float  # degF
    t_set: float  # degF, cooling setpoint
    deadband: float  # degF
    capacitance: float  # Btu/degF
    ua: float  # Btu/(h*degF)
    internal_gains: float  # Btu/h
    hvac_kw: float  # electric draw while cooling
    cop: float
    mode: str = "OFF"  # OFF | COOL
    extraction: float = field(init=False)  # Btu/h removed while cooling, derived once

    def __post_init__(self):
        self.extraction = self.hvac_kw * self.cop * BTU_PER_KWH


def step_houses(
    fleet: list[tuple[HouseState, int]], t_out: float, dt_seconds: float, slot_kw: list[float]
) -> float:
    """Advance every house of `fleet` one timestep in place: Euler update,
    then thermostat.

    `fleet` pairs each house with the slot its kW adds into, or -1 for an
    unpowered house (de-energized node), which cannot run its HVAC: its
    mode is forced OFF and its mass drifts passively toward ambient.
    Returns the HVAC total in kW: each powered house's electric demand
    after the thermostat (`hvac_power`) adds into `slot_kw[slot]` (which
    starts at 0.0) and into the total, in fleet order.
    """
    hvac, hours = 0.0, dt_seconds / 3600.0
    for house, slot in fleet:
        t_in = house.t_in
        if slot >= 0 and house.mode == "COOL":
            flow = house.ua * (t_out - t_in) + house.internal_gains - house.extraction
            house.t_in = t_in = t_in + hours * flow / house.capacitance
            if t_in < house.t_set - house.deadband / 2.0:
                house.mode = "OFF"
                continue
        else:  # idle or unpowered: no extraction term, as `x - 0.0` is x for every float
            flow = house.ua * (t_out - t_in) + house.internal_gains
            house.t_in = t_in = t_in + hours * flow / house.capacitance
            if slot < 0:
                house.mode = "OFF"
                continue
            if not t_in > house.t_set + house.deadband / 2.0:
                continue
            house.mode = "COOL"
        # only a cooling house draws: a sum that starts at 0.0 is never -0.0,
        # so adding an idle house's 0.0 would leave it as it is
        kw = house.hvac_kw
        slot_kw[slot] += kw
        hvac += kw
    return hvac


def step_house(house: HouseState, t_out: float, dt_seconds: float, powered: bool = True) -> float:
    """`step_houses` for one house; returns its kW after the thermostat."""
    return step_houses([(house, 0 if powered else -1)], t_out, dt_seconds, [0.0])


def hvac_power(house: HouseState) -> float:
    """Electric demand in kW: rated power iff cooling."""
    return house.hvac_kw if house.mode == "COOL" else 0.0


def init_mode(house: HouseState) -> None:
    """Pick the starting mode consistent with the thermostat deadband."""
    house.mode = "COOL" if house.t_in > house.t_set + house.deadband / 2.0 else "OFF"


def solar_output(rating_kw: float, efficiency: float, irradiance_fraction: float) -> float:
    """Panel output in kW for the current irradiance fraction [0, 1]."""
    return rating_kw * efficiency * irradiance_fraction
