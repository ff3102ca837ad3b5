"""House thermal model, HVAC thermostat, appliance and solar output.

The house is a single thermal mass: capacitance C (Btu/degF), envelope
conductance UA (Btu/h/degF), internal gains (Btu/h), and an HVAC that
removes heat at a fixed rate while in COOL.  The state advances with an
explicit Euler step of

    dT/dt = (UA * (T_out - T_in) + Q_int - Q_hvac * [mode == COOL]) / C

followed by the thermostat: COOL engages above T_set + deadband/2 and
releases below T_set - deadband/2, so the mode changes at most once per
step.  Heating is not modeled (summer scenarios only).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def q_hvac(self) -> float:
        """Thermal extraction rate while cooling, Btu/h."""
        return self.hvac_kw * self.cop * BTU_PER_KWH


def step_house(house: HouseState, t_out: float, dt_seconds: float, powered: bool = True) -> float:
    """Advance one timestep in place: Euler update, then thermostat.
    Returns the electric demand in kW after the thermostat (`hvac_power`).

    An unpowered house (de-energized node) cannot run its HVAC: the mode
    is forced OFF and the mass drifts passively toward ambient.
    """
    if not powered:
        house.mode = "OFF"
    cooling = house.hvac_kw * house.cop * BTU_PER_KWH if house.mode == "COOL" else 0.0  # q_hvac, inline
    flow = house.ua * (t_out - house.t_in) + house.internal_gains - cooling
    house.t_in += (dt_seconds / 3600.0) * flow / house.capacitance
    if not powered:
        return 0.0
    if house.mode == "COOL":
        if house.t_in < house.t_set - house.deadband / 2.0:
            house.mode = "OFF"
    elif house.t_in > house.t_set + house.deadband / 2.0:
        house.mode = "COOL"
    return house.hvac_kw if house.mode == "COOL" else 0.0


def hvac_power(house: HouseState) -> float:
    """Electric demand in kW: rated power iff cooling."""
    return house.hvac_kw if house.mode == "COOL" else 0.0


def init_mode(house: HouseState) -> None:
    """Pick the starting mode consistent with the thermostat deadband."""
    house.mode = "COOL" if house.t_in > house.t_set + house.deadband / 2.0 else "OFF"


def solar_output(rating_kw: float, efficiency: float, irradiance_fraction: float) -> float:
    """Panel output in kW for the current irradiance fraction [0, 1]."""
    return rating_kw * efficiency * irradiance_fraction
