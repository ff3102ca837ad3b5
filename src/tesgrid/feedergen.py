"""Deterministic generator for the desk-scale study feeder.

Layout: one swing source, a trunk line to a distribution node, and
clusters of five houses behind a 7200:240 V transformer.  Each house
carries a constant appliance load and a price-responsive HVAC
controller; a single rooftop solar panel adds a small midday injection.
Fifty generator-sellers offer a finely tiered supply curve.

Sizing (per house): 5 kW HVAC, 3.5 kW appliance; seller fleet capacity
4 kW per house in 50 equal tiers.  The appliance (unresponsive) load
therefore exceeds 80% of fleet capacity, so losing even 20% of the
sellers to a price manipulation leaves the unresponsive cap-price bid
marginal — the lever the market-attack studies rely on.

Everything is a pure function of (house count, seed): regenerating with
the same arguments yields byte-identical text.
"""

from __future__ import annotations

import math
import random
from datetime import datetime, timedelta

from .glm import write_block
from .model import format_time

CLUSTER_SIZE = 5
SELLER_COUNT = 50
BASE_OFFER = 0.10  # $/kWh, cheapest tier
TIER_STEP = 0.00005  # $/kWh between adjacent tiers
CAPACITY_PER_HOUSE = 4.0  # kW of fleet capacity per house
APPLIANCE_KW = 3.5
HVAC_KW = 5.0
DEFAULT_START = datetime(2013, 7, 1, 0, 0, 0)
WEATHER_FILE = "weather.csv"  # the scenario's weather file, written beside it


def gen_feeder(houses: int = 30, seed: int = 0) -> str:
    """Scenario text for an `houses`-house feeder with market and recorders."""
    if houses < 1:
        raise ValueError("need at least one house")
    rng = random.Random(seed)
    clusters = math.ceil(houses / CLUSTER_SIZE)
    start = DEFAULT_START
    stop = start + timedelta(days=1)

    out = ["// generated feeder: do not edit; regenerate with `tesgrid gen-feeder`", f"// houses={houses} seed={seed}"]

    def block(head: str, *fields: tuple[str, str]) -> None:
        out.append(write_block(head, fields))

    block("clock", ("start", f'"{format_time(start)}"'), ("stop", f'"{format_time(stop)}"'), ("timestep", "60 s"))
    block("weather", ("file", WEATHER_FILE))
    block("object node", ("name", "n_src"), ("bustype", "SWING"), ("nominal_voltage", "7200 V"))
    block("object node", ("name", "n_dist"), ("nominal_voltage", "7200 V"))
    block(
        "object overhead_line",
        ("name", "trunk"), ("from", "n_src"), ("to", "n_dist"), ("impedance", "0.3+0.7j Ohm"), ("status", "CLOSED"),
    )

    house_index = 0
    for c in range(clusters):
        block(
            "object transformer",
            ("name", f"xf_{c}"), ("from", "n_dist"), ("to", f"tn_{c}"), ("ratio", "30"),
            ("impedance", "0.01+0.02j Ohm"),
        )
        block("object triplex_node", ("name", f"tn_{c}"), ("nominal_voltage", "240 V"))
        for k in range(CLUSTER_SIZE):
            if house_index >= houses:
                break
            hname = f"house_{c}_{k}"
            mname = f"tm_{c}_{k}"
            t0 = 74.0 + 2.0 * rng.random()  # stagger thermostat phases
            block("object triplex_meter", ("name", mname), ("parent", f"tn_{c}"), ("nominal_voltage", "240 V"))
            block(
                "object house",
                ("name", hname), ("parent", mname), ("air_temperature", f"{t0:.4f} degF"),
                ("cooling_setpoint", "75 degF"), ("deadband", "2 degF"), ("thermal_capacitance", "2000"),
                ("ua", "550"), ("internal_gains", "1800"), ("hvac_rating", f"{HVAC_KW:g} kW"), ("cop", "3.5"),
            )
            block("object zipload", ("name", f"zl_{c}_{k}"), ("parent", mname), ("base_power", f"{APPLIANCE_KW:g} kW"))
            block(
                "object controller",
                ("name", f"ctl_{c}_{k}"), ("house", hname), ("market", "market"), ("t_min", "70 degF"),
                ("t_base", "75 degF"), ("t_max", "85 degF"), ("k_ramp", "1"), ("sigma_floor", "0.003 $/kWh"),
            )
            house_index += 1

    block("object solar", ("name", "roof_pv"), ("parent", "tm_0_0"), ("rating", "3 kW"), ("efficiency", "0.9"))
    block(
        "object auction",
        ("name", "market"), ("period", "300 s"), ("price_cap", "0.63 $/kWh"), ("init_price", "0.10 $/kWh"),
    )
    capacity = CAPACITY_PER_HOUSE * houses / SELLER_COUNT
    for i in range(SELLER_COUNT):
        block(
            "object generator_seller",
            ("name", f"gen_{i:02d}"), ("market", "market"), ("price", f"{BASE_OFFER + TIER_STEP * i:.6f} $/kWh"),
            ("capacity", f"{capacity:g} kW"),
        )

    for name, target, properties, interval, file in (
        ("rec_market", "market", "clearing_price, cleared_quantity, p_avg, p_std", 300, "market.csv"),
        ("rec_feeder", "n_src", "total_load_kw, total_hvac_kw, source_power_kw, losses_kw", 60, "feeder.csv"),
        ("rec_house", "house_0_0", "air_temperature, cooling_setpoint, hvac_load_kw", 60, "house.csv"),
    ):
        block(
            "recorder",
            ("name", name), ("target", target), ("property", properties), ("interval", f"{interval} s"), ("file", file),
        )
    return "\n".join(out) + "\n"


def gen_weather(start: datetime = DEFAULT_START, hours: int = 25) -> str:
    """Hourly summer-day weather CSV: sinusoidal 75–95 degF peaking at
    15:00 and a daylight irradiance arc between 06:00 and 18:00."""
    lines = ["time,temperature_degF,irradiance_fraction"]
    for h in range(hours):
        t = start + timedelta(hours=h)
        hod = t.hour + t.minute / 60.0
        temp = 85.0 - 10.0 * math.cos(2.0 * math.pi * (hod - 15.0) / 24.0)
        if 6.0 <= hod <= 18.0:
            irr = math.sin(math.pi * (hod - 6.0) / 12.0)
        else:
            irr = 0.0
        lines.append(f"{format_time(t)},{temp:.4f},{irr:.4f}")
    return "\n".join(lines) + "\n"
