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

from .model import format_time

CLUSTER_SIZE = 5
SELLER_COUNT = 50
BASE_OFFER = 0.10  # $/kWh, cheapest tier
TIER_STEP = 0.00005  # $/kWh between adjacent tiers
CAPACITY_PER_HOUSE = 4.0  # kW of fleet capacity per house
APPLIANCE_KW = 3.5
HVAC_KW = 5.0
DEFAULT_START = datetime(2013, 7, 1, 0, 0, 0)


def gen_feeder(houses: int = 30, seed: int = 0, weather_file: str = "weather.csv") -> str:
    """Scenario text for an `houses`-house feeder with market and recorders."""
    if houses < 1:
        raise ValueError("need at least one house")
    rng = random.Random(seed)
    clusters = math.ceil(houses / CLUSTER_SIZE)
    start = DEFAULT_START
    stop = start + timedelta(days=1)

    out: list[str] = []
    w = out.append
    w("// generated feeder: do not edit; regenerate with `tesgrid gen-feeder`")
    w(f"// houses={houses} seed={seed}")
    w("clock {")
    w(f'    start "{format_time(start)}";')
    w(f'    stop "{format_time(stop)}";')
    w("    timestep 60 s;")
    w("}")
    w(f"weather {{")
    w(f"    file {weather_file};")
    w("}")

    w("object node {")
    w("    name n_src;")
    w("    bustype SWING;")
    w("    nominal_voltage 7200 V;")
    w("}")
    w("object node {")
    w("    name n_dist;")
    w("    nominal_voltage 7200 V;")
    w("}")
    w("object overhead_line {")
    w("    name trunk;")
    w("    from n_src;")
    w("    to n_dist;")
    w("    impedance 0.3+0.7j Ohm;")
    w("    status CLOSED;")
    w("}")

    house_index = 0
    for c in range(clusters):
        w("object transformer {")
        w(f"    name xf_{c};")
        w(f"    from n_dist;")
        w(f"    to tn_{c};")
        w("    ratio 30;")
        w("    impedance 0.01+0.02j Ohm;")
        w("}")
        w("object triplex_node {")
        w(f"    name tn_{c};")
        w("    nominal_voltage 240 V;")
        w("}")
        for k in range(CLUSTER_SIZE):
            if house_index >= houses:
                break
            hname = f"house_{c}_{k}"
            mname = f"tm_{c}_{k}"
            t0 = 74.0 + 2.0 * rng.random()  # stagger thermostat phases
            w("object triplex_meter {")
            w(f"    name {mname};")
            w(f"    parent tn_{c};")
            w("    nominal_voltage 240 V;")
            w("}")
            w("object house {")
            w(f"    name {hname};")
            w(f"    parent {mname};")
            w(f"    air_temperature {t0:.4f} degF;")
            w("    cooling_setpoint 75 degF;")
            w("    deadband 2 degF;")
            w("    thermal_capacitance 2000;")
            w("    ua 550;")
            w("    internal_gains 1800;")
            w(f"    hvac_rating {HVAC_KW:g} kW;")
            w("    cop 3.5;")
            w("}")
            w("object zipload {")
            w(f"    name zl_{c}_{k};")
            w(f"    parent {mname};")
            w(f"    base_power {APPLIANCE_KW:g} kW;")
            w("}")
            w("object controller {")
            w(f"    name ctl_{c}_{k};")
            w(f"    house {hname};")
            w("    market market;")
            w("    t_min 70 degF;")
            w("    t_base 75 degF;")
            w("    t_max 85 degF;")
            w("    k_ramp 1;")
            w("    sigma_floor 0.003 $/kWh;")
            w("}")
            house_index += 1

    w("object solar {")
    w("    name roof_pv;")
    w("    parent tm_0_0;")
    w("    rating 3 kW;")
    w("    efficiency 0.9;")
    w("}")

    w("object auction {")
    w("    name market;")
    w("    period 300 s;")
    w("    price_cap 0.63 $/kWh;")
    w("    init_price 0.10 $/kWh;")
    w("}")
    capacity = CAPACITY_PER_HOUSE * houses / SELLER_COUNT
    for i in range(SELLER_COUNT):
        w("object generator_seller {")
        w(f"    name gen_{i:02d};")
        w("    market market;")
        w(f"    price {BASE_OFFER + TIER_STEP * i:.6f} $/kWh;")
        w(f"    capacity {capacity:g} kW;")
        w("}")

    w("recorder {")
    w("    name rec_market;")
    w("    target market;")
    w("    property clearing_price, cleared_quantity, p_avg, p_std;")
    w("    interval 300 s;")
    w("    file market.csv;")
    w("}")
    w("recorder {")
    w("    name rec_feeder;")
    w("    target n_src;")
    w("    property total_load_kw, total_hvac_kw, source_power_kw, losses_kw;")
    w("    interval 60 s;")
    w("    file feeder.csv;")
    w("}")
    w("recorder {")
    w("    name rec_house;")
    w("    target house_0_0;")
    w("    property air_temperature, cooling_setpoint, hvac_load_kw;")
    w("    interval 60 s;")
    w("    file house.csv;")
    w("}")
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
