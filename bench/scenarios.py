"""Inputs for the benchmark workloads: scenario text and weather CSV.

The benchmark writes its own inputs instead of calling
`tesgrid.feedergen`, so a change to the program's feeder generator
cannot silently change what the benchmark measures.  With no laterals,
the feeder recorders and no attack, `feeder_text(houses, seed)` is byte
for byte what `gen_feeder(houses, seed)` produced when the benchmark was
defined.

Everything is a pure function of (workload, seed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Callable

TIME_FORMAT = "%Y-%m-%d %H:%M:%S"
START = datetime(2013, 7, 1, 0, 0, 0)
CLUSTER_SIZE = 5
SELLER_COUNT = 50
BASE_OFFER = 0.10  # $/kWh, cheapest seller tier
TIER_STEP = 0.00005  # $/kWh between adjacent tiers
CAPACITY_PER_HOUSE = 4.0  # kW of seller capacity per house
APPLIANCE_KW = 3.5
HVAC_KW = 5.0


def _block(head: str, fields: list[tuple[str, str]]) -> list[str]:
    return [f"{head} {{"] + [f"    {key} {value};" for key, value in fields] + ["}"]


def feeder_text(
    houses: int,
    seed: int,
    laterals: int = 0,
    meter_recorders: bool = False,
) -> str:
    """Scenario text: a swing source, a trunk, clusters of five houses.

    With `laterals` > 0 the clusters hang off that many switchable
    overhead lines below the trunk instead of off the trunk's end node.
    With `meter_recorders` each cluster's first meter gets a recorder in
    place of the three feeder-level recorders.
    """
    rng = random.Random(seed)
    clusters = math.ceil(houses / CLUSTER_SIZE)
    stop = START + timedelta(days=1)
    out = [
        "// generated feeder: do not edit; regenerate with `tesgrid gen-feeder`",
        f"// houses={houses} seed={seed}",
    ]
    out += _block("clock", [
        ("start", f'"{START.strftime(TIME_FORMAT)}"'),
        ("stop", f'"{stop.strftime(TIME_FORMAT)}"'),
        ("timestep", "60 s"),
    ])
    out += _block("weather", [("file", "weather.csv")])
    out += _block("object node", [("name", "n_src"), ("bustype", "SWING"), ("nominal_voltage", "7200 V")])
    out += _block("object node", [("name", "n_dist"), ("nominal_voltage", "7200 V")])
    out += _block("object overhead_line", [
        ("name", "trunk"), ("from", "n_src"), ("to", "n_dist"),
        ("impedance", "0.3+0.7j Ohm"), ("status", "CLOSED"),
    ])
    for j in range(laterals):
        out += _block("object overhead_line", [
            ("name", f"lat_{j}"), ("from", "n_dist"), ("to", f"n_lat_{j}"),
            ("impedance", "0.2+0.4j Ohm"), ("status", "CLOSED"),
        ])
        out += _block("object node", [("name", f"n_lat_{j}"), ("nominal_voltage", "7200 V")])

    house_index = 0
    for c in range(clusters):
        feed = f"n_lat_{c * laterals // clusters}" if laterals else "n_dist"
        out += _block("object transformer", [
            ("name", f"xf_{c}"), ("from", feed), ("to", f"tn_{c}"),
            ("ratio", "30"), ("impedance", "0.01+0.02j Ohm"),
        ])
        out += _block("object triplex_node", [("name", f"tn_{c}"), ("nominal_voltage", "240 V")])
        for k in range(CLUSTER_SIZE):
            if house_index >= houses:
                break
            house, meter = f"house_{c}_{k}", f"tm_{c}_{k}"
            t0 = 74.0 + 2.0 * rng.random()  # stagger thermostat phases
            out += _block("object triplex_meter", [
                ("name", meter), ("parent", f"tn_{c}"), ("nominal_voltage", "240 V"),
            ])
            out += _block("object house", [
                ("name", house), ("parent", meter),
                ("air_temperature", f"{t0:.4f} degF"), ("cooling_setpoint", "75 degF"),
                ("deadband", "2 degF"), ("thermal_capacitance", "2000"), ("ua", "550"),
                ("internal_gains", "1800"), ("hvac_rating", f"{HVAC_KW:g} kW"), ("cop", "3.5"),
            ])
            out += _block("object zipload", [
                ("name", f"zl_{c}_{k}"), ("parent", meter), ("base_power", f"{APPLIANCE_KW:g} kW"),
            ])
            out += _block("object controller", [
                ("name", f"ctl_{c}_{k}"), ("house", house), ("market", "market"),
                ("t_min", "70 degF"), ("t_base", "75 degF"), ("t_max", "85 degF"),
                ("k_ramp", "1"), ("sigma_floor", "0.003 $/kWh"),
            ])
            house_index += 1

    out += _block("object solar", [
        ("name", "roof_pv"), ("parent", "tm_0_0"), ("rating", "3 kW"), ("efficiency", "0.9"),
    ])
    out += _block("object auction", [
        ("name", "market"), ("period", "300 s"),
        ("price_cap", "0.63 $/kWh"), ("init_price", "0.10 $/kWh"),
    ])
    capacity = CAPACITY_PER_HOUSE * houses / SELLER_COUNT
    for i in range(SELLER_COUNT):
        out += _block("object generator_seller", [
            ("name", f"gen_{i:02d}"), ("market", "market"),
            ("price", f"{BASE_OFFER + TIER_STEP * i:.6f} $/kWh"), ("capacity", f"{capacity:g} kW"),
        ])

    if meter_recorders:
        for c in range(clusters):
            out += _block("recorder", [
                ("name", f"rec_tm_{c}"), ("target", f"tm_{c}_0"),
                ("property", "voltage_mag, measured_power_kw, energized"),
                ("interval", "300 s"), ("file", f"meter_{c}.csv"),
            ])
    else:
        out += _block("recorder", [
            ("name", "rec_market"), ("target", "market"),
            ("property", "clearing_price, cleared_quantity, p_avg, p_std"),
            ("interval", "300 s"), ("file", "market.csv"),
        ])
        out += _block("recorder", [
            ("name", "rec_feeder"), ("target", "n_src"),
            ("property", "total_load_kw, total_hvac_kw, source_power_kw, losses_kw"),
            ("interval", "60 s"), ("file", "feeder.csv"),
        ])
        out += _block("recorder", [
            ("name", "rec_house"), ("target", "house_0_0"),
            ("property", "air_temperature, cooling_setpoint, hvac_load_kw"),
            ("interval", "60 s"), ("file", "house.csv"),
        ])
    return "\n".join(out) + "\n"


def weather_text(hours: int = 25) -> str:
    """Hourly summer-day weather: 75-95 degF peaking at 15:00, and a
    daylight irradiance arc between 06:00 and 18:00."""
    lines = ["time,temperature_degF,irradiance_fraction"]
    for h in range(hours):
        t = START + timedelta(hours=h)
        temp = 85.0 - 10.0 * math.cos(2.0 * math.pi * (t.hour - 15.0) / 24.0)
        irr = math.sin(math.pi * (t.hour - 6.0) / 12.0) if 6 <= t.hour <= 18 else 0.0
        lines.append(f"{t.strftime(TIME_FORMAT)},{temp:.4f},{irr:.4f}")
    return "\n".join(lines) + "\n"


def _at(hour: int) -> str:
    return f'"{(START + timedelta(hours=hour)).strftime(TIME_FORMAT)}"'


def _seller_override(seed: int) -> str:
    return "\n".join(_block("attack", [
        ("name", "override"), ("kind", "SELLER_PRICE_OVERRIDE"),
        ("start", _at(10)), ("end", _at(12)),
        ("fraction", "0.2"), ("seed", str(seed)), ("price", "0.63 $/kWh"),
    ])) + "\n"


def _bid_scale(seed: int) -> str:
    return "\n".join(_block("attack", [
        ("name", "bidscale"), ("kind", "BUYER_BID_SCALE"),
        ("start", _at(10)), ("end", _at(13)),
        ("fraction", "1"), ("seed", str(seed)), ("lambda", "0.1"),
    ])) + "\n"


def _open_two_laterals(seed: int) -> str:
    lines = sorted(random.Random(seed).sample([f"lat_{j}" for j in range(6)], 2))
    return "\n".join(_block("attack", [
        ("name", "outage"), ("kind", "LINE_STATUS"),
        ("start", _at(14)), ("end", _at(16)),
        ("lines", ", ".join(lines)), ("status", "OPEN"),
    ])) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    houses: int
    topology: str  # market wiring passed to Engine
    attack: Callable[[int], str]
    laterals: int = 0
    meter_recorders: bool = False

    def scenario(self, seed: int) -> str:
        return feeder_text(self.houses, seed, self.laterals, self.meter_recorders) + self.attack(seed)


# Each optimization the roadmap plans should move one workload and leave
# another alone: study30 is small enough that market, attack path and
# per-step kernel overhead show; grid300 is dominated by power flow over
# 362 nodes; outage150 is the only one that switches topology mid-run and
# the one with the most recorder reads.  Measured shares are in NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "study30-override",
            "the paper's 30-house study day under a seller price override; on a small grid "
            "the market, the attack path and per-step kernel overhead weigh the most",
            houses=30, topology="auxiliary", attack=_seller_override,
        ),
        Workload(
            "grid300-bidscale",
            "300 houses, 362 nodes, buyer bid scaling; power flow dominates and the "
            "market handles ten times the bids, so solver and set-up changes show here",
            houses=300, topology="auxiliary", attack=_bid_scale,
        ),
        Workload(
            "outage150-metered",
            "150 houses on 6 switchable laterals, two opened mid-day, direct wiring, one "
            "recorder per cluster: the only topology change, and the most recorder reads",
            houses=150, topology="direct", attack=_open_two_laterals,
            laterals=6, meter_recorders=True,
        ),
    )
}
