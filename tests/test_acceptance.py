"""Acceptance suite: nine system-level criteria, one per test, each
emitting a single ``ACCEPTANCE n <name>: PASS`` line on success.

Scenario-level criteria run the generated 30-house feeder for a full
simulated day; component criteria check the solvers against independent
oracles at stated tolerances.  All runs share session-scoped fixtures.
"""

import random
import statistics
import time
from datetime import datetime

import pytest
from conftest import load_fixture
from oracles import (
    analytic_temperature,
    auction_oracle,
    deenergized_objects,
    demand_list,
    dense_powerflow_oracle,
    reachability_oracle,
)

from tesgrid.feedergen import gen_feeder, gen_weather
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.loads import HouseState, init_mode, step_house
from tesgrid.market import clear_book, Bid
from tesgrid.model import AttackConfig
from tesgrid.network import build_network_index, compute_islands
from tesgrid.powerflow import solve_powerflow
from tesgrid.recorder import write_results
from tesgrid.validate import validate

DAY = "2013-07-01"
ATTACK_SEED = 7


def ts(hhmm):
    return f"{DAY} {hhmm}:00"


@pytest.fixture(scope="session")
def study_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("study")
    (d / "weather.csv").write_text(gen_weather())
    return d


def run_study(study_dir, attack=None, topology="auxiliary"):
    model = parse_scenario(gen_feeder(30, 0))
    assert validate(model).runnable
    if attack is not None:
        model.attacks.append(attack)
    start = time.monotonic()
    result = Engine(model, topology=topology, seed=0, base_dir=str(study_dir)).run()
    assert result.complete
    return result, time.monotonic() - start


def feeder_series(result):
    """time -> (total_load_kw, total_hvac_kw) from the feeder recorder."""
    return {r[0]: (float(r[1]), float(r[2])) for r in result.tables["rec_feeder"].rows}


def price_series(result):
    return {r[0]: float(r[1]) for r in result.tables["rec_market"].rows}


def window(series, lo, hi):
    """Half-open [lo, hi) selection on 'HH:MM' bounds."""
    return [v for t, v in series.items() if ts(lo) <= t < ts(hi)]


@pytest.fixture(scope="session")
def baseline(study_dir):
    return run_study(study_dir)


@pytest.fixture(scope="session")
def scenario1_full(study_dir):
    atk = AttackConfig(
        "s1", "SELLER_PRICE_OVERRIDE",
        datetime(2013, 7, 1, 10), datetime(2013, 7, 1, 12),
        fraction=1.0, seed=ATTACK_SEED, params={"price": 0.63},
    )
    return run_study(study_dir, atk)


@pytest.fixture(scope="session")
def scenario1_partial(study_dir):
    atk = AttackConfig(
        "s1p", "SELLER_PRICE_OVERRIDE",
        datetime(2013, 7, 1, 10), datetime(2013, 7, 1, 12),
        fraction=0.20, seed=ATTACK_SEED, params={"price": 0.63},
    )
    return run_study(study_dir, atk)


@pytest.fixture(scope="session")
def scenario2_runs(study_dir):
    runs = {}
    for lam in (0.0, 0.1, 0.2):
        atk = AttackConfig(
            "s2", "BUYER_BID_SCALE",
            datetime(2013, 7, 1, 10), datetime(2013, 7, 1, 13),
            fraction=1.0, seed=ATTACK_SEED, params={"lambda": lam},
        )
        runs[lam] = run_study(study_dir, atk)
    return runs


@pytest.fixture(scope="session")
def direct_run(study_dir):
    return run_study(study_dir, topology="direct")


def test_1_scenario1_shape(baseline, scenario1_full):
    base, _ = baseline
    attacked, elapsed = scenario1_full
    bf, af = feeder_series(base), feeder_series(attacked)

    base_hvac = statistics.mean(v[1] for v in window(bf, "10:00", "12:00"))
    atk_hvac = statistics.mean(v[1] for v in window(af, "10:00", "12:00"))
    drop = 1.0 - atk_hvac / base_hvac
    assert drop >= 0.30

    base_max = max(v[0] for v in bf.values())
    post_peak = max(v[0] for t, v in af.items() if ts("12:00") < t <= ts("12:05"))
    ratio = post_peak / base_max
    assert ratio >= 1.25
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 scenario1-shape: PASS (hvac drop {drop:.0%}, "
          f"post-attack peak {ratio:.2f}x daily max, run {elapsed:.1f}s)")


def test_2_scenario1_partial_compromise(baseline, scenario1_partial):
    base, _ = baseline
    attacked, _ = scenario1_partial
    base_max = max(v[0] for v in feeder_series(base).values())
    post = [v[0] for t, v in feeder_series(attacked).items() if t > ts("12:00")]
    assert max(post) > base_max
    print(f"ACCEPTANCE 2 scenario1-partial: PASS (f=0.20 post-attack peak "
          f"{max(post):.0f} kW > no-attack daily max {base_max:.0f} kW)")


def test_3_scenario2_monotonic_in_lambda(baseline, scenario2_runs):
    base, _ = baseline
    bp = price_series(base)
    means = []
    for lam in (0.0, 0.1, 0.2):
        result, _ = scenario2_runs[lam]
        p = price_series(result)
        means.append(statistics.mean(window(p, "10:00", "13:00")))
        if lam == 0.0:
            worst = max(abs(p[t] - bp[t]) / bp[t] for t in bp)
            assert worst <= 0.01
    assert means[0] <= means[1] <= means[2]
    print(f"ACCEPTANCE 3 scenario2-lambda: PASS (window means "
          f"{means[0]:.4f} <= {means[1]:.4f} <= {means[2]:.4f}; lambda=0 matches baseline)")


def test_4_topology_equivalence(baseline, direct_run):
    aux, _ = baseline
    direct, _ = direct_run
    ap, dp = price_series(aux), price_series(direct)
    # skip the 24-period (2 h) warm-up
    worst = max(abs(ap[t] - dp[t]) / dp[t] for t in dp if t >= ts("02:00"))
    assert worst <= 0.01
    print(f"ACCEPTANCE 4 topology-equivalence: PASS (worst per-period diff {worst:.3%})")


def test_5_auction_oracle():
    rng = random.Random(20130701)
    start = time.monotonic()
    for _ in range(1000):
        buys = [Bid("b", "BUY", round(rng.uniform(0.01, 0.5), 4), rng.randint(1, 5), 0)
                for _ in range(rng.randint(0, 10))]
        sells = [Bid("s", "SELL", round(rng.uniform(0.01, 0.5), 4), rng.randint(1, 5), 0)
                 for _ in range(rng.randint(0, 10))]
        clearing = clear_book(buys, sells, 0.07, 0)
        price, qty = auction_oracle(buys, sells, 0.07)
        assert clearing.price == price and clearing.quantity == qty
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 5 auction-oracle: PASS (1000 books exact in {elapsed:.2f}s)")


def test_6_powerflow_oracle(baseline, scenario1_full, scenario1_partial,
                            scenario2_runs, direct_run):
    fixtures = {
        "two_bus": (
            parse_scenario(
                "object node { name s; bustype SWING; nominal_voltage 7200 V; }\n"
                "object node { name b; nominal_voltage 7200 V; }\n"
                "object overhead_line { name l; from s; to b; impedance 1+2j Ohm; }\n"
            ),
            [("b", complex(400e3, 80e3))],
        ),
        "feeder_small": (
            parse_scenario(load_fixture("feeder_small.glm")),
            [
                ("tm1", complex(1100.0, 200.0)),
                ("tm2", complex(900.0, 150.0)),
                ("tm3", complex(2400.0, 300.0)),
                ("tm4", complex(1700.0, 250.0)),
            ],
        ),
    }
    worst_v = 0.0
    for name, (model, loads) in fixtures.items():
        index = build_network_index(model)
        assert len(index.position) <= 10
        state = solve_powerflow(index, demand_list(index, loads))
        oracle = dense_powerflow_oracle(model, loads)
        for node, s in index.position.items():
            diff = abs(state.voltages[node] - oracle[node]) / index.nominal[s]
            worst_v = max(worst_v, diff)
    assert worst_v < 1e-6

    runs = [baseline, scenario1_full, scenario1_partial, direct_run] + list(scenario2_runs.values())
    worst_balance = max(r.summary["powerflow_worst_mismatch_pu"] for r, _ in runs)
    assert worst_balance < 1e-6
    print(f"ACCEPTANCE 6 powerflow-oracle: PASS (worst oracle diff {worst_v:.2e} pu, "
          f"worst step power mismatch {worst_balance:.2e} pu over {len(runs)} runs)")


def test_7_etp_analytic():
    house = HouseState("h", 70.0, 200.0, 2.0, 2000.0, 550.0, 1800.0, 4.0, 3.5)
    init_mode(house)
    for _ in range(3600):
        step_house(house, 95.0, 1.0)
    exact = analytic_temperature(70.0, 95.0, 550.0, 2000.0, 1800.0, 1.0)
    rel = abs(house.t_in - exact) / abs(exact)
    assert rel < 1e-3
    print(f"ACCEPTANCE 7 etp-analytic: PASS (1 h Euler vs closed form: {rel:.2e} relative)")


def test_8_physical_attack():
    text = load_fixture("feeder_small.glm") + (
        'attack { name phys; kind LINE_STATUS; start "2013-07-01 00:20:00"; '
        'end "2013-07-01 00:30:00"; lines UL1; status OPEN; }\n'
    )
    model = parse_scenario(text)
    index = build_network_index(model)
    islands = compute_islands(index, {"UL1": "OPEN"})
    live = {n: islands.live[s] for n, s in index.position.items()}
    assert live == reachability_oracle(model, {"UL1": "OPEN"})
    dead = deenergized_objects(model, index, islands)
    expected = {"n2", "T2", "tn2", "tm3", "tm4", "h3", "h4", "z1", "w1"}
    assert dead == expected

    engine = Engine(model)
    result = engine.run()
    tm3 = {r[0]: r for r in result.tables["rec_tm3"].rows}
    src = {r[0]: r for r in result.tables["rec_src"].rows}
    for minute in range(20, 30):
        row = tm3[f"{DAY} 00:{minute:02d}:00"]
        assert float(row[1]) == 0.0 and float(row[2]) == 0.0  # voltage, demand
        assert "DEENERGIZED" in row[4]
    # pre-fault steady state restored within 2 market periods of reclosing
    pre, post = tm3[ts("00:15")], tm3[ts("00:40")]
    assert post[1:4] == pre[1:4]
    assert src[ts("00:40")][1:] == src[ts("00:15")][1:]
    print(f"ACCEPTANCE 8 physical-attack: PASS (outage set = {len(dead)} hand-traced "
          f"objects, demand 0 during fault, steady state restored by 00:40)")


def test_9_determinism(study_dir, tmp_path):
    atk = AttackConfig(
        "s1", "SELLER_PRICE_OVERRIDE",
        datetime(2013, 7, 1, 10), datetime(2013, 7, 1, 12),
        fraction=0.20, seed=ATTACK_SEED, params={"price": 0.63},
    )
    blobs = []
    for sub in ("first", "second"):
        result, _ = run_study(study_dir, atk)
        out = tmp_path / sub
        manifest = write_results(result, str(out))
        blobs.append({name: (out / name).read_bytes() for name in manifest})
    assert blobs[0] == blobs[1]
    n_files = len(blobs[0])
    n_bytes = sum(len(b) for b in blobs[0].values())
    print(f"ACCEPTANCE 9 determinism: PASS ({n_files} output files, "
          f"{n_bytes} bytes, byte-identical across repeat runs)")
