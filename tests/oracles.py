"""Independent oracles used by the unit and acceptance tests.

Each is implemented from first principles with a different method than
the code under test: dense nodal admittance solve vs. sweep power flow,
unit-expansion greedy matching vs. merge-walk auction clearing, the
closed-form exponential vs. Euler integration, and undirected DFS vs.
path-product islanding, a character-at-a-time scanner vs. the per-line
regex tokenizer.  `demand_list` is no oracle: it turns
(node, power_va) pairs into the solver's per-supernode input; nor is
`deenergized_objects`, the outage set the tests read off the islands.
The feeder oracles and `deenergized_objects` take the model and read its
edges from the feeder walk (each edge object's impedance and ratio), not
from the network index under test.

Four are earlier versions kept as references for rewrites that must
not change a result: `sweep_reference`, the sweep that tracks the worst
voltage step on every pass, `clear_book_reference`, the clearing walk
over bid attributes with `min`, and `step_house_reference`, one house's
step as its own call, each bit for bit; and `parse_oracle`, the parser
whose tokens were `(kind, text, line, col)` tuples and which interpreted
every value where it appeared, for an equal model or the same error at
the same place.

`reference_round` is one auction's market round as a plain loop, from
the controller and attack formulas, over books of its own that take the
scenario's offers afresh each round.  It reads the run only through what
it is given: the houses, the round's unresponsive kW, the topology and
the attack transforms, not the engine.
"""

import cmath
import math
import re
from datetime import datetime
from operator import itemgetter

import numpy as np

from tesgrid.errors import ParseError, SolverDivergence
from tesgrid.kernel import PROPERTIES
from tesgrid.loads import BTU_PER_KWH
from tesgrid.market import (
    DEFAULT_INIT_PRICE,
    DEFAULT_PRICE_CAP,
    DEFAULT_SIGMA_FLOOR,
    UNRESPONSIVE_TRADER,
    Bid,
    Clearing,
    Controller,
    Market,
)
from tesgrid.model import (
    TIME_FORMAT,
    UNIT_TABLE,
    AttackConfig,
    ClockConfig,
    GridObject,
    PlayerConfig,
    RecorderConfig,
    Schedule,
    ScheduleEntry,
    ScenarioModel,
    Value,
)
from tesgrid.network import DEFAULT_NOMINAL_VOLTS, compute_islands, walk_feeder
from tesgrid.powerflow import _INTERNAL_TOLERANCE_PU, MAX_ITERATIONS, NetworkState


def demand_list(index, loads):
    """The solver's input for (node, power_va) pairs: one VA entry per
    supernode of `index`, pairs on one supernode added in the order
    given."""
    demand = [0j] * len(index.names)
    for node, power_va in loads:
        demand[index.position[node]] += power_va
    return demand


def _walk(model):
    """The feeder walk of `model`, and its edges as (name, upstream node,
    downstream node, edge object), the object None on a `parent:` link."""
    feeder = walk_feeder(model, model.by_name())
    return feeder, [(link, up, node, obj) for node, (link, up, obj) in feeder.feed.items()]


def _ratio(obj):
    """An edge object's turns ratio; 1.0 for a line or a `parent:` link (None)."""
    return float(obj.get("ratio", 1.0)) if obj is not None and obj.cls == "transformer" else 1.0


def deenergized_objects(model, index, islands):
    """Model objects whose every electrical attachment is de-energized,
    read off `islands` of `index`.

    Edge objects count when both endpoints are dead; an OPEN boundary edge
    with a live parent therefore does not count.
    """
    feeder, edges = _walk(model)
    dead = {node for node, s in index.position.items() if not islands.live[s]}
    dead.update(load for load, node in feeder.attach_node.items() if node in dead)
    for link, up, node, obj in edges:
        if obj is not None and up in dead and node in dead:
            dead.add(link)
    return dead


def dense_powerflow_oracle(model, loads, tol=1e-12, iters=200):
    """Direct nodal solve of (node, power_va) pairs: merge zero-impedance
    parent links into supernodes, stamp lines and ideal-ratio transformers
    into Y, and fixed-point iterate the constant-power injections with a
    dense linear solve each round."""
    feeder, edges = _walk(model)
    source, order = feeder.source, feeder.order
    rep = {n: n for n in order}

    def find(n):
        while rep[n] != n:
            rep[n] = rep[rep[n]]
            n = rep[n]
        return n

    for _, up, node, obj in edges:
        if obj is None:
            rep[find(node)] = find(up)
    groups = sorted({find(n) for n in order}, key=order.index)
    gi = {g: i for i, g in enumerate(groups)}
    src = gi[find(source)]

    # each node's nominal voltage: its own, or its upstream node's over the ratio
    names, feed = model.by_name(), {node: (up, obj) for _, up, node, obj in edges}
    nominal = {}
    for node in order:
        explicit = names[node].get("nominal_voltage")
        if explicit is not None:
            nominal[node] = float(explicit)
        elif node == source:
            nominal[node] = DEFAULT_NOMINAL_VOLTS
        else:
            up, obj = feed[node]
            nominal[node] = nominal[up] / _ratio(obj)

    n = len(groups)
    Y = np.zeros((n, n), dtype=complex)
    for _, up, node, obj in edges:
        if obj is None:
            continue
        p, c = gi[find(up)], gi[find(node)]
        y = 1.0 / complex(obj.get("impedance", 0j))
        r = _ratio(obj)
        Y[c, c] += y
        Y[c, p] -= y / r
        Y[p, p] += y / (r * r)
        Y[p, c] -= y / r

    demand = np.zeros(n, dtype=complex)
    for node, power_va in loads:
        demand[gi[find(node)]] += power_va

    v = np.array([complex(nominal[g]) for g in groups])
    v[src] = complex(nominal[source])
    others = [i for i in range(n) if i != src]
    A = Y[np.ix_(others, others)]
    B = Y[np.ix_(others, [src])]
    for _ in range(iters):
        rhs = -np.conj(demand[others] / v[others]) - (B @ v[[src]]).ravel()
        new = np.linalg.solve(A, rhs)
        delta = np.max(np.abs(new - v[others]), initial=0.0)  # no others: all merged
        v[others] = new
        if delta < tol:
            break
    return {node: v[gi[find(node)]] for node in order}


def auction_oracle(buys, sells, prior_price):
    """Unit-expansion clearing: explode integer-quantity bids into unit
    lots, sort, and greedily pair highest buys with cheapest sells.

    Returns (price, quantity).  Requires integer quantities.
    """
    unit_buys = []
    for bid in buys:
        q = int(bid.quantity)
        assert q == bid.quantity, "oracle needs integer quantities"
        unit_buys.extend([bid.price] * q)
    unit_sells = []
    for bid in sells:
        q = int(bid.quantity)
        assert q == bid.quantity
        unit_sells.extend([bid.price] * q)
    unit_buys.sort(reverse=True)
    unit_sells.sort()
    quantity = 0
    marginal = None
    for b, s in zip(unit_buys, unit_sells):
        if b >= s:
            quantity += 1
            marginal = (b, s)
        else:
            break
    if quantity == 0:
        return prior_price, 0.0
    return (marginal[0] + marginal[1]) / 2.0, float(quantity)


def analytic_temperature(t0, t_out, ua, c, gains, hours):
    """Closed form for dT/dt = (UA (T_out - T) + Q) / C with HVAC off."""
    t_eq = t_out + gains / ua
    return t_eq + (t0 - t_eq) * math.exp(-ua * hours / c)


def step_house_reference(house, t_out, dt_seconds, powered=True):
    """`step_house` as it was when the kernel stepped each house with its
    own call: Euler update, then thermostat; returns the house's kW."""
    if not powered:
        house.mode = "OFF"
    cooling = house.hvac_kw * house.cop * BTU_PER_KWH if house.mode == "COOL" else 0.0  # extraction, Btu/h
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


def reachability_oracle(model, statuses):
    """Undirected DFS over CLOSED edges from the source."""
    feeder, edges = _walk(model)
    adjacency = {n: [] for n in feeder.order}
    for link, up, node, _ in edges:
        if statuses.get(link, "CLOSED") == "CLOSED":
            adjacency[up].append(node)
            adjacency[node].append(up)
    seen = set()
    stack = [feeder.source]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency[node])
    return {n: n in seen for n in feeder.order}


def tokenize_oracle(text):
    """Scenario tokens as (kind, text, line, col), scanned one character at
    a time: `\\n` ends a line, any other `str.isspace()` character is a
    column of blank, `//` comments out the rest of the line, a string ends
    at the next quote on its line, and an atom runs to whitespace, one of
    `{};,`, a quote or `//`."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in "{};,":
            tokens.append((c, c, line, col))
            i += 1
            col += 1
            continue
        if c == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise ParseError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            tokens.append(("string", "".join(buf), start_line, start_col))
            continue
        start_line, start_col = line, col
        buf = []
        while i < n:
            c = text[i]
            if c.isspace() or c in "{};," or c == '"':
                break
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                break
            buf.append(c)
            i += 1
            col += 1
        tokens.append(("atom", "".join(buf), start_line, start_col))
    return tokens


def sweep_reference(
    index, demand, islands=None, tolerance_pu=_INTERNAL_TOLERANCE_PU, max_iterations=MAX_ITERATIONS, start=None
):
    """`solve_powerflow` as it was when every forward pass found the worst
    step and its node, with its rule for a state that is not finite
    checked node by node."""
    if islands is None:
        islands = compute_islands(index, {})
    live, rows = islands
    names, nominal = index.names, index.nominal
    n = len(names)
    if start is None:
        v = [complex(nominal[s]) if live[s] else 0j for s in range(n)]
    elif start.islands is islands:
        v = start.v.copy()
    else:
        before, was_live = start.v, start.islands.live
        v = [
            (before[s] if was_live[s] else complex(nominal[s])) if live[s] else 0j
            for s in range(n)
        ]
    cur = [0j] * n

    worst, worst_at = float("inf"), 0
    for iteration in range(1, max_iterations + 1):
        into = [0j] * n
        for s, p, r, _, _ in reversed(rows):
            d, vs = demand[s], v[s]
            total = into[s] + (d / vs).conjugate() if d and vs else into[s]
            cur[s] = total
            into[p] += total / r
        worst = 0.0
        for s, p, r, z, nom in rows:
            new_v = v[p] / r - z * cur[s]
            step = abs(new_v - v[s]) / nom
            if step > worst:
                worst, worst_at = step, s
            v[s] = new_v
        if worst < tolerance_pu:
            break
    else:
        raise SolverDivergence(
            f"power flow did not converge in {max_iterations} iterations "
            f"(worst at {names[worst_at]})",
            worst,
            names[worst_at],
        )

    source_current = into[0] + ((demand[0] / v[0]).conjugate() if demand[0] else 0j)
    source_power = v[0] * source_current.conjugate()
    # a state that is not finite diverges at its first such supernode (the source for its power)
    finite = [cmath.isfinite(v[s]) and cmath.isfinite(cur[s]) for s in range(n)]
    if not all(finite) or not cmath.isfinite(source_power):
        at = names[finite.index(False) if not all(finite) else 0]
        raise SolverDivergence(
            f"power flow reached a voltage or current that is not finite (at {at})", float("nan"), at
        )
    losses = 0j
    for s, _, _, z, _ in rows:
        losses += z * (abs(cur[s]) ** 2)
    return NetworkState(
        index=index,
        v=v,
        cur=cur,
        islands=islands,
        iterations=iteration,
        source_power_va=source_power,
        load_power_va=sum([d for d, on in zip(demand, live) if on], 0j),
        loss_power_va=losses,
    )


def clear_book_reference(buys, sells, prior_price, period):
    """`clear_book` as it was when the walk read bid attributes and took
    `min` of the remaining quantities."""
    b = sorted(buys, key=itemgetter(2), reverse=True)
    s = sorted(sells, key=itemgetter(2))
    i = j = 0
    remaining_b = b[0].quantity if b else 0.0
    remaining_s = s[0].quantity if s else 0.0
    quantity = 0.0
    marginal_buy = marginal_sell = None
    while i < len(b) and j < len(s) and b[i].price >= s[j].price:
        take = min(remaining_b, remaining_s)
        quantity += take
        marginal_buy, marginal_sell = b[i].price, s[j].price
        remaining_b -= take
        remaining_s -= take
        if remaining_b <= 0.0:
            i += 1
            remaining_b = b[i].quantity if i < len(b) else 0.0
        if remaining_s <= 0.0:
            j += 1
            remaining_s = s[j].quantity if j < len(s) else 0.0
    if quantity <= 0.0:
        return Clearing(prior_price, 0.0, None, None, period)
    return Clearing((marginal_buy + marginal_sell) / 2.0, quantity, marginal_buy, marginal_sell, period)


# -- the market round as a plain loop -----------------------------------------


def ramp_bid(ctl, house, market):
    if house.t_in <= ctl.t_min:
        return None
    sigma = max(market.p_std, ctl.sigma_floor)
    price = market.p_avg + (house.t_in - ctl.t_base) * ctl.k_ramp * sigma / (ctl.t_max - ctl.t_base)
    price = min(max(price, 0.0), market.price_cap)
    return Bid(ctl.name, "BUY", price, house.hvac_kw, market.current_period)


def recenter(ctl, house, market, clearing):
    sigma = max(market.p_std, ctl.sigma_floor)
    t_set = ctl.t_base + (clearing.price - market.p_avg) * (ctl.t_max - ctl.t_base) / (ctl.k_ramp * sigma)
    house.t_set = min(max(t_set, ctl.t_min), ctl.t_max)


def transformed(transforms, bid, kind, market_price, price_cap):
    """`bid` as each active `kind` transform of `transforms` that has its
    trader compromised rewrites it, from the attack's formula."""
    for tr in transforms:
        if tr.kind == kind and tr.active and bid.trader in tr.compromised:
            if kind == "SELLER_PRICE_OVERRIDE":
                price = tr.params["price"]
            else:
                price = min(bid.price + tr.params["lambda"] * market_price, price_cap)
            bid = Bid(bid.trader, bid.side, price, bid.quantity, bid.period)
    return bid


def number(obj, prop, default=None):
    value = obj.properties.get(prop)
    return default if value is None else float(value.canonical())


def own_books(model, name, offers, topology):
    """Auction `name` of `model`: its main market and, under the auxiliary
    topology, its mirror, as books that hold no offer between rounds.  Each warms up from
    the mean of `offers` summed left to right, and 10% of it; the mirror
    numbers each period as the main period its bids are forwarded into."""
    obj = next(obj for obj in model.objects if obj.name == name)
    cap, init = number(obj, "price_cap", DEFAULT_PRICE_CAP), number(obj, "init_price", DEFAULT_INIT_PRICE)
    total = 0.0
    for offer in offers:
        total += offer.price
    seed = total / len(offers) if offers else init
    books = [Market(name, number(obj, "period"), cap, init)]
    if topology == "auxiliary":
        books.append(Market(f"{name}_aux", number(obj, "period"), cap, init, first_period=1))
    for book in books:
        book.p_avg, book.p_std = seed, 0.1 * seed
    return books


def reference_round(model, state, name, houses, unresp_kw, topology, transforms):
    """One round of auction `name`'s market and, under the auxiliary
    `topology`, its mirror, with the sellers and controllers of `model`
    whose `market` names it, in books of the reference's own.  `houses` maps
    a house's name to its state, `unresp_kw` is the round's unresponsive
    load and `transforms` the run's attack transforms, read as they stand;
    `state` maps an auction to its books and each of its controllers to its
    last auxiliary bid.  The books take every seller's offer afresh each
    round through `replace_offers`, so no clear walks from a remembered
    state."""
    traders = [obj for obj in model.objects if obj.ref("market") == name]
    ctls = [
        Controller(obj.name, obj.ref("house"), name, number(obj, "t_min"), number(obj, "t_base"),
                   number(obj, "t_max"), number(obj, "k_ramp"), number(obj, "sigma_floor", DEFAULT_SIGMA_FLOOR))
        for obj in traders if obj.cls == "controller"
    ]
    offers = [
        Bid(obj.name, "SELL", number(obj, "price"), number(obj, "capacity"), 0)
        for obj in traders if obj.cls == "generator_seller"
    ]
    if name not in state:
        state[name] = own_books(model, name, offers, topology), {}
    books, held = state[name]
    market = books[0]
    market.replace_offers(offers)
    if topology == "direct":
        for ctl in ctls:
            bid = ramp_bid(ctl, houses[ctl.house], market)
            if bid is not None:
                market.submit(bid)
        if unresp_kw > 0:
            market.submit(Bid(UNRESPONSIVE_TRADER, "BUY", market.price_cap, unresp_kw, market.current_period))
        clearing = market.clear()
        for ctl in ctls:
            recenter(ctl, houses[ctl.house], market, clearing)
        return

    aux = books[1]
    aux.replace_offers([
        transformed(transforms, offer, "SELLER_PRICE_OVERRIDE", market.last_clearing.price, aux.price_cap)
        for offer in offers
    ])
    for ctl in ctls:
        last = held.get(ctl.name)
        if last is not None:
            forwarded = Bid(last.trader, last.side, last.price, last.quantity, market.current_period)
            market.submit(
                transformed(transforms, forwarded, "BUYER_BID_SCALE", market.last_clearing.price, market.price_cap)
            )
    for ctl in ctls:
        bid = ramp_bid(ctl, houses[ctl.house], aux)
        if bid is not None:
            aux.submit(bid)
        held[ctl.name] = bid
    if unresp_kw > 0:
        market.submit(Bid(UNRESPONSIVE_TRADER, "BUY", market.price_cap, unresp_kw, market.current_period))
        aux.submit(Bid(UNRESPONSIVE_TRADER, "BUY", aux.price_cap, unresp_kw, aux.current_period))
    market.clear()
    clearing = aux.clear()
    for ctl in ctls:
        recenter(ctl, houses[ctl.house], aux, clearing)


# -- the parser with tuple tokens ---------------------------------------------

_NUMBER_RE = re.compile(r"^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$")
_COMPLEX_RE = re.compile(r"^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?[+-]([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?[jJ]$")
_TIMESTAMP_RE = re.compile(r"^[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}$")

# (kind, text, line, col); kind is 'atom', 'string' or one of "{};,"
_Token = tuple[str, str, int, int]

# One match per token, searched within a line: a comment (group 1), a
# punctuation mark (2), a string (3, with 4 unmatched when the line ends
# before the closing quote) or an atom (5).  `\s` matches exactly the
# characters `str.isspace()` accepts.
_TOKEN_RE = re.compile(r'(//.*)|([{};,])|"([^"]*)(")?|(?=\S)([^\s{};,"/]*(?:/(?!/)[^\s{};,"/]*)*)')


def _tokenize_tuples(text: str) -> list[_Token]:
    tokens = []
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _TOKEN_RE.finditer(chars):
            group = m.lastindex
            if group == 5:
                tokens.append(("atom", m[5], line, m.start() + 1))
            elif group == 2:
                tokens.append((m[2], m[2], line, m.start() + 1))
            elif group == 4:
                tokens.append(("string", m[3], line, m.start() + 1))
            elif group == 3:
                raise ParseError("unterminated string", line, m.start() + 1)
    return tokens


def _oracle_error(message: str, tok: _Token) -> ParseError:
    return ParseError(message, tok[2], tok[3])


def _oracle_timestamp(text: str, tok: _Token) -> Value:
    """A timestamp-shaped `text` as a value, or an error when no such date exists."""
    try:
        return Value("TIMESTAMP", datetime.strptime(text, TIME_FORMAT))
    except ValueError:
        raise _oracle_error(f"no such date '{text}'", tok) from None


class _TupleParser:
    def __init__(self, text: str):
        self.tokens = _tokenize_tuples(text)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def _end_of_input(self) -> ParseError:
        return _oracle_error("unexpected end of input", self.tokens[-1])

    def _next(self) -> _Token:
        if self.pos == len(self.tokens):
            raise self._end_of_input()
        self.pos += 1
        return self.tokens[self.pos - 1]

    def _expect(self, kind: str) -> _Token:
        tok = self._next()
        if tok[0] != kind:
            raise _oracle_error(f"expected '{kind}', got '{tok[1]}'", tok)
        return tok

    def _expect_atom(self) -> _Token:
        tok = self._next()
        if tok[0] != "atom":
            raise _oracle_error(f"expected identifier, got '{tok[1]}'", tok)
        return tok

    # -- value interpretation -----------------------------------------------

    def _read_raw_value(self) -> tuple[list[_Token], bool]:
        """Tokens up to the terminating ';' (consumed), and whether one of
        them is a ','."""
        tokens, start, listed = self.tokens, self.pos, False
        for i in range(start, len(tokens)):
            kind = tokens[i][0]
            if kind == ";":
                self.pos = i + 1
                return tokens[start:i], listed
            if kind == ",":
                listed = True
            elif kind == "{" or kind == "}":
                raise _oracle_error(f"unexpected '{kind}' in value", tokens[i])
        raise self._end_of_input()

    @staticmethod
    def _scalar(toks: list[_Token]) -> Value:
        if len(toks) == 1 and toks[0][0] == "string":
            text = toks[0][1]
            if _TIMESTAMP_RE.match(text):
                return _oracle_timestamp(text, toks[0])
            return Value("STRING", text)
        atoms = [text for kind, text, _, _ in toks if kind == "atom"]
        if len(atoms) != len(toks) or len(atoms) > 2:
            raise _oracle_error("malformed value", toks[0])
        head, unit = atoms[0], None
        if len(atoms) == 2:
            unit = atoms[1]
            stamp = f"{head} {unit}"
            if _TIMESTAMP_RE.match(stamp):
                return _oracle_timestamp(stamp, toks[0])
            if unit not in UNIT_TABLE:
                raise _oracle_error(f"unknown unit '{unit}'", toks[1])
        if _NUMBER_RE.match(head):
            value = Value("NUMBER", float(head), unit)
        elif _COMPLEX_RE.match(head):
            value = Value("COMPLEX", complex(head), unit)
        elif unit is not None:
            raise _oracle_error(f"'{head}' is not a number", toks[0])
        else:
            return Value("REF", head)
        # a literal too large for a float parses to inf, also after unit scaling
        if not cmath.isfinite(value.canonical()):
            raise _oracle_error(f"'{' '.join(atoms)}' is not a finite number", toks[0])
        return value

    def _interpret(self, toks: list[_Token], listed: bool, key: _Token) -> Value:
        """The value of `toks`, a list when `listed`; errors without a
        token of their own are placed at the property name `key`."""
        if not toks:
            raise _oracle_error("empty value", key)
        if not listed:
            return self._scalar(toks)
        items, current = [], []
        for t in toks:
            if t[0] == ",":
                if not current:
                    raise _oracle_error("empty list item", t)
                items.append(self._scalar(current))
                current = []
            else:
                current.append(t)
        if not current:
            raise _oracle_error("trailing comma in list", toks[-1])
        items.append(self._scalar(current))
        return Value("LIST", tuple(items))

    # -- block parsing ------------------------------------------------------

    def _read_props(self, block: str = "object", fields: tuple[str, ...] | None = None):
        """Parse `{ key value; ... }` into a dict in source order, and a dict
        of each key's name token and its value's first token; a key outside
        `fields`, when given, is an unknown `block` field."""
        self._expect("{")
        props: dict[str, Value] = {}
        where: dict[str, tuple[_Token, _Token]] = {}
        while True:
            tok = self._next()
            if tok[0] == "}":
                return props, where
            if tok[0] != "atom":
                raise _oracle_error(f"expected property name, got '{tok[1]}'", tok)
            if fields is not None and tok[1] not in fields:
                raise _oracle_error(f"unknown {block} field '{tok[1]}'", tok)
            if tok[1] in props:
                raise _oracle_error(f"duplicate property '{tok[1]}'", tok)
            raw, listed = self._read_raw_value()
            props[tok[1]] = self._interpret(raw, listed, tok)
            where[tok[1]] = tok, raw[0]

    @staticmethod
    def _want(props: dict[str, Value], key: str, tok: _Token) -> Value:
        if key not in props:
            raise _oracle_error(f"missing '{key}'", tok)
        return props[key]

    @staticmethod
    def _as_time(v: Value, tok: _Token) -> datetime:
        if v.kind != "TIMESTAMP":
            raise _oracle_error("expected timestamp 'YYYY-MM-DD HH:MM:SS'", tok)
        return v.value

    @staticmethod
    def _as_number(key: str, unit_class: str, v: Value, tok: _Token) -> float:
        """Field `key` as a number; a unit must be of `unit_class` ("number": none)."""
        if v.kind != "NUMBER":
            raise _oracle_error("expected a number", tok)
        if v.unit is not None and UNIT_TABLE[v.unit][0] != unit_class:
            raise _oracle_error(f"'{key}' has unit {v.unit}, expected {unit_class}", tok)
        return float(v.canonical())

    def _parse_object(self, model: ScenarioModel) -> None:
        cls_tok = self._expect_atom()
        cls = cls_tok[1]
        if cls not in PROPERTIES:
            raise _oracle_error(f"unknown class '{cls}'", cls_tok)
        props, _ = self._read_props()
        name_value = props.pop("name", None)
        name = str(name_value.value) if name_value is not None else None
        model.objects.append(GridObject(cls, name, props, cls_tok[2]))

    def _parse_clock(self, model: ScenarioModel, tok: _Token) -> None:
        if model.clock is not None:
            raise _oracle_error("duplicate clock block", tok)
        pmap, where = self._read_props("clock", ("start", "stop", "timestep"))
        start = self._as_time(self._want(pmap, "start", tok), where["start"][1])
        stop = self._as_time(self._want(pmap, "stop", tok), where["stop"][1])
        step = self._as_number("timestep", "TIME", self._want(pmap, "timestep", tok), where["timestep"][1])
        if step != int(step) or int(step) <= 0:
            raise _oracle_error("timestep must be a positive whole number of seconds", where["timestep"][1])
        model.clock = ClockConfig(start, stop, int(step))

    def _parse_schedule(self, model: ScenarioModel, tok: _Token) -> None:
        self._expect("{")
        name = f"schedule_{len(model.schedules)}"
        entries: list[ScheduleEntry] = []
        repeat = None
        while True:
            key_tok = self._next()
            kind, key = key_tok[:2]
            if kind == "}":
                break
            if kind != "atom":
                raise _oracle_error(f"expected property name, got '{key}'", key_tok)
            if key == "entry":
                raw, _ = self._read_raw_value()
                if len(raw) < 3:
                    raise _oracle_error("entry needs: \"time\" target property value", key_tok)
                when = self._as_time(self._scalar(raw[:1]), raw[0])
                value_toks = raw[3:]
                value = self._interpret(value_toks, any(t[0] == "," for t in value_toks), key_tok)
                entries.append(ScheduleEntry(when, raw[1][1], raw[2][1], value))
            elif key == "name":
                name = str(self._interpret(*self._read_raw_value(), key_tok).value)
            elif key == "repeat":
                raw, listed = self._read_raw_value()
                v = self._interpret(raw, listed, key_tok)
                repeat = self._as_number("repeat", "TIME", v, raw[0])  # as written; validate checks it
            else:
                raise _oracle_error(f"unknown schedule field '{key}'", key_tok)
        model.schedules.append(Schedule(name, entries, repeat))

    def _parse_attack(self, model: ScenarioModel, tok: _Token) -> None:
        pmap, where = self._read_props()
        kind = str(self._want(pmap, "kind", tok).value)
        kind_fields = {
            "SELLER_PRICE_OVERRIDE": ("price",), "BUYER_BID_SCALE": ("lambda",), "LINE_STATUS": ("lines", "status"),
        }
        if kind not in kind_fields:
            raise _oracle_error(f"unknown attack kind '{kind}'", where["kind"][1])
        for key in pmap:
            if key not in ("name", "kind", "start", "end", "fraction", "seed") + kind_fields[kind]:
                raise _oracle_error(f"unknown attack field '{key}'", where[key][0])
        cfg = AttackConfig(
            name=str(pmap["name"].value) if "name" in pmap else f"attack_{len(model.attacks)}",
            kind=kind,
            start=self._as_time(self._want(pmap, "start", tok), where["start"][1]),
            end=self._as_time(self._want(pmap, "end", tok), where["end"][1]),
        )
        if "fraction" in pmap:
            cfg.fraction = self._as_number("fraction", "number", pmap["fraction"], where["fraction"][1])
        if "seed" in pmap:
            seed = self._as_number("seed", "number", pmap["seed"], where["seed"][1])
            if seed != int(seed) or seed < 0:
                raise _oracle_error("seed must be a nonnegative whole number", where["seed"][1])
            cfg.seed = int(seed)
        if kind == "SELLER_PRICE_OVERRIDE":
            price = self._want(pmap, "price", tok)
            cfg.params["price"] = self._as_number("price", "PRICE", price, where["price"][1])
        elif kind == "BUYER_BID_SCALE":
            scale = self._want(pmap, "lambda", tok)
            cfg.params["lambda"] = self._as_number("lambda", "number", scale, where["lambda"][1])
        else:
            lines_v = self._want(pmap, "lines", tok)
            items = lines_v.value if lines_v.kind == "LIST" else (lines_v,)
            cfg.params["lines"] = [str(item.value) for item in items]
            status = str(self._want(pmap, "status", tok).value)
            if status not in ("OPEN", "CLOSED"):
                raise _oracle_error(f"bad line status '{status}'", where["status"][1])
            cfg.params["status"] = status
        model.attacks.append(cfg)

    def _parse_recorder(self, model: ScenarioModel, tok: _Token) -> None:
        pmap, where = self._read_props("recorder", ("name", "target", "property", "interval", "file"))
        props_v = self._want(pmap, "property", tok)
        items = props_v.value if props_v.kind == "LIST" else (props_v,)
        target = str(self._want(pmap, "target", tok).value)  # reported before the interval
        interval = self._as_number("interval", "TIME", self._want(pmap, "interval", tok), where["interval"][1])
        if interval != int(interval):
            raise _oracle_error("interval must be a whole number of seconds", where["interval"][1])
        model.recorders.append(
            RecorderConfig(
                name=str(pmap["name"].value) if "name" in pmap else f"recorder_{len(model.recorders)}",
                target=target,
                properties=[str(item.value) for item in items],
                interval=int(interval),
                file=str(self._want(pmap, "file", tok).value),
            )
        )

    def _parse_player(self, model: ScenarioModel, tok: _Token) -> None:
        pmap, _ = self._read_props("player", ("name", "target", "property", "file"))
        model.players.append(
            PlayerConfig(
                name=str(pmap["name"].value) if "name" in pmap else f"player_{len(model.players)}",
                target=str(self._want(pmap, "target", tok).value),
                prop=str(self._want(pmap, "property", tok).value),
                file=str(self._want(pmap, "file", tok).value),
            )
        )

    def _parse_weather(self, model: ScenarioModel, tok: _Token) -> None:
        pmap, _ = self._read_props("weather", ("file",))
        model.weather_source = str(self._want(pmap, "file", tok).value)

    def parse(self) -> ScenarioModel:
        model = ScenarioModel()
        while self.pos < len(self.tokens):
            tok = self._next()
            kind, block = tok[:2]
            if kind != "atom":
                raise _oracle_error(f"expected a block keyword, got '{block}'", tok)
            if block == "object":
                self._parse_object(model)
            elif block == "clock":
                self._parse_clock(model, tok)
            elif block == "schedule":
                self._parse_schedule(model, tok)
            elif block == "attack":
                self._parse_attack(model, tok)
            elif block == "recorder":
                self._parse_recorder(model, tok)
            elif block == "player":
                self._parse_player(model, tok)
            elif block == "weather":
                self._parse_weather(model, tok)
            else:
                raise _oracle_error(f"unknown block '{block}'", tok)
        return model


def parse_oracle(text):
    """`parse_scenario` as it was when every token was a `(kind, text,
    line, col)` tuple and every value was interpreted where it appeared.
    A block's error about a field it has is placed at the field's value,
    or at its name for an unknown attack field, as the parser places it."""
    return _TupleParser(text).parse()
