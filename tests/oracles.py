"""Independent oracles used by the unit and acceptance tests.

Each is implemented from first principles with a different method than
the code under test: dense nodal admittance solve vs. sweep power flow,
unit-expansion greedy matching vs. merge-walk auction clearing, the
closed-form exponential vs. Euler integration, and undirected DFS vs.
path-product islanding, a character-at-a-time scanner vs. the per-line
regex tokenizer.  `demand_list` is no oracle: it turns
(node, power_va) pairs into the solver's per-supernode input; nor is
`deenergized_objects`, the outage set the tests read off the islands.

Two are earlier versions kept as bit-for-bit references for rewrites
that must not change a float: `sweep_reference`, the sweep that tracks
the worst voltage step on every pass, and `clear_book_reference`, the
clearing walk over bid attributes with `min`.
"""

import math
from operator import itemgetter

import numpy as np

from tesgrid.errors import ParseError, SolverDivergence
from tesgrid.market import Clearing
from tesgrid.network import compute_islands
from tesgrid.powerflow import _INTERNAL_TOLERANCE_PU, MAX_ITERATIONS, NetworkState


def demand_list(index, loads):
    """The solver's input for (node, power_va) pairs: one VA entry per
    supernode of `index.tree`, pairs on one supernode added in the order
    given."""
    demand = [0j] * len(index.tree.names)
    for node, power_va in loads:
        demand[index.tree.position[node]] += power_va
    return demand


def deenergized_objects(index, islands):
    """Model objects whose every electrical attachment is de-energized.

    Edge objects count when both endpoints are dead; an OPEN boundary edge
    with a live parent therefore does not count.
    """
    live, position = islands.live, index.tree.position
    dead = set()
    for node, s in position.items():
        if not live[s]:
            dead.add(node)
            dead.update(index.attachments[node])
    for edge in index.edges_by_name.values():
        if edge.cls != "parent" and not live[position[edge.parent]] and not live[position[edge.child]]:
            dead.add(edge.name)
    return dead


def dense_powerflow_oracle(index, loads, tol=1e-12, iters=200):
    """Direct nodal solve of (node, power_va) pairs: merge zero-impedance
    parent links into supernodes, stamp lines and ideal-ratio transformers
    into Y, and fixed-point iterate the constant-power injections with a
    dense linear solve each round."""
    rep = {n: n for n in index.order}

    def find(n):
        while rep[n] != n:
            rep[n] = rep[rep[n]]
            n = rep[n]
        return n

    for edge in index.edges_by_name.values():
        if edge.cls == "parent":
            rep[find(edge.child)] = find(edge.parent)
    groups = sorted({find(n) for n in index.order}, key=index.order.index)
    gi = {g: i for i, g in enumerate(groups)}
    src = gi[find(index.source)]

    n = len(groups)
    Y = np.zeros((n, n), dtype=complex)
    for edge in index.edges_by_name.values():
        if edge.cls == "parent":
            continue
        p, c = gi[find(edge.parent)], gi[find(edge.child)]
        y = 1.0 / edge.impedance
        r = edge.ratio
        Y[c, c] += y
        Y[c, p] -= y / r
        Y[p, p] += y / (r * r)
        Y[p, c] -= y / r

    demand = np.zeros(n, dtype=complex)
    for node, power_va in loads:
        demand[gi[find(node)]] += power_va

    v = np.array([complex(index.nominal_volts[g]) for g in groups])
    v[src] = complex(index.nominal_volts[index.source])
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
    return {node: v[gi[find(node)]] for node in index.order}


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


def reachability_oracle(index, statuses):
    """Undirected DFS over CLOSED edges from the source."""
    adjacency = {n: [] for n in index.order}
    for edge in index.edges_by_name.values():
        if statuses.get(edge.name, "CLOSED") == "CLOSED":
            adjacency[edge.parent].append(edge.child)
            adjacency[edge.child].append(edge.parent)
    seen = set()
    stack = [index.source]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency[node])
    return {n: n in seen for n in index.order}


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
    step and its node."""
    if islands is None:
        islands = compute_islands(index, {})
    live, rows = islands
    names, nominal = index.tree.names, index.tree.nominal
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
