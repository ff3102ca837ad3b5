"""Semantic validation of a parsed scenario model.

All problems are report entries, never exceptions; a model is runnable iff
the report has no errors.  Entries are ordered by (location, code) so the
serialized report is stable for identical inputs.
"""

from __future__ import annotations

from .model import (
    CLASS_SCHEMA,
    EDGE_CLASSES,
    LINE_CLASSES,
    NODE_CLASSES,
    UNIT_TABLE,
    Diagnostic,
    GridObject,
    ScenarioModel,
    ValidationReport,
    Value,
)

# Recorder-visible properties per class (checked at configuration time).
RECORDABLE = {
    "auction": {
        "clearing_price",
        "cleared_quantity",
        "bid_count_buy",
        "bid_count_sell",
        "p_avg",
        "p_std",
    },
    "house": {"air_temperature", "cooling_setpoint", "hvac_load_kw", "hvac_mode"},
    "meter": {"voltage_mag", "voltage_ang", "measured_power_kw", "energized"},
    "triplex_meter": {"voltage_mag", "voltage_ang", "measured_power_kw", "energized"},
    "triplex_node": {"voltage_mag", "voltage_ang", "energized"},
    "node": {
        "voltage_mag",
        "voltage_ang",
        "energized",
        "total_load_kw",
        "total_hvac_kw",
        "losses_kw",
        "source_power_kw",
    },
    "zipload": {"power_kw"},
    "waterheater": {"power_kw"},
    "solar": {"power_kw"},
    "underground_line": {"status", "current_mag"},
    "overhead_line": {"status", "current_mag"},
    "switch": {"status", "current_mag"},
    "fuse": {"status", "current_mag"},
    "transformer": {"current_mag"},
}

# Writable properties per class, for events/players.
SETTABLE = {
    "house": {"cooling_setpoint", "air_temperature", "deadband", "internal_gains"},
    "zipload": {"base_power"},
    "waterheater": {"base_power"},
    "solar": {"rating"},
    "underground_line": {"status"},
    "overhead_line": {"status"},
    "switch": {"status"},
    "fuse": {"status"},
}

NUMERIC_KINDS = frozenset({"VOLTAGE", "POWER", "TEMPERATURE", "TIME", "PRICE", "IMPEDANCE", "number"})
LINE_STATUSES = ("OPEN", "CLOSED")


def _value_problem(prop: str, kind: str, value: Value) -> tuple[str, str] | None:
    """(code, message) when `value` cannot be property `prop` of schema
    kind `kind`; None when it can."""
    if kind in NUMERIC_KINDS:
        if kind == "IMPEDANCE":
            if value.kind not in ("NUMBER", "COMPLEX"):
                return "BAD_VALUE", f"property '{prop}' must be numeric"
        elif value.kind != "NUMBER":
            return "BAD_VALUE", f"property '{prop}' must be a real number"
        if value.unit is not None and (kind == "number" or UNIT_TABLE[value.unit][0] != kind):
            return "BAD_UNIT", f"property '{prop}' has unit {value.unit}, expected {kind}"
    elif prop == "status" and value.value not in LINE_STATUSES:
        return "BAD_VALUE", "property 'status' must be OPEN or CLOSED"
    return None


def _number(obj: GridObject, prop: str) -> float | None:
    """Canonical value of a real-number property; None when it is absent
    or not a number (`_check_objects` reports the latter)."""
    v = obj.properties.get(prop)
    return v.canonical() if v is not None and v.kind == "NUMBER" else None


def _check_objects(model: ScenarioModel, errors, warnings):
    seen: dict[str, GridObject] = {}
    for obj in model.objects:
        loc = obj.name or f"<{obj.cls}@{obj.line}>"
        if obj.name is None:
            errors.append(Diagnostic(loc, "MISSING_NAME", f"{obj.cls} object has no name"))
        elif obj.name in seen:
            errors.append(Diagnostic(obj.name, "DUPLICATE_NAME", "object name is not unique"))
        else:
            seen[obj.name] = obj
        schema = CLASS_SCHEMA.get(obj.cls, {})
        for prop, (kind, required) in schema.items():
            if required and prop not in obj.properties:
                errors.append(Diagnostic(loc, "MISSING_PROPERTY", f"required property '{prop}' absent"))
        for prop, value in obj.properties.items():
            spec = schema.get(prop)
            if spec is None:
                warnings.append(Diagnostic(loc, "UNKNOWN_PROP", f"property '{prop}' not known for class {obj.cls}"))
                continue
            problem = _value_problem(prop, spec[0], value)
            if problem is not None:
                errors.append(Diagnostic(loc, *problem))


def _check_refs(model: ScenarioModel, errors):
    names = model.by_name()

    def need(loc, ref, role):
        if ref not in names:
            errors.append(Diagnostic(loc, "DANGLING_REF", f"{role} '{ref}' does not resolve"))

    from .model import REF_PROPS

    for obj in model.objects:
        loc = obj.name or f"<{obj.cls}@{obj.line}>"
        for prop in REF_PROPS.get(obj.cls, ()):
            ref = obj.ref(prop)
            if ref is not None:
                need(loc, ref, prop)
    for sched in model.schedules:
        for e in sched.entries:
            need(sched.name, e.target, "schedule target")
    for a in model.attacks:
        for line_name in a.lines:
            need(a.name, line_name, "attacked line")
    for r in model.recorders:
        need(r.name, r.target, "recorder target")
    for p in model.players:
        need(p.name, p.target, "player target")


def _check_network(model: ScenarioModel, errors):
    names = model.by_name()
    node_names = [o.name for o in model.objects if o.cls in NODE_CLASSES and o.name]
    if not node_names:
        return
    sources = [
        o.name
        for o in model.of_class("node")
        if o.name and str(o.properties.get("bustype").value if "bustype" in o.properties else "") == "SWING"
    ]
    if not sources:
        errors.append(Diagnostic("<network>", "NO_SOURCE", "no node with bustype SWING"))
    elif len(sources) > 1:
        errors.append(Diagnostic("<network>", "MULTI_SOURCE", f"{len(sources)} SWING nodes: {sorted(sources)}"))

    # undirected adjacency over node-likes: explicit edges plus parent links
    adjacency: dict[str, list[tuple[str, str]]] = {n: [] for n in node_names}
    edge_count = 0
    for obj in model.objects:
        if obj.name is None:
            continue
        if obj.cls in EDGE_CLASSES:
            a, b = obj.ref("from"), obj.ref("to")
            if a in adjacency and b in adjacency:
                if a == b:
                    errors.append(Diagnostic(obj.name, "NOT_RADIAL", "self-loop edge"))
                    continue
                adjacency[a].append((b, obj.name))
                adjacency[b].append((a, obj.name))
                edge_count += 1
            else:
                for endpoint in (a, b):
                    if endpoint in names and endpoint not in adjacency:
                        errors.append(
                            Diagnostic(obj.name, "BAD_ENDPOINT", f"'{endpoint}' is not an electrical node")
                        )
        elif obj.cls in NODE_CLASSES:
            parent = obj.ref("parent")
            if parent is not None and parent in adjacency and obj.name in adjacency:
                adjacency[obj.name].append((parent, f"parent:{obj.name}"))
                adjacency[parent].append((obj.name, f"parent:{obj.name}"))
                edge_count += 1
    if len(sources) != 1:
        return
    # BFS from the source; a radial tree visits every node exactly once.
    root = sources[0]
    visited = {root}
    frontier = [root]
    via: dict[str, str] = {}
    cycle = False
    while frontier:
        nxt = []
        for node in frontier:
            for other, edge in adjacency[node]:
                if edge == via.get(node):
                    continue
                if other in visited:
                    cycle = True
                    continue
                visited.add(other)
                via[other] = edge
                nxt.append(other)
        frontier = nxt
    if cycle or edge_count >= len(node_names):
        errors.append(Diagnostic("<network>", "NOT_RADIAL", "electrical network contains a cycle"))
    unreached = sorted(set(node_names) - visited)
    if unreached:
        errors.append(
            Diagnostic("<network>", "NOT_RADIAL", f"nodes not connected to the source: {unreached}")
        )


def _check_attachments(model: ScenarioModel, errors):
    names = model.by_name()
    for obj in model.objects:
        loc = obj.name or f"<{obj.cls}@{obj.line}>"
        if obj.cls == "house":
            parent = names.get(obj.ref("parent") or "")
            if parent is not None and parent.cls not in NODE_CLASSES:
                errors.append(Diagnostic(loc, "BAD_PARENT", "house parent must be a meter or node"))
        elif obj.cls in ("zipload", "waterheater"):
            parent = names.get(obj.ref("parent") or "")
            if parent is not None and parent.cls not in {"house"} | NODE_CLASSES:
                errors.append(Diagnostic(loc, "BAD_PARENT", f"{obj.cls} parent must be a house or node"))
        elif obj.cls == "controller":
            house = names.get(obj.ref("house") or "")
            if house is not None and house.cls != "house":
                errors.append(Diagnostic(loc, "BAD_REF", "controller 'house' must reference a house"))
            market = names.get(obj.ref("market") or "")
            if market is not None and market.cls != "auction":
                errors.append(Diagnostic(loc, "BAD_REF", "controller 'market' must reference an auction"))
            t_min, t_base, t_max = _number(obj, "t_min"), _number(obj, "t_base"), _number(obj, "t_max")
            if None not in (t_min, t_base, t_max) and not (t_min < t_base < t_max):
                errors.append(Diagnostic(loc, "BAD_RANGE", "require t_min < t_base < t_max"))
            k = _number(obj, "k_ramp")
            if k is not None and k <= 0:
                errors.append(Diagnostic(loc, "BAD_RANGE", "k_ramp must be positive"))
        elif obj.cls == "generator_seller":
            market = names.get(obj.ref("market") or "")
            if market is not None and market.cls != "auction":
                errors.append(Diagnostic(loc, "BAD_REF", "seller 'market' must reference an auction"))
            capacity = _number(obj, "capacity")
            if capacity is not None and capacity < 0:
                errors.append(Diagnostic(loc, "BAD_RANGE", "capacity must be nonnegative"))
        elif obj.cls == "solar":
            rating = _number(obj, "rating")
            if rating is not None and rating < 0:
                errors.append(Diagnostic(loc, "BAD_RANGE", "rating must be nonnegative"))
        elif obj.cls == "auction":
            cap = _number(obj, "price_cap")
            if cap is not None and cap <= 0:
                errors.append(Diagnostic(loc, "BAD_RANGE", "price_cap must be positive"))
            # a round runs when the period divides the offset since start
            period, clock = _number(obj, "period"), model.clock
            if period is not None and (period <= 0 or (clock is not None and period % clock.timestep != 0)):
                errors.append(
                    Diagnostic(loc, "BAD_PERIOD", "period must be a positive multiple of the clock timestep")
                )
    for obj in model.of_class("house"):
        loc = obj.name or f"<house@{obj.line}>"
        for prop in ("thermal_capacitance", "ua", "deadband"):
            v = _number(obj, prop)
            if v is not None and v <= 0:
                errors.append(Diagnostic(loc, "BAD_RANGE", f"{prop} must be positive"))
        rating = _number(obj, "hvac_rating")
        if rating is not None and rating < 0:
            errors.append(Diagnostic(loc, "BAD_RANGE", "hvac_rating must be nonnegative"))


def _check_blocks(model: ScenarioModel, errors):
    clock = model.clock
    if clock is None:
        errors.append(Diagnostic("<clock>", "NO_CLOCK", "scenario has no clock block"))
    else:
        if clock.start >= clock.stop:
            errors.append(Diagnostic("<clock>", "BAD_CLOCK", "start must precede stop"))
        else:
            span = int((clock.stop - clock.start).total_seconds())
            if span % clock.timestep != 0:
                errors.append(Diagnostic("<clock>", "BAD_CLOCK", "timestep must divide the simulated window"))
    names = model.by_name()
    for sched in model.schedules:
        times = [e.time for e in sched.entries]
        if times != sorted(times):
            errors.append(Diagnostic(sched.name, "BAD_SCHEDULE", "entries must be sorted by time"))
        if sched.repeat is not None and sched.repeat <= 0:
            errors.append(Diagnostic(sched.name, "BAD_SCHEDULE", "repeat period must be positive"))
        for e in sched.entries:
            target = names.get(e.target)
            if target is None:
                continue
            if e.prop not in SETTABLE.get(target.cls, set()):
                errors.append(
                    Diagnostic(sched.name, "UNKNOWN_PROPERTY", f"'{e.prop}' is not settable on {target.cls}")
                )
                continue
            problem = _value_problem(e.prop, CLASS_SCHEMA[target.cls][e.prop][0], e.value)
            if problem is not None:
                code, message = problem
                errors.append(Diagnostic(sched.name, code, f"{e.target}: {message}"))
    for a in model.attacks:
        if a.start >= a.end:
            errors.append(Diagnostic(a.name, "EMPTY_WINDOW", "attack window is empty"))
        if clock is not None and (a.start < clock.start or a.end > clock.stop):
            errors.append(Diagnostic(a.name, "BAD_WINDOW", "attack window outside the simulated window"))
        if not (0.0 <= a.fraction <= 1.0):
            errors.append(Diagnostic(a.name, "BAD_FRACTION", "fraction must be within [0, 1]"))
        if a.lam is not None and a.lam < 0:
            errors.append(Diagnostic(a.name, "BAD_PARAM", "lambda must be nonnegative"))
        for line_name in a.lines:
            target = names.get(line_name)
            if target is not None and target.cls not in LINE_CLASSES:
                errors.append(
                    Diagnostic(a.name, "NOT_SWITCHABLE", f"'{line_name}' is a {target.cls}, not a line/switch/fuse")
                )
    for r in model.recorders:
        if r.interval <= 0 or (clock is not None and r.interval % clock.timestep != 0):
            errors.append(Diagnostic(r.name, "BAD_INTERVAL", "interval must be a positive multiple of timestep"))
        target = names.get(r.target)
        if target is not None:
            allowed = RECORDABLE.get(target.cls, set())
            for prop in r.properties:
                if prop not in allowed:
                    errors.append(
                        Diagnostic(r.name, "UNKNOWN_PROPERTY", f"'{prop}' is not recordable on {target.cls}")
                    )
    for p in model.players:
        target = names.get(p.target)
        if target is None:
            continue
        if p.prop not in SETTABLE.get(target.cls, set()):
            errors.append(Diagnostic(p.name, "UNKNOWN_PROPERTY", f"'{p.prop}' is not settable on {target.cls}"))
        elif CLASS_SCHEMA[target.cls][p.prop][0] not in NUMERIC_KINDS:
            errors.append(
                Diagnostic(p.name, "BAD_VALUE", f"players yield numbers; '{p.prop}' is not numeric on {target.cls}")
            )


def validate(model: ScenarioModel) -> ValidationReport:
    """Check every model invariant; returns a deterministic report."""
    errors: list[Diagnostic] = []
    warnings: list[Diagnostic] = []
    _check_objects(model, errors, warnings)
    _check_refs(model, errors)
    _check_network(model, errors)
    _check_attachments(model, errors)
    _check_blocks(model, errors)
    key = lambda d: (d.location, d.code, d.message)
    return ValidationReport(sorted(set(errors), key=key), sorted(set(warnings), key=key))
