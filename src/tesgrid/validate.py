"""Semantic validation of a parsed scenario model.

All problems are report entries, never exceptions; a model is runnable iff
the report has no errors.  Entries are ordered by (location, code) so the
serialized report is stable for identical inputs.
"""

from __future__ import annotations

from datetime import timedelta

from .attack import ATTACKS, attacked_lines
from .kernel import NO_PROP, PROPERTIES, out_of_bounds
from .model import (
    LINE_STATUSES,
    UNIT_TABLE,
    Diagnostic,
    GridObject,
    ScenarioModel,
    ValidationReport,
    Value,
    format_time,
)
from .network import walk_feeder
from .recorder import RUN_FILES

NUMERIC_KINDS = frozenset({"VOLTAGE", "POWER", "TEMPERATURE", "TIME", "PRICE", "IMPEDANCE", "number"})
LONGEST_REPEAT_S = timedelta.max.days * 86400  # a run steps a repeat as a `timedelta`

# per class, the properties an object must carry, and those naming another object
REQUIRED = {cls: [p for p, spec in props.items() if spec.required] for cls, props in PROPERTIES.items()}
REFS = {cls: [p for p, spec in props.items() if spec.kind == "ref"] for cls, props in PROPERTIES.items()}


def _value_problem(cls: str, prop: str, value: Value) -> tuple[str, str] | None:
    """(code, message) when `value` cannot be property `prop` of class
    `cls`; None when it can."""
    kind = PROPERTIES[cls][prop].kind
    if kind in NUMERIC_KINDS:
        if kind == "IMPEDANCE":
            if value.kind not in ("NUMBER", "COMPLEX"):
                return "BAD_VALUE", f"property '{prop}' must be numeric"
        elif value.kind != "NUMBER":
            return "BAD_VALUE", f"property '{prop}' must be a real number"
        if value.unit is not None and (kind == "number" or UNIT_TABLE[value.unit][0] != kind):
            return "BAD_UNIT", f"property '{prop}' has unit {value.unit}, expected {kind}"
        problem = out_of_bounds(prop, PROPERTIES[cls][prop], value.canonical())
        if problem is not None:
            return "BAD_RANGE", problem
    elif prop == "status" and value.value not in LINE_STATUSES:
        return "BAD_VALUE", "property 'status' must be OPEN or CLOSED"
    return None


def _number(obj: GridObject, prop: str) -> float | None:
    """Canonical value of a real-number property, or its default when `obj`
    leaves it out; None when it is required and absent, or not a number
    (`_check_objects` reports both)."""
    v = obj.properties.get(prop)
    if v is None:
        return PROPERTIES[obj.cls][prop].default
    return v.canonical() if v.kind == "NUMBER" else None


def _seller_cap(names: dict[str, GridObject], seller: GridObject) -> float | None:
    """The price cap of the auction `seller` offers into (the market refuses
    any offer above it); None when either is malformed, as reported elsewhere."""
    market = names.get(seller.ref("market") or "")
    if market is None or market.cls != "auction":
        return None
    return _number(market, "price_cap")


def _check_objects(model: ScenarioModel, names: dict[str, GridObject], errors, warnings):
    """Each object's name, properties and references, then its class's rules."""
    clock = model.clock
    seen: set[str] = set()
    controller_of: dict[str, str] = {}  # house -> its controller: a second one would bid its load again
    for obj in model.objects:
        loc = obj.name or f"<{obj.cls}@{obj.line}>"
        if obj.name is None:
            errors.append(Diagnostic(loc, "MISSING_NAME", f"{obj.cls} object has no name"))
        elif obj.name in seen:
            errors.append(Diagnostic(obj.name, "DUPLICATE_NAME", "object name is not unique"))
        else:
            seen.add(obj.name)
        if obj.name is not None and "," in obj.name:  # a run writes it into an `audit.csv` field
            errors.append(Diagnostic(obj.name, "BAD_NAME", "object name holds ',', which splits a field"))
        props = PROPERTIES[obj.cls]
        for prop in REQUIRED[obj.cls]:
            if prop not in obj.properties:
                errors.append(Diagnostic(loc, "MISSING_PROPERTY", f"required property '{prop}' absent"))
        for prop, value in obj.properties.items():
            if props.get(prop, NO_PROP).kind is None:
                warnings.append(Diagnostic(loc, "UNKNOWN_PROP", f"property '{prop}' not known for class {obj.cls}"))
                continue
            problem = _value_problem(obj.cls, prop, value)
            if problem is not None:
                errors.append(Diagnostic(loc, *problem))
        for prop in REFS[obj.cls]:
            ref = obj.ref(prop)
            if ref is not None and ref not in names:
                errors.append(Diagnostic(loc, "DANGLING_REF", f"{prop} '{ref}' does not resolve"))
        if obj.cls == "house" and clock is not None:
            # the Euler step multiplies the gap to equilibrium by 1 - dt * ua / C:
            # above 1 the house overshoots every step, above 2 it blows up
            ua, capacitance = _number(obj, "ua"), _number(obj, "thermal_capacitance")
            if None not in (ua, capacitance) and ua > 0 and capacitance > 0:
                ratio = clock.timestep / 3600.0 * ua / capacitance
                if not ratio <= 1.0:
                    message = f"timestep (h) * ua / thermal_capacitance is {ratio:g}, above 1"
                    errors.append(Diagnostic(loc, "BAD_RANGE", message))
        elif obj.cls == "controller":
            house = names.get(obj.ref("house") or "")
            if house is not None and house.cls != "house":
                errors.append(Diagnostic(loc, "BAD_REF", "controller 'house' must reference a house"))
            elif house is not None and house.name in controller_of:
                message = f"house '{house.name}' already has controller '{controller_of[house.name]}'"
                errors.append(Diagnostic(loc, "BAD_REF", message))
            elif house is not None:
                controller_of[house.name] = loc
            market = names.get(obj.ref("market") or "")
            if market is not None and market.cls != "auction":
                errors.append(Diagnostic(loc, "BAD_REF", "controller 'market' must reference an auction"))
            t_min, t_base, t_max = _number(obj, "t_min"), _number(obj, "t_base"), _number(obj, "t_max")
            if None not in (t_min, t_base, t_max) and not (t_min < t_base < t_max):
                errors.append(Diagnostic(loc, "BAD_RANGE", "require t_min < t_base < t_max"))
            # the setpoint ramp divides by k_ramp * max(p_std, sigma_floor)
            k_ramp = _number(obj, "k_ramp")
            floor = _number(obj, "sigma_floor")
            if None not in (k_ramp, floor) and k_ramp > 0 and floor > 0 and not k_ramp * floor > 0:
                errors.append(Diagnostic(loc, "BAD_RANGE", "k_ramp * sigma_floor underflows to 0"))
        elif obj.cls == "generator_seller":
            market = names.get(obj.ref("market") or "")
            if market is not None and market.cls != "auction":
                errors.append(Diagnostic(loc, "BAD_REF", "seller 'market' must reference an auction"))
            price, cap = _number(obj, "price"), _seller_cap(names, obj)
            if None not in (price, cap) and price > cap:
                errors.append(Diagnostic(loc, "BAD_RANGE", f"price {price:g} exceeds its auction's price_cap {cap:g}"))
        elif obj.cls == "auction":
            # a round runs when the period divides the offset since start
            period = _number(obj, "period")
            if period is not None and (period <= 0 or (clock is not None and period % clock.timestep != 0)):
                errors.append(Diagnostic(loc, "BAD_PERIOD", "period must be a positive multiple of the clock timestep"))


def _check_blocks(model: ScenarioModel, names: dict[str, GridObject], topology: str, errors, warnings):
    """The clock, then each attack, schedule, recorder and player, each one
    with its target where it is read, noting each schedule entry outside the clock."""
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
    step = timedelta(seconds=clock.timestep) if clock is not None else None
    caps = [_seller_cap(names, obj) for obj in model.of_class("generator_seller")]
    lowest_cap = min([cap for cap in caps if cap is not None], default=float("inf"))
    # a run keys each attack's transform and each recorder's table by name
    for blocks, kind in ((model.attacks, "attack"), (model.recorders, "recorder")):
        seen = set()
        for block in blocks:
            if block.name in seen:
                errors.append(Diagnostic(block.name, "DUPLICATE_NAME", f"{kind} name is not unique"))
            seen.add(block.name)
    line_attacks = []  # each earlier LINE_STATUS attack with the lines it sets
    for a in model.attacks:
        for sep in ",;":  # a run splits `audit.csv` fields on ',' and `summary.txt`'s attack list on ';'
            if sep in a.name:
                errors.append(Diagnostic(a.name, "BAD_NAME", f"attack name holds '{sep}', which splits a field"))
        if a.start >= a.end:
            errors.append(Diagnostic(a.name, "EMPTY_WINDOW", "attack window is empty"))
        if clock is not None and (a.start < clock.start or a.end > clock.stop):
            errors.append(Diagnostic(a.name, "BAD_WINDOW", "attack window outside the simulated window"))
        # a run applies an event at the first step at or after it, while `audit.csv` reads its own time
        if clock is not None and any((t - clock.start) % step for t in (a.start, a.end)):
            errors.append(Diagnostic(a.name, "BAD_WINDOW", "attack window must start and end on a step"))
        if not (0.0 <= a.fraction <= 1.0):
            errors.append(Diagnostic(a.name, "BAD_FRACTION", "fraction must be within [0, 1]"))
        elif a.kind == "LINE_STATUS":
            # an attack's end writes back the configured status, so it would cut
            # short another attack on the line, or undo one that starts then
            lines = attacked_lines(a)
            for other, other_lines in line_attacks:
                shared = [line for line in lines if line in other_lines]
                if shared and a.start <= other.end and other.start <= a.end:
                    message = f"window meets attack '{other.name}' on line '{shared[0]}'"
                    errors.append(Diagnostic(a.name, "BAD_WINDOW", message))
            line_attacks.append((a, set(lines)))
        spec = ATTACKS[a.kind]
        if spec.point is not None and topology != "auxiliary":
            message = "a market attack rewrites auxiliary bids; run with the auxiliary topology"
            errors.append(Diagnostic(a.name, "BAD_TOPOLOGY", message))
        if spec.population is not None and not model.of_class(spec.population):
            errors.append(Diagnostic(a.name, "NO_TARGETS", f"scenario has no {spec.population} to compromise"))
        for key, param in spec.params.items():
            value = a.params[key]
            if param.kind == "lines":
                # a repeat would apply each window event twice, or count twice in a `fraction` draw
                for k, line_name in enumerate(value):
                    target = names.get(line_name)
                    if line_name in value[:k]:
                        errors.append(Diagnostic(a.name, "BAD_PARAM", f"line '{line_name}' is listed twice"))
                    elif target is None:
                        errors.append(Diagnostic(a.name, "DANGLING_REF", f"attacked line '{line_name}' does not resolve"))
                    elif target.cls not in param.bound:
                        message = f"'{line_name}' is a {target.cls}, not a line/switch/fuse"
                        errors.append(Diagnostic(a.name, "NOT_SWITCHABLE", message))
            elif param.kind in NUMERIC_KINDS:
                # a price replaces an offer, so it obeys the cap of the auction it enters
                problem = out_of_bounds(key, param, value)
                if problem is None and param.kind == "PRICE" and value > lowest_cap:
                    problem = f"{key} {value:g} exceeds a price_cap of {lowest_cap:g}"
                if problem is not None:
                    errors.append(Diagnostic(a.name, "BAD_PARAM", problem))
    for sched in model.schedules:
        times = [e.time for e in sched.entries]
        if times != sorted(times):
            errors.append(Diagnostic(sched.name, "BAD_SCHEDULE", "entries must be sorted by time"))
        # an event lands on a step only if its offset from the start and its repeat are whole steps
        if clock is not None and any((t - clock.start) % step for t in times):
            errors.append(Diagnostic(sched.name, "BAD_SCHEDULE", "entry time must fall on a step"))
        repeat = sched.repeat
        if repeat is not None and (repeat <= 0 or (clock is not None and repeat % clock.timestep != 0)):
            errors.append(Diagnostic(sched.name, "BAD_SCHEDULE", "repeat must be a positive multiple of timestep"))
        if repeat is not None and repeat > LONGEST_REPEAT_S:
            message = f"repeat must be at most {timedelta.max.days} days"
            errors.append(Diagnostic(sched.name, "BAD_SCHEDULE", message))
        for e in sched.entries:
            if clock is not None:
                # a run drops an entry outside the clock, but keeps the repeats of one before the start
                offset, event = e.time - clock.start, f"schedule event at {e.time} for {e.target}.{e.prop}"
                if offset < timedelta(0) and repeat is not None and 0 < repeat <= LONGEST_REPEAT_S:
                    dropped = -(offset // timedelta(seconds=repeat))
                    message = f"{event} and its repeats before {clock.start} dropped ({dropped} events)"
                    warnings.append(Diagnostic("<clock>", "OUT_OF_WINDOW", message))
                    offset %= timedelta(seconds=repeat)
                elif not clock.start <= e.time <= clock.stop:
                    warnings.append(Diagnostic("<clock>", "OUT_OF_WINDOW", f"{event} dropped"))
                # an attack's end writes back the configured status too, so it undoes
                # a status entry on its line, or the first repeat of it, applied by then
                for a, lines in line_attacks:
                    if e.prop == "status" and e.target in lines and timedelta(0) <= offset <= a.end - clock.start:
                        message = f"entry at {format_time(e.time)} on '{e.target}' is undone as attack '{a.name}' ends"
                        errors.append(Diagnostic(sched.name, "BAD_WINDOW", message))
            target = names.get(e.target)
            if target is None:
                errors.append(Diagnostic(sched.name, "DANGLING_REF", f"schedule target '{e.target}' does not resolve"))
                continue
            if PROPERTIES[target.cls].get(e.prop, NO_PROP).write is None:
                errors.append(Diagnostic(sched.name, "UNKNOWN_PROPERTY", f"'{e.prop}' is not settable on {target.cls}"))
                continue
            problem = _value_problem(target.cls, e.prop, e.value)
            if problem is not None:
                code, message = problem
                errors.append(Diagnostic(sched.name, code, f"{e.target}: {message}"))
    # names compare case-folded: on a case-insensitive filesystem (the macOS and
    # Windows defaults) `A.csv` and `a.csv` are one file, and the later write wins
    run_files = {name.casefold() for name in RUN_FILES}
    writers: dict[str, str] = {}  # case-folded output file -> the recorder writing it
    for r in model.recorders:
        key = r.file.casefold()
        # a separator also covers every absolute path
        if r.file in ("", ".", "..") or "/" in r.file or "\\" in r.file:
            errors.append(Diagnostic(r.name, "BAD_FILE", f"file '{r.file}' is not a bare file name"))
        elif key in run_files:
            errors.append(Diagnostic(r.name, "BAD_FILE", f"file '{r.file}' is written by the run itself"))
        elif key in writers:
            errors.append(Diagnostic(r.name, "BAD_FILE", f"file '{r.file}' is already written by {writers[key]}"))
        else:
            writers[key] = r.name
        if r.interval <= 0 or (clock is not None and r.interval % clock.timestep != 0):
            errors.append(Diagnostic(r.name, "BAD_INTERVAL", "interval must be a positive multiple of timestep"))
        target = names.get(r.target)
        if target is None:
            errors.append(Diagnostic(r.name, "DANGLING_REF", f"recorder target '{r.target}' does not resolve"))
            continue
        for prop in r.properties:
            if PROPERTIES[target.cls].get(prop, NO_PROP).read is None:
                errors.append(Diagnostic(r.name, "UNKNOWN_PROPERTY", f"'{prop}' is not recordable on {target.cls}"))
    for p in model.players:
        target = names.get(p.target)
        if target is None:
            errors.append(Diagnostic(p.name, "DANGLING_REF", f"player target '{p.target}' does not resolve"))
            continue
        spec = PROPERTIES[target.cls].get(p.prop, NO_PROP)
        if spec.write is None:
            errors.append(Diagnostic(p.name, "UNKNOWN_PROPERTY", f"'{p.prop}' is not settable on {target.cls}"))
        elif spec.kind not in NUMERIC_KINDS:
            message = f"players yield numbers; '{p.prop}' is not numeric on {target.cls}"
            errors.append(Diagnostic(p.name, "BAD_VALUE", message))


def validate(model: ScenarioModel, topology: str = "auxiliary") -> ValidationReport:
    """Check every model invariant for a run under `topology`; returns a
    deterministic report."""
    errors: list[Diagnostic] = []
    warnings: list[Diagnostic] = []
    names = model.by_name()
    _check_objects(model, names, errors, warnings)
    errors.extend(Diagnostic(*problem) for problem in walk_feeder(model, names).problems)
    _check_blocks(model, names, topology, errors, warnings)
    key = lambda d: (d.location, d.code, d.message)
    return ValidationReport(sorted(set(errors), key=key), sorted(set(warnings), key=key))
