"""Parser for the scenario DSL, a strict subset of GLM-style syntax.

Supported top-level blocks::

    clock { start 2019-07-01 00:00:00; stop 2019-07-02 00:00:00; timestep 60 s; }
    object <class> { <prop> <value>; ... }
    schedule { name s1; entry "2019-07-01 10:00:00" h1 cooling_setpoint 78 degF; repeat 3600 s; }
    attack { kind SELLER_PRICE_OVERRIDE; start "..."; end "..."; fraction 0.2; price 0.63 $/kWh; seed 42; }
    recorder { name r1; target m1; property clearing_price,p_avg; interval 300 s; file out.csv; }
    player { name p1; target z1; property base_power; file zip.csv; }
    weather { file "weather.csv"; }

Lexical rules: `//` starts a comment that runs to the end of the line;
a string is double-quoted and ends on the line it starts; an atom runs up
to whitespace, one of `{};,`, a quote or `//`; only a line feed ends a line, and
a column counts code points from 1.  Values are numbers with optional
units, complex impedances (``1+2j Ohm``, ``1e-07-2e+16j``), quoted strings,
timestamps, bare identifiers, or comma-separated lists.  Every failure raises
:class:`~tesgrid.errors.ParseError` with position information.  `pretty_print`
writes each float as its `repr`, so it parses back bit for bit, and each
name, target, property name and file as a string, which reads back exactly.
`write_block` writes every block, here and in `feedergen`.

The tokenizer is one compiled regex, `findall` once per distinct line: a
line that occurs again reuses its first copy's tokens.  A token is the
string it matched; a string keeps its quotes, so the first character
tells a token's kind and `"x"` (STRING) never equals `x` (REF).  Only an
error or an object's source line needs a position: bisect the index of each
line's first token, then rescan that line.  A block's statements are read
in one loop over the token list, one statement at a time, so errors come
in source order.  A value is interpreted once per parse; a failure is not
kept, so every error is placed at its token.  The clock, schedule,
recorder, player and weather blocks reject a field they do not have, and
their time fields a unit that is not a time.
"""

from __future__ import annotations

import cmath
import re
from bisect import bisect_right
from collections.abc import Callable, Iterable
from datetime import datetime
from itertools import islice

from .attack import ATTACK_FIELDS, ATTACKS, Param
from .errors import ParseError
from .kernel import PROPERTIES
from .model import (
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
    format_time,
    parse_time,
)

_NUMBER_RE = re.compile(r"^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$")
_COMPLEX_RE = re.compile(r"^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?[+-]([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?[jJ]$")
_TIMESTAMP_RE = re.compile(r"^[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}$")

# One match per token, searched within a line: a comment, a punctuation
# mark, a string (without its closing quote when the line ends first) or
# an atom.  `\s` matches exactly the characters `str.isspace()` accepts.
_TOKEN_RE = re.compile(r'//.*|[{};,]|"[^"]*"?|(?=\S)[^\s{};,"/]*(?:/(?!/)[^\s{};,"/]*)*')

_NOT_ATOM = '{};,"'  # the first characters of punctuation and strings
# the fields each block may have; an object's are checked by `validate`, and
# an attack's, which depend on its kind, once the block is read
_FIELDS = {
    "clock": ("start", "stop", "timestep"),
    "schedule": ("entry", "name", "repeat"),
    "recorder": ("name", "target", "property", "interval", "file"),
    "player": ("name", "target", "property", "file"),
    "weather": ("file",),
}
# the unit each unit class is printed in: the one a value is converted to
_CANONICAL_UNIT = {cls: unit for unit, (cls, factor) in UNIT_TABLE.items() if factor == 1.0}


def _text(tok: str) -> str:
    """A token's text as an error message quotes it: a string without quotes."""
    return tok[1:-1] if tok[0] == '"' else tok


def _tokenize(lines: list[str]) -> tuple[list[str], list[int]]:
    """The tokens of `lines`, and the index of the first token of each line.

    A line that occurs again reuses the token list of its first copy, so
    its tokens are the same strings; an unterminated string raises at the
    first copy, the first bad line."""
    tokens: list[str] = []
    starts: list[int] = []
    seen: dict[str, list[str]] = {}
    for line, chars in enumerate(lines, 1):
        starts.append(len(tokens))
        found = seen.get(chars)
        if found is None:
            found = _TOKEN_RE.findall(chars)
            if found:
                last = found[-1]
                if last[0] == '"' and (len(last) == 1 or last[-1] != '"'):
                    # an unterminated string runs to the end of its line
                    raise ParseError("unterminated string", line, len(chars) - len(last) + 1)
                if last[:2] == "//":
                    found.pop()  # a comment runs to the end of its line
            seen[chars] = found
        tokens += found
    return tokens, starts


def _position(lines: list[str], starts: list[int], i: int) -> tuple[int, int]:
    """The line and column of token `i`."""
    line = bisect_right(starts, i)
    match = next(islice(_TOKEN_RE.finditer(lines[line - 1]), i - starts[line - 1], None))
    return line, match.start() + 1


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.tokens, self.starts = _tokenize(self.lines)
        self.pos = 0
        self.memo: dict[tuple[str, ...], Value] = {}

    # -- token helpers ------------------------------------------------------

    def _error(self, message: str, i: int) -> ParseError:
        return ParseError(message, *_position(self.lines, self.starts, i))

    def _next(self) -> str:
        if self.pos == len(self.tokens):
            raise self._error("unexpected end of input", len(self.tokens) - 1)
        self.pos += 1
        return self.tokens[self.pos - 1]

    # -- value interpretation -----------------------------------------------

    def _timestamp(self, text: str, at: int) -> Value:
        """A timestamp-shaped `text` as a value, or an error when no such date exists."""
        try:
            return Value("TIMESTAMP", parse_time(text))
        except ValueError:
            raise self._error(f"no such date '{text}'", at) from None

    def _scalar(self, start: int, end: int) -> Value:
        head = self.tokens[start]
        if end - start == 1 and head[0] == '"':
            text = head[1:-1]
            if _TIMESTAMP_RE.match(text):
                return self._timestamp(text, start)
            return Value("STRING", text)
        unit = self.tokens[start + 1] if end - start == 2 else None
        if end - start > 2 or head[0] in _NOT_ATOM or unit is not None and unit[0] in _NOT_ATOM:
            raise self._error("malformed value", start)
        if unit is not None:
            stamp = f"{head} {unit}"
            if _TIMESTAMP_RE.match(stamp):
                return self._timestamp(stamp, start)
            if unit not in UNIT_TABLE:
                raise self._error(f"unknown unit '{unit}'", start + 1)
        if _NUMBER_RE.match(head):
            value = Value("NUMBER", float(head), unit)
        elif _COMPLEX_RE.match(head):
            value = Value("COMPLEX", complex(head), unit)
        elif unit is not None:
            raise self._error(f"'{head}' is not a number", start)
        else:
            return Value("REF", head)
        # a literal too large for a float parses to inf, also after unit scaling
        if not cmath.isfinite(value.canonical()):
            raise self._error(f"'{' '.join(self.tokens[start:end])}' is not a finite number", start)
        return value

    def _interpret(self, toks: list[str], start: int, key: int) -> Value:
        """The value of `toks`, from token `start` on, a list when one is a ',';
        an error without a token of its own is placed at the property name `key`."""
        memo_key = tuple(toks)
        value = self.memo.get(memo_key)
        if value is not None:
            return value
        end = start + len(toks)
        if not toks:
            raise self._error("empty value", key)
        if "," not in toks:
            value = self._scalar(start, end)
        else:
            items, first = [], start
            for i in range(start, end):
                if self.tokens[i] == ",":
                    if i == first:
                        raise self._error("empty list item", i)
                    items.append(self._scalar(first, i))
                    first = i + 1
            if first == end:
                raise self._error("trailing comma in list", end - 1)
            items.append(self._scalar(first, end))
            value = Value("LIST", tuple(items))
        self.memo[memo_key] = value
        return value

    # -- block parsing ------------------------------------------------------

    def _read_block(
        self, block: str, read: Callable[[str, int, list[str], int], None] | None = None
    ) -> dict[str, Value]:
        """Parse `{ key value; ... }` into a dict in source order, one statement
        at a time.  A key outside the block's `_FIELDS`, when it has them, is an
        unknown field.  With `read`, each statement goes to `read(key, at, raw,
        start)` instead: its name's index, its value's tokens and their first
        index; a key may then repeat."""
        tokens, i = self.tokens, self.pos
        n = len(tokens)
        fields = _FIELDS.get(block)
        if i == n:
            raise self._error("unexpected end of input", n - 1)
        if tokens[i] != "{":
            raise self._error(f"expected '{{', got '{_text(tokens[i])}'", i)
        props: dict[str, Value] = {}
        while True:
            i += 1
            if i == n:
                raise self._error("unexpected end of input", n - 1)
            key = tokens[i]
            if key == "}":
                self.pos = i + 1
                return props
            if key[0] in _NOT_ATOM:
                raise self._error(f"expected property name, got '{_text(key)}'", i)
            if fields is not None and key not in fields:
                raise self._error(f"unknown {block} field '{key}'", i)
            if read is None and key in props:
                raise self._error(f"duplicate property '{key}'", i)
            try:
                end = tokens.index(";", i + 1)
            except ValueError:
                end = n
            raw = tokens[i + 1:end]
            if "{" in raw or "}" in raw:
                j = next(j for j, t in enumerate(raw) if t == "{" or t == "}")
                raise self._error(f"unexpected '{raw[j]}' in value", i + 1 + j)
            if end == n:
                raise self._error("unexpected end of input", n - 1)
            if read is None:
                props[key] = self._interpret(raw, i + 1, i)
            else:
                read(key, i, raw, i + 1)
            i = end

    def _want(self, props: dict[str, Value], key: str, at: int) -> Value:
        if key not in props:
            raise self._error(f"missing '{key}'", at)
        return props[key]

    def _as_time(self, v: Value, at: int) -> datetime:
        if v.kind != "TIMESTAMP":
            raise self._error("expected timestamp 'YYYY-MM-DD HH:MM:SS'", at)
        return v.value

    def _as_number(self, key: str, unit_class: str, v: Value, at: int) -> float:
        """Field `key` as a canonical number; a unit must be of `unit_class` ("number": none)."""
        if v.kind != "NUMBER":
            raise self._error("expected a number", at)
        if v.unit is not None and UNIT_TABLE[v.unit][0] != unit_class:
            raise self._error(f"'{key}' has unit {v.unit}, expected {unit_class}", at)
        return float(v.canonical())

    def _parse_object(self, model: ScenarioModel, at: int) -> None:
        cls = self._next()
        at += 1  # the class name follows the keyword
        if cls[0] in _NOT_ATOM:
            raise self._error(f"expected identifier, got '{_text(cls)}'", at)
        if cls not in PROPERTIES:
            raise self._error(f"unknown class '{cls}'", at)
        props = self._read_block("object")
        name_value = props.pop("name", None)
        name = str(name_value.value) if name_value is not None else None
        model.objects.append(GridObject(cls, name, props, bisect_right(self.starts, at)))

    def _parse_clock(self, model: ScenarioModel, at: int) -> None:
        if model.clock is not None:
            raise self._error("duplicate clock block", at)
        pmap = self._read_block("clock")
        start = self._as_time(self._want(pmap, "start", at), at)
        stop = self._as_time(self._want(pmap, "stop", at), at)
        step = self._as_number("timestep", "TIME", self._want(pmap, "timestep", at), at)
        if step != int(step) or int(step) <= 0:
            raise self._error("timestep must be a positive whole number of seconds", at)
        model.clock = ClockConfig(start, stop, int(step))

    def _parse_schedule(self, model: ScenarioModel, at: int) -> None:
        sched = Schedule(f"schedule_{len(model.schedules)}", [])

        def statement(key: str, key_at: int, raw: list[str], start: int) -> None:
            if key == "entry":
                if len(raw) < 3:
                    raise self._error("entry needs: \"time\" target property value", key_at)
                when = self._as_time(self._scalar(start, start + 1), start)
                value = self._interpret(raw[3:], start + 3, key_at)
                sched.entries.append(ScheduleEntry(when, _text(raw[1]), _text(raw[2]), value))
            elif key == "name":
                sched.name = str(self._interpret(raw, start, key_at).value)
            else:  # repeat, kept as written; validate checks it
                sched.repeat = self._as_number(key, "TIME", self._interpret(raw, start, key_at), key_at)

        self._read_block("schedule", statement)
        model.schedules.append(sched)

    def _parse_attack(self, model: ScenarioModel, at: int) -> None:
        pmap = self._read_block("attack")
        kind = str(self._want(pmap, "kind", at).value)
        spec = ATTACKS.get(kind)
        if spec is None:
            raise self._error(f"unknown attack kind '{kind}'", at)
        for key in pmap:
            if key not in ATTACK_FIELDS and key not in spec.params:
                raise self._error(f"unknown attack field '{key}'", at)
        cfg = AttackConfig(
            name=str(pmap["name"].value) if "name" in pmap else f"attack_{len(model.attacks)}",
            kind=kind,
            start=self._as_time(self._want(pmap, "start", at), at),
            end=self._as_time(self._want(pmap, "end", at), at),
        )
        if "fraction" in pmap:
            cfg.fraction = self._as_number("fraction", "number", pmap["fraction"], at)
        if "seed" in pmap:
            seed = self._as_number("seed", "number", pmap["seed"], at)
            if seed != int(seed) or seed < 0:
                raise self._error("seed must be a nonnegative whole number", at)
            cfg.seed = int(seed)
        for key, param in spec.params.items():
            cfg.params[key] = self._attack_param(key, param, self._want(pmap, key, at), at)
        model.attacks.append(cfg)

    def _attack_param(self, key: str, param: Param, v: Value, at: int) -> object:
        """Attack field `key` as its kind reads it: line names, a line status or a canonical number."""
        if param.kind == "lines":
            return [str(item.value) for item in (v.value if v.kind == "LIST" else (v,))]
        if param.kind == "status":
            if str(v.value) not in param.bound:
                raise self._error(f"bad line status '{v.value}'", at)
            return str(v.value)
        return self._as_number(key, param.kind, v, at)

    def _parse_recorder(self, model: ScenarioModel, at: int) -> None:
        pmap = self._read_block("recorder")
        props_v = self._want(pmap, "property", at)
        items = props_v.value if props_v.kind == "LIST" else (props_v,)
        target = str(self._want(pmap, "target", at).value)  # reported before the interval
        interval = self._as_number("interval", "TIME", self._want(pmap, "interval", at), at)
        if interval != int(interval):
            raise self._error("interval must be a whole number of seconds", at)
        model.recorders.append(
            RecorderConfig(
                name=str(pmap["name"].value) if "name" in pmap else f"recorder_{len(model.recorders)}",
                target=target,
                properties=[str(item.value) for item in items],
                interval=int(interval),
                file=str(self._want(pmap, "file", at).value),
            )
        )

    def _parse_player(self, model: ScenarioModel, at: int) -> None:
        pmap = self._read_block("player")
        model.players.append(
            PlayerConfig(
                name=str(pmap["name"].value) if "name" in pmap else f"player_{len(model.players)}",
                target=str(self._want(pmap, "target", at).value),
                prop=str(self._want(pmap, "property", at).value),
                file=str(self._want(pmap, "file", at).value),
            )
        )

    def _parse_weather(self, model: ScenarioModel, at: int) -> None:
        pmap = self._read_block("weather")
        model.weather_source = str(self._want(pmap, "file", at).value)

    def parse(self) -> ScenarioModel:
        model = ScenarioModel()
        blocks = {
            "object": self._parse_object, "clock": self._parse_clock, "schedule": self._parse_schedule,
            "attack": self._parse_attack, "recorder": self._parse_recorder, "player": self._parse_player,
            "weather": self._parse_weather,
        }
        while self.pos < len(self.tokens):
            block = self._next()
            at = self.pos - 1
            if block[0] in _NOT_ATOM:
                raise self._error(f"expected a block keyword, got '{_text(block)}'", at)
            parse_block = blocks.get(block)
            if parse_block is None:
                raise self._error(f"unknown block '{block}'", at)
            parse_block(model, at)
        return model


def parse_scenario(text: str) -> ScenarioModel:
    """Parse scenario text into a model, or raise ParseError with position."""
    return _Parser(text).parse()


# -- pretty printing --------------------------------------------------------


def _quoted(text: str) -> str:
    """`text` as a string token, which reads back exactly: no parsed name,
    target, property or file holds a `"` or a line feed."""
    return f'"{text}"'


def _stamp(t: datetime) -> str:
    return _quoted(format_time(t))


def _format_value(v: Value) -> str:
    # f"{x}" is repr(x) for a float: the shortest text that reads back as x
    if v.kind == "NUMBER":
        base = f"{v.value}"
        return f"{base} {v.unit}" if v.unit else base
    if v.kind == "COMPLEX":
        c = v.value
        base = f"{c.real}{c.imag:+}j"
        return f"{base} {v.unit}" if v.unit else base
    if v.kind == "TIMESTAMP":
        return _stamp(v.value)
    if v.kind == "STRING":
        return _quoted(v.value)
    if v.kind == "LIST":
        return ",".join(_format_value(item) for item in v.value)
    return str(v.value)


def write_block(head: str, fields: Iterable[tuple[str, str]]) -> str:
    """One block as scenario text, the inverse of `_read_block`: the head
    line, one `    key value;` line per (key, value) pair, then `}`."""
    return "\n".join([f"{head} {{", *(f"    {key} {value};" for key, value in fields), "}"])


def pretty_print(model: ScenarioModel) -> str:
    """Render a model back to scenario text that reparses to an equal model,
    each object's `line` aside."""
    blocks = []
    if model.clock is not None:
        clock = model.clock
        times = [("start", _stamp(clock.start)), ("stop", _stamp(clock.stop)), ("timestep", f"{clock.timestep} s")]
        blocks.append(write_block("clock", times))
    if model.weather_source is not None:
        blocks.append(write_block("weather", [("file", _quoted(model.weather_source))]))
    for obj in model.objects:
        fields = [] if obj.name is None else [("name", _quoted(obj.name))]
        fields += [(key, _format_value(value)) for key, value in obj.properties.items()]
        blocks.append(write_block(f"object {obj.cls}", fields))
    for sched in model.schedules:
        fields = [("name", _quoted(sched.name))]
        for e in sched.entries:
            fields.append(("entry", f"{_stamp(e.time)} {_quoted(e.target)} {_quoted(e.prop)} {_format_value(e.value)}"))
        if sched.repeat is not None:
            fields.append(("repeat", f"{sched.repeat} s"))
        blocks.append(write_block("schedule", fields))
    for a in model.attacks:
        fields = [
            ("name", _quoted(a.name)), ("kind", a.kind), ("start", _stamp(a.start)), ("end", _stamp(a.end)),
            ("fraction", f"{a.fraction}"), ("seed", f"{a.seed}"),
        ]
        for key, param in ATTACKS[a.kind].params.items():
            value, unit = a.params[key], _CANONICAL_UNIT.get(param.kind)
            text = ",".join(map(_quoted, value)) if param.kind == "lines" else f"{value} {unit}" if unit else f"{value}"
            fields.append((key, text))
        blocks.append(write_block("attack", fields))
    for r in model.recorders:
        blocks.append(write_block("recorder", [
            ("name", _quoted(r.name)), ("target", _quoted(r.target)),
            ("property", ",".join(map(_quoted, r.properties))), ("interval", f"{r.interval} s"), ("file", _quoted(r.file)),
        ]))
    for p in model.players:
        blocks.append(write_block("player", [
            ("name", _quoted(p.name)), ("target", _quoted(p.target)), ("property", _quoted(p.prop)),
            ("file", _quoted(p.file)),
        ]))
    return "\n\n".join(blocks) + "\n"
