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
writes each float as its `repr`, so it parses back bit for bit.

The tokenizer is one compiled regex applied to each line; a token is a
plain `(kind, text, line, col)` tuple.
"""

from __future__ import annotations

import cmath
import re
from datetime import datetime

from .errors import ParseError
from .kernel import OBJECT_CLASSES
from .model import (
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

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_COMPLEX_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?[+-](\d+\.?\d*|\.\d+)([eE][+-]?\d+)?[jJ]$")
_TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}$")

# (kind, text, line, col); kind is 'atom', 'string' or one of "{};,"
_Token = tuple[str, str, int, int]

# One match per token, searched within a line: a comment (group 1), a
# punctuation mark (2), a string (3, with 4 unmatched when the line ends
# before the closing quote) or an atom (5).  `\s` matches exactly the
# characters `str.isspace()` accepts.
_TOKEN_RE = re.compile(r'(//.*)|([{};,])|"([^"]*)(")?|(?=\S)([^\s{};,"/]*(?:/(?!/)[^\s{};,"/]*)*)')


def _tokenize(text: str) -> list[_Token]:
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


def _error(message: str, tok: _Token) -> ParseError:
    return ParseError(message, tok[2], tok[3])


def _timestamp(text: str, tok: _Token) -> Value:
    """A timestamp-shaped `text` as a value, or an error when no such date exists."""
    try:
        return Value("TIMESTAMP", datetime.strptime(text, TIME_FORMAT))
    except ValueError:
        raise _error(f"no such date '{text}'", tok) from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def _end_of_input(self) -> ParseError:
        return _error("unexpected end of input", self.tokens[-1])

    def _next(self) -> _Token:
        if self.pos == len(self.tokens):
            raise self._end_of_input()
        self.pos += 1
        return self.tokens[self.pos - 1]

    def _expect(self, kind: str) -> _Token:
        tok = self._next()
        if tok[0] != kind:
            raise _error(f"expected '{kind}', got '{tok[1]}'", tok)
        return tok

    def _expect_atom(self) -> _Token:
        tok = self._next()
        if tok[0] != "atom":
            raise _error(f"expected identifier, got '{tok[1]}'", tok)
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
                raise _error(f"unexpected '{kind}' in value", tokens[i])
        raise self._end_of_input()

    @staticmethod
    def _scalar(toks: list[_Token]) -> Value:
        if len(toks) == 1 and toks[0][0] == "string":
            text = toks[0][1]
            if _TIMESTAMP_RE.match(text):
                return _timestamp(text, toks[0])
            return Value("STRING", text)
        atoms = [text for kind, text, _, _ in toks if kind == "atom"]
        if len(atoms) != len(toks) or len(atoms) > 2:
            raise _error("malformed value", toks[0])
        head, unit = atoms[0], None
        if len(atoms) == 2:
            unit = atoms[1]
            stamp = f"{head} {unit}"
            if _TIMESTAMP_RE.match(stamp):
                return _timestamp(stamp, toks[0])
            if unit not in UNIT_TABLE:
                raise _error(f"unknown unit '{unit}'", toks[1])
        if _NUMBER_RE.match(head):
            value = Value("NUMBER", float(head), unit)
        elif _COMPLEX_RE.match(head):
            value = Value("COMPLEX", complex(head), unit)
        elif unit is not None:
            raise _error(f"'{head}' is not a number", toks[0])
        else:
            return Value("REF", head)
        # a literal too large for a float parses to inf, also after unit scaling
        if not cmath.isfinite(value.canonical()):
            raise _error(f"'{' '.join(atoms)}' is not a finite number", toks[0])
        return value

    def _interpret(self, toks: list[_Token], listed: bool, key: _Token) -> Value:
        """The value of `toks`, a list when `listed`; errors without a
        token of their own are placed at the property name `key`."""
        if not toks:
            raise _error("empty value", key)
        if not listed:
            return self._scalar(toks)
        items, current = [], []
        for t in toks:
            if t[0] == ",":
                if not current:
                    raise _error("empty list item", t)
                items.append(self._scalar(current))
                current = []
            else:
                current.append(t)
        if not current:
            raise _error("trailing comma in list", toks[-1])
        items.append(self._scalar(current))
        return Value("LIST", tuple(items))

    # -- block parsing ------------------------------------------------------

    def _read_props(self) -> dict[str, Value]:
        """Parse `{ key value; ... }` into a dict in source order."""
        self._expect("{")
        props: dict[str, Value] = {}
        while True:
            tok = self._next()
            if tok[0] == "}":
                return props
            if tok[0] != "atom":
                raise _error(f"expected property name, got '{tok[1]}'", tok)
            if tok[1] in props:
                raise _error(f"duplicate property '{tok[1]}'", tok)
            props[tok[1]] = self._interpret(*self._read_raw_value(), tok)

    @staticmethod
    def _want(props: dict[str, Value], key: str, tok: _Token) -> Value:
        if key not in props:
            raise _error(f"missing '{key}'", tok)
        return props[key]

    @staticmethod
    def _as_time(v: Value, tok: _Token) -> datetime:
        if v.kind != "TIMESTAMP":
            raise _error("expected timestamp 'YYYY-MM-DD HH:MM:SS'", tok)
        return v.value

    @staticmethod
    def _as_number(v: Value, tok: _Token) -> float:
        if v.kind != "NUMBER":
            raise _error("expected a number", tok)
        return float(v.canonical())

    def _parse_object(self, model: ScenarioModel) -> None:
        cls_tok = self._expect_atom()
        cls = cls_tok[1]
        if cls not in OBJECT_CLASSES:
            raise _error(f"unknown class '{cls}'", cls_tok)
        props = self._read_props()
        name_value = props.pop("name", None)
        name = str(name_value.value) if name_value is not None else None
        model.objects.append(GridObject(cls, name, props, cls_tok[2]))

    def _parse_clock(self, model: ScenarioModel, tok: _Token) -> None:
        if model.clock is not None:
            raise _error("duplicate clock block", tok)
        pmap = self._read_props()
        start = self._as_time(self._want(pmap, "start", tok), tok)
        stop = self._as_time(self._want(pmap, "stop", tok), tok)
        step = self._as_number(self._want(pmap, "timestep", tok), tok)
        if step != int(step) or int(step) <= 0:
            raise _error("timestep must be a positive whole number of seconds", tok)
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
                raise _error(f"expected property name, got '{key}'", key_tok)
            if key == "entry":
                raw, _ = self._read_raw_value()
                if len(raw) < 3:
                    raise _error("entry needs: \"time\" target property value", key_tok)
                when = self._as_time(self._scalar(raw[:1]), raw[0])
                value_toks = raw[3:]
                value = self._interpret(value_toks, any(t[0] == "," for t in value_toks), key_tok)
                entries.append(ScheduleEntry(when, raw[1][1], raw[2][1], value))
            elif key == "name":
                name = str(self._interpret(*self._read_raw_value(), key_tok).value)
            elif key == "repeat":
                v = self._interpret(*self._read_raw_value(), key_tok)
                repeat = self._as_number(v, key_tok)  # as written; validate checks it
            else:
                raise _error(f"unknown schedule field '{key}'", key_tok)
        model.schedules.append(Schedule(name, entries, repeat, tok[2]))

    def _parse_attack(self, model: ScenarioModel, tok: _Token) -> None:
        pmap = self._read_props()
        kind = str(self._want(pmap, "kind", tok).value)
        if kind not in ("SELLER_PRICE_OVERRIDE", "BUYER_BID_SCALE", "LINE_STATUS"):
            raise _error(f"unknown attack kind '{kind}'", tok)
        cfg = AttackConfig(
            name=str(pmap["name"].value) if "name" in pmap else f"attack_{len(model.attacks)}",
            kind=kind,
            start=self._as_time(self._want(pmap, "start", tok), tok),
            end=self._as_time(self._want(pmap, "end", tok), tok),
            line=tok[2],
        )
        if "fraction" in pmap:
            cfg.fraction = self._as_number(pmap["fraction"], tok)
        if "seed" in pmap:
            cfg.seed = int(self._as_number(pmap["seed"], tok))
        if kind == "SELLER_PRICE_OVERRIDE":
            cfg.price = self._as_number(self._want(pmap, "price", tok), tok)
        elif kind == "BUYER_BID_SCALE":
            cfg.lam = self._as_number(self._want(pmap, "lambda", tok), tok)
        else:
            lines_v = self._want(pmap, "lines", tok)
            items = lines_v.value if lines_v.kind == "LIST" else (lines_v,)
            cfg.lines = [str(item.value) for item in items]
            cfg.status = str(self._want(pmap, "status", tok).value)
            if cfg.status not in ("OPEN", "CLOSED"):
                raise _error(f"bad line status '{cfg.status}'", tok)
        model.attacks.append(cfg)

    def _parse_recorder(self, model: ScenarioModel, tok: _Token) -> None:
        pmap = self._read_props()
        props_v = self._want(pmap, "property", tok)
        items = props_v.value if props_v.kind == "LIST" else (props_v,)
        model.recorders.append(
            RecorderConfig(
                name=str(pmap["name"].value) if "name" in pmap else f"recorder_{len(model.recorders)}",
                target=str(self._want(pmap, "target", tok).value),
                properties=[str(item.value) for item in items],
                interval=int(self._as_number(self._want(pmap, "interval", tok), tok)),
                file=str(self._want(pmap, "file", tok).value),
                line=tok[2],
            )
        )

    def _parse_player(self, model: ScenarioModel, tok: _Token) -> None:
        pmap = self._read_props()
        model.players.append(
            PlayerConfig(
                name=str(pmap["name"].value) if "name" in pmap else f"player_{len(model.players)}",
                target=str(self._want(pmap, "target", tok).value),
                prop=str(self._want(pmap, "property", tok).value),
                file=str(self._want(pmap, "file", tok).value),
                line=tok[2],
            )
        )

    def _parse_weather(self, model: ScenarioModel, tok: _Token) -> None:
        pmap = self._read_props()
        model.weather_source = str(self._want(pmap, "file", tok).value)

    def parse(self) -> ScenarioModel:
        model = ScenarioModel()
        while self.pos < len(self.tokens):
            tok = self._next()
            kind, block = tok[:2]
            if kind != "atom":
                raise _error(f"expected a block keyword, got '{block}'", tok)
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
                raise _error(f"unknown block '{block}'", tok)
        return model


def parse_scenario(text: str) -> ScenarioModel:
    """Parse scenario text into a model, or raise ParseError with position."""
    return _Parser(text).parse()


# -- pretty printing --------------------------------------------------------


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
        return f'"{v.value.strftime(TIME_FORMAT)}"'
    if v.kind == "STRING":
        return f'"{v.value}"'
    if v.kind == "LIST":
        return ",".join(_format_value(item) for item in v.value)
    return str(v.value)


def pretty_print(model: ScenarioModel) -> str:
    """Render a model back to scenario text that reparses to an equal model."""
    out = []
    if model.clock is not None:
        out.append(
            "clock {\n"
            f'  start "{model.clock.start.strftime(TIME_FORMAT)}";\n'
            f'  stop "{model.clock.stop.strftime(TIME_FORMAT)}";\n'
            f"  timestep {model.clock.timestep} s;\n"
            "}"
        )
    if model.weather_source is not None:
        out.append(f'weather {{ file "{model.weather_source}"; }}')
    for obj in model.objects:
        lines = [f"object {obj.cls} {{"]
        if obj.name is not None:
            lines.append(f"  name {obj.name};")
        for key, value in obj.properties.items():
            lines.append(f"  {key} {_format_value(value)};")
        lines.append("}")
        out.append("\n".join(lines))
    for sched in model.schedules:
        lines = [f"schedule {{", f"  name {sched.name};"]
        for e in sched.entries:
            lines.append(
                f'  entry "{e.time.strftime(TIME_FORMAT)}" {e.target} {e.prop} {_format_value(e.value)};'
            )
        if sched.repeat is not None:
            lines.append(f"  repeat {sched.repeat} s;")
        lines.append("}")
        out.append("\n".join(lines))
    for a in model.attacks:
        lines = [
            "attack {",
            f"  name {a.name};",
            f"  kind {a.kind};",
            f'  start "{a.start.strftime(TIME_FORMAT)}";',
            f'  end "{a.end.strftime(TIME_FORMAT)}";',
            f"  fraction {a.fraction};",
            f"  seed {a.seed};",
        ]
        if a.price is not None:
            lines.append(f"  price {a.price} $/kWh;")
        if a.lam is not None:
            lines.append(f"  lambda {a.lam};")
        if a.lines:
            lines.append("  lines " + ",".join(a.lines) + ";")
        if a.status is not None:
            lines.append(f"  status {a.status};")
        lines.append("}")
        out.append("\n".join(lines))
    for r in model.recorders:
        out.append(
            "recorder {\n"
            f"  name {r.name};\n"
            f"  target {r.target};\n"
            f"  property {','.join(r.properties)};\n"
            f"  interval {r.interval} s;\n"
            f'  file "{r.file}";\n'
            "}"
        )
    for p in model.players:
        out.append(
            "player {\n"
            f"  name {p.name};\n"
            f"  target {p.target};\n"
            f"  property {p.prop};\n"
            f'  file "{p.file}";\n'
            "}"
        )
    return "\n\n".join(out) + "\n"
