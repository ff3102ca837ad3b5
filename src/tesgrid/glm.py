"""Parser for the scenario DSL, a strict subset of GLM-style syntax.

Supported top-level blocks::

    clock { start 2019-07-01 00:00:00; stop 2019-07-02 00:00:00; timestep 60 s; }
    object <class> { <prop> <value>; ... }
    schedule { name s1; entry "2019-07-01 10:00:00" h1 cooling_setpoint 78 degF; repeat 3600 s; }
    attack { kind SELLER_PRICE_OVERRIDE; start "..."; end "..."; fraction 0.2; price 0.63 $/kWh; seed 42; }
    recorder { name r1; target m1; property clearing_price,p_avg; interval 300 s; file out.csv; }
    player { name p1; target z1; property base_power; file zip.csv; }
    weather { file "weather.csv"; }

`//` starts a line comment.  Values are numbers with optional units,
complex impedances (``1+2j Ohm``), quoted strings, timestamps, bare
identifiers, or comma-separated lists.  Every failure raises
:class:`~tesgrid.errors.ParseError` with position information.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
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
_COMPLEX_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)[+-](\d+\.?\d*|\.\d+)[jJ]$")
_TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}$")

_PUNCT = "{};,"


@dataclass(frozen=True)
class _Token:
    kind: str  # 'atom' | 'string' | one of _PUNCT
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
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
        if c in _PUNCT:
            tokens.append(_Token(c, c, line, col))
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
            tokens.append(_Token("string", "".join(buf), start_line, start_col))
            continue
        # atom: run of non-space, non-punctuation characters
        start_line, start_col = line, col
        buf = []
        while i < n:
            c = text[i]
            if c.isspace() or c in _PUNCT or c == '"':
                break
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                break
            buf.append(c)
            i += 1
            col += 1
        tokens.append(_Token("atom", "".join(buf), start_line, start_col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("atom", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(f"expected '{kind}', got '{tok.text}'", tok.line, tok.col)
        return tok

    def _expect_atom(self) -> _Token:
        tok = self._next()
        if tok.kind != "atom":
            raise ParseError(f"expected identifier, got '{tok.text}'", tok.line, tok.col)
        return tok

    # -- value interpretation -----------------------------------------------

    def _read_raw_value(self) -> list[_Token]:
        """Tokens up to the terminating ';' (consumed)."""
        toks = []
        while True:
            tok = self._next()
            if tok.kind == ";":
                return toks
            if tok.kind in "{}":
                raise ParseError(f"unexpected '{tok.text}' in value", tok.line, tok.col)
            toks.append(tok)

    @staticmethod
    def _scalar(toks: list[_Token]) -> Value:
        if len(toks) == 1 and toks[0].kind == "string":
            text = toks[0].text
            if _TIMESTAMP_RE.match(text):
                return Value("TIMESTAMP", datetime.strptime(text, TIME_FORMAT))
            return Value("STRING", text)
        atoms = [t.text for t in toks if t.kind == "atom"]
        if len(atoms) != len(toks):
            raise ParseError("malformed value", toks[0].line, toks[0].col)
        if len(atoms) == 2 and _TIMESTAMP_RE.match(" ".join(atoms)):
            return Value("TIMESTAMP", datetime.strptime(" ".join(atoms), TIME_FORMAT))
        if len(atoms) in (1, 2):
            head = atoms[0]
            unit = None
            if len(atoms) == 2:
                unit = atoms[1]
                if unit not in UNIT_TABLE:
                    raise ParseError(f"unknown unit '{unit}'", toks[1].line, toks[1].col)
            if _NUMBER_RE.match(head):
                value = Value("NUMBER", float(head), unit)
            elif _COMPLEX_RE.match(head):
                value = Value("COMPLEX", complex(head), unit)
            elif unit is not None:
                raise ParseError(f"'{head}' is not a number", toks[0].line, toks[0].col)
            else:
                return Value("REF", head)
            # a literal too large for a float parses to inf, also after unit scaling
            if not cmath.isfinite(value.canonical()):
                raise ParseError(f"'{' '.join(atoms)}' is not a finite number", toks[0].line, toks[0].col)
            return value
        raise ParseError("malformed value", toks[0].line, toks[0].col)

    def _interpret(self, toks: list[_Token], line: int, col: int) -> Value:
        if not toks:
            raise ParseError("empty value", line, col)
        if any(t.kind == "," for t in toks):
            items, current = [], []
            for t in toks:
                if t.kind == ",":
                    if not current:
                        raise ParseError("empty list item", t.line, t.col)
                    items.append(self._scalar(current))
                    current = []
                else:
                    current.append(t)
            if not current:
                raise ParseError("trailing comma in list", toks[-1].line, toks[-1].col)
            items.append(self._scalar(current))
            return Value("LIST", tuple(items))
        return self._scalar(toks)

    # -- block parsing ------------------------------------------------------

    def _read_props(self, allow_repeats: frozenset[str] = frozenset()):
        """Parse `{ key value; ... }` into an ordered list of (key, Value, line)."""
        self._expect("{")
        props: list[tuple[str, Value, int]] = []
        seen: set[str] = set()
        while True:
            tok = self._next()
            if tok.kind == "}":
                return props
            if tok.kind != "atom":
                raise ParseError(f"expected property name, got '{tok.text}'", tok.line, tok.col)
            key = tok.text
            if key in seen and key not in allow_repeats:
                raise ParseError(f"duplicate property '{key}'", tok.line, tok.col)
            seen.add(key)
            value = self._interpret(self._read_raw_value(), tok.line, tok.col)
            props.append((key, value, tok.line))

    @staticmethod
    def _prop_map(props) -> dict[str, Value]:
        return {key: value for key, value, _ in props}

    def _want(self, props: dict[str, Value], key: str, line: int, col: int) -> Value:
        if key not in props:
            raise ParseError(f"missing '{key}'", line, col)
        return props[key]

    @staticmethod
    def _as_time(v: Value, line: int, col: int) -> datetime:
        if v.kind != "TIMESTAMP":
            raise ParseError("expected timestamp 'YYYY-MM-DD HH:MM:SS'", line, col)
        return v.value

    @staticmethod
    def _as_number(v: Value, line: int, col: int) -> float:
        if v.kind != "NUMBER":
            raise ParseError("expected a number", line, col)
        return float(v.canonical())

    def _parse_object(self, model: ScenarioModel) -> None:
        cls_tok = self._expect_atom()
        if cls_tok.text not in OBJECT_CLASSES:
            raise ParseError(f"unknown class '{cls_tok.text}'", cls_tok.line, cls_tok.col)
        props = self._read_props()
        pmap = self._prop_map(props)
        name_value = pmap.pop("name", None)
        name = str(name_value.value) if name_value is not None else None
        model.objects.append(GridObject(cls_tok.text, name, pmap, cls_tok.line))

    def _parse_clock(self, model: ScenarioModel, tok: _Token) -> None:
        if model.clock is not None:
            raise ParseError("duplicate clock block", tok.line, tok.col)
        pmap = self._prop_map(self._read_props())
        start = self._as_time(self._want(pmap, "start", tok.line, tok.col), tok.line, tok.col)
        stop = self._as_time(self._want(pmap, "stop", tok.line, tok.col), tok.line, tok.col)
        step_v = self._want(pmap, "timestep", tok.line, tok.col)
        step = self._as_number(step_v, tok.line, tok.col)
        if step != int(step) or int(step) <= 0:
            raise ParseError("timestep must be a positive whole number of seconds", tok.line, tok.col)
        model.clock = ClockConfig(start, stop, int(step))

    def _parse_schedule(self, model: ScenarioModel, tok: _Token) -> None:
        self._expect("{")
        name = f"schedule_{len(model.schedules)}"
        entries: list[ScheduleEntry] = []
        repeat = None
        while True:
            key_tok = self._next()
            if key_tok.kind == "}":
                break
            if key_tok.kind != "atom":
                raise ParseError(f"expected property name, got '{key_tok.text}'", key_tok.line, key_tok.col)
            if key_tok.text == "entry":
                raw = self._read_raw_value()
                if len(raw) < 3:
                    raise ParseError("entry needs: \"time\" target property value", key_tok.line, key_tok.col)
                when = self._as_time(self._scalar(raw[:1]), raw[0].line, raw[0].col)
                target = raw[1].text
                prop = raw[2].text
                value = self._interpret(raw[3:], key_tok.line, key_tok.col)
                entries.append(ScheduleEntry(when, target, prop, value))
            elif key_tok.text == "name":
                name = str(self._interpret(self._read_raw_value(), key_tok.line, key_tok.col).value)
            elif key_tok.text == "repeat":
                v = self._interpret(self._read_raw_value(), key_tok.line, key_tok.col)
                repeat = int(self._as_number(v, key_tok.line, key_tok.col))
            else:
                raise ParseError(f"unknown schedule field '{key_tok.text}'", key_tok.line, key_tok.col)
        model.schedules.append(Schedule(name, entries, repeat, tok.line))

    def _parse_attack(self, model: ScenarioModel, tok: _Token) -> None:
        pmap = self._prop_map(self._read_props())
        kind_v = self._want(pmap, "kind", tok.line, tok.col)
        kind = str(kind_v.value)
        if kind not in ("SELLER_PRICE_OVERRIDE", "BUYER_BID_SCALE", "LINE_STATUS"):
            raise ParseError(f"unknown attack kind '{kind}'", tok.line, tok.col)
        cfg = AttackConfig(
            name=str(pmap["name"].value) if "name" in pmap else f"attack_{len(model.attacks)}",
            kind=kind,
            start=self._as_time(self._want(pmap, "start", tok.line, tok.col), tok.line, tok.col),
            end=self._as_time(self._want(pmap, "end", tok.line, tok.col), tok.line, tok.col),
            line=tok.line,
        )
        if "fraction" in pmap:
            cfg.fraction = self._as_number(pmap["fraction"], tok.line, tok.col)
        if "seed" in pmap:
            cfg.seed = int(self._as_number(pmap["seed"], tok.line, tok.col))
        if kind == "SELLER_PRICE_OVERRIDE":
            cfg.price = self._as_number(self._want(pmap, "price", tok.line, tok.col), tok.line, tok.col)
        elif kind == "BUYER_BID_SCALE":
            cfg.lam = self._as_number(self._want(pmap, "lambda", tok.line, tok.col), tok.line, tok.col)
        else:
            lines_v = self._want(pmap, "lines", tok.line, tok.col)
            items = lines_v.value if lines_v.kind == "LIST" else (lines_v,)
            cfg.lines = [str(item.value) for item in items]
            cfg.status = str(self._want(pmap, "status", tok.line, tok.col).value)
            if cfg.status not in ("OPEN", "CLOSED"):
                raise ParseError(f"bad line status '{cfg.status}'", tok.line, tok.col)
        model.attacks.append(cfg)

    def _parse_recorder(self, model: ScenarioModel, tok: _Token) -> None:
        pmap = self._prop_map(self._read_props())
        props_v = self._want(pmap, "property", tok.line, tok.col)
        items = props_v.value if props_v.kind == "LIST" else (props_v,)
        model.recorders.append(
            RecorderConfig(
                name=str(pmap["name"].value) if "name" in pmap else f"recorder_{len(model.recorders)}",
                target=str(self._want(pmap, "target", tok.line, tok.col).value),
                properties=[str(item.value) for item in items],
                interval=int(self._as_number(self._want(pmap, "interval", tok.line, tok.col), tok.line, tok.col)),
                file=str(self._want(pmap, "file", tok.line, tok.col).value),
                line=tok.line,
            )
        )

    def _parse_player(self, model: ScenarioModel, tok: _Token) -> None:
        pmap = self._prop_map(self._read_props())
        model.players.append(
            PlayerConfig(
                name=str(pmap["name"].value) if "name" in pmap else f"player_{len(model.players)}",
                target=str(self._want(pmap, "target", tok.line, tok.col).value),
                prop=str(self._want(pmap, "property", tok.line, tok.col).value),
                file=str(self._want(pmap, "file", tok.line, tok.col).value),
                line=tok.line,
            )
        )

    def _parse_weather(self, model: ScenarioModel, tok: _Token) -> None:
        pmap = self._prop_map(self._read_props())
        model.weather_source = str(self._want(pmap, "file", tok.line, tok.col).value)

    def parse(self) -> ScenarioModel:
        model = ScenarioModel()
        while True:
            tok = self._peek()
            if tok is None:
                return model
            self.pos += 1
            if tok.kind != "atom":
                raise ParseError(f"expected a block keyword, got '{tok.text}'", tok.line, tok.col)
            if tok.text == "object":
                self._parse_object(model)
            elif tok.text == "clock":
                self._parse_clock(model, tok)
            elif tok.text == "schedule":
                self._parse_schedule(model, tok)
            elif tok.text == "attack":
                self._parse_attack(model, tok)
            elif tok.text == "recorder":
                self._parse_recorder(model, tok)
            elif tok.text == "player":
                self._parse_player(model, tok)
            elif tok.text == "weather":
                self._parse_weather(model, tok)
            else:
                raise ParseError(f"unknown block '{tok.text}'", tok.line, tok.col)


def parse_scenario(text: str) -> ScenarioModel:
    """Parse scenario text into a model, or raise ParseError with position."""
    return _Parser(text).parse()


# -- pretty printing --------------------------------------------------------


def _format_value(v: Value) -> str:
    if v.kind == "NUMBER":
        base = f"{v.value:g}"
        return f"{base} {v.unit}" if v.unit else base
    if v.kind == "COMPLEX":
        c = v.value
        base = f"{c.real:g}{c.imag:+g}j"
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
            f"  fraction {a.fraction:g};",
            f"  seed {a.seed};",
        ]
        if a.price is not None:
            lines.append(f"  price {a.price:g} $/kWh;")
        if a.lam is not None:
            lines.append(f"  lambda {a.lam:g};")
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
