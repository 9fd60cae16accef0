"""Shared helpers: canonical JSON output, UTC timestamps and the dataclass codec."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import secrets
import types
import typing
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable


def canonical_dumps(obj: Any) -> str:
    """Serialize with sorted keys and fixed indentation.

    Equal values always produce identical bytes, so file-level equality
    can stand in for structural equality in determinism checks. The text is
    that of `json.dumps(encode(obj), sort_keys=True, indent=2,
    ensure_ascii=False) + "\n"`, rendered straight from the dataclasses.
    """
    parts: list[str] = []
    _render_to(obj, parts.append)
    return "".join(parts)


def dump(obj: Any, path: str | Path) -> None:
    """Write canonical_dumps(obj) to `path` whole.

    The text goes to a temp file in the same directory as it is rendered,
    so it is never held whole, and the temp file then replaces `path`. A
    failure part way leaves any old file as it was and no temp file behind.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{secrets.token_hex(4)}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            _render_to(obj, handle.write)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# json.dumps builds a new encoder on every call that passes options.
_COMPACT = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def compact_dumps(obj: Any) -> str:
    """One-line JSON with no whitespace; key order is the dict's insertion order."""
    return _COMPACT.encode(obj)


def format_ts(dt: datetime) -> str:
    """Render a timezone-aware datetime as ISO-8601 UTC with a Z suffix."""
    if dt.tzinfo is None:
        raise ValueError("naive datetime; timestamps must be timezone-aware")
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def parse_ts(text: str) -> datetime:
    """Parse an ISO-8601 timestamp, accepting a Z suffix."""
    return datetime.fromisoformat(text.replace("Z", "+00:00")).astimezone(timezone.utc)


def utcnow() -> datetime:
    return datetime.now(timezone.utc)


# --- dataclass codec -----------------------------------------------------------
#
# encode() turns a dataclass instance into JSON-ready data and decode() turns
# such data back into an instance; every file format of the package goes
# through them. The wire form is the field list, in field order:
#
# - datetime <-> format_ts/parse_ts text; tuple <-> list, recursively;
#   nested dataclasses <-> objects; dict values are converted, keys kept;
# - `X | None` passes None through; a missing key takes the field's default
#   (a missing required key raises KeyError); unknown keys are ignored;
# - field metadata "key" renames a field on the wire, and "omit_none" leaves
#   the field out while it is None (see optional_field).
#
# A class whose wire form is not its field list defines `_wire_out(self,
# data)`, which gets the field-list dict and returns what is written, and/or
# a static `_wire_in(data)`, which rewrites the raw dict before decoding.
#
# A frozen dataclass whose fields are all numbers or tuples of numbers (such
# as CellFormat) is a value type: decode() returns one shared instance per
# distinct raw value, and the renderer writes its text once per indent level.

Converter = Callable[[Any], Any]


def optional_field() -> Any:
    """A field that defaults to None and is left out of the encoding while None."""
    return dataclasses.field(default=None, metadata={"omit_none": True})


def encode(obj: Any) -> Any:
    """The JSON-ready form of a dataclass instance."""
    return _plan(type(obj)).encode(obj)


def decode(cls: type, data: Any) -> Any:
    """Build an instance of dataclass `cls` from its JSON-ready form."""
    return _plan(cls).decode(data)


_DECODER = json.JSONDecoder()
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # what json skips between tokens


def decode_array(cls: type, text: str) -> list:
    """Decode a JSON array of `cls` objects; a lone object gives a list of one.

    Items are parsed and decoded one at a time, so the raw form of only one
    item is held at once. Malformed text raises the json.JSONDecodeError
    that json.loads would, with the same message and position.
    """
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    plan = _plan(cls)
    pos = _WHITESPACE.match(text).end()
    if not text.startswith("[", pos):
        data, pos = _DECODER.raw_decode(text, pos)
        out = [plan.decode(data)]
    else:
        out = []
        pos = _WHITESPACE.match(text, pos + 1).end()
        if text.startswith("]", pos):
            pos += 1
        else:
            while True:
                data, pos = _DECODER.raw_decode(text, pos)
                out.append(plan.decode(data))
                del data  # before the next item is parsed
                pos = _WHITESPACE.match(text, pos).end()
                if text.startswith("]", pos):
                    pos += 1
                    break
                if not text.startswith(",", pos):
                    raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
                pos = _WHITESPACE.match(text, pos + 1).end()
    end = _WHITESPACE.match(text, pos).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return out


class _Plan:
    """Per-class field list with its converters, built once per class."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        hints = typing.get_type_hints(cls)
        self.encoders = []  # (attribute, wire key, encoder, omit while None)
        self.decoders = []  # (attribute, wire key, decoder, required)
        for f in dataclasses.fields(cls):
            key = f.metadata.get("key", f.name)
            enc, dec = _converters(hints[f.name])
            required = (
                f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            )
            self.encoders.append((f.name, key, enc, f.metadata.get("omit_none", False)))
            self.decoders.append((f.name, key, dec, required))
        self.wire_out = getattr(cls, "_wire_out", None)
        self.wire_in = getattr(cls, "_wire_in", None)
        # (attribute, '"key": ', omit while None) in wire-key order, for the renderer.
        self.rendered = [
            (name, _escape(key) + ": ", omit_none)
            for name, key, _, omit_none in sorted(self.encoders, key=lambda item: item[1])
        ]
        is_value_type = (
            cls.__dataclass_params__.frozen
            and self.wire_out is None
            and self.wire_in is None
            and all(_is_numeric(hints[f.name]) for f in dataclasses.fields(cls))
        )
        # Value types only: instances by repr(raw data), which tells JSON
        # values apart exactly (1, 1.0 and true are equal but print apart).
        self.interned: dict[str, Any] | None = {} if is_value_type else None

    def encode(self, obj: Any) -> Any:
        out = {}
        for name, key, enc, omit_none in self.encoders:
            value = getattr(obj, name)
            if value is None:
                if omit_none:
                    continue
            elif enc is not None:
                value = enc(value)
            out[key] = value
        return out if self.wire_out is None else self.wire_out(obj, out)

    def decode(self, data: Any) -> Any:
        if not isinstance(data, dict):
            raise ValueError(
                f"{self.cls.__name__}: expected a JSON object, got {type(data).__name__}"
            )
        interned = self.interned
        if interned is not None:
            raw = repr(data)
            obj = interned.get(raw)
            if obj is not None:
                return obj
        elif self.wire_in is not None:
            data = self.wire_in(data)
        kwargs = {}
        for name, key, dec, required in self.decoders:
            if key in data:
                value = data[key]
                kwargs[name] = value if dec is None or value is None else dec(value)
            elif required:
                raise KeyError(f"{self.cls.__name__}.{key}")
        obj = self.cls(**kwargs)
        if interned is not None:
            interned[raw] = obj
        return obj

    def render(self, obj: Any, nl: str, out: _Out) -> None:
        if self.wire_out is not None:
            _render(self.encode(obj), nl, out)
        elif self.interned is None:
            self._render_fields(obj, nl, out)
        else:
            key = (id(obj), nl)  # every object rendered lives until the render ends
            text = out.memo.get(key)
            if text is None:
                parts: list[str] = []
                piece = _Out(parts.append)
                self._render_fields(obj, nl, piece)
                piece.spill()
                text = out.memo[key] = "".join(parts)
            out.append(text)

    def _render_fields(self, obj: Any, nl: str, out: _Out) -> None:
        inner = nl + "  "
        opener = "{" + inner
        for name, key, omit_none in self.rendered:
            value = getattr(obj, name)
            if value is None and omit_none:
                continue
            out.append(opener + key)
            opener = "," + inner
            _render(value, inner, out)
        out.append(nl + "}" if opener[0] == "," else "{}")


_PLANS: dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _Plan(cls)
    return plan


def _is_numeric(tp: Any) -> bool:
    """Whether values of type `tp` are numbers, or tuples of numbers."""
    if tp in (int, float):
        return True
    args = [a for a in typing.get_args(tp) if a is not Ellipsis]
    return typing.get_origin(tp) is tuple and bool(args) and all(a in (int, float) for a in args)


def _converters(tp: Any) -> tuple[Converter | None, Converter | None]:
    """(encoder, decoder) for values of type `tp`; None means pass through."""
    if tp is datetime:
        return format_ts, parse_ts
    if dataclasses.is_dataclass(tp):
        # Built eagerly, so a dataclass may not contain itself.
        plan = _plan(tp)
        return plan.encode, plan.decode
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        # Only `X | None` is used; None itself never reaches a converter.
        (inner,) = [a for a in args if a is not type(None)]
        return _converters(inner)
    if origin is tuple:
        if args[-1] is Ellipsis:
            enc, dec = _converters(args[0])
            return _list_of(enc), _tuple_of(dec)
        # Fixed-length tuples (colours, header pairs) hold plain values only.
        if any(_converters(a) != (None, None) for a in args):
            raise TypeError(f"unsupported fixed-length tuple {tp}")
        return list, tuple
    if origin is list:
        enc, dec = _converters(args[0])
        return _list_of(enc), _list_of(dec)
    if origin is dict and args:
        enc, dec = _converters(args[1])
        return _values_of(enc), _values_of(dec)
    return None, None


def _list_of(conv: Converter | None) -> Converter:
    if conv is None:
        return list
    return lambda v: [conv(x) for x in v]


def _tuple_of(conv: Converter | None) -> Converter:
    if conv is None:
        return tuple
    return lambda v: tuple([conv(x) for x in v])


def _values_of(conv: Converter | None) -> Converter | None:
    if conv is None:
        return None
    return lambda v: {k: conv(x) for k, x in v.items()}


# --- canonical renderer --------------------------------------------------------
#
# _render writes what json.dumps(encode(obj), sort_keys=True, indent=2,
# ensure_ascii=False) writes, piece by piece, without building the encode()
# tree: dataclasses are rendered from their plans, everything else as JSON.
# It mirrors json.encoder's pure-Python path, which is the one json.dumps
# takes when `indent` is set: the same escapes, number texts and key order.
# Object keys must be strings, as they are in every file the package writes.

_escape = json.encoder.encode_basestring  # the string escaper json uses without ensure_ascii
# Pieces an _Out holds before they are joined and passed on.
_BATCH = 4096


class _Out(list):
    """Rendered pieces; a full batch is joined and handed to `sink`."""

    __slots__ = ("sink", "memo")

    def __init__(self, sink: Callable[[str], Any]) -> None:
        super().__init__()
        self.sink = sink
        self.memo: dict[tuple[int, str], str] = {}  # value-type text by (id, indent)

    def spill(self) -> None:
        if self:
            self.sink("".join(self))
            self.clear()


def _render_to(obj: Any, sink: Callable[[str], Any]) -> None:
    out = _Out(sink)
    _render(obj, "\n", out)
    out.append("\n")
    out.spill()


def _render(value: Any, nl: str, out: _Out) -> None:
    """Append the text of `value`; `nl` is a newline plus its line's indent."""
    cls = type(value)
    if cls is str:
        out.append(_escape(value))
        return
    plan = _PLANS.get(cls)
    if plan is not None:
        plan.render(value, nl, out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        opener = "[" + inner
        for item in value:
            out.append(opener)
            opener = "," + inner
            _render(item, inner, out)
            if len(out) >= _BATCH:
                out.spill()
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        opener = "{" + inner
        for key, item in sorted(value.items()):
            out.append(opener + _escape(key) + ": ")
            opener = "," + inner
            _render(item, inner, out)
            if len(out) >= _BATCH:
                out.spill()
        out.append(nl + "}")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        _plan(cls).render(value, nl, out)
    else:
        out.append(_leaf_text(value))


def _leaf_text(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if isinstance(value, datetime):
        return _escape(format_ts(value))
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

