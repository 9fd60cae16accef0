"""Shared helpers: canonical JSON output, UTC timestamps and the dataclass codec."""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from datetime import datetime, timezone
from typing import Any, Callable


def canonical_dumps(obj: Any) -> str:
    """Serialize with sorted keys and fixed indentation.

    Equal values always produce identical bytes, so file-level equality
    can stand in for structural equality in determinism checks.
    """
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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
        if self.wire_in is not None:
            data = self.wire_in(data)
        kwargs = {}
        for name, key, dec, required in self.decoders:
            if key in data:
                value = data[key]
                kwargs[name] = value if dec is None or value is None else dec(value)
            elif required:
                raise KeyError(f"{self.cls.__name__}.{key}")
        return self.cls(**kwargs)


@functools.cache
def _plan(cls: type) -> _Plan:
    return _Plan(cls)


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
