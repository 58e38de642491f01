"""One JSON codec for the package's config dataclasses.

:class:`JsonRecord` gives the model specs, ``TrafficConfig`` and
``ExperimentConfig`` their ``to_dict``/``from_dict``/``to_json``/``from_json``.
A record is one JSON object with one key per field, in field order; nested
dataclasses are objects and tuples are lists.  Field ``metadata`` may rename
the key (``{"key": "lambda"}``) and list ``"aliases"`` also read; two
spellings of one field in one object are an error.

Reading is strict, as these documents come from files: an unknown key, or a
value whose JSON type does not fit the field's annotation, raises ValueError
naming the key.  ``int`` takes an integer, ``float`` any number (neither
takes a bool), ``str`` a string, ``Optional`` also ``null``, a tuple an array
of its length (any length for ``tuple[X, ...]``), a dataclass an object.
Nothing is coerced: an integer read for a float field is written back
as an integer.  Keys left out take the field's default.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
import typing
from typing import Any, Iterable, TypeVar

R = TypeVar("R", bound="JsonRecord")
_type_hints = functools.cache(typing.get_type_hints)  # per record class

# field type -> (its name in errors, the JSON value types it takes)
_SCALARS = {
    int: ("an integer", int),
    float: ("a number", (int, float)),
    str: ("a string", str),
}


def checked_keys(what: str, data: Any, allowed: Iterable[str]) -> dict:
    """Copy of the JSON object ``data``; raises ValueError on a key outside ``allowed``.

    A misspelled or misnamed key would otherwise fall back to that field's
    default without a word, so the error names the key and the allowed set.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    allowed = sorted(allowed)
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )
    return dict(data)


def as_int(name: str, value: Any) -> int:
    """``operator.index(value)``; a bool or a non-integer raises TypeError naming ``name``."""
    if not isinstance(value, bool):  # bool passes operator.index
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def check_int_fields(record: Any) -> None:
    """Pass each ``int`` field of the frozen dataclass ``record``, and each
    item of its tuple-of-int fields, through :func:`as_int`, in place."""
    hints = _type_hints(type(record))
    for f in dataclasses.fields(record):
        tp, value = hints[f.name], getattr(record, f.name)
        if tp is int:
            object.__setattr__(record, f.name, as_int(f.name, value))
        elif typing.get_origin(tp) is tuple and int in typing.get_args(tp):
            object.__setattr__(record, f.name, tuple(as_int(f.name, v) for v in value))


def _json_key(f: dataclasses.Field) -> str:
    return f.metadata.get("key", f.name)


def encode(value: Any) -> Any:
    """JSON-ready form of a dataclass, tuple or scalar."""
    if dataclasses.is_dataclass(value):
        return {_json_key(f): encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value


def decode(cls: type, data: Any, what: str) -> Any:
    """Instance of the dataclass ``cls`` from the JSON object ``data``."""
    hints = _type_hints(cls)
    by_key = {}
    for f in dataclasses.fields(cls):
        for key in (_json_key(f), *f.metadata.get("aliases", ())):
            by_key[key] = f
    kwargs: dict[str, Any] = {}
    for key, value in checked_keys(what, data, by_key).items():
        name = by_key[key].name
        if name in kwargs:
            spellings = " or ".join(repr(k) for k in data if by_key[k].name == name)
            raise ValueError(f"give {spellings}, not both")
        kwargs[name] = _decode_value(hints[name], value, f"{what}.{key}")
    return cls(**kwargs)


def _decode_value(tp: Any, value: Any, where: str) -> Any:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _decode_value(tp, value, where)
    if dataclasses.is_dataclass(tp):
        return decode(tp, value, where)
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(value, (list, tuple)) or not (variadic or len(value) == len(args)):
            size = "" if variadic else f" of {len(args)}"
            raise ValueError(f"{where} must be an array{size}, got {value!r}")
        items = args[:1] * len(value) if variadic else args
        return tuple(
            _decode_value(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value))
        )
    expected, accepted = _SCALARS[tp]
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ValueError(f"{where} must be {expected}, got {value!r}")
    return value


class JsonRecord:
    """``to_dict``/``from_dict``/``to_json``/``from_json`` for a config dataclass."""

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls: type[R], data: Any) -> R:
        return decode(cls, data, cls.__name__)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls: type[R], text: str) -> R:
        return cls.from_dict(json.loads(text))
