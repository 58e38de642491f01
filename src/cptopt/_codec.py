"""One JSON codec for the package's config dataclasses.

:class:`JsonRecord` gives the model specs, ``TrafficConfig`` and
``ExperimentConfig`` their ``to_dict``/``from_dict``/``to_json``/``from_json``.
A record is one JSON object with one key per field, in field order; nested
dataclasses are objects and tuples are lists.  Field ``metadata`` may rename
the key (``{"key": "lambda"}``) and list ``"aliases"`` also read; two
spellings of one field in one object are an error.

Reading is strict, as these documents come from files: an unknown key, or a
value whose JSON type does not fit the field's annotation, raises ValueError
naming the key.  ``int`` takes an integer, ``float`` any finite number within
the float range (neither takes a bool), ``str`` a string, ``Optional`` also
``null``, a tuple an array of its length (any length for ``tuple[X, ...]``), a
dataclass an object.
Nothing is coerced: an integer read for a float field is written back
as an integer.  Keys left out take the field's default.  Construction applies
the same ``int``/``float`` rules: :func:`check_fields` comes first in each
config dataclass's ``__post_init__``, and stores a numpy scalar as the equal
Python int or float, so every record can be written.  Array arguments have
one rule too, :func:`as_array`: integer and float arrays, read as float64.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import typing
from numbers import Integral, Real
from typing import Any, Iterable, TypeVar

import numpy as np

R = TypeVar("R", bound="JsonRecord")
_type_hints = functools.cache(typing.get_type_hints)  # per record class


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


def as_float(name: str, value: Any) -> Any:
    """``value`` if it is a finite Python int or float; another finite real number
    (a numpy scalar, say) becomes the equal int, if it is an integer, or float.

    A bool or a non-number raises TypeError; NaN, an infinity or an integer
    beyond the float range raises ValueError; each error names ``name``.
    """
    if type(value) is not float and type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise TypeError(f"{name} must be a number, got {value!r}")
        value = operator.index(value) if isinstance(value, Integral) else float(value)
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int with no float near it
        raise ValueError(f"{name} must be within the float range, got a larger integer") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def as_array(
    name: str, value: Any, shape: int | tuple[int, ...], finite: bool = True
) -> np.ndarray:
    """``value`` as a float64 array of ``shape``, a dimension count or an exact shape.

    A bool, string, complex or object array (a list of ``Fraction``s, say)
    raises TypeError; a wrong shape, or a non-finite entry unless ``finite``
    is false, raises ValueError.  Each error names ``name``.  A float64 array
    comes back as given, not copied.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{name} must be an array of real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if arr.ndim != shape if isinstance(shape, int) else arr.shape != shape:
        expected = f"a {shape}-d array" if isinstance(shape, int) else shape
        raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
    return check_finite(name, arr) if finite else arr


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """The float array ``arr`` if every entry is finite; ValueError naming ``name`` if not."""
    # count_nonzero is the cheaper reduction on the small arrays of the optimizer loop
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError(f"{name} must be finite")
    return arr


_CHECKS = {int: as_int, float: as_float}


def _check_value(tp: Any, name: str, value: Any) -> Any:
    if typing.get_origin(tp) is tuple:  # tuple[X, ...], nested or not
        return tuple(_check_value(typing.get_args(tp)[0], name, v) for v in value)
    return _CHECKS[tp](name, value) if tp in _CHECKS else value


def check_fields(record: Any) -> None:
    """Pass each ``int``/``float`` field of the dataclass ``record``, and each item of
    a (nested) tuple of either, through :func:`as_int`/:func:`as_float`, in place."""
    hints = _type_hints(type(record))
    for f in dataclasses.fields(record):
        tp, value = hints[f.name], getattr(record, f.name)
        if typing.get_origin(tp) is typing.Union and value is not None:  # Optional[X]
            tp = typing.get_args(tp)[0]
        object.__setattr__(record, f.name, _check_value(tp, f.name, value))


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
    if tp is str and not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {value!r}")
    try:
        return value if tp is str else _CHECKS[tp](where, value)
    except TypeError as exc:  # reading reports every bad value as a ValueError
        raise ValueError(str(exc)) from None


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
