"""One JSON codec for dataclasses: a strict reader and its inverse writer.

:func:`decode` reads each field of a dataclass by its annotation: ``int``
takes an int, never a bool or a float; ``float`` takes a finite float (not
the ``NaN`` or ``Infinity`` that ``json.loads`` accepts) or an int that
``float()`` can convert, kept as written so that a document read and written
back keeps its bytes (an int past float64's range is refused); ``str``
and ``bool`` take exactly that type; ``X | None`` also takes null; an
``Enum`` is read from its value, a tuple from an array, and ``dict[str, X]``
and a nested dataclass from an object. With ``exact=True`` every field must
be present, as in the files proxauth writes (model files, the user store);
otherwise a field that has a default may be left out, as in config files and
wire requests. Unknown keys are always rejected, and every failure is a
ValueError naming the class and the field; a failure inside an array is led
by the dotted path to its item, as in ``observations.2: bad BeaconObservation
value: …``. Annotations are resolved once per class and mode, since the wire
decodes every scan.

:func:`encode` is the inverse, and writes every dataclass document proxauth
writes: a dataclass as an object of its fields in declaration order, an
``Enum`` as its value, a tuple as an array.

:func:`parse` is the one JSON parse of every file and request line proxauth
reads, and :func:`dump` the one writer of every JSON line it stores or sends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import types
import typing
from enum import Enum

from .errors import ProxauthError

__all__ = ["decode", "dump", "encode", "naming", "parse"]

_SCALARS = (int, str, bool)
_FLOAT_OVERFLOW = 2**1024 - 2**970  # the least int that float() rounds past float64's range


def parse(text: str | bytes, object_hook=None):
    """``json.loads(text, object_hook=object_hook)``, except that bytes must be UTF-8
    and that a text nested past the parser's depth is a ValueError, not a RecursionError."""
    try:
        return json.loads(text.decode() if type(text) is bytes else text, object_hook=object_hook)
    except RecursionError:
        raise ValueError("nested past the JSON parser's depth") from None


@contextlib.contextmanager
def naming(where):
    """A ValueError or ProxauthError raised within it, its message led by ``where`` (a file, or file:line)."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    except ProxauthError as exc:  # keeps its type, so its code
        exc.args = (f"{where}: {exc}",)
        raise


def dump(value) -> bytes:
    """``value`` as one JSON line that :func:`parse` reads back; a NaN or infinite float
    is a ValueError. Compact separators and no indent keep json on its C encoder."""
    return (json.dumps(value, separators=(",", ":"), allow_nan=False) + "\n").encode()


def decode(cls, doc, *, exact: bool = False):
    """Dataclass ``cls`` read from ``doc``, a value as ``json.loads`` returns it."""
    try:
        return _reader(cls, exact)(doc)
    except _InArray as exc:
        path, message = exc.args
        raise ValueError(f"{'.'.join(map(str, path))}: {message}") from None


def encode(value):
    """``value`` as the JSON value that :func:`decode` reads back to it."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value.value if isinstance(value, Enum) else value


class _Mismatch(Exception):
    """``args`` are what a field's value must be and the value found."""

    at = ()  # the array indexes from the field down to the value


class _InArray(Exception):
    """``args`` are the keys and indexes down to a failing array item, and its message."""


@functools.cache
def _reader(cls, exact: bool):
    """The reader of dataclass ``cls`` in one mode, built on first use."""
    hints, fields = typing.get_type_hints(cls), dataclasses.fields(cls)
    names = [f.name for f in fields]
    readers = {f.name: _compile(hints[f.name], exact) for f in fields}
    missing = dataclasses.MISSING
    required = {f.name for f in fields if exact or f.default is missing and f.default_factory is missing}
    shape = f"{cls.__name__} must be an object with keys {names}, got"

    def read(doc):
        if type(doc) is not dict:
            raise ValueError(f"{shape} {doc!r:.80}")
        if not required <= doc.keys() <= readers.keys():
            found = (("unknown", sorted(doc.keys() - readers.keys())), ("missing", sorted(required - doc.keys())))
            raise ValueError(f"{shape} " + ", ".join(f"{word} {keys}" for word, keys in found if keys))
        kwargs = {}
        for key, value in doc.items():
            try:
                kwargs[key] = readers[key](value)
            except _Mismatch as m:
                expected, got = m.args
                message = f"bad {cls.__name__} value: {key} must be {expected}, got {got!r:.80}"
                raise (_InArray((key, *m.at), message) if m.at else ValueError(message)) from None
            except _InArray as exc:
                raise _InArray((key, *exc.args[0]), exc.args[1]) from None
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:  # the class's own checks
            raise ValueError(f"bad {cls.__name__} value: {exc}") from None

    return read


def _compile(t, exact: bool):
    """The reader of one annotation."""
    origin, args = typing.get_origin(t), typing.get_args(t)
    if t is float:
        def read(v):
            if type(v) is float and math.isfinite(v) or type(v) is int and abs(v) < _FLOAT_OVERFLOW:
                return v
            raise _Mismatch("float", v)
    elif t in _SCALARS:
        def read(v):
            if type(v) is t:
                return v
            raise _Mismatch(t.__name__, v)
    elif origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _compile(next(a for a in args if a is not type(None)), exact)

        def read(v):
            return None if v is None else inner(v)
    elif isinstance(t, type) and issubclass(t, Enum):
        def read(v):
            try:
                return t(v)
            except ValueError:
                raise _Mismatch(f"one of {[m.value for m in t]}", v) from None
    elif origin is tuple and args[-1] is Ellipsis:
        item = _compile(args[0], exact)

        def read(v):
            if type(v) not in (list, tuple):
                raise _Mismatch("an array", v)
            out = []  # read item by item, so that a failure names its index
            try:
                for x in v:
                    out.append(item(x))
            except _Mismatch as m:
                m.at = (len(out), *m.at)
                raise
            except _InArray as exc:
                raise _InArray((len(out), *exc.args[0]), exc.args[1]) from None
            except ValueError as exc:  # a dataclass item's own failure
                raise _InArray((len(out),), str(exc)) from None
            return tuple(out)
    elif origin is tuple:
        items = [_compile(a, exact) for a in args]

        def read(v):
            if type(v) not in (list, tuple) or len(v) != len(items):
                raise _Mismatch(f"an array of {len(items)}", v)
            return tuple(r(x) for r, x in zip(items, v))
    elif origin is dict and args[0] is str:
        item = _compile(args[1], exact)

        def read(v):
            if type(v) is not dict:
                raise _Mismatch("an object", v)
            return {k: item(x) for k, x in v.items()}
    elif dataclasses.is_dataclass(t):
        read = _reader(t, exact)
    else:
        raise TypeError(f"jsondoc cannot read a {t!r}")
    return read
