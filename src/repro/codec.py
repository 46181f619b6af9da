"""One strict codec for every JSON artifact the planner reads or writes.

Plans, profile databases, checkpoints, churn timelines, fault plans,
tournament reports and wire requests are all *records*: dataclasses
whose JSON form is the map of their declared fields.  :func:`encode`
and :func:`decode` derive that form from the field list and the type
hints (resolved once per class, then cached), so each artifact's format
is declared once, on its class:

* field metadata via :func:`json_field` — ``dtype`` of a numpy array,
  ``omit_empty`` for a field left out while ``None``/empty, ``key`` for
  a JSON key that differs from the field name;
* class attributes — ``json_version`` (a :class:`Version`),
  ``json_error`` (the :class:`CodecError` subclass decoding raises),
  ``json_label`` (the noun used in messages, by default the class name
  split into words) and ``json_derived`` (output-only keys computed
  from the record, which decoding accepts and ignores).

Fields whose name starts with ``_`` (in-memory caches) and non-init
fields are not part of the JSON form.  Decoding is strict: unknown or
missing keys, a wrong version and wrongly typed values all raise the
record's error type, whose message names the record and the key path
(``ChurnTimeline.events[3].factor: expected a float, got string``).
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import json
import re
import typing
from pathlib import Path
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from .ioutil import write_json_atomic


class CodecError(ValueError):
    """An artifact does not decode into its record.

    ``record`` is the class name of the record being decoded and
    ``path`` the key path below it; the message starts with both.
    """

    def __init__(self, message: str, *, record: str = "", path: str = "") -> None:
        super().__init__(message)
        self.record = record
        self.path = path


class Version(NamedTuple):
    """The version key a record carries in its JSON form.  On-disk
    formats require it; wire records may omit it (clients send bare
    requests), but a present one must match."""

    key: str
    value: int
    required: bool = True


def json_field(*, dtype=None, omit_empty: bool = False,
               key: Optional[str] = None, **kwargs):
    """A dataclass ``field`` carrying codec declarations."""
    meta = {"dtype": dtype, "omit_empty": omit_empty, "key": key}
    return dataclasses.field(metadata={"json": meta}, **kwargs)


class _Invalid(Exception):
    """Internal decode failure; ``path`` collects key segments,
    innermost first, as it unwinds through nested decoders."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason
        self.path = []


_JSON_NAMES = {type(None): "null", bool: "bool", int: "int", float: "float",
               str: "string", list: "list", dict: "object"}


def _require(pytype: type, value, name: str) -> None:
    if type(value) is not pytype:
        kind = _JSON_NAMES.get(type(value), type(value).__name__)
        raise _Invalid(f"expected {name}, got {kind}")


def _same(value):
    return value


def _scalar(pytype: type, name: str):
    def dec(value):
        if type(value) is pytype:
            return value
        # JSON has one number type: an int is a valid float.
        if pytype is float and type(value) is int:
            return float(value)
        _require(pytype, value, name)
    return _same, dec


def _plain(pytype: type, name: str):
    """Untyped ``dict``/``list`` payload: shallow copy, contents as is."""
    def dec(value):
        _require(pytype, value, name)
        return pytype(value)
    return pytype, dec


def _array(dtype):
    def dec(value):
        _require(list, value, "a list")
        try:
            return np.asarray(value, dtype=dtype)
        except (TypeError, ValueError) as exc:
            raise _Invalid(f"not a {np.dtype(dtype).name} array: {exc}") from exc
    return (lambda array: array.tolist()), dec


def _sequence(items: list, build: type, fixed: bool):
    """Lists and tuples: one codec per position when ``fixed``, else
    one codec for every item."""
    encs = [enc for enc, _ in items]
    decs = [dec for _, dec in items]

    def enc(values):
        return [encs[i if fixed else 0](v) for i, v in enumerate(values)]

    def dec(value):
        _require(list, value, "a list")
        if fixed and len(value) != len(decs):
            raise _Invalid(f"expected {len(decs)} items, got {len(value)}")
        out = []
        try:
            for v in value:
                out.append(decs[len(out) if fixed else 0](v))
        except _Invalid as exc:
            exc.path.append(f"[{len(out)}]")
            raise
        return out if build is list else build(out)
    return enc, dec


def _int_key(key: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise _Invalid(f"key {key!r} is not an int") from None


def _mapping(key_type: type, item):
    """``Dict[str, X]`` and ``Dict[int, X]`` (JSON keys are strings)."""
    enc_item, dec_item = item
    dec_key = _int_key if key_type is int else _same

    def enc(mapping):
        return {str(k): enc_item(v) for k, v in mapping.items()}

    def dec(value):
        _require(dict, value, "an object")
        out = {}
        try:
            for k, v in value.items():
                out[dec_key(k)] = dec_item(v)
        except _Invalid as exc:
            exc.path.append(f"[{k!r}]")
            raise
        return out
    return enc, dec


def _optional(item):
    enc_item, dec_item = item
    return (
        _same if enc_item is _same
        else lambda value: None if value is None else enc_item(value),
        lambda value: None if value is None else dec_item(value),
    )


_SCALARS = {int: "an int", float: "a float", str: "a string", bool: "a bool"}
_UNTYPED = ((), (Any,), (object,))


def _compile(hint, meta: dict, where: str) -> Tuple[Callable, Callable]:
    """``(encode, decode)`` for one type hint."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is Any or hint is object:
        return _same, _same
    if hint in _SCALARS:
        return _scalar(hint, _SCALARS[hint])
    if hint is np.ndarray and meta.get("dtype") is not None:
        return _array(meta["dtype"])
    if dataclasses.is_dataclass(hint):
        spec = _spec(hint)
        return spec.encode, spec.decode
    if origin is Union and len(args) == 2 and type(None) in args:
        inner = args[0] if args[1] is type(None) else args[1]
        return _optional(_compile(inner, meta, where))
    if hint is dict or origin in (dict, collections.abc.Mapping):
        if args in _UNTYPED or args[1] in (Any, object):
            return _plain(dict, "an object")
        if args[0] in (str, int):
            return _mapping(args[0], _compile(args[1], meta, where))
    if hint is list or origin is list:
        if args in _UNTYPED:
            return _plain(list, "a list")
        return _sequence([_compile(args[0], meta, where)], list, False)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return _sequence([_compile(args[0], meta, where)], tuple, False)
        return _sequence([_compile(a, meta, where) for a in args], tuple, True)
    raise TypeError(f"{where}: no JSON codec for {hint!r} (arrays need a dtype)")


class _Spec:
    """The resolved JSON schema of one record class."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.version: Optional[Version] = getattr(cls, "json_version", None)
        self.error = getattr(cls, "json_error", CodecError)
        self.label = getattr(cls, "json_label", None) or re.sub(
            r"(?<!^)(?=[A-Z])", " ", cls.__name__
        ).lower()
        self.derived: Dict[str, Callable] = getattr(cls, "json_derived", {})
        hints = typing.get_type_hints(cls)
        #: ``(name, key, required, omit_empty, encode, decode)`` per
        #: field; ``encode`` is ``None`` where the value is its own form.
        self.fields = []
        for f in dataclasses.fields(cls):
            if f.name.startswith("_") or not f.init:
                continue
            meta = f.metadata.get("json", {})
            enc, dec = _compile(hints[f.name], meta, f"{cls.__name__}.{f.name}")
            self.fields.append((
                f.name,
                meta.get("key") or f.name,
                f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING,
                meta.get("omit_empty", False),
                None if enc is _same else enc,
                dec,
            ))
        self.keys: Tuple[str, ...] = (
            ((self.version.key,) if self.version else ())
            + tuple(f[1] for f in self.fields)
        )
        self.accepted = frozenset(self.keys) | frozenset(self.derived)

    def encode(self, record) -> dict:
        data = {}
        if self.version is not None:
            data[self.version.key] = self.version.value
        for name, key, _, omit_empty, enc, _ in self.fields:
            value = getattr(record, name)
            if omit_empty and (value is None or value in ("", {})):
                continue
            data[key] = value if enc is None else enc(value)
        for key, compute in self.derived.items():
            data[key] = compute(record)
        return data

    def decode(self, data):
        if type(data) is not dict:
            _require(dict, data, f"{self.label} as a JSON object")
        version = self.version
        if version is not None and (version.required or version.key in data):
            found = data.get(version.key)
            if type(found) is not int or found != version.value:
                raise _Invalid(
                    f"unsupported {version.key.replace('_', ' ')} "
                    f"{found!r} (expected {version.value})"
                )
        unknown = data.keys() - self.accepted
        if unknown:
            raise _Invalid(f"unknown {self.label} field(s) {sorted(unknown)}")
        kwargs = {}
        missing = []
        try:
            for name, key, required, _, _, dec in self.fields:
                if key in data:
                    kwargs[name] = dec(data[key])
                elif required:
                    missing.append(key)
        except _Invalid as exc:
            exc.path.append(f".{key}")
            raise
        if missing:
            raise _Invalid(f"missing {self.label} field(s) {missing}")
        try:
            return self.cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise _Invalid(str(exc)) from exc


@functools.cache
def _spec(cls: type) -> _Spec:
    return _Spec(cls)


def json_keys(cls: type) -> Tuple[str, ...]:
    """Every key of a record's JSON form: the version key, then the
    fields in declaration order (derived keys excluded)."""
    return _spec(cls).keys


def encode(record) -> dict:
    """The JSON form (plain dicts, lists and scalars) of a record."""
    return _spec(type(record)).encode(record)


def decode(cls: type, data, *, source=None):
    """Strictly rebuild a ``cls`` record from its JSON form.

    Raises ``cls.json_error`` naming the record and the key path of the
    first problem, prefixed with ``source`` (a file name) when given.
    """
    spec = _spec(cls)
    try:
        return spec.decode(data)
    except _Invalid as exc:
        path = "".join(reversed(exc.path))
        prefix = f"{source}: " if source is not None else ""
        raise spec.error(
            f"{prefix}{cls.__name__}{path}: {exc.reason}",
            record=cls.__name__, path=path,
        ) from exc.__cause__


def load(cls: type, path: Union[str, Path]):
    """Read and decode a ``cls`` record from a JSON file; an unreadable
    or truncated file raises ``cls``'s error type too."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise _spec(cls).error(
            f"{cls.__name__}: cannot read {path}: {exc}", record=cls.__name__
        ) from exc
    return decode(cls, data, source=path)


class Record:
    """Mixin: ``to_json``/``from_json``/``save``/``load`` via the codec."""

    __slots__ = ()

    def to_json(self) -> dict:
        return encode(self)

    @classmethod
    def from_json(cls, data):
        return decode(cls, data)

    def save(self, path: Union[str, Path]) -> Path:
        return write_json_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]):
        return load(cls, path)
