"""Generic frozen-dataclass <-> JSON-value codec.

Experiment results and measurement artifacts are (possibly nested) frozen
dataclasses built from tuples and primitives.  :func:`to_jsonable`
flattens them into JSON-compatible values; :func:`from_jsonable` inverts
the flattening given the target dataclass type, reconstructing nested
dataclasses and converting JSON lists back into the tuples the type
hints declare.  Together they let the content-addressed store
(:mod:`repro.store`) persist any experiment result as inspectable JSON
and hand back an object indistinguishable from a fresh run — floats
survive the round-trip exactly (JSON uses ``repr`` precision).
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from typing import Any, Mapping


def to_jsonable(value: Any) -> Any:
    """Recursively convert dataclasses/tuples to JSON-compatible values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot export value of type {type(value).__name__}")


def qualified_type_name(cls: type) -> str:
    """``"module:ClassName"`` — the store's record of a payload's type."""
    return f"{cls.__module__}:{cls.__qualname__}"


def resolve_type_name(name: str) -> type:
    """Inverse of :func:`qualified_type_name` (imports the module)."""
    import importlib

    module_name, _, qualname = name.partition(":")
    if not module_name or not qualname or "." in qualname:
        raise ValueError(f"malformed type name {name!r}")
    obj: Any = importlib.import_module(module_name)
    obj = getattr(obj, qualname)
    if not isinstance(obj, type):
        raise TypeError(f"{name!r} does not resolve to a class")
    return obj


@functools.cache
def dataclass_type_hints(cls: type) -> Mapping[str, Any]:
    """``typing.get_type_hints(cls)``, resolved once per class, read-only."""
    return types.MappingProxyType(typing.get_type_hints(cls))


def from_jsonable(cls: type, data: Any) -> Any:
    """Rebuild an instance of dataclass ``cls`` from :func:`to_jsonable` output."""
    return _decode(cls, data)


def _decode(hint: Any, data: Any) -> Any:
    if hint is Any or hint is None:
        return data
    origin = typing.get_origin(hint)
    if origin is None:
        if dataclasses.is_dataclass(hint):
            return _decode_dataclass(hint, data)
        if hint is float:
            return float(data)
        if hint in (int, str, bool):
            return data
        if hint is type(None):
            return None
        return data
    args = typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return _decode_union(args, data)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in data)
        return tuple(_decode(a, v) for a, v in zip(args, data))
    if origin is list:
        inner = args[0] if args else Any
        return [_decode(inner, v) for v in data]
    if origin is dict:
        key_hint = args[0] if args else Any
        val_hint = args[1] if len(args) > 1 else Any
        return {
            _decode_key(key_hint, k): _decode(val_hint, v)
            for k, v in data.items()
        }
    return data


def _decode_union(args: tuple, data: Any) -> Any:
    if data is None:
        return None
    for arg in args:
        if arg is type(None):
            continue
        try:  # noqa: PERF203 - attempting each union arm IS the algorithm
            return _decode(arg, data)
        except (TypeError, ValueError, KeyError):
            continue
    return data


def _decode_key(hint: Any, key: str) -> Any:
    """JSON object keys are strings; restore the declared key type."""
    if hint is int:
        return int(key)
    if hint is float:
        return float(key)
    return key


def _decode_dataclass(cls: type, data: Any) -> Any:
    if not isinstance(data, dict):
        raise TypeError(
            f"expected a mapping for {cls.__name__}, got {type(data).__name__}"
        )
    hints = dataclass_type_hints(cls)
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name not in data:
            continue  # let the dataclass default fill the gap
        kwargs[field.name] = _decode(
            hints.get(field.name, Any), data[field.name]
        )
    return cls(**kwargs)
