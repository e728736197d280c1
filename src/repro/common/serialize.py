"""Stable JSON (de)serialization and hashing of configuration dataclasses.

The experiment orchestration layer (:mod:`repro.exp`) needs two guarantees
that ``pickle`` and ``hash()`` do not give:

* a **canonical, process-independent representation** of a configuration so
  that the on-disk result cache can be shared between runs, machines and
  Python versions (``hash()`` is salted per process; ``pickle`` is neither
  canonical nor stable across versions), and
* a **round trip** from configuration objects to plain JSON and back, so
  cached results and CLI artifacts can record exactly which machine and
  workload produced them.

:func:`to_jsonable` lowers any tree of frozen dataclasses, enums, tuples and
primitives to plain JSON types; :func:`from_jsonable` rebuilds the original
objects from the dataclass type hints; :func:`stable_hash` derives a SHA-256
content address from the canonical JSON form.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import typing
from typing import Any, Dict, Mapping, Type, TypeVar, Union

from repro.common.errors import ConfigurationError

_T = TypeVar("_T")


def to_jsonable(obj: Any) -> Any:
    """Lower ``obj`` to plain JSON types (dict / list / str / int / float / bool / None).

    Dataclasses become ``{field: value}`` dictionaries (fields whose names
    start with an underscore are treated as derived state and skipped), enums
    become their ``value``, and tuples become lists.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
            if not field.name.startswith("_")
        }
    if isinstance(obj, enum.Enum):
        return to_jsonable(obj.value)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item) for item in obj]
    if isinstance(obj, Mapping):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise ConfigurationError(f"cannot serialise {type(obj).__name__} to JSON")


def from_jsonable(cls: Type[_T], data: Any) -> _T:
    """Rebuild an instance of dataclass ``cls`` from :func:`to_jsonable` output.

    Reconstruction is driven by the dataclass type hints and supports the
    vocabulary the configuration classes use: nested dataclasses, enums,
    ``Optional``, homogeneous and fixed-arity tuples, lists, dicts and
    primitives.
    """
    return _build(cls, data)


def _build(annotation: Any, data: Any) -> Any:
    if annotation is Any:
        return data
    origin = typing.get_origin(annotation)
    if origin is None:
        if dataclasses.is_dataclass(annotation):
            return _build_dataclass(annotation, data)
        if isinstance(annotation, type) and issubclass(annotation, enum.Enum):
            return annotation(data)
        if annotation is float:
            return float(data)
        if annotation in (int, str, bool):
            return data
        if annotation is type(None):
            return None
        raise ConfigurationError(f"cannot deserialise into {annotation!r}")
    if origin is tuple:
        args = typing.get_args(annotation)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_build(args[0], item) for item in data)
        if len(args) != len(data):
            raise ConfigurationError(
                f"expected {len(args)} tuple items for {annotation!r}, got {len(data)}"
            )
        return tuple(_build(arg, item) for arg, item in zip(args, data))
    if origin is list:
        (item_type,) = typing.get_args(annotation)
        return [_build(item_type, item) for item in data]
    if origin is dict:
        key_type, value_type = typing.get_args(annotation)
        return {_build(key_type, key): _build(value_type, value) for key, value in data.items()}
    if origin is Union:
        members = [arg for arg in typing.get_args(annotation) if arg is not type(None)]
        if data is None:
            return None
        for member in members:
            try:
                return _build(member, data)
            except (ConfigurationError, TypeError, ValueError, KeyError):
                continue
        raise ConfigurationError(f"no member of {annotation!r} accepts {data!r}")
    raise ConfigurationError(f"cannot deserialise into {annotation!r}")


def _build_dataclass(cls: Type[_T], data: Any) -> _T:
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"expected a mapping to rebuild {cls.__name__}, got {type(data).__name__}"
        )
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for field in dataclasses.fields(cls):
        if not field.init or field.name.startswith("_"):
            continue
        if field.name in data:
            kwargs[field.name] = _build(hints[field.name], data[field.name])
    return cls(**kwargs)


#: Version of the service wire format.  Every HTTP body exchanged with
#: :mod:`repro.service` is wrapped in an envelope carrying this number, so a
#: client and server disagreeing about the schema fail loudly instead of
#: misinterpreting payloads.  Bump on any incompatible payload change.
#:
#: Version 2 added the optional tenancy fields at the envelope level
#: (``tenant``, ``priority``) plus ``schema_version`` naming the payload's
#: own schema.  Version-1 envelopes are rejected: client and server ship
#: together.
WIRE_SCHEMA_VERSION = 2

#: Envelope versions this build reads.
SUPPORTED_WIRE_SCHEMAS = (WIRE_SCHEMA_VERSION,)


@dataclasses.dataclass(frozen=True)
class WireEnvelope:
    """A validated wire envelope, with the v2 transport fields exposed.

    ``tenant`` / ``priority`` / ``schema_version`` are ``None`` when the
    envelope omits them.
    """

    kind: str
    payload: Any
    tenant: Any = None
    priority: Any = None
    schema_version: Any = None
    #: Request correlation ID (``X-Repro-Trace-Id``); ``None`` when absent.
    trace_id: Any = None


def wire_envelope(
    kind: str,
    payload: Any,
    *,
    tenant: Any = None,
    priority: Any = None,
    schema_version: Any = None,
    trace_id: Any = None,
) -> Dict[str, Any]:
    """Wrap ``payload`` in a versioned wire envelope.

    The envelope is the unit every service endpoint sends and receives:
    ``{"wire_schema": N, "kind": "<message type>", "payload": <JSON>}``,
    plus ``tenant`` / ``priority`` (admission metadata for submissions),
    ``schema_version`` (the payload's own schema number) and ``trace_id``
    (the request's correlation ID, also carried in the ``X-Repro-Trace-Id``
    header) when provided.  ``payload`` may be any
    :func:`to_jsonable`-serialisable object.
    """
    document: Dict[str, Any] = {
        "wire_schema": WIRE_SCHEMA_VERSION,
        "kind": kind,
        "payload": to_jsonable(payload),
    }
    if tenant is not None:
        document["tenant"] = tenant
    if priority is not None:
        document["priority"] = priority
    if schema_version is not None:
        document["schema_version"] = schema_version
    if trace_id is not None:
        document["trace_id"] = trace_id
    return document


def read_envelope(data: Any, kind: str) -> WireEnvelope:
    """Validate a wire envelope and return it whole.

    Raises :class:`ConfigurationError` when ``data`` is not an envelope, its
    schema version is unsupported or its kind is not the expected one.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"expected a wire envelope mapping, got {type(data).__name__}"
        )
    schema = data.get("wire_schema")
    if schema not in SUPPORTED_WIRE_SCHEMAS:
        raise ConfigurationError(
            f"unsupported wire schema {schema!r} "
            f"(this build speaks {', '.join(map(str, SUPPORTED_WIRE_SCHEMAS))})"
        )
    if data.get("kind") != kind:
        raise ConfigurationError(f"expected envelope kind {kind!r}, got {data.get('kind')!r}")
    if "payload" not in data:
        raise ConfigurationError("wire envelope is missing its payload")
    return WireEnvelope(
        kind=kind,
        payload=data["payload"],
        tenant=data.get("tenant"),
        priority=data.get("priority"),
        schema_version=data.get("schema_version"),
        trace_id=data.get("trace_id"),
    )


def open_envelope(data: Any, kind: str) -> Any:
    """Validate a wire envelope and return its payload."""
    return read_envelope(data, kind).payload


def canonical_json(obj: Any) -> str:
    """Return the canonical (sorted-key, minimal-separator) JSON form of ``obj``."""
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def stable_hash(obj: Any) -> str:
    """Return a SHA-256 content address of ``obj``'s canonical JSON form.

    The hash is stable across processes, interpreter restarts and
    ``PYTHONHASHSEED`` values, so it is safe to use as an on-disk cache key.
    """
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
