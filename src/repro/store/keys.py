"""Stable content-addressed keys for scenario runs.

A run's identity is the pair *(what would execute, what code would
execute it)*:

* **what** -- every field of the :class:`~repro.experiments.scenario.
  ScenarioSpec`, recursively canonicalised: dataclasses become
  ``{"__dataclass__": name, fields...}`` maps, mappings are sorted by
  key, and the ``config_overrides`` pair-tuple is order-insensitive
  (two specs differing only in override insertion order share a key);
* **code** -- a digest of every ``*.py`` file under the installed
  ``repro`` package, so *any* source edit invalidates every cached
  run cleanly.  Byte-identity across refactors is exactly what the
  golden suites prove, but the store never assumes it: a changed tree
  is a changed key, and re-running repopulates the store.

Keys are hex SHA-256 digests of the canonical JSON encoding; they are
stable across processes, platforms and Python versions (the encoding
uses ``sort_keys`` and no floats-from-repr ambiguity beyond what JSON
itself defines).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Optional, Tuple

#: Cache of tree digests, keyed by resolved root directory: hashing
#: ~180 source files once per process is cheap, once per job is not.
_CODE_VERSIONS: Dict[str, str] = {}


#: The JSON scalar types :func:`canonical` returns unchanged.  Exact
#: types only: subclasses (``IntEnum``, ``str`` enums, ...) take the
#: general path, which still checks for dataclasses first.
_SCALARS = frozenset((str, int, float, bool, type(None)))

#: Field names per dataclass type (``None`` for any other type), so
#: each node costs one dict lookup instead of ``dataclasses.fields``.
_DATACLASS_FIELDS: Dict[type, Optional[Tuple[str, ...]]] = {}


def _dataclass_fields(cls: type) -> Optional[Tuple[str, ...]]:
    try:
        return _DATACLASS_FIELDS[cls]
    except KeyError:
        pass
    names: Optional[Tuple[str, ...]] = None
    if dataclasses.is_dataclass(cls):
        names = tuple(f.name for f in dataclasses.fields(cls))
    _DATACLASS_FIELDS[cls] = names
    return names


def canonical(value: Any) -> Any:
    """Recursively reduce *value* to a JSON-stable canonical form."""
    cls = type(value)
    if cls in _SCALARS:
        return value
    names = _dataclass_fields(cls)
    if names is not None:
        out: Dict[str, Any] = {"__dataclass__": cls.__name__}
        for name in names:
            out[name] = canonical(getattr(value, name))
        return out
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Last resort for exotic override values: a typed repr is stable
    # enough to key on and never silently collides with JSON scalars.
    return {"__repr__": f"{type(value).__name__}:{value!r}"}


def digest_of(value: Any) -> str:
    """Hex SHA-256 of the canonical JSON encoding of *value*."""
    text = json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _package_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def code_version(root: Optional[str] = None) -> str:
    """Digest of the ``repro`` source tree (or an explicit *root*).

    Every ``*.py`` file under the tree contributes its relative path
    and raw bytes, in sorted path order; ``__pycache__`` is skipped.
    The result is cached per root for the life of the process.
    """
    base = os.path.abspath(root) if root is not None else _package_root()
    cached = _CODE_VERSIONS.get(base)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in filenames:
            if name.endswith(".py"):
                paths.append(os.path.join(dirpath, name))
    for path in sorted(paths):
        rel = os.path.relpath(path, base).replace(os.sep, "/")
        hasher.update(rel.encode("utf-8"))
        hasher.update(b"\0")
        with open(path, "rb") as fh:
            hasher.update(fh.read())
        hasher.update(b"\0")
    digest = hasher.hexdigest()
    _CODE_VERSIONS[base] = digest
    return digest


def _canonical_spec(spec: Any) -> Any:
    """Canonical spec form with order-insensitive config overrides."""
    form = canonical(spec)
    overrides = form.get("config_overrides")
    if isinstance(overrides, list):
        form["config_overrides"] = sorted(
            overrides, key=lambda pair: json.dumps(pair, sort_keys=True))
    return form


def job_key(spec: Any, code: Optional[str] = None) -> str:
    """The store key for one scenario run.

    *spec* is a :class:`~repro.experiments.scenario.ScenarioSpec`; it
    already carries the seed, config overrides, fault plan and fault
    intensity, so the key covers the full (scenario, seed, overrides,
    faults, code version) identity the store is contracted to.
    """
    return digest_of({
        "spec": _canonical_spec(spec),
        "code": code if code is not None else code_version(),
    })


def recording_key(spec: Any, capacity: int,
                  code: Optional[str] = None) -> str:
    """The store key for one trace recording (RTRACE1 entry).

    Recordings key on the same (spec, code) identity as results plus
    the ring *capacity* (a wrapped ring records a different event
    window) and a kind marker so a recording can never collide with
    the result of the same run.
    """
    return digest_of({
        "kind": "rtrace",
        "spec": _canonical_spec(spec),
        "capacity": int(capacity),
        "code": code if code is not None else code_version(),
    })
