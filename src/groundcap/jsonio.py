"""Deterministic JSON writing shared by records, reports, and manifests, and
the reading of whole-file JSON documents (configs and fixtures).

Python's ``json`` module ties float formatting to ``repr``, which is exact but
noisy for golden files, so this serializer pins the canonical form instead:
keys sorted (numerically, ties such as ``"1"`` and ``"01"`` by string, when
every key is an ASCII digit string, e.g. frame indices), floats with exactly
six decimal places, UTF-8 with no ASCII escaping, and ``\n`` separators for
JSON-lines.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring  # what json.dumps(s, ensure_ascii=False) calls
from pathlib import Path
from typing import Any


def _format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite float {value} cannot be serialized")
    return f"{value:.6f}"


def _sorted_keys(obj: dict) -> list:
    keys = list(obj.keys())
    if keys and all(isinstance(k, str) and k.isascii() and k.isdigit() for k in keys):
        return sorted(sorted(keys), key=int)  # stable: equal numbers stay in string order
    return sorted(keys)


def _write(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _write(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(_sorted_keys(obj)):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {type(key).__name__}")
            out.append(encode_basestring(key))
            out.append(": ")
            _write(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Render ``obj`` in the canonical single-line form."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def canonical_jsonl_bytes(objs: list[Any]) -> bytes:
    """One canonical JSON document per line, trailing newline included."""
    return "".join(canonical_json(o) + "\n" for o in objs).encode("utf-8")


def read_json_file(path: str | Path, label: str) -> Any:
    """The JSON document in the UTF-8 file ``path``.

    A file that is not UTF-8 JSON is a ``ValueError`` naming ``label`` and the path.
    """
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{label} {path}: invalid JSON: {exc}") from exc
