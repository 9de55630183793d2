"""Run configuration: one frozen document drives every command.

:class:`PipelineConfig` is the one place where a setting is named, given its
default and checked; the stage drivers, ``evaluate`` and ``load_predictions``
read their settings from it.  The config file is JSON with the field names
below; command-line flags override individual values.  Phrase similarity is
lexical unless ``embedding_endpoint`` is set, which switches it to
embeddings.  The auth token is never part of the file, it comes from the
environment variable named by ``api_key_env``.
"""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path
from typing import NamedTuple, Optional, get_args, get_type_hints

from .jsonio import canonical_json, read_json_file

# JSON values each field type takes; an int is a number, a bool is neither
_JSON_TYPES = {
    str: ("a string", (str,)),
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
}


class _ConfigFields(NamedTuple):
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0
    seed: Optional[int] = 0
    retries: int = 2
    backoff: float = 0.5
    max_in_flight: int = 4
    fps: float = 5.0
    iou_thresh: float = 0.5
    sim_thresh: float = 0.5
    embedding_endpoint: Optional[str] = None
    objectness_threshold: float = 0.5
    api_key_env: str = "GROUNDCAP_API_KEY"


class PipelineConfig(_ConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for key, least in (("retries", 0), ("max_in_flight", 1)):
            value = getattr(self, key)
            if value < least:
                raise ValueError(f"config key {key!r} must be >= {least}, got {value}")
        for key in ("iou_thresh", "sim_thresh", "objectness_threshold"):
            value = getattr(self, key)
            if not 0.0 <= value <= 1.0:  # NaN fails too
                raise ValueError(f"config key {key!r} must be in [0, 1], got {value}")
        for key in ("fps", "backoff", "temperature"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"config key {key!r} must be finite, got {value}")
        if self.fps <= 0:
            raise ValueError(f"config key 'fps' must be > 0, got {self.fps}")
        return self

    @classmethod
    def from_dict(cls, obj: object) -> "PipelineConfig":
        """The config of a JSON document; ``ValueError`` naming the key on a bad one."""
        if not isinstance(obj, dict):
            raise ValueError(f"config must be a JSON object, got {type(obj).__name__}")
        hints = get_type_hints(cls)  # field name -> type
        unknown = set(obj) - hints.keys()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values = dict(obj)
        for key, value in obj.items():
            hint = hints[key]
            nullable = type(None) in get_args(hint)
            if value is None and nullable:
                continue
            kind = get_args(hint)[0] if nullable else hint
            label, accepted = _JSON_TYPES[kind]
            if isinstance(value, bool) or not isinstance(value, accepted):
                label += " or null" if nullable else ""
                raise ValueError(f"config key {key!r} must be {label}, got {value!r}")
            if kind is float:  # 0 and 0.0 are one setting, and must hash alike
                values[key] = float(value)
        return cls(**values)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(read_json_file(path, "config"))

    def override(self, **kwargs) -> "PipelineConfig":
        """A copy with the non-None keyword values replaced."""
        changes = {k: v for k, v in kwargs.items() if v is not None}
        # through the constructor, which checks the values; _replace would not
        return type(self)(**{**self._asdict(), **changes}) if changes else self

    def config_hash(self) -> str:
        """Digest of every field but ``max_in_flight``, which changes no output byte."""
        hashed = self._asdict()
        del hashed["max_in_flight"]
        return hashlib.sha256(canonical_json(hashed).encode("utf-8")).hexdigest()

    def api_key(self) -> Optional[str]:
        return os.environ.get(self.api_key_env)
