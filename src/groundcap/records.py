"""Video-level record types: object tracks, annotations and SVO frames.

Tracks and annotations are plain immutable values, and
:class:`RecordValidationError` is the fault of a record that breaks their
rules.  A track is its boxes: its presence flags are derived from the box
frames, so in memory they cannot disagree.  This module reads no JSON: the
rules are checked on the plain-JSON form, once, where a record enters, by
:func:`groundcap.ingest.check_annotation`.  :func:`groundcap.tubes.build_record`
runs it on ``annotation_to_dict`` of the record it emits; check a record
built by hand the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from .boxes import BoundingBox
from .captions import TaggedCaption


class RecordValidationError(ValueError):
    """An invariant violation with a machine-readable reason code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class ObjectTrack:
    """One caption phrase bound to per-frame boxes, with gaps allowed.

    The track spans the video's ``frame_count`` frames; ``presence`` is
    derived from the box keys, one flag per frame.  ``confidence``
    (prediction records only) maps a present frame to a score in [0, 1].
    """

    phrase_index: int
    boxes: Mapping[int, BoundingBox]
    frame_count: int
    confidence: Optional[Mapping[int, float]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", MappingProxyType(dict(self.boxes)))
        if self.confidence is not None:
            object.__setattr__(self, "confidence", MappingProxyType(dict(self.confidence)))

    @property
    def presence(self) -> tuple[bool, ...]:
        """One flag per frame, true exactly where ``boxes`` holds a box."""
        return tuple(map(self.boxes.__contains__, range(self.frame_count)))

    @property
    def present_frames(self) -> list[int]:
        return sorted(self.boxes)


@dataclass(frozen=True)
class VideoAnnotation:
    """One video record: caption with phrase tags plus its object tracks."""

    video_id: str
    frame_count: int
    fps: float
    width: int
    height: int
    caption: TaggedCaption
    tracks: tuple[ObjectTrack, ...] = field(default_factory=tuple)
    boxes_normalized: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracks", tuple(self.tracks))

    @property
    def duration_seconds(self) -> float:
        return self.frame_count / self.fps


@dataclass(frozen=True)
class SvoRelation:
    """A (subject, verb, object) relation with optional adposition pairs."""

    subject: str
    verb: str
    object: Optional[str] = None
    adpositions: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for key in ("subject", "verb", "object"):
            value = getattr(self, key)
            if not isinstance(value, str) and (key != "object" or value is not None):
                raise TypeError(f"relation {key} must be a string, got {value!r}")
        if not self.subject or not self.verb:
            raise ValueError("relation subject and verb must be non-empty")
        adpositions = tuple(self.adpositions)
        for pair in adpositions:
            # a list or tuple, as a two-letter string would unpack too
            is_pair = isinstance(pair, (list, tuple)) and len(pair) == 2
            if not is_pair or not all(isinstance(member, str) for member in pair):
                raise TypeError(f"adposition must be a pair of strings, got {pair!r}")
            if not all(pair):
                raise ValueError("adposition pairs must have non-empty members")
        object.__setattr__(self, "adpositions", tuple(tuple(p) for p in adpositions))


@dataclass(frozen=True)
class SvoFrame:
    """All relations extracted from one frame's caption."""

    frame_index: int
    relations: tuple[SvoRelation, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(self.relations))
        if isinstance(self.frame_index, bool) or not isinstance(self.frame_index, int):
            raise TypeError(f"frame_index must be an integer, got {self.frame_index!r}")
        if self.frame_index < 0:
            raise ValueError(f"negative frame_index {self.frame_index}")
