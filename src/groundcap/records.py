"""Video-level record types: object tracks, annotations and SVO frames.

Tracks and annotations are plain immutable values.  Ingest (after the schema)
and :func:`groundcap.tubes.build_record` check each record once, where it
enters; for a record built by hand, call :func:`check_track` on each track,
then :func:`check_record`.  Both raise :class:`RecordValidationError` on the
first violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from .boxes import BoundingBox
from .captions import TaggedCaption

PIXEL_EPS = 1e-6


class RecordValidationError(ValueError):
    """An invariant violation with a machine-readable reason code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class ObjectTrack:
    """One caption phrase bound to per-frame boxes, with gaps allowed.

    ``presence`` has one flag per video frame and is true exactly where
    ``boxes`` holds a box.  ``confidence`` (prediction records only) maps a
    present frame to a score in [0, 1].
    """

    phrase_index: int
    boxes: Mapping[int, BoundingBox]
    presence: tuple[bool, ...]
    confidence: Optional[Mapping[int, float]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", MappingProxyType(dict(self.boxes)))
        object.__setattr__(self, "presence", tuple(self.presence))
        if self.confidence is not None:
            object.__setattr__(self, "confidence", MappingProxyType(dict(self.confidence)))

    @classmethod
    def from_boxes(
        cls,
        phrase_index: int,
        boxes: Mapping[int, BoundingBox],
        frame_count: int,
        confidence: Optional[Mapping[int, float]] = None,
    ) -> "ObjectTrack":
        """Build a track with the presence vector derived from the box keys."""
        presence = tuple(t in boxes for t in range(frame_count))
        return cls(phrase_index, dict(boxes), presence, confidence)

    @property
    def present_frames(self) -> list[int]:
        return sorted(self.boxes)

    @property
    def frame_count(self) -> int:
        return len(self.presence)


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


def check_track(track: ObjectTrack) -> None:
    """Raise :class:`RecordValidationError` for the first broken track invariant.

    The track has a box, box frames lie inside the presence vector and agree
    with its flags, and every confidence belongs to a box.
    """
    if not track.boxes:
        raise RecordValidationError("empty-track", "track has no present frames")
    frame_count = len(track.presence)
    for t in track.boxes:
        if not 0 <= t < frame_count:
            raise RecordValidationError(
                "frame-out-of-range", f"box frame {t} outside [0, {frame_count})"
            )
    for t, flag in enumerate(track.presence):
        if flag != (t in track.boxes):
            raise RecordValidationError(
                "presence-box-mismatch",
                f"presence[{t}]={flag} but box {'missing' if flag else 'present'} at that frame",
            )
    if track.confidence is not None:
        for t in track.confidence:
            if t not in track.boxes:
                raise RecordValidationError(
                    "bad-confidence", f"confidence at frame {t} without a box"
                )


def check_record(record: VideoAnnotation) -> None:
    """Raise :class:`RecordValidationError` for the first broken record invariant.

    Its tracks must have passed :func:`check_track`.  The frame rate is
    positive, each track names a caption phrase and spans the video, pixel
    boxes stay inside the frame, and no two tracks of one phrase repeat a box.
    """
    if record.fps <= 0:
        raise RecordValidationError("bad-fps", f"fps {record.fps} must be positive")
    phrases = len(record.caption.phrases)
    width, height = record.width, record.height
    for track in record.tracks:
        if track.phrase_index >= phrases:
            raise RecordValidationError(
                "bad-phrase-index",
                f"phrase_index {track.phrase_index} but caption has {phrases} phrases",
            )
        if track.frame_count != record.frame_count:
            raise RecordValidationError(
                "presence-length",
                f"track presence length {track.frame_count} != frame_count {record.frame_count}",
            )
        if record.boxes_normalized:
            continue
        for t, box in track.boxes.items():
            if (
                box.x < -PIXEL_EPS
                or box.y < -PIXEL_EPS
                or box.x + box.w > width + PIXEL_EPS
                or box.y + box.h > height + PIXEL_EPS
            ):
                raise RecordValidationError(
                    "box-out-of-frame",
                    f"box {box.as_list()} at frame {t} exceeds {width}x{height}",
                )
    # Two tracks for one phrase are allowed (an object can be two tubes),
    # but an identical box on a shared frame means a duplicated record.
    by_phrase: dict[int, list[ObjectTrack]] = {}
    for track in record.tracks:
        by_phrase.setdefault(track.phrase_index, []).append(track)
    for phrase_index, group in by_phrase.items():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                shared = group[i].boxes.keys() & group[j].boxes.keys()
                for t in shared:
                    if group[i].boxes[t] == group[j].boxes[t]:
                        raise RecordValidationError(
                            "duplicate-track-box",
                            f"tracks for phrase {phrase_index} repeat the same box at frame {t}",
                        )


@dataclass(frozen=True)
class SvoRelation:
    """A (subject, verb, object) relation with optional adposition pairs."""

    subject: str
    verb: str
    object: Optional[str] = None
    adpositions: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "adpositions", tuple(tuple(p) for p in self.adpositions))
        if not self.subject or not self.verb:
            raise ValueError("relation subject and verb must be non-empty")
        for adposition, obj in self.adpositions:
            if not adposition or not obj:
                raise ValueError("adposition pairs must have non-empty members")


@dataclass(frozen=True)
class SvoFrame:
    """All relations extracted from one frame's caption."""

    frame_index: int
    relations: tuple[SvoRelation, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(self.relations))
        if self.frame_index < 0:
            raise ValueError(f"negative frame_index {self.frame_index}")
