"""Video-level record types: object tracks, annotations and SVO frames.

Tracks and annotations are plain immutable values.  A track is its boxes:
its presence flags are derived from the box frames, so in memory they
cannot disagree; the ``presence`` of the JSON form is checked against the
boxes where a record enters, and written where it leaves.  The invariants
are checked on the plain-JSON form, once, where a record enters.
:func:`check_annotation` states them and raises
:class:`RecordValidationError` on the first violation.
:func:`groundcap.tubes.build_record` runs it on ``annotation_to_dict`` of the
record it emits; check a record built by hand the same way.  Ingest's reader
applies the same rules as it builds each record, and calls
:func:`check_annotation` only to explain a line it refuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Optional

from .boxes import BoundingBox, box_fault
from .captions import MalformedCaptionError, TaggedCaption, parse_tagged_caption

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


def check_annotation(obj: dict) -> TaggedCaption:
    """The parsed caption of schema-valid plain-JSON annotation ``obj``, whose invariants hold.

    Else :class:`RecordValidationError` for the first broken one: the caption
    parses; each track in turn has valid boxes, at least one, inside its
    presence vector and agreeing with its flags, and a box for each
    confidence; then each track names a caption phrase and spans the video,
    pixel boxes stay inside the frame, and no two tracks of one phrase
    repeat a box.
    """
    try:
        caption = parse_tagged_caption(obj["caption"])
    except MalformedCaptionError as exc:
        raise RecordValidationError("caption-malformed", str(exc)) from exc
    normalized = obj["boxes_normalized"]
    boxes_of = []  # per track: frame -> (x, y, w, h)
    for item in obj["tracks"]:
        boxes = {}
        for key, coords in item["boxes"].items():
            box = tuple(map(float, coords))
            fault = box_fault(*box, normalized)
            if fault is not None:
                raise RecordValidationError("bad-box", f"frame {key}: {fault}")
            boxes[int(key)] = box
        if not boxes:
            raise RecordValidationError("empty-track", "track has no present frames")
        presence = item["presence"]
        for t in boxes:
            if t >= len(presence):
                raise RecordValidationError(
                    "frame-out-of-range", f"box frame {t} outside [0, {len(presence)})"
                )
        for t, flag in enumerate(presence):
            if flag != (t in boxes):
                raise RecordValidationError(
                    "presence-box-mismatch",
                    f"presence[{t}]={flag} but box "
                    f"{'missing' if flag else 'present'} at that frame",
                )
        for t in map(int, item.get("confidence", ())):
            if t not in boxes:
                raise RecordValidationError(
                    "bad-confidence", f"confidence at frame {t} without a box"
                )
        boxes_of.append(boxes)
    phrases = len(caption.phrases)
    frame_count, width, height = int(obj["frame_count"]), int(obj["width"]), int(obj["height"])
    right, bottom = width + PIXEL_EPS, height + PIXEL_EPS
    by_phrase: dict[int, list[dict]] = {}  # phrase index -> the boxes of each of its tracks
    for item, boxes in zip(obj["tracks"], boxes_of):
        phrase_index = int(item["phrase_index"])
        if phrase_index >= phrases:
            raise RecordValidationError(
                "bad-phrase-index",
                f"phrase_index {phrase_index} but caption has {phrases} phrases",
            )
        if len(item["presence"]) != frame_count:
            raise RecordValidationError(
                "presence-length",
                f"track presence length {len(item['presence'])} != frame_count {frame_count}",
            )
        if not normalized:
            for t, (x, y, w, h) in boxes.items():
                if x < -PIXEL_EPS or y < -PIXEL_EPS or x + w > right or y + h > bottom:
                    raise RecordValidationError(
                        "box-out-of-frame",
                        f"box {[x, y, w, h]} at frame {t} exceeds {width}x{height}",
                    )
        by_phrase.setdefault(phrase_index, []).append(boxes)
    # Two tracks for one phrase are allowed (an object can be two tubes),
    # but an identical box on a shared frame means a duplicated record.
    for phrase_index, group in by_phrase.items():
        for first, second in combinations(group, 2):
            for t in first.keys() & second.keys():
                if first[t] == second[t]:
                    raise RecordValidationError(
                        "duplicate-track-box",
                        f"tracks for phrase {phrase_index} repeat the same box at frame {t}",
                    )
    return caption


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
