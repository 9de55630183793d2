"""Video-level record types: object tracks, annotations, SVO frames and events.

Tracks and annotations are immutable named tuples, and
:class:`RecordValidationError` is the fault of a record that breaks their
rules.  An :class:`Event` is a warning about one video that its build keeps
going past.  A track is its boxes: its presence flags are derived from the box
frames, so in memory they cannot disagree.  This module reads no JSON: the
rules are checked on the plain-JSON form, once, by the reader's builder in
:mod:`groundcap.ingest`, which every record must pass, built ones included.
:func:`groundcap.tubes.build_record` runs
``annotation_from_dict(annotation_to_dict(record))`` on the record it emits;
check a record built by hand the same way.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .boxes import BoundingBox
from .captions import TaggedCaption


class RecordValidationError(ValueError):
    """An invariant violation with a machine-readable reason code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class Event(NamedTuple):
    """A warning about one video: a code, the logger name of its module, and its text.

    The codes: ``empty-mask`` and ``clamped-away`` (an object dropped for an
    empty mask, or for a box that vanished when clamped to the frame),
    ``none-class`` (a phrase demoted after its answer failed), ``two-boxes``
    (the smaller of two boxes for one phrase in one frame dropped) and
    ``no-track`` (a caption phrase kept without boxes).
    """

    code: str
    source: str
    message: str


class _TrackFields(NamedTuple):
    phrase_index: int
    boxes: Mapping[int, BoundingBox]
    frame_count: int
    confidence: Optional[Mapping[int, float]] = None


class ObjectTrack(_TrackFields):
    """One caption phrase bound to per-frame boxes, with gaps allowed.

    The track spans the video's ``frame_count`` frames; ``presence`` is
    derived from the box keys, one flag per frame.  ``confidence``
    (prediction records only) maps a present frame to a score in [0, 1].
    """

    __slots__ = ()

    def __new__(cls, phrase_index, boxes, frame_count, confidence=None):
        boxes = MappingProxyType(dict(boxes))
        if confidence is not None:
            confidence = MappingProxyType(dict(confidence))
        return tuple.__new__(cls, (phrase_index, boxes, frame_count, confidence))

    @property
    def presence(self) -> tuple[bool, ...]:
        """One flag per frame, true exactly where ``boxes`` holds a box."""
        return tuple(map(self.boxes.__contains__, range(self.frame_count)))

    @property
    def present_frames(self) -> list[int]:
        return sorted(self.boxes)


class _AnnotationFields(NamedTuple):
    video_id: str
    frame_count: int
    fps: float
    width: int
    height: int
    caption: TaggedCaption
    tracks: tuple[ObjectTrack, ...] = ()
    boxes_normalized: bool = False


class VideoAnnotation(_AnnotationFields):
    """One video record: caption with phrase tags plus its object tracks."""

    __slots__ = ()

    def __new__(
        cls, video_id, frame_count, fps, width, height, caption, tracks=(), boxes_normalized=False
    ):
        tracks = tuple(tracks)
        return tuple.__new__(
            cls, (video_id, frame_count, fps, width, height, caption, tracks, boxes_normalized)
        )

    @property
    def duration_seconds(self) -> float:
        return self.frame_count / self.fps


class _RelationFields(NamedTuple):
    subject: str
    verb: str
    object: Optional[str] = None
    adpositions: tuple[tuple[str, str], ...] = ()


class SvoRelation(_RelationFields):
    """A (subject, verb, object) relation with optional adposition pairs."""

    __slots__ = ()

    def __new__(cls, subject, verb, object=None, adpositions=()):
        for key, value in (("subject", subject), ("verb", verb), ("object", object)):
            if not isinstance(value, str) and (key != "object" or value is not None):
                raise TypeError(f"relation {key} must be a string, got {value!r}")
        if not subject or not verb:
            raise ValueError("relation subject and verb must be non-empty")
        adpositions = tuple(adpositions)
        for pair in adpositions:
            # a list or tuple, as a two-letter string would unpack too
            is_pair = isinstance(pair, (list, tuple)) and len(pair) == 2
            if not is_pair or not all(isinstance(member, str) for member in pair):
                raise TypeError(f"adposition must be a pair of strings, got {pair!r}")
            if not all(pair):
                raise ValueError("adposition pairs must have non-empty members")
        pairs = tuple(tuple(p) for p in adpositions)
        return tuple.__new__(cls, (subject, verb, object, pairs))


class _SvoFrameFields(NamedTuple):
    frame_index: int
    relations: tuple[SvoRelation, ...] = ()


class SvoFrame(_SvoFrameFields):
    """All relations extracted from one frame's caption."""

    __slots__ = ()

    def __new__(cls, frame_index, relations=()):
        relations = tuple(relations)
        if isinstance(frame_index, bool) or not isinstance(frame_index, int):
            raise TypeError(f"frame_index must be an integer, got {frame_index!r}")
        if frame_index < 0:
            raise ValueError(f"negative frame_index {frame_index}")
        return tuple.__new__(cls, (frame_index, relations))
