"""Video-level record types: object tracks, annotations, SVO frames and events.

Every type is an immutable named tuple, and :class:`RecordValidationError`
is the fault of a record that breaks their rules.  An :class:`Event` is a
warning about one video that its build keeps going past.  A track is its
boxes: its presence flags are derived from the box frames, so in memory they
cannot disagree.  This module holds values: it reads no JSON and raises
nothing.  Each JSON form is checked once, where it is read: SVO lines by the
``aggregate`` reader in :mod:`groundcap.cli`, annotation lines by the
reader's builder in :mod:`groundcap.ingest`, which every record must pass.
:func:`groundcap.tubes.build_record` runs
``annotation_from_dict(annotation_to_dict(record))`` on each record it emits;
check one built by hand the same way.
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


class SvoRelation(NamedTuple):
    """A (subject, verb, object) relation with optional adposition pairs."""

    subject: str
    verb: str
    object: Optional[str] = None
    adpositions: tuple[tuple[str, str], ...] = ()


class SvoFrame(NamedTuple):
    """All relations extracted from one frame's caption."""

    frame_index: int
    relations: tuple[SvoRelation, ...] = ()
