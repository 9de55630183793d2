"""Turning phrase assignments plus boxes into object tracks and final records.

Association is purely by language: a frame box lands in the track of the
video-level phrase its frame phrase was classified into, None-class objects
are dropped, and no box-overlap tracking is involved.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .boxes import BoundingBox
from .captions import TaggedCaption
from .llm import PhraseAssignment
from .ingest import annotation_from_dict, annotation_to_dict
from .records import Event, ObjectTrack, RecordValidationError, VideoAnnotation

REJECT_NO_TRACKS = "no-tracks"


def assemble_tracks(
    assignments: Sequence[PhraseAssignment],
    frame_objects: Sequence[tuple[int, str, BoundingBox]],
    caption: TaggedCaption,
    frame_count: int,
    *,
    events: list[Event],
) -> list[ObjectTrack]:
    """Group assigned frame boxes into one track per caption phrase.

    None-class objects are dropped.  When two boxes in one frame map to the
    same phrase, the larger box wins and a ``two-boxes`` event is appended
    to ``events``.  Phrases that received no boxes simply yield no track.
    """
    assigned_by_key: dict[tuple[int, str], Optional[str]] = {}
    for assignment in assignments:
        assigned_by_key[(assignment.frame_index, assignment.frame_phrase)] = assignment.assigned

    phrase_indices: dict[str, int] = {}
    for index, span in enumerate(caption.phrases):
        phrase_indices.setdefault(span.text, index)

    boxes_per_phrase: dict[int, dict[int, BoundingBox]] = {}
    for frame_index, phrase, box in frame_objects:
        key = (frame_index, phrase)
        if key not in assigned_by_key:
            raise ValueError(f"frame object {key} has no assignment")
        assigned = assigned_by_key[key]
        if assigned is None:
            continue
        if assigned not in phrase_indices:
            raise ValueError(f"assignment {assigned!r} is not a caption phrase")
        phrase_index = phrase_indices[assigned]
        frames = boxes_per_phrase.setdefault(phrase_index, {})
        if frame_index in frames:
            kept = frames[frame_index] if frames[frame_index].area >= box.area else box
            message = (
                f"frame {frame_index}: two boxes for phrase {assigned!r}, "
                f"keeping the larger ({kept.area:.1f} px^2)"
            )
            events.append(Event("two-boxes", __name__, message))
            frames[frame_index] = kept
        else:
            frames[frame_index] = box
    return [
        ObjectTrack(phrase_index, frames, frame_count)
        for phrase_index, frames in sorted(boxes_per_phrase.items())
    ]


def derive_presence(track: ObjectTrack) -> list[tuple[int, int]]:
    """Maximal runs of consecutive present frames as inclusive (start, end)."""
    segments: list[tuple[int, int]] = []
    for t in track.present_frames:
        if segments and segments[-1][1] == t - 1:
            segments[-1] = (segments[-1][0], t)
        else:
            segments.append((t, t))
    return segments


def build_record(
    video_id: str,
    frame_count: int,
    fps: float,
    width: int,
    height: int,
    caption: TaggedCaption,
    tracks: Sequence[ObjectTrack],
    *,
    events: list[Event],
) -> VideoAnnotation:
    """Assemble the final record and check it, once, with the reader's builder.

    Each caption phrase without a track appends a ``no-track`` event to
    ``events``; the phrase stays in the caption.

    Raises:
        RecordValidationError: ``no-tracks`` when no track survived, else the
            first invariant the tracks or the record break.
        SchemaError: a field the annotation schema refuses, such as an ``fps`` of 0.
    """
    if not tracks:
        raise RecordValidationError(REJECT_NO_TRACKS, "no caption phrase received any box")
    ungrounded = set(range(len(caption.phrases))) - {t.phrase_index for t in tracks}
    for index in sorted(ungrounded):
        phrase = caption.phrases[index].text
        message = (
            f"video {video_id}: caption phrase {phrase!r} has no boxes; "
            "kept in caption without a track"
        )
        events.append(Event("no-track", __name__, message))
    annotation = VideoAnnotation(
        video_id=video_id,
        frame_count=frame_count,
        fps=fps,
        width=width,
        height=height,
        caption=caption,
        tracks=tuple(tracks),
        boxes_normalized=False,
    )
    annotation_from_dict(annotation_to_dict(annotation))
    return annotation
