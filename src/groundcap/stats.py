"""Dataset statistics: frames, durations, instances, box sizes, tube lengths.

An instance is one box in one frame; a tube is a maximal run of consecutive
present frames within one track, so a track with gaps contributes several
tubes.  Box sizes are reported in pixels (normalized records are scaled back
by their frame size) and averaged per instance.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .records import VideoAnnotation
from .tubes import derive_presence


class StatsReport(NamedTuple):
    num_videos: int
    avg_num_frames: float
    avg_duration_seconds: float
    avg_num_instances_per_video: float
    total_num_instances: int
    avg_box_width: Optional[float]
    avg_box_height: Optional[float]
    avg_tube_length_frames: Optional[float]
    avg_caption_length_words: float


def dataset_stats(records: Iterable[VideoAnnotation]) -> StatsReport:
    """Aggregate statistics over a dataset of annotation records, read in one pass."""
    frames = words = total_instances = tubes = 0
    width_sum = height_sum = 0.0
    durations = []  # added by sum() at the end: from 3.12 it rounds unlike a running total
    for record in records:
        frames += record.frame_count
        durations.append(record.duration_seconds)
        words += len(record.caption.plain.split())
        # a normalized box is a fraction of its frame; a pixel box keeps its size
        scale_w, scale_h = (record.width, record.height) if record.boxes_normalized else (1, 1)
        for track in record.tracks:
            total_instances += len(track.boxes)
            for box in track.boxes.values():
                width_sum += box.w * scale_w
                height_sum += box.h * scale_h
            tubes += len(derive_presence(track))
    n = len(durations)
    if not n:
        raise ValueError("cannot compute statistics over an empty dataset")
    return StatsReport(
        num_videos=n,
        avg_num_frames=frames / n,
        avg_duration_seconds=sum(durations) / n,
        avg_num_instances_per_video=total_instances / n,
        total_num_instances=total_instances,
        avg_box_width=width_sum / total_instances if total_instances else None,
        avg_box_height=height_sum / total_instances if total_instances else None,
        # every present frame lies in exactly one tube
        avg_tube_length_frames=total_instances / tubes if tubes else None,
        avg_caption_length_words=words / n,
    )
