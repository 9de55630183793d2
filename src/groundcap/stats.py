"""Dataset statistics: frames, durations, instances, box sizes, tube lengths.

An instance is one box in one frame; a tube is a maximal run of consecutive
present frames within one track, so a track with gaps contributes several
tubes.  Box sizes are reported in pixels (normalized records are scaled back
by their frame size) and averaged per instance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .records import VideoAnnotation
from .tubes import derive_presence


@dataclass(frozen=True)
class StatsReport:
    num_videos: int
    avg_num_frames: float
    avg_duration_seconds: float
    avg_num_instances_per_video: float
    total_num_instances: int
    avg_box_width: Optional[float]
    avg_box_height: Optional[float]
    avg_tube_length_frames: Optional[float]
    avg_caption_length_words: float

    def as_dict(self) -> dict:
        return asdict(self)


def dataset_stats(records: Sequence[VideoAnnotation]) -> StatsReport:
    """Aggregate statistics over a dataset of annotation records."""
    if not records:
        raise ValueError("cannot compute statistics over an empty dataset")
    total_instances = 0
    width_sum = 0.0
    height_sum = 0.0
    tubes = tube_frames = 0  # a running count and sum of tube lengths
    for record in records:
        for track in record.tracks:
            total_instances += len(track.boxes)
            for box in track.boxes.values():
                if box.normalized:
                    width_sum += box.w * record.width
                    height_sum += box.h * record.height
                else:
                    width_sum += box.w
                    height_sum += box.h
            for start, end in derive_presence(track):
                tubes += 1
                tube_frames += end - start + 1
    n = len(records)
    return StatsReport(
        num_videos=n,
        avg_num_frames=sum(r.frame_count for r in records) / n,
        avg_duration_seconds=sum(r.duration_seconds for r in records) / n,
        avg_num_instances_per_video=total_instances / n,
        total_num_instances=total_instances,
        avg_box_width=width_sum / total_instances if total_instances else None,
        avg_box_height=height_sum / total_instances if total_instances else None,
        avg_tube_length_frames=tube_frames / tubes if tubes else None,
        avg_caption_length_words=sum(len(r.caption.plain.split()) for r in records) / n,
    )
