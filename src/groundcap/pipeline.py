"""Per-video orchestration of the annotation stages, plus the batch driver.

One video flows: frame captions -> SVO frames -> aggregated caption ->
phrase assignments -> tracks -> final record.  Every failure mode ends in a
rejected :class:`ValidationReport` instead of an exception, so a batch over
N videos always produces accepted + rejected == N.
"""

from __future__ import annotations

import functools
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .boxes import BoundingBox
from .config import PipelineConfig
from .ingest import EmptyMaskError, FrameGrounding
from .llm import (
    ChatClient,
    HttpChatClient,
    ResponseMemo,
    ResponseRejection,
    aggregate_video,
    track_by_language,
)
from .records import REJECTED, ValidationReport, VideoAnnotation
from .svo import extract_svo, pos_tag
from .tubes import assemble_tracks, build_record

logger = logging.getLogger(__name__)

REJECT_INCONSISTENT_FRAMES = "inconsistent-frames"


@dataclass(frozen=True)
class PipelineResult:
    video_id: str
    annotation: Optional[VideoAnnotation]
    report: ValidationReport


def _rejected(video_id: str, code: str, message: str) -> PipelineResult:
    return PipelineResult(video_id, None, ValidationReport(video_id, REJECTED, ((code, message),)))


def collect_frame_objects(
    frames: Sequence[FrameGrounding],
) -> list[tuple[int, str, BoundingBox]]:
    """Flatten frame objects to (frame_index, phrase, pixel box) triples.

    Masks are converted to boxes here; empty masks and boxes that vanish
    when clamped to the frame are dropped with a warning.
    """
    objects: list[tuple[int, str, BoundingBox]] = []
    for frame in frames:
        for obj in frame.objects:
            try:
                box = obj.pixel_box()
            except EmptyMaskError:
                logger.warning(
                    "video %s frame %d: phrase %r has an empty mask, dropped",
                    frame.video_id,
                    frame.frame_index,
                    obj.phrase,
                )
                continue
            box = box.clamped(frame.width, frame.height)
            if box.area == 0:
                logger.warning(
                    "video %s frame %d: box for %r vanished after clamping, dropped",
                    frame.video_id,
                    frame.frame_index,
                    obj.phrase,
                )
                continue
            objects.append((frame.frame_index, obj.phrase, box))
    return objects


def http_client_factory(config: PipelineConfig) -> Callable[[], HttpChatClient]:
    """Makes HTTP chat clients for ``config``; raises at once when no endpoint is set.

    Every client it makes shares one :class:`ResponseMemo`, so at
    temperature 0 a run sends each distinct request once, unless workers
    miss on it at the same moment.
    """
    if not config.endpoint:
        raise ValueError("no endpoint configured (use --endpoint or a config file)")
    return functools.partial(
        HttpChatClient,
        endpoint=config.endpoint,
        model=config.model,
        temperature=config.temperature,
        seed=config.seed,
        api_key=config.api_key(),
        memo=ResponseMemo(),
    )


def annotate_video(
    frames: Sequence[FrameGrounding],
    client: ChatClient,
    config: PipelineConfig = PipelineConfig(),
) -> PipelineResult:
    """Run stages 2 and 3 plus assembly for one video's frame groundings."""
    if not frames:
        raise ValueError("at least one frame grounding required")
    video_id = frames[0].video_id
    if any(f.video_id != video_id for f in frames):
        raise ValueError("frames mix multiple videos")
    sizes = {(f.width, f.height) for f in frames}
    if len(sizes) > 1:
        return _rejected(
            video_id, REJECT_INCONSISTENT_FRAMES, f"frame dimensions vary: {sorted(sizes)}"
        )
    width, height = next(iter(sizes))
    frame_count = max(f.frame_index for f in frames) + 1

    svo_frames = [extract_svo(pos_tag(f.caption), f.frame_index) for f in frames]
    try:
        aggregated = aggregate_video(
            svo_frames, client, retries=config.retries, backoff=config.backoff
        )
    except ResponseRejection as exc:
        return _rejected(video_id, exc.code, exc.message)

    caption = aggregated.caption
    frame_objects = collect_frame_objects(frames)
    assignments = track_by_language(
        frame_objects,
        caption.phrase_texts,
        client,
        retries=config.retries,
        backoff=config.backoff,
    )
    tracks = assemble_tracks(assignments, frame_objects, caption, frame_count)
    annotation, report = build_record(
        video_id, frame_count, config.fps, width, height, caption, tracks
    )
    return PipelineResult(video_id, annotation, report)


def run_pipeline(
    groundings_by_video: dict[str, list[FrameGrounding]],
    config: PipelineConfig,
    client_factory: Optional[Callable[[], ChatClient]] = None,
) -> list[PipelineResult]:
    """Annotate a batch of videos with up to ``max_in_flight`` workers.

    Results come back in sorted video-id order regardless of completion
    order, so batch outputs are deterministic.  Each worker thread gets its
    own client from ``client_factory`` (default: :func:`http_client_factory`
    of the config).
    """
    if client_factory is None:
        client_factory = http_client_factory(config)

    local = threading.local()

    def worker(video_id: str) -> PipelineResult:
        if not hasattr(local, "client"):
            local.client = client_factory()
        return annotate_video(groundings_by_video[video_id], local.client, config)

    video_ids = sorted(groundings_by_video)
    workers = max(1, config.max_in_flight)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, video_ids))
