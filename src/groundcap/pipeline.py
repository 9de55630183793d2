"""Per-video orchestration of the annotation stages, plus the batch driver.

One video flows: frame captions -> SVO frames -> aggregated caption ->
phrase assignments -> tracks -> final record.  Every failure mode ends in a
:class:`PipelineResult` without an annotation and with its ``(code, message)``
reasons instead of an exception, so a batch over N videos always produces
accepted + rejected == N.

:func:`map_videos` is the one batch driver: ``build`` (through
:func:`run_pipeline`), ``aggregate`` and ``track`` all run their per-video
work through it, so ``max_in_flight`` bounds the workers of each, and their
results and warnings come out in input order whatever the worker count.

A run tags each distinct frame caption once: :func:`run_pipeline` keeps a
memo from caption to SVO relations beside the answers the clients share,
bounded like them by :data:`~groundcap.llm.MEMO_CAPACITY` captions, least
recently used dropped first.  The memo lives for one run, never the process.
"""

from __future__ import annotations

import functools
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

from . import llm, tubes
from .boxes import BoundingBox
from .config import PipelineConfig
from .ingest import FrameGrounding
from .llm import (
    ChatClient,
    HttpChatClient,
    ResponseMemo,
    ResponseRejection,
    aggregate_video,
    track_by_language,
)
from .records import RecordValidationError, SvoFrame, SvoRelation, VideoAnnotation
from .svo import extract_svo, pos_tag
from .tubes import assemble_tracks, build_record

logger = logging.getLogger(__name__)

REJECT_INCONSISTENT_FRAMES = "inconsistent-frames"

T = TypeVar("T")
R = TypeVar("R")


class PipelineResult(NamedTuple):
    """One video's outcome: the record, or None and why it was rejected."""

    video_id: str
    annotation: Optional[VideoAnnotation]
    reasons: tuple[tuple[str, str], ...] = ()


def collect_frame_objects(
    frames: Sequence[FrameGrounding],
) -> list[tuple[int, str, BoundingBox]]:
    """Flatten frame objects to (frame_index, phrase, pixel box) triples.

    Objects whose mask was empty (``box is None``) and boxes that vanish
    when clamped to the frame are dropped with a warning.
    """
    objects: list[tuple[int, str, BoundingBox]] = []
    for frame in frames:
        for obj in frame.objects:
            if obj.box is None:
                logger.warning(
                    "video %s frame %d: phrase %r has an empty mask, dropped",
                    frame.video_id,
                    frame.frame_index,
                    obj.phrase,
                )
                continue
            box = obj.box.clamped(frame.width, frame.height)
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
    temperature 0 a run sends each distinct request once, even when workers
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


def _caption_relations(caption: str) -> tuple[SvoRelation, ...]:
    """The SVO relations of one frame caption."""
    return extract_svo(pos_tag(caption), 0).relations


def annotate_video(
    frames: Sequence[FrameGrounding],
    client: ChatClient,
    config: PipelineConfig = PipelineConfig(),
    relations: Callable[[str], tuple[SvoRelation, ...]] = _caption_relations,
) -> PipelineResult:
    """Run stages 2 and 3 plus assembly for one video's frame groundings.

    ``relations`` gives a caption's SVO relations; :func:`run_pipeline`
    passes its run's memo of :func:`_caption_relations`.
    """
    if not frames:
        raise ValueError("at least one frame grounding required")
    video_id = frames[0].video_id
    if any(f.video_id != video_id for f in frames):
        raise ValueError("frames mix multiple videos")
    try:
        sizes = {(f.width, f.height) for f in frames}
        if len(sizes) > 1:
            raise RecordValidationError(
                REJECT_INCONSISTENT_FRAMES, f"frame dimensions vary: {sorted(sizes)}"
            )
        width, height = next(iter(sizes))
        frame_count = max(f.frame_index for f in frames) + 1
        svo_frames = [SvoFrame(f.frame_index, relations(f.caption)) for f in frames]
        caption = aggregate_video(svo_frames, client, config)
        frame_objects = collect_frame_objects(frames)
        assignments = track_by_language(frame_objects, caption.phrase_texts, client, config)
        tracks = assemble_tracks(assignments, frame_objects, caption, frame_count)
        annotation = build_record(
            video_id, frame_count, config.fps, width, height, caption, tracks
        )
    except (ResponseRejection, RecordValidationError) as exc:
        return PipelineResult(video_id, None, ((exc.code, exc.message),))
    return PipelineResult(video_id, annotation)


class _HeldRecords(logging.Filter):
    """Holds back the log records of threads that are working on a video.

    Workers finish videos in any order; holding each video's records until
    its result is collected lets them reach the handlers in input order.
    """

    loggers = (logger, llm.logger, tubes.logger)  # the modules per-video work logs from

    def __init__(self) -> None:
        super().__init__()
        self._local = threading.local()

    def filter(self, record: logging.LogRecord) -> bool:
        held = getattr(self._local, "held", None)
        if held is None:
            return True
        held.append(record)
        return False

    def hold(self, held: list[logging.LogRecord]) -> None:
        """Start holding this thread's records in ``held``."""
        self._local.held = held

    def release(self) -> None:
        """Stop holding this thread's records."""
        self._local.held = None


def map_videos(
    items: Sequence[T],
    work: Callable[[T, ChatClient], R],
    config: PipelineConfig,
) -> list[R]:
    """``work(item, client)`` for each item, with up to ``max_in_flight`` workers.

    Results, and the warnings logged while working on each item, come back
    in the order of ``items`` regardless of completion order, so batch
    outputs and logs are deterministic.  An item that raises does so in its
    turn, after the warnings of the items before it and its own.  Each worker
    thread makes its own client with :func:`http_client_factory` of the
    config, closed when the workers are done.
    """
    client_factory = http_client_factory(config)
    local = threading.local()
    clients: list[HttpChatClient] = []
    held_records = _HeldRecords()

    def worker(item: T, held: list[logging.LogRecord]) -> R:
        if not hasattr(local, "client"):
            local.client = client_factory()
            clients.append(local.client)
        held_records.hold(held)
        try:
            return work(item, local.client)
        finally:
            held_records.release()

    results = []
    held_by_item = [[] for _ in items]  # the records each item logs, handled in its turn
    for source in _HeldRecords.loggers:
        source.addFilter(held_records)
    try:
        with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
            outcomes = pool.map(worker, items, held_by_item)
            for held in held_by_item:
                try:
                    results.append(next(outcomes))
                finally:  # an item that raised shows what it logged, then raises
                    for record in held:
                        logging.getLogger(record.name).handle(record)
                    held.clear()
    finally:
        for source in _HeldRecords.loggers:
            source.removeFilter(held_records)
        for client in clients:
            client.close()
    return results


def run_pipeline(
    groundings_by_video: dict[str, list[FrameGrounding]],
    config: PipelineConfig,
) -> list[PipelineResult]:
    """Annotate a batch of videos through :func:`map_videos`, in sorted video-id order.

    Each distinct caption is tagged once in the run, or once by each worker
    that misses on it at the same moment, within
    :data:`~groundcap.llm.MEMO_CAPACITY` captions.
    """
    relations = functools.lru_cache(maxsize=llm.MEMO_CAPACITY)(_caption_relations)
    return map_videos(
        [groundings_by_video[video_id] for video_id in sorted(groundings_by_video)],
        lambda frames, client: annotate_video(frames, client, config, relations),
        config,
    )
