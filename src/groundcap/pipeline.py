"""Per-video orchestration of the annotation stages, plus the batch driver.

One video flows: frame captions -> SVO frames -> aggregated caption ->
phrase assignments -> tracks -> final record.  Every failure mode ends in a
:class:`PipelineResult` without an annotation and with its ``(code, message)``
reasons instead of an exception, so a batch over N videos always produces
accepted + rejected == N.

:func:`map_videos` is the one batch driver: ``build`` (through
:func:`run_pipeline`), ``aggregate`` and ``track`` all run their per-video
work through it, so ``max_in_flight`` bounds the workers of each, and their
results come out in input order whatever the worker count.  The warnings
about a video are :class:`~groundcap.records.Event` values that its work
appends to a list of its own; the main thread logs each list, with
:func:`log_events`, in input order too.

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

from . import llm
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
from .records import Event, RecordValidationError, SvoFrame, SvoRelation, VideoAnnotation
from .svo import extract_svo, pos_tag
from .tubes import assemble_tracks, build_record

REJECT_INCONSISTENT_FRAMES = "inconsistent-frames"

T = TypeVar("T")
R = TypeVar("R")


class PipelineResult(NamedTuple):
    """One video's outcome: the record, or None and why it was rejected."""

    video_id: str
    annotation: Optional[VideoAnnotation]
    reasons: tuple[tuple[str, str], ...] = ()


def collect_frame_objects(
    frames: Sequence[FrameGrounding], *, events: list[Event]
) -> list[tuple[int, str, BoundingBox]]:
    """Flatten frame objects to (frame_index, phrase, pixel box) triples.

    Objects whose mask was empty (``box is None``) and boxes that vanish
    when clamped to the frame are dropped, each with an ``empty-mask`` or
    ``clamped-away`` event appended to ``events``.
    """
    objects: list[tuple[int, str, BoundingBox]] = []
    for frame in frames:
        where = f"video {frame.video_id} frame {frame.frame_index}"
        for obj in frame.objects:
            if obj.box is None:
                message = f"{where}: phrase {obj.phrase!r} has an empty mask, dropped"
                events.append(Event("empty-mask", __name__, message))
                continue
            box = obj.box.clamped(frame.width, frame.height)
            if box.area == 0:
                message = f"{where}: box for {obj.phrase!r} vanished after clamping, dropped"
                events.append(Event("clamped-away", __name__, message))
                continue
            objects.append((frame.frame_index, obj.phrase, box))
    return objects


def log_events(events: Sequence[Event]) -> None:
    """Log each event as a warning of the logger its source names, in order."""
    for event in events:
        logging.getLogger(event.source).warning(event.message)  # no args: never %-formatted


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
    *,
    events: list[Event],
) -> PipelineResult:
    """Run stages 2 and 3 plus assembly for one video's frame groundings.

    ``relations`` gives a caption's SVO relations; :func:`run_pipeline`
    passes its run's memo of :func:`_caption_relations`.  The video's
    warnings are appended to ``events``, a rejected video's too.
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
        frame_objects = collect_frame_objects(frames, events=events)
        assignments = track_by_language(
            frame_objects, caption.phrase_texts, client, config, events=events
        )
        tracks = assemble_tracks(assignments, frame_objects, caption, frame_count, events=events)
        annotation = build_record(
            video_id, frame_count, config.fps, width, height, caption, tracks, events=events
        )
    except (ResponseRejection, RecordValidationError) as exc:
        return PipelineResult(video_id, None, ((exc.code, exc.message),))
    return PipelineResult(video_id, annotation)


def map_videos(
    items: Sequence[T],
    work: Callable[[T, ChatClient, list[Event]], R],
    config: PipelineConfig,
) -> list[R]:
    """``work(item, client, events)`` for each item, with up to ``max_in_flight`` workers.

    Results come back in the order of ``items`` regardless of completion
    order, and so do the events each item's work appends to its own
    ``events``, which the calling thread logs with :func:`log_events` as it
    collects the item; batch outputs and logs are deterministic.  An item
    that raises does so in its turn, after the events of the items before it
    and its own.  Each worker thread makes its own client with
    :func:`http_client_factory` of the config, closed when the workers are
    done.
    """
    client_factory = http_client_factory(config)
    local = threading.local()
    clients: list[HttpChatClient] = []

    def worker(item: T, events: list[Event]) -> R:
        if not hasattr(local, "client"):
            local.client = client_factory()
            clients.append(local.client)
        return work(item, local.client, events)

    results = []
    events_by_item = [[] for _ in items]
    try:
        with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
            outcomes = pool.map(worker, items, events_by_item)
            for events in events_by_item:
                try:
                    results.append(next(outcomes))
                finally:  # an item that raised shows its events, then raises
                    log_events(events)
                    events.clear()
    finally:
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
        lambda frames, client, events: annotate_video(
            frames, client, config, relations, events=events
        ),
        config,
    )
