"""Traced run: time each layer from outside the program, then summarise.

``python perfbench/tracing.py SPANS_FILE KIND -- <groundcap CLI args>`` wraps
the layer boundaries listed in ``BOUNDARIES`` at the module attributes where
``cli``, ``pipeline``, ``llm`` and ``metrics`` look them up, runs
``groundcap.cli.main`` in this process, restores the originals and writes
every span and event to ``SPANS_FILE``. ``KIND`` is ``build`` or ``eval``; a
boundary that should fire for that kind and never did makes the run fail, so
a refactor that moves a call breaks the tracer instead of reporting zero.

:func:`layer_metrics` turns that file into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

BUILD, EVAL = "build", "eval"
BOTH = (BUILD, EVAL)

# (layer, module, attribute, kinds on which it must fire)
BOUNDARIES = [
    ("cli", "groundcap.cli", "main", BOTH),
    ("ingest", "groundcap.cli", "parse_frame_grounding", (BUILD,)),
    ("ingest", "groundcap.cli", "load_predictions", (EVAL,)),
    ("ingest", "groundcap.cli", "read_annotations", (EVAL,)),
    ("svo", "groundcap.pipeline", "pos_tag", (BUILD,)),
    ("svo", "groundcap.pipeline", "extract_svo", (BUILD,)),
    ("svo", "groundcap.llm", "render_svo_block", (BUILD,)),
    ("llm", "groundcap.pipeline", "aggregate_video", (BUILD,)),
    ("llm", "groundcap.pipeline", "track_by_language", (BUILD,)),
    ("llm", "groundcap.llm", "build_stage2_prompt", (BUILD,)),
    ("llm", "groundcap.llm", "build_stage3_prompt", (BUILD,)),
    ("llm", "groundcap.llm", "parse_stage2_response", (BUILD,)),
    ("llm", "groundcap.llm", "parse_stage3_response", (BUILD,)),
    ("transport", "groundcap.llm", "HttpChatClient.complete", (BUILD,)),
    ("pipeline", "groundcap.cli", "run_pipeline", (BUILD,)),
    ("pipeline", "groundcap.pipeline", "annotate_video", (BUILD,)),
    ("pipeline", "groundcap.pipeline", "collect_frame_objects", (BUILD,)),
    ("tubes", "groundcap.pipeline", "assemble_tracks", (BUILD,)),
    ("tubes", "groundcap.pipeline", "build_record", (BUILD,)),
    ("jsonio", "groundcap.cli", "annotation_to_dict", (BUILD,)),
    ("jsonio", "groundcap.cli", "canonical_jsonl_bytes", (BUILD,)),
    ("jsonio", "groundcap.cli", "canonical_json", BOTH),
    ("metrics", "groundcap.cli", "evaluate", (EVAL,)),
    ("metrics", "groundcap.metrics", "_match_pool", (EVAL,)),
    ("metrics", "groundcap.metrics", "cider_scores", (EVAL,)),
    ("metrics", "groundcap.metrics", "meteor_best", (EVAL,)),
]


class Tracer:
    """Spans and events of one run, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, layer, start, end, parent, video)
        self.events: list[tuple] = []  # (kind, video, *details)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.pool_parent = None  # parent of spans opened by pool worker threads

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.video = None
            self._local.stage = None
            self._local.request = None
            self._local.seen = set()
        return self._local.stack

    def wrap(self, layer: str, name: str, fn, after=None, before=None):
        """``fn`` inside a span; ``before``/``after`` run outside the span."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            local = tracer._local
            if before is not None:
                before(local, args)
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else tracer.pool_parent
            stack.append(span_id)
            if name == "run_pipeline":
                tracer.pool_parent = span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, layer, start, end, parent, local.video))
            if after is not None:
                after(local, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, fired: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "events": self.events, "fired": fired}, fh)


def _install(tracer: Tracer):
    """Wrap every boundary; returns the list of (owner, attribute, original)."""
    import importlib

    from groundcap import request_hash

    counted: dict[str, int] = {}

    def events(local, kind_, *details):
        tracer.events.append((kind_, local.video, *details))

    def set_stage(stage):
        def before(local, args):
            local.stage = stage
            if stage == 2:
                local.seen = set()  # retries are counted within one video
        return before

    def video_begin(local, args):
        local.video = args[0][0].video_id if args and args[0] else None

    def video_end(local, args, result):
        events(local, "video", result.annotation is None)

    def objects_end(local, args, result):
        events(local, "objects", sum(len(f.objects) for f in args[0]), len(result))

    def parse3_end(local, args, result):
        events(local, "parse3", local.request, True)

    def records_end(local, args, result):
        events(local, "records", len(result))

    def bytes_end(local, args, result):
        events(local, "bytes", len(result) if isinstance(result, bytes) else len(result.encode()))

    def evaluate_begin(local, args):
        preds, gts = args[0], args[1]
        frames = set()
        counts = []
        for records in (preds, gts):
            boxes = 0
            for record in records:
                for track in record.tracks:
                    boxes += len(track.boxes)
                    frames.update((record.video_id, t) for t in track.boxes)
            counts.append(boxes)
        events(local, "eval", len(frames), counts[0], counts[1])

    hooks = {
        "annotate_video": (video_begin, video_end),
        "collect_frame_objects": (None, objects_end),
        "aggregate_video": (set_stage(2), None),
        "track_by_language": (set_stage(3), None),
        "parse_frame_grounding": (None, records_end),
        "load_predictions": (None, records_end),
        "read_annotations": (None, records_end),
        "canonical_json": (None, bytes_end),
        "canonical_jsonl_bytes": (None, bytes_end),
        "evaluate": (evaluate_begin, None),
    }

    originals = []
    for layer, module_name, attribute, _kinds in BOUNDARIES:
        owner = importlib.import_module(module_name)
        name = attribute
        if "." in attribute:
            class_name, name = attribute.split(".")
            owner = getattr(owner, class_name)
        original = getattr(owner, name)  # AttributeError: the boundary moved
        counted[attribute] = 0
        before, after = hooks.get(name, (None, None))

        def counting(before, attribute=attribute):
            def hook(local, args):
                counted[attribute] += 1  # only tested for > 0, so a lost update is harmless
                if before is not None:
                    before(local, args)
            return hook

        if attribute == "HttpChatClient.complete":
            wrapped = _transport_wrapper(tracer, original, counted, request_hash)
        elif name == "parse_stage3_response":
            wrapped = _parse3_wrapper(tracer, original, counted, parse3_end)
        else:
            wrapped = tracer.wrap(layer, name, original, after=after,
                                  before=counting(before))
        setattr(owner, name, wrapped)
        originals.append((owner, name, original))
    return originals, counted


def _transport_wrapper(tracer: Tracer, original, counted, request_hash):
    from groundcap.llm import TransportError

    def complete(self, messages):
        stack = tracer._stack()
        local = tracer._local
        counted["HttpChatClient.complete"] += 1
        span_id = next(tracer._ids)
        parent = stack[-1] if stack else tracer.pool_parent
        stack.append(span_id)
        failed = False
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            return original(self, messages)
        except TransportError:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
            tracer.spans.append((span_id, "complete", "transport", start, end, parent, local.video))
            key = request_hash(messages)
            repeat = key in local.seen
            local.seen.add(key)
            local.request = key
            tracer.events.append(("call", local.video, local.stage, key, repeat, failed,
                                  end - start, cpu))

    complete.__wrapped__ = original
    return complete


def _parse3_wrapper(tracer: Tracer, original, counted, on_success):
    from groundcap.llm import ResponseRejection

    def before(local, args):
        counted["parse_stage3_response"] += 1

    inner = tracer.wrap("llm", "parse_stage3_response", original, before=before, after=on_success)

    def parse(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except ResponseRejection:
            local = tracer._local
            tracer.events.append(("parse3", local.video, local.request, False))
            raise

    return parse


def run(spans_path: str, kind: str, argv: list[str]) -> int:
    tracer = Tracer()
    originals, counted = _install(tracer)
    from groundcap import cli

    try:
        code = cli.main(argv)
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    tracer.dump(spans_path, counted)
    silent = [a for _l, _m, a, kinds in BOUNDARIES if kind in kinds and counted[a] == 0]
    if silent:
        print(f"traced run: boundaries never fired on a {kind} run: {silent}", file=sys.stderr)
        return 3
    return code


# ---------------------------------------------------------------------------
# Summaries


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: list) -> dict[str, float]:
    """Per layer: span durations minus the part their child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _id, _name, _layer, start, end, parent, _video in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for span_id, _name, layer, start, end, _parent, _video in spans:
        covered = [(max(s, start), min(e, end)) for s, e in children.get(span_id, [])]
        own = (end - start) - _union_length([(s, e) for s, e in covered if e > s])
        out[layer] = out.get(layer, 0.0) + own
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(trace: dict, process_wall_s: float, workers: int):
    """The per-layer metrics of one traced process, and its self time per layer."""
    spans, events = trace["spans"], trace["events"]
    total: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for _id, name, _layer, start, end, _parent, _video in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        durations.setdefault(name, []).append(end - start)

    def t(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    by_kind: dict[str, list[tuple]] = {}
    for event in events:
        by_kind.setdefault(event[0], []).append(event)

    calls = by_kind.get("call", [])
    videos = by_kind.get("video", [])
    records = sum(e[2] for e in by_kind.get("records", []))
    ok3 = {(e[1], e[2]) for e in by_kind.get("parse3", []) if e[3]}
    failed3 = {(e[1], e[2]) for e in by_kind.get("parse3", []) if not e[3]}
    call_ms = [e[6] * 1000 for e in calls]
    video_ms = [d * 1000 for d in durations.get("annotate_video", [])]
    pool_wall = t("run_pipeline")
    frames, pred_boxes, gt_boxes = (by_kind.get("eval") or [(None, None, 0, 0, 0)])[0][2:]
    evaluate_s = t("evaluate")
    main_s = t("main")
    self_s = self_times(spans)
    return {
        "cli.startup_s": process_wall_s - main_s,
        "cli.self_s": self_s.get("cli", 0.0),
        "ingest.parse_s": t("parse_frame_grounding", "load_predictions", "read_annotations"),
        "ingest.records": records,
        "ingest.parse_us_per_record": (
            1e6 * t("parse_frame_grounding", "load_predictions", "read_annotations") / records
            if records else 0.0),
        "svo.extract_s": t("pos_tag", "extract_svo", "render_svo_block"),
        "svo.frames": len(durations.get("extract_svo", [])),
        "llm.prompt_s": t("build_stage2_prompt", "build_stage3_prompt"),
        "llm.parse_s": t("parse_stage2_response", "parse_stage3_response"),
        "llm.calls": len(calls),
        "llm.calls_per_video": len(calls) / len(videos) if videos else 0.0,
        "llm.stage2_calls": sum(1 for e in calls if e[2] == 2),
        "llm.stage3_calls": sum(1 for e in calls if e[2] == 3),
        "llm.retries": sum(1 for e in calls if e[4]),
        "llm.unique_request_ratio": len({e[3] for e in calls}) / len(calls) if calls else 0.0,
        "llm.rejected_videos": sum(1 for e in videos if e[2]),
        "llm.none_demotions": len(failed3 - ok3),
        "transport.wall_s": sum(e[6] for e in calls),
        "transport.cpu_s": sum(e[7] for e in calls),
        "transport.wait_s": sum(e[6] - e[7] for e in calls),
        "transport.call_ms.p50": percentile(call_ms, 50) if call_ms else 0.0,
        "transport.call_ms.p99": percentile(call_ms, 99) if call_ms else 0.0,
        "transport.failed": sum(1 for e in calls if e[5]),
        "pipeline.collect_objects_s": t("collect_frame_objects"),
        "pipeline.dropped_objects": sum(e[2] - e[3] for e in by_kind.get("objects", [])),
        "pipeline.video_ms.p50": percentile(video_ms, 50) if video_ms else 0.0,
        "pipeline.video_ms.p99": percentile(video_ms, 99) if video_ms else 0.0,
        "pipeline.worker_busy_share": (
            sum(video_ms) / 1000 / (pool_wall * workers) if pool_wall else 0.0),
        "tubes.assemble_s": t("assemble_tracks", "build_record"),
        "jsonio.serialize_s": t("annotation_to_dict", "canonical_jsonl_bytes", "canonical_json"),
        "jsonio.bytes_out": sum(e[2] for e in by_kind.get("bytes", [])),
        "metrics.evaluate_s": evaluate_s,
        "metrics.match_s": t("_match_pool"),
        "metrics.cider_s": t("cider_scores"),
        "metrics.meteor_s": t("meteor_best"),
        "metrics.grounding_s": evaluate_s - t("cider_scores", "meteor_best") if evaluate_s else 0.0,
        "metrics.frames": frames,
        "metrics.pred_boxes": pred_boxes,
        "metrics.gt_boxes": gt_boxes,
    }, self_s


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--" or sys.argv[2] not in BOTH:
        sys.exit(f"usage: {sys.argv[0]} SPANS_FILE build|eval -- <groundcap CLI args>")
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[4:]))
