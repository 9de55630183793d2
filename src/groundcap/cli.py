"""Command-line interface.

Subcommands cover the pipeline stages individually (ingest, svo, aggregate,
track), the end-to-end dataset build, evaluation, validation, statistics,
and the fixture-replay mock chat server.  Every file-producing run also
writes a ``<out>.manifest.json`` with the config hash, input/output digests,
and counts; manifests carry no timestamps so identical runs are
byte-identical.

Exit codes: 0 success, 1 validation or data failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import logging
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, Optional, TypeVar

from . import __version__
from .config import SIMILARITY_BACKENDS, PipelineConfig
from .ingest import (
    SchemaError,
    annotation_to_dict,
    group_frame_groundings,
    iter_jsonl,
    load_predictions,
    parse_frame_grounding,
    read_annotations,
    validate_annotation_dict,
)
from .captions import parse_tagged_caption, render_tagged_caption
from .jsonio import canonical_json, canonical_jsonl_bytes
from .llm import ResponseRejection, aggregate_video, track_by_language
from .metrics import evaluate
from .mockllm import serve_fixtures
from .pipeline import collect_frame_objects, map_videos, run_pipeline
from .records import SvoFrame, SvoRelation
from .stats import dataset_stats
from .svo import extract_svo, pos_tag

logger = logging.getLogger("groundcap")

T = TypeVar("T")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_outputs(
    args: argparse.Namespace,
    config: PipelineConfig,
    inputs: dict[str, bytes],
    outputs: dict[str, bytes],
    counts: dict[str, int],
) -> None:
    """Write each output file, then ``<out>.manifest.json`` (or ``--manifest``).

    Every file is first written to a temporary file beside it, and only when
    all are written are they moved into place, the manifest last; a failed
    write leaves the old files as they were and no temporary file behind.
    """
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "config_hash": config.config_hash(),
        "inputs": {name: _digest(data) for name, data in inputs.items()},
        "outputs": {name: _digest(data) for name, data in outputs.items()},
        "counts": counts,
    }
    manifest_path = args.manifest or f"{args.out}.manifest.json"
    files = [*outputs.items(), (manifest_path, canonical_json(manifest).encode("utf-8") + b"\n")]
    staged: dict[str, str] = {}  # temporary file -> target
    try:
        for index, (path, data) in enumerate(files):
            if os.path.isdir(path):  # refused here, as os.replace would only after earlier moves
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            temporary = f"{path}.{os.getpid()}-{index}.tmp"
            with open(temporary, "xb") as file:  # created under the umask, as the target was
                staged[temporary] = path
                file.write(data)
        for temporary, path in staged.items():
            os.replace(temporary, path)
    finally:
        for temporary in staged:
            Path(temporary).unlink(missing_ok=True)  # gone already once moved


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    # every flag whose dest is a config field overrides it when given
    return config.override(
        **{f.name: getattr(args, f.name) for f in fields(PipelineConfig) if hasattr(args, f.name)}
    )


def _stage_file(raw: bytes, parse: Callable[[dict], T]) -> dict[str, T]:
    """``video_id -> parse(record)`` for each record of a stage output file, in file order.

    A malformed record, or a ``video_id`` that is not a string or repeats an earlier
    one, is a SchemaError naming its line.
    """
    parsed: dict[str, T] = {}
    for line, obj in iter_jsonl(raw):
        try:
            value = parse(obj)
            video_id = obj["video_id"]
            if not isinstance(video_id, str):
                raise TypeError(f"'video_id' must be a string, got {video_id!r}")
            if video_id in parsed:
                raise ValueError(f"duplicate video_id {video_id!r}")
            parsed[video_id] = value
        except KeyError as exc:
            raise SchemaError(f"{exc.args[0]!r} is a required property", line=line) from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(str(exc), line=line) from exc
    return parsed


def _with_reasons(video_id: str, reasons) -> dict:
    return {"video_id": video_id, "reasons": [{"code": c, "message": m} for c, m in reasons]}


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = _load_config(args)
    raw = Path(args.input).read_bytes()
    records = parse_frame_grounding(raw)
    dropped = 0
    out_records = []
    for record in records:
        objects = collect_frame_objects([record])
        dropped += len(record.objects) - len(objects)
        out_records.append(
            {
                "video_id": record.video_id,
                "frame_index": record.frame_index,
                "width": record.width,
                "height": record.height,
                "caption": record.caption,
                "objects": [
                    {"phrase": phrase, "box": [float(v) for v in box.as_list()]}
                    for _frame, phrase, box in objects
                ],
            }
        )
    videos = {r.video_id for r in records}
    _write_outputs(
        args,
        config,
        {args.input: raw},
        {args.out: canonical_jsonl_bytes(out_records)},
        {"frames": len(records), "videos": len(videos), "dropped_objects": dropped},
    )
    print(f"ingested {len(records)} frames across {len(videos)} videos -> {Path(args.out)}")
    return 0


def _cmd_svo(args: argparse.Namespace) -> int:
    config = _load_config(args)
    raw = Path(args.input).read_bytes()
    by_video = group_frame_groundings(parse_frame_grounding(raw))
    payloads = [
        {
            "video_id": video_id,
            "frames": [
                asdict(extract_svo(pos_tag(f.caption), f.frame_index)) for f in by_video[video_id]
            ],
        }
        for video_id in sorted(by_video)
    ]
    payload = canonical_jsonl_bytes(payloads)
    _write_outputs(args, config, {args.input: raw}, {args.out: payload}, {"videos": len(payloads)})
    print(f"extracted SVO frames for {len(payloads)} videos -> {args.out}")
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    raw = Path(args.input).read_bytes()
    videos = _stage_file(
        raw,
        lambda obj: [
            SvoFrame(f["frame_index"], tuple(SvoRelation(**r) for r in f["relations"]))
            for f in obj["frames"]
        ],
    )

    def aggregate(video: tuple[str, list[SvoFrame]], client) -> dict:
        video_id, frames = video
        try:
            aggregated = aggregate_video(frames, client, config)
        except ResponseRejection as exc:
            return _with_reasons(video_id, [(exc.code, exc.message)])
        return {"video_id": video_id, "caption": render_tagged_caption(aggregated.caption)}

    results = map_videos(list(videos.items()), aggregate, config)
    captions = [r for r in results if "caption" in r]
    rejections = [r for r in results if "reasons" in r]
    _write_outputs(
        args,
        config,
        {args.input: raw},
        {
            args.out: canonical_jsonl_bytes(captions),
            args.rejected: canonical_jsonl_bytes(rejections),
        },
        {"videos": len(results), "accepted": len(captions), "rejected": len(rejections)},
    )
    print(f"aggregated {len(captions)} captions ({len(rejections)} rejected) -> {args.out}")
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    config = _load_config(args)
    raw_frames = Path(args.input).read_bytes()
    raw_captions = Path(args.captions).read_bytes()
    by_video = group_frame_groundings(parse_frame_grounding(raw_frames))
    captions = _stage_file(raw_captions, lambda obj: parse_tagged_caption(obj["caption"]))
    video_ids = sorted(captions)
    for video_id in video_ids:
        if video_id not in by_video:
            raise SystemExit(f"error: no frame groundings for video {video_id!r}")

    def track(video_id: str, client) -> dict:
        objects = collect_frame_objects(by_video[video_id])
        assignments = track_by_language(objects, captions[video_id].phrase_texts, client, config)
        return {"video_id": video_id, "assignments": [asdict(a) for a in assignments]}

    outputs = map_videos(video_ids, track, config)
    _write_outputs(
        args,
        config,
        {args.input: raw_frames, args.captions: raw_captions},
        {args.out: canonical_jsonl_bytes(outputs)},
        {"videos": len(outputs)},
    )
    print(f"tracked phrases for {len(outputs)} videos -> {args.out}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    config = _load_config(args)
    raw = Path(args.input).read_bytes()
    by_video = group_frame_groundings(parse_frame_grounding(raw))
    results = run_pipeline(by_video, config)
    accepted = [r for r in results if r.annotation is not None]
    rejected = [r for r in results if r.annotation is None]
    dataset = canonical_jsonl_bytes([annotation_to_dict(r.annotation) for r in accepted])
    rejection_log = canonical_jsonl_bytes(
        [_with_reasons(r.video_id, r.reasons) for r in rejected]
    )
    _write_outputs(
        args,
        config,
        {args.input: raw},
        {args.out: dataset, args.rejected: rejection_log},
        {"videos": len(results), "accepted": len(accepted), "rejected": len(rejected)},
    )
    print(
        f"built {len(accepted)} records ({len(rejected)} rejected) from "
        f"{len(results)} videos -> {args.out}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config(args)
    raw_pred = Path(args.pred).read_bytes()
    raw_gt = Path(args.gt).read_bytes()
    preds = load_predictions(raw_pred, objectness_threshold=config.objectness_threshold)
    gts = read_annotations(raw_gt)
    report = evaluate(preds, gts, config)
    payload = canonical_json(report.as_dict()).encode("utf-8") + b"\n"
    _write_outputs(
        args,
        config,
        {args.pred: raw_pred, args.gt: raw_gt},
        {args.out: payload},
        {"videos": report.num_videos},
    )
    frame, video = report.frame_level, report.video_level
    print(
        f"meteor {report.meteor:.4f}  cider {report.cider:.4f}  "
        f"frame ap50/miou/recall {frame.ap50} {frame.miou} {frame.recall}  "
        f"video ap50/miou/recall {video.ap50} {video.miou} {video.recall}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    raw = Path(args.input).read_bytes()
    reports = []
    failures = 0
    for line, obj in iter_jsonl(raw):
        video_id = obj.get("video_id", f"line-{line}")
        reasons = validate_annotation_dict(obj)
        status = "rejected" if reasons else "accepted"
        if reasons:
            failures += 1
            for code, message in reasons:
                print(f"{video_id}: {code}: {message}")
        reports.append({**_with_reasons(video_id, reasons), "status": status})
    if args.out:
        _write_outputs(
            args,
            config,
            {args.input: raw},
            {args.out: canonical_jsonl_bytes(reports)},
            {"videos": len(reports), "accepted": len(reports) - failures, "rejected": failures},
        )
    print(f"validated {len(reports)} records: {len(reports) - failures} ok, {failures} invalid")
    return 1 if failures else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    config = _load_config(args)
    raw = Path(args.input).read_bytes()
    report = dataset_stats(read_annotations(raw))
    payload = canonical_json(report.as_dict()).encode("utf-8") + b"\n"
    _write_outputs(
        args, config, {args.input: raw}, {args.out: payload}, {"videos": report.num_videos}
    )
    for key, value in report.as_dict().items():
        print(f"{key}: {value}")
    return 0


def _cmd_mock_llm(args: argparse.Namespace) -> int:
    server = serve_fixtures(args.fixtures, args.host, args.port)
    print(f"mock chat endpoint at {server.url} (Ctrl+C to stop)", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--manifest", help="manifest path (default <out>.manifest.json)")


def _add_client_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--endpoint", help="chat completions URL")
    parser.add_argument("--model", help="model name")
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--retries", type=int)
    parser.add_argument("--max-in-flight", dest="max_in_flight", type=int)
    parser.add_argument("--fps", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundcap",
        description="Build and evaluate grounded video caption datasets.",
    )
    parser.add_argument("--version", action="version", version=f"groundcap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate stage-1 frame groundings, masks to boxes")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("svo", help="extract SVO relations from frame captions")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_svo)

    p = sub.add_parser("aggregate", help="aggregate frame SVO into video captions (LLM)")
    p.add_argument("--input", required=True, help="svo JSON-lines")
    p.add_argument("--out", required=True)
    p.add_argument("--rejected", required=True)
    _add_config_flags(p)
    _add_client_flags(p)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("track", help="classify frame phrases into caption phrases (LLM)")
    p.add_argument("--input", required=True, help="frame grounding JSON-lines")
    p.add_argument("--captions", required=True, help="aggregate output JSON-lines")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    _add_client_flags(p)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("build", help="run the full pipeline: dataset + rejection log")
    p.add_argument("--input", required=True, help="frame grounding JSON-lines")
    p.add_argument("--out", required=True, help="dataset JSON-lines")
    p.add_argument("--rejected", required=True, help="rejection log JSON-lines")
    _add_config_flags(p)
    _add_client_flags(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iou-thresh", dest="iou_thresh", type=float)
    p.add_argument("--sim-thresh", dest="sim_thresh", type=float)
    p.add_argument("--similarity", choices=SIMILARITY_BACKENDS)
    p.add_argument("--embedding-endpoint", dest="embedding_endpoint")
    p.add_argument(
        "--objectness-threshold", dest="objectness_threshold", type=float,
        help="temporal objectness cutoff applied to predictions "
        f"(default {PipelineConfig.objectness_threshold})",
    )
    _add_config_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("validate", help="check annotation records, exit 1 on failure")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="optional validation report JSON-lines")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="dataset statistics report")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("mock-llm", help="serve fixture responses as a chat endpoint")
    p.add_argument("--fixtures", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8191)
    p.set_defaults(func=_cmd_mock_llm)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # SchemaError and RecordValidationError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
