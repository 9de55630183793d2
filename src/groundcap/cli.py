"""Command-line interface.

Subcommands cover the pipeline stages individually (ingest, svo, aggregate,
track), the end-to-end dataset build, evaluation, validation, statistics,
and the fixture-replay mock chat server.  :func:`main` runs every command
but ``mock-llm`` the same way: it loads the config, refuses a run that would
write two of its outputs to one file, then reads and digests each input the
subcommand declares once and hands the command the config and the bytes.
Every file-producing run also writes a ``<out>.manifest.json`` with the
config hash, input/output digests, and counts; manifests carry no timestamps
so identical runs are byte-identical.

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
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from . import __version__
from .config import PipelineConfig
from .ingest import (
    FrameObject,
    SchemaError,
    annotation_to_dict,
    frame_to_dict,
    group_frame_groundings,
    iter_annotations,
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
from .pipeline import collect_frame_objects, log_events, map_videos, run_pipeline
from .records import SvoFrame, SvoRelation
from .stats import dataset_stats
from .svo import extract_svo, pos_tag

T = TypeVar("T")
_VideoOutput = tuple[str, list[dict], Sequence[tuple[str, str]]]  # video id, output lines, reasons


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_outputs(
    args: argparse.Namespace, outputs: dict[str, bytes], counts: dict[str, int]
) -> None:
    """Write each output file, then the manifest with the hash and digests :func:`main` took.

    Every file is first written to a temporary file beside it, and only when
    all are written are they moved into place, the manifest last; a failed
    write leaves the old files as they were and no temporary file behind.
    An output given as a link is written to the file it points to, and stays
    a link.
    """
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "config_hash": args.config_hash,
        "inputs": args.input_digests,
        "outputs": {name: _digest(data) for name, data in outputs.items()},
        "counts": counts,
    }
    files = [*outputs.items(), (args.manifest, canonical_json(manifest).encode("utf-8") + b"\n")]
    staged: dict[str, str] = {}  # temporary file -> target
    try:
        for index, (path, data) in enumerate(files):
            if os.path.isdir(path):  # refused here, as os.replace would only after earlier moves
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            target = os.path.realpath(path)
            temporary = f"{target}.{os.getpid()}-{index}.tmp"
            try:
                with open(temporary, "xb") as file:  # created under the umask, as the target was
                    staged[temporary] = target
                    file.write(data)
            except OSError as exc:  # name the file asked for, not its temporary
                raise OSError(exc.errno, exc.strerror, path) from exc
        for temporary, path in staged.items():
            os.replace(temporary, path)
    finally:
        for temporary in staged:
            Path(temporary).unlink(missing_ok=True)  # gone already once moved


_KINDS = {str: "a string", list: "an array", dict: "an object"}
_RELATION_FIELDS = frozenset(SvoRelation._fields)


def _of_kind(value: T, kind: type, name: str) -> T:
    """``value``, which must be a ``kind``; else a TypeError naming the field ``name``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return value


def _stage_file(raw: bytes, parse: Callable[[dict], T]) -> dict[str, T]:
    """``video_id -> parse(record)`` for each record of a stage output file, in file order.

    A malformed record, or a ``video_id`` that is not a non-empty string or repeats an
    earlier one, is a SchemaError naming its line.
    """
    parsed: dict[str, T] = {}
    for line, obj in iter_jsonl(raw):
        try:
            value = parse(obj)
            video_id = _of_kind(obj["video_id"], str, "'video_id'")
            if not video_id:
                raise ValueError("'video_id' must be a non-empty string, got ''")
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


def _write_videos(
    args: argparse.Namespace, results: list[_VideoOutput], counts: Optional[dict[str, int]] = None
) -> int:
    """Write each video's ``(video_id, lines, reasons)``, given in output order, and the manifest.

    The lines go to ``--out``.  A command with ``--rejected`` logs there each
    video that has no lines, with its reasons, and counts the accepted and
    rejected videos beside ``videos`` and the command's own ``counts``.
    Returns the number of videos that have lines.
    """
    accepted = [lines for _video_id, lines, _reasons in results if lines]
    outputs = {args.out: canonical_jsonl_bytes([line for lines in accepted for line in lines])}
    counts = {"videos": len(results), **(counts or {})}
    if hasattr(args, "rejected"):
        rejections = [_with_reasons(v, reasons) for v, lines, reasons in results if not lines]
        outputs[args.rejected] = canonical_jsonl_bytes(rejections)
        counts.update(accepted=len(accepted), rejected=len(rejections))
    _write_outputs(args, outputs, counts)
    return len(accepted)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_ingest(args: argparse.Namespace, config: PipelineConfig, raw: bytes) -> int:
    records = parse_frame_grounding(raw)
    events = []  # each one an object dropped
    results = []
    for video_id, frames in group_frame_groundings(records).items():
        lines = []
        for record in frames:
            objects = collect_frame_objects([record], events=events)
            kept = tuple(FrameObject(phrase, box) for _frame, phrase, box in objects)
            lines.append(frame_to_dict(record._replace(objects=kept)))
        results.append((video_id, lines, ()))
    log_events(events)
    counts = {"frames": len(records), "dropped_objects": len(events)}
    _write_videos(args, results, counts)
    print(f"ingested {len(records)} frames across {len(results)} videos -> {Path(args.out)}")
    return 0


def _cmd_svo(args: argparse.Namespace, config: PipelineConfig, raw: bytes) -> int:
    results = []
    for video_id, frames in group_frame_groundings(parse_frame_grounding(raw)).items():
        extracted = (extract_svo(pos_tag(f.caption), f.frame_index) for f in frames)
        svo_frames = [
            {"frame_index": s.frame_index, "relations": [r._asdict() for r in s.relations]}
            for s in extracted
        ]
        results.append((video_id, [{"video_id": video_id, "frames": svo_frames}], ()))
    _write_videos(args, results)
    print(f"extracted SVO frames for {len(results)} videos -> {args.out}")
    return 0


def _cmd_aggregate(args: argparse.Namespace, config: PipelineConfig, raw: bytes) -> int:
    def relation(item) -> SvoRelation:
        given = _of_kind(item, dict, "relation")
        for name in ("subject", "verb"):
            if name not in given:
                raise KeyError(name)  # named as a required property
        unexpected = [key for key in given if key not in _RELATION_FIELDS]
        if unexpected:
            raise ValueError(f"unexpected property {unexpected[0]!r}")
        subject, verb, obj, pairs = SvoRelation(**given)  # the defaults fill in the rest
        for name, value in (("subject", subject), ("verb", verb), ("object", obj)):
            if not isinstance(value, str) and (name != "object" or value is not None):
                raise TypeError(f"relation {name} must be a string, got {value!r}")
        if not subject or not verb:
            raise ValueError("relation subject and verb must be non-empty")
        for pair in pairs:
            is_pair = isinstance(pair, list) and len(pair) == 2  # not a two-letter string
            if not is_pair or not all(isinstance(member, str) for member in pair):
                raise TypeError(f"adposition must be a pair of strings, got {pair!r}")
            if not all(pair):
                raise ValueError("adposition pairs must have non-empty members")
        return SvoRelation(subject, verb, obj, tuple(map(tuple, pairs)))

    def frame(item) -> SvoFrame:
        index = _of_kind(item, dict, "frame")["frame_index"]
        relations = tuple(map(relation, _of_kind(item["relations"], list, "relations")))
        if isinstance(index, bool) or not isinstance(index, int):
            raise TypeError(f"frame_index must be an integer, got {index!r}")
        if index < 0:
            raise ValueError(f"negative frame_index {index}")
        return SvoFrame(index, relations)

    videos = _stage_file(raw, lambda obj: list(map(frame, _of_kind(obj["frames"], list, "frames"))))

    def aggregate(video: tuple[str, list[SvoFrame]], client, _events) -> _VideoOutput:
        video_id, frames = video
        try:
            caption = render_tagged_caption(aggregate_video(frames, client, config))
        except ResponseRejection as exc:
            return video_id, [], [(exc.code, exc.message)]
        return video_id, [{"video_id": video_id, "caption": caption}], ()

    results = map_videos(list(videos.items()), aggregate, config)
    accepted = _write_videos(args, results)
    print(f"aggregated {accepted} captions ({len(results) - accepted} rejected) -> {args.out}")
    return 0


def _cmd_track(
    args: argparse.Namespace, config: PipelineConfig, raw_frames: bytes, raw_captions: bytes
) -> int:
    by_video = group_frame_groundings(parse_frame_grounding(raw_frames))

    def phrases(obj: dict) -> list[str]:
        texts = parse_tagged_caption(_of_kind(obj["caption"], str, "caption")).phrase_texts
        if not texts:
            raise ValueError("caption tags no phrases")
        return texts

    captions = _stage_file(raw_captions, phrases)
    video_ids = sorted(captions)
    for video_id in video_ids:
        if video_id not in by_video:
            raise ValueError(f"no frame groundings for video {video_id!r}")

    def track(video_id: str, client, events) -> _VideoOutput:
        objects = collect_frame_objects(by_video[video_id], events=events)
        assignments = track_by_language(objects, captions[video_id], client, config, events=events)
        lines = [{"video_id": video_id, "assignments": [a._asdict() for a in assignments]}]
        return video_id, lines, ()

    results = map_videos(video_ids, track, config)
    _write_videos(args, results)
    print(f"tracked phrases for {len(results)} videos -> {args.out}")
    return 0


def _cmd_build(args: argparse.Namespace, config: PipelineConfig, raw: bytes) -> int:
    by_video = group_frame_groundings(parse_frame_grounding(raw))
    results = [
        (r.video_id, [] if r.annotation is None else [annotation_to_dict(r.annotation)], r.reasons)
        for r in run_pipeline(by_video, config)
    ]
    accepted = _write_videos(args, results)
    print(
        f"built {accepted} records ({len(results) - accepted} rejected) from "
        f"{len(results)} videos -> {args.out}"
    )
    return 0


def _cmd_eval(
    args: argparse.Namespace, config: PipelineConfig, raw_pred: bytes, raw_gt: bytes
) -> int:
    preds = load_predictions(raw_pred, objectness_threshold=config.objectness_threshold)
    gts = read_annotations(raw_gt)
    report = evaluate(preds, gts, config)
    payload = canonical_json(report.as_dict()).encode("utf-8") + b"\n"
    _write_outputs(args, {args.out: payload}, {"videos": report.num_videos})
    frame, video = report.frame_level, report.video_level
    print(
        f"meteor {report.meteor:.4f}  cider {report.cider:.4f}  "
        f"frame ap50/miou/recall {frame.ap50} {frame.miou} {frame.recall}  "
        f"video ap50/miou/recall {video.ap50} {video.miou} {video.recall}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace, config: PipelineConfig, raw: bytes) -> int:
    reports = []
    failures = 0
    first_lines: dict[str, int] = {}  # video id -> the line it first appears on
    for line, obj in iter_jsonl(raw):
        video_id = obj.get("video_id")
        reasons = validate_annotation_dict(obj)
        if isinstance(video_id, str) and video_id:
            if video_id in first_lines:
                reasons.append((
                    "duplicate-video-id",
                    f"duplicate video_id {video_id!r} (first on line {first_lines[video_id]})",
                ))
            first_lines.setdefault(video_id, line)
        else:
            video_id = f"line-{line}"
        status = "rejected" if reasons else "accepted"
        if reasons:
            failures += 1
            for code, message in reasons:
                print(f"{video_id}: {code}: {message}")
        reports.append({**_with_reasons(video_id, reasons), "status": status})
    if args.out:
        _write_outputs(
            args,
            {args.out: canonical_jsonl_bytes(reports)},
            {"videos": len(reports), "accepted": len(reports) - failures, "rejected": failures},
        )
    print(f"validated {len(reports)} records: {len(reports) - failures} ok, {failures} invalid")
    return 1 if failures else 0


def _cmd_stats(args: argparse.Namespace, config: PipelineConfig, raw: bytes) -> int:
    report = dataset_stats(iter_annotations(raw))._asdict()
    payload = canonical_json(report).encode("utf-8") + b"\n"
    _write_outputs(args, {args.out: payload}, {"videos": report["num_videos"]})
    for key, value in report.items():
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
    p.set_defaults(func=_cmd_ingest, inputs=("input",))

    p = sub.add_parser("svo", help="extract SVO relations from frame captions")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_svo, inputs=("input",))

    p = sub.add_parser("aggregate", help="aggregate frame SVO into video captions (LLM)")
    p.add_argument("--input", required=True, help="svo JSON-lines")
    p.add_argument("--out", required=True)
    p.add_argument("--rejected", required=True)
    _add_config_flags(p)
    _add_client_flags(p)
    p.set_defaults(func=_cmd_aggregate, inputs=("input",))

    p = sub.add_parser("track", help="classify frame phrases into caption phrases (LLM)")
    p.add_argument("--input", required=True, help="frame grounding JSON-lines")
    p.add_argument("--captions", required=True, help="aggregate output JSON-lines")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    _add_client_flags(p)
    p.set_defaults(func=_cmd_track, inputs=("input", "captions"))

    p = sub.add_parser("build", help="run the full pipeline: dataset + rejection log")
    p.add_argument("--input", required=True, help="frame grounding JSON-lines")
    p.add_argument("--out", required=True, help="dataset JSON-lines")
    p.add_argument("--rejected", required=True, help="rejection log JSON-lines")
    _add_config_flags(p)
    _add_client_flags(p)
    p.add_argument("--fps", type=float)
    p.set_defaults(func=_cmd_build, inputs=("input",))

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iou-thresh", dest="iou_thresh", type=float)
    p.add_argument("--sim-thresh", dest="sim_thresh", type=float)
    p.add_argument("--embedding-endpoint", dest="embedding_endpoint")
    p.add_argument(
        "--objectness-threshold", dest="objectness_threshold", type=float,
        help="temporal objectness cutoff applied to predictions "
        f"(default {PipelineConfig._field_defaults['objectness_threshold']})",
    )
    _add_config_flags(p)
    p.set_defaults(func=_cmd_eval, inputs=("pred", "gt"))

    p = sub.add_parser("validate", help="check annotation records, exit 1 on failure")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="optional validation report JSON-lines")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_validate, inputs=("input",))

    p = sub.add_parser("stats", help="dataset statistics report")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_stats, inputs=("input",))

    p = sub.add_parser("mock-llm", help="serve fixture responses as a chat endpoint")
    p.add_argument("--fixtures", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8191)
    p.set_defaults(func=_cmd_mock_llm)

    return parser


def _refuse_shared_outputs(args: argparse.Namespace) -> None:
    """Refuse a run that would write two of its outputs to one file."""
    outputs = [("--out", args.out), ("--rejected", getattr(args, "rejected", None))]
    named: dict[str, str] = {}  # real path -> the output it is
    for label, path in [*outputs, ("the manifest", args.manifest)]:
        if path is not None:
            real = os.path.realpath(path)
            if real in named:
                raise ValueError(f"{named[real]} and {label} are one file: {path}")
            named[real] = label


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "mock-llm":  # it serves until stopped, with no config or files
            return args.func(args)
        if args.out is not None:
            args.manifest = args.manifest or f"{args.out}.manifest.json"
        elif args.manifest is not None:  # validate writes no file without --out
            parser.error(f"{args.command} --manifest requires --out")
        config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
        # every flag whose dest is a config field overrides it when given
        config = config.override(**{name: getattr(args, name, None) for name in config._fields})
        _refuse_shared_outputs(args)
        paths = [getattr(args, name) for name in args.inputs]
        raw = {path: Path(path).read_bytes() for path in dict.fromkeys(paths)}  # each read once
        args.config_hash = config.config_hash()
        args.input_digests = {path: _digest(data) for path, data in raw.items()}
        return args.func(args, config, *(raw[path] for path in paths))
    except (ValueError, OSError) as exc:  # SchemaError and RecordValidationError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
