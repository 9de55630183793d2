"""Parsers and validators for the three on-disk formats.

* frame grounding — JSON-lines, one record per video frame, boxes or RLE
  masks per object (``frame_grounding.schema.json``);
* video annotations — one JSON document per video, JSON-lines for datasets
  (``video_annotation.schema.json``);
* predictions — annotation records with per-frame confidence scores
  (``predictions.schema.json``, which differs from the annotation schema only
  in ``$id``, title and description, so predictions are checked against the
  annotation schema).

This module reads and writes the frame and annotation forms; :mod:`.cli`
reads, checks and writes the stage files (SVO, captions, assignments and
rejection logs), and :mod:`.records` holds values and raises nothing.  Each
line has one builder that checks it and builds its record in one walk:
:func:`_frame` a frame line, by its schema and its box and mask rules, and
:func:`_annotation` an annotation line, by its schema and the record rules
that :func:`check_annotation` states.  The builder is the only acceptor: every
record, built ones included, must pass it, and ``build`` checks each record it
emits with ``annotation_from_dict(annotation_to_dict(record))``.  Every command
asks the builder first, ``validate`` too.  Only a line it refuses is explained,
by :func:`_errors`, which walks the shipped schema file (read on first need)
and gives JSON Schema's errors in its order with two tightenings (numbers are
finite doubles, and frame keys match whole), and then by ``check_annotation``,
so the first error in their order is the one reported.  Masks are reduced to
their pixel boxes as frame records are read.  All parsing is pure per record,
so files can be processed in parallel.  A JSON-lines file is decoded, parsed
and checked one line at a time, so the first faulty line in file order is the
one reported, whatever its fault.
"""

from __future__ import annotations

import importlib.resources
import io
import json
import math
import operator
import re
import sys
from functools import lru_cache
from itertools import accumulate, chain, combinations, compress, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .boxes import BoundingBox, box_fault
from .captions import MalformedCaptionError
from .captions import parse_tagged_caption, render_tagged_caption
from .config import PipelineConfig
from .jsonio import canonical_json
from .records import ObjectTrack, RecordValidationError, VideoAnnotation


class SchemaError(ValueError):
    """A file does not match its schema; names the offending line and field."""

    def __init__(self, message: str, line: Optional[int] = None, field_path: Optional[str] = None):
        location = []
        if line is not None:
            location.append(f"line {line}")
        if field_path:
            location.append(field_path)
        prefix = ": ".join(location)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line = line
        self.field_path = field_path


class EmptyMaskError(ValueError):
    """An RLE mask decodes to zero foreground pixels."""


_DOUBLE_MAX = sys.float_info.max
PIXEL_EPS = 1e-6  # how far a pixel box may pass the frame edge
# a key of boxes or confidence; it takes only a str, so test the type first
_FRAME_KEY = re.compile("0|[1-9][0-9]*").fullmatch


def _is_number(value) -> bool:
    """A JSON number that fits a double: NaN, infinities and huge ints do not."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and -_DOUBLE_MAX <= value <= _DOUBLE_MAX


def _is_integer(value) -> bool:
    """A JSON Schema integer: a number without a fractional part, so 2.0 is one."""
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _show(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "an array"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


_TYPES = {  # JSON Schema type -> (test, description in messages)
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "an array"),
    "number": (_is_number, "a finite number"),
    "integer": (_is_integer, "an integer"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "boolean": (lambda v: isinstance(v, bool), "a boolean"),
}
_NUMBERS = {int, float}
_ITEM_KINDS = {"number": _NUMBERS, "integer": {int}, "boolean": {bool}}  # _all_pass kinds per type
_BOX_ITEMS = (_NUMBERS, -_DOUBLE_MAX)  # (kinds, floor) with which every item passes


def _all_pass(value: list, kinds: set, floor) -> bool:
    """Whether, by C-level builtins, every item has a type in ``kinds`` (bool is its own type
    here) and, given a ``floor``, is a number in [floor, the largest double], not NaN."""
    seen = set(map(type, value))
    if not seen <= kinds or floor is None or not value:
        return seen <= kinds
    in_range = floor <= min(value) and max(value) <= _DOUBLE_MAX
    return in_range and not (float in seen and any(map(math.isnan, value)))


@lru_cache(maxsize=None)
def _input_schema(name: str) -> dict:
    """A shipped schema file, read the first time a refused line needs explaining."""
    return json.loads(importlib.resources.files("groundcap.schemas").joinpath(name).read_bytes())


def _errors(value, schema: dict) -> Iterator[tuple[str, str]]:
    """``(path, message)`` for each way ``value`` breaks ``schema``, in walk order.

    Keywords mean what JSON Schema says, with two tightenings: numbers are
    finite doubles, and a pattern key matches whole (a key that is not a
    string matches none).  Each path is relative to ``value``, and a parent
    puts its own segment in front, so a valid value builds no path string.
    An array of bare numbers, integers or flags that :func:`_all_pass`
    vouches for is not walked item by item.
    """
    if "type" in schema:
        test, expected = _TYPES[schema["type"]]
        if not test(value):
            yield "", f"expected {expected}, got {_show(value)}"
            return
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            yield "", f"{value!r} is less than the minimum of {schema['minimum']}"
        if "maximum" in schema and value > schema["maximum"]:
            yield "", f"{value!r} is greater than the maximum of {schema['maximum']}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            yield "", f"{value!r} is not greater than {schema['exclusiveMinimum']}"
    elif isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                yield "", f"{name!r} is a required property"
        properties = schema.get("properties", {})
        patterns = schema.get("patternProperties", {})
        for key, item in value.items():
            subs = [properties[key]] if key in properties else []
            if patterns and isinstance(key, str):
                subs += [sub for pattern, sub in patterns.items() if re.fullmatch(pattern, key)]
            if not subs and schema.get("additionalProperties") is False:
                yield "", f"unexpected property {key!r}"
            for sub in subs:
                for path, message in _errors(item, sub):
                    yield f".{key}{path}", message
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield "", f"has {len(value)} items, fewer than {schema['minItems']}"
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            yield "", f"has {len(value)} items, more than {schema['maxItems']}"
        items = schema.get("items", {})
        kinds = _ITEM_KINDS.get(items.get("type")) if items.keys() <= {"type", "minimum"} else None
        if not (kinds and _all_pass(value, kinds, items.get("minimum", -_DOUBLE_MAX))):
            for i, item in enumerate(value):
                for path, message in _errors(item, items):
                    yield f"[{i}]{path}", message
    elif isinstance(value, str) and len(value) < schema.get("minLength", 0):
        yield "", f"shorter than {schema['minLength']} characters"
    if "oneOf" in schema:
        options = schema["oneOf"]
        valid = sum(next(_errors(value, sub), None) is None for sub in options)
        if valid != 1:
            yield "", f"valid under {valid} of the {len(options)} oneOf schemas, expected 1"


def _frame_errors(obj) -> Iterator[tuple[str, str]]:
    """``(json_path, message)`` for each way ``obj`` breaks ``frame_grounding.schema.json``."""
    schema = _input_schema("frame_grounding.schema.json")
    return (("$" + path, message) for path, message in _errors(obj, schema))


def _annotation_errors(obj) -> Iterator[tuple[str, str]]:
    """``(json_path, message)`` for each way ``obj`` breaks ``video_annotation.schema.json``."""
    schema = _input_schema("video_annotation.schema.json")
    return (("$" + path, message) for path, message in _errors(obj, schema))


def _check_schema(errors: Iterator[tuple[str, str]], line: Optional[int]) -> None:
    """Raise the first of ``errors`` as a SchemaError naming ``line``."""
    first = next(errors, None)
    if first is not None:
        raise SchemaError(first[1], line=line, field_path=first[0])


def iter_jsonl(data: bytes) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_number, parsed_object)`` for non-blank lines, 1-based, each line
    decoded and parsed only when it is reached."""
    for i, raw in enumerate(io.BytesIO(data), start=1):
        text = _decode(raw, i)
        if text.strip():
            yield i, _json_record(text, i)


def _decode(data: bytes, line: Optional[int]) -> str:
    """``data`` as UTF-8; a bad byte is a SchemaError naming ``line``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"invalid UTF-8: {exc.reason}", line=line) from exc


def _json_record(text: str, line: Optional[int]) -> dict:
    """One JSON-lines record, which must be an object."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", line=line) from exc
    if not isinstance(obj, dict):
        raise SchemaError("record must be a JSON object", line=line)
    return obj


# ---------------------------------------------------------------------------
# RLE masks


def mask_to_box(counts: Iterable[int], width: int, height: int) -> BoundingBox:
    """Tightest pixel-aligned box containing every foreground pixel.

    Works directly on the runs without materializing the grid, so masks cost
    O(number of runs) regardless of frame size.  The runs are reduced in a
    fixed number of C-level passes, with no Python step per run: ``min``
    tests the signs, ``accumulate`` gives each run's end, slices give the
    foreground runs (the odd ones) and their first pixels, ``compress`` and
    ``filter`` drop the empty ones, y comes from the first and last of them,
    and x from each run's first column and that column plus its length.  A
    run spans rows exactly when that sum is larger than ``width``, and then
    touches both frame edges; otherwise the largest sum is one past the
    rightmost column.

    Raises:
        EmptyMaskError: when the mask has no foreground pixels.
        SchemaError: on a negative run (the first one is named), or when the
            runs do not sum to ``width * height``.
    """
    if width < 1 or height < 1:
        raise SchemaError(f"mask dimensions must be >= 1, got {width}x{height}")
    runs = counts if type(counts) is list else list(counts)
    if min(runs, default=0) < 0:
        raise SchemaError(f"negative run length {next(run for run in runs if run < 0)}")
    ends = list(accumulate(runs))  # one past the last pixel of each run
    total = ends[-1] if ends else 0
    if total != width * height:
        raise SchemaError(f"mask runs sum to {total}, expected {width * height}")
    # foreground runs are the odd ones, each starting where the run before ends
    lengths, firsts = runs[1::2], ends[0:-1:2]
    if not all(lengths):  # keep the non-empty ones
        firsts, lengths = list(compress(firsts, lengths)), list(filter(None, lengths))
    if not firsts:
        raise EmptyMaskError("mask has no foreground pixels")
    min_y, max_y = firsts[0] // width, (firsts[-1] + lengths[-1] - 1) // width
    first_cols = list(map(operator.mod, firsts, repeat(width)))
    reach = max(map(operator.add, first_cols, lengths))
    if reach > width:  # some run spans rows
        min_x, max_x = 0, width - 1
    else:
        min_x, max_x = min(first_cols), reach - 1
    return BoundingBox(
        float(min_x), float(min_y), float(max_x - min_x + 1), float(max_y - min_y + 1)
    )


# ---------------------------------------------------------------------------
# Frame grounding (stage-1 output)


class FrameObject(NamedTuple):
    """One grounded phrase in a frame and its pixel box; None for an empty mask."""

    phrase: str
    box: Optional[BoundingBox]


class _FrameFields(NamedTuple):
    video_id: str
    frame_index: int
    width: int
    height: int
    caption: str
    objects: tuple[FrameObject, ...] = ()


class FrameGrounding(_FrameFields):
    """The grounded caption of one video frame."""

    __slots__ = ()

    def __new__(cls, video_id, frame_index, width, height, caption, objects=()):
        return tuple.__new__(cls, (video_id, frame_index, width, height, caption, tuple(objects)))


def parse_frame_grounding(data: bytes) -> list[FrameGrounding]:
    """Parse a frame-grounding JSON-lines file.

    Returns records sorted by ``(video_id, frame_index)``, each mask reduced
    to its box; duplicate ``(video_id, frame_index)`` pairs are an error.
    """
    records: list[FrameGrounding] = []
    seen: set[tuple[str, int]] = set()
    for line, obj in iter_jsonl(data):
        record = _frame_grounding(obj, line)
        key = (record.video_id, record.frame_index)
        if key in seen:
            raise SchemaError(f"duplicate frame record {key}", line=line)
        seen.add(key)
        records.append(record)
    records.sort(key=lambda r: (r.video_id, r.frame_index))
    return records


def _frame_grounding(obj: dict, line: int) -> FrameGrounding:
    """Check one frame-grounding record and build it in one walk; errors name ``line``.

    A record that walk refuses is explained by the walker, whose first error
    is raised; past it, the walk's own fault is: a box of negative size or
    mask runs that do not sum to the frame.
    """
    try:
        return _frame(obj, line)
    except ValueError as exc:
        _check_schema(_frame_errors(obj), line)
        if isinstance(exc, SchemaError):
            raise
        raise AssertionError(f"line {line}: a record the schema accepts was refused") from exc


_FRAME_FIELDS = frozenset(("video_id", "frame_index", "width", "height", "caption", "objects"))


def _frame(obj, line: int) -> FrameGrounding:
    """The record of frame ``obj`` from ``line``; ValueError on any fault.

    Integer fields and mask runs go through ``int``, as the schema lets
    integral floats pass.  A box of negative size or mask runs that do not
    sum to the frame are a SchemaError naming the line and the object.
    """
    if not (isinstance(obj, dict) and obj.keys() == _FRAME_FIELDS):
        raise ValueError("not a frame object")
    video_id, caption, items = obj["video_id"], obj["caption"], obj["objects"]
    sizes = obj["frame_index"], obj["width"], obj["height"]
    if not (
        isinstance(video_id, str)
        and video_id
        and isinstance(caption, str)
        and isinstance(items, list)
        and all(map(_is_integer, sizes))
        and sizes[0] >= 0
        and min(sizes[1:]) >= 1
    ):
        raise ValueError("a field breaks the schema")
    frame_index, width, height = map(int, sizes)
    objects = []
    for i, item in enumerate(items):
        if not (
            isinstance(item, dict)
            and len(item) == 2
            and isinstance(item.get("phrase"), str)
            and item["phrase"]
        ):
            raise ValueError("not an object with a phrase and a box or a mask")
        if "box" in item:
            xywh = item["box"]
            if not (isinstance(xywh, list) and len(xywh) == 4 and _all_pass(xywh, *_BOX_ITEMS)):
                raise ValueError("not a box of 4 finite numbers")
            try:
                box = BoundingBox(*map(float, xywh))
            except ValueError as exc:  # a negative size
                raise SchemaError(str(exc), line, f"$.objects[{i}].box") from exc
        elif "mask" in item:
            runs = item["mask"]  # non-negative ints whose sum fits a double are schema numbers
            plain = isinstance(runs, list) and set(map(type, runs)) <= {int}
            if not (plain and width * height <= _DOUBLE_MAX):  # mask_to_box tests sign and sum
                if not (isinstance(runs, list) and all(map(_is_integer, runs))):
                    raise ValueError("not a mask of integer runs")
                runs = list(map(int, runs))  # the schema lets integral floats such as 5.0 pass
            try:
                box = mask_to_box(runs, width, height)
            except EmptyMaskError:
                box = None  # dropped, with an empty-mask event, by pipeline.collect_frame_objects
            except SchemaError as exc:  # a negative run, or runs that do not sum to the frame
                raise SchemaError(str(exc), line, f"$.objects[{i}].mask") from exc
        else:
            raise ValueError("neither a box nor a mask")
        objects.append(FrameObject(item["phrase"], box))
    return FrameGrounding(video_id, frame_index, width, height, caption, tuple(objects))


def frame_to_dict(frame: FrameGrounding) -> dict:
    """Plain-JSON form of a frame whose objects all have boxes; :func:`_frame` reads it back."""
    objects = [{"phrase": p, "box": [float(v) for v in box.as_list()]} for p, box in frame.objects]
    return {**frame._asdict(), "objects": objects}


def group_frame_groundings(records: list[FrameGrounding]) -> dict[str, list[FrameGrounding]]:
    """Group sorted frame records by video id, preserving frame order."""
    by_video: dict[str, list[FrameGrounding]] = {}
    for record in records:
        by_video.setdefault(record.video_id, []).append(record)
    return by_video


# ---------------------------------------------------------------------------
# Video annotations


def annotation_to_dict(annotation: VideoAnnotation) -> dict:
    """Plain-JSON form of an annotation, caption rendered with phrase tags."""
    tracks = []
    for track in annotation.tracks:
        entry: dict = {
            "phrase_index": track.phrase_index,
            "presence": list(track.presence),
            "boxes": {str(t): [float(v) for v in box.as_list()] for t, box in track.boxes.items()},
        }
        if track.confidence is not None:
            entry["confidence"] = {str(t): float(s) for t, s in track.confidence.items()}
        tracks.append(entry)
    return {
        "video_id": annotation.video_id,
        "frame_count": annotation.frame_count,
        "fps": float(annotation.fps),
        "width": annotation.width,
        "height": annotation.height,
        "caption": render_tagged_caption(annotation.caption),
        "boxes_normalized": annotation.boxes_normalized,
        "tracks": tracks,
    }


def annotation_from_dict(obj: dict, line: Optional[int] = None) -> VideoAnnotation:
    """Build a validated :class:`VideoAnnotation` from its plain-JSON form."""
    return _read_annotation(obj, line, 0.0, set())


def _read_annotation(obj, line: Optional[int], threshold: float, seen: set) -> VideoAnnotation:
    """Check annotation ``obj`` from ``line`` and build its record in one walk.

    The rules of the schema and of :func:`check_annotation` are tested in a
    few C-level passes over the boxes of all tracks and over each track's
    flags and scores, and the frames scored below ``threshold``
    are dropped as :func:`load_predictions` says.  A refused record is
    explained by the walker, then by ``check_annotation``, which raise the
    first error in their order.  After them come a ``video_id`` already in
    ``seen`` (which gains this one), then a track without a score for a
    frame when ``threshold`` is above 0.
    """
    try:
        record, missing = _annotation(obj, threshold)
    except ValueError:
        _check_schema(_annotation_errors(obj), line)
        try:
            check_annotation(obj)
        except RecordValidationError as exc:
            if line is not None:  # the message names the line; .code and .message stay
                exc.args = (f"line {line}: {exc.message}",)
            raise
        raise AssertionError(f"line {line}: a record the schema and its checks accept was refused")
    if record.video_id in seen:
        raise SchemaError(f"duplicate video_id {record.video_id!r}", line=line)
    seen.add(record.video_id)
    if missing is not None:
        index, frames = missing
        raise SchemaError(
            f"track {index} missing confidence for frames {frames} with threshold {threshold}",
            line=line,
            field_path=f"$.tracks[{index}].confidence",
        )
    return record


_ANNOTATION_KEYS = frozenset(
    ("video_id", "frame_count", "fps", "width", "height", "caption", "boxes_normalized", "tracks")
)
_REQUIRED_TRACK_KEYS = frozenset(("phrase_index", "presence", "boxes"))
_TRACK_KEYS = _REQUIRED_TRACK_KEYS | {"confidence"}


def _annotation(obj, threshold: float) -> tuple[VideoAnnotation, Optional[tuple[int, list]]]:
    """The record of ``obj`` at ``threshold``, and the first track missing a score with the
    frames it misses, or None; ValueError on any fault, found in no particular order.

    Integer fields go through ``int``, as the schema lets integral floats pass.
    """
    if not (isinstance(obj, dict) and obj.keys() == _ANNOTATION_KEYS):
        raise ValueError("not an annotation object")
    video_id, fps, text = obj["video_id"], obj["fps"], obj["caption"]
    normalized, items = obj["boxes_normalized"], obj["tracks"]
    sizes = obj["frame_count"], obj["width"], obj["height"]
    if not (
        isinstance(video_id, str)
        and video_id
        and all(map(_is_integer, sizes))
        and min(sizes) >= 1
        and _is_number(fps)
        and fps > 0
        and isinstance(text, str)
        and isinstance(normalized, bool)
        and isinstance(items, list)
    ):
        raise ValueError("a field breaks the schema")
    caption = parse_tagged_caption(text)
    frame_count, width, height = map(int, sizes)
    for item in items:
        if not (
            isinstance(item, dict)
            and _REQUIRED_TRACK_KEYS <= item.keys() <= _TRACK_KEYS
            and isinstance(item["boxes"], dict)
            and item["boxes"]
            # frame keys, tested before any goes through int
            and all(map(isinstance, item["boxes"], repeat(str)))
            and all(map(_FRAME_KEY, item["boxes"]))
        ):
            raise ValueError("not a track object with frame-keyed boxes")
    # The boxes of every track at once.  No bound is tested on a coordinate:
    # a box that the box and frame rules accept is finite.
    box_lists = list(chain.from_iterable(item["boxes"].values() for item in items))
    if not (all(map(isinstance, box_lists, repeat(list))) and set(map(len, box_lists)) <= {4}):
        raise ValueError("a box is not an array of 4 numbers")
    coords = list(chain.from_iterable(box_lists))
    if not _all_pass(coords, *_BOX_ITEMS):
        raise ValueError("a coordinate is not a finite number")
    coords = list(map(float, coords))
    xs, ys, ws, hs = coords[0::4], coords[1::4], coords[2::4], coords[3::4]
    if coords and not normalized and (
        min(xs) < -PIXEL_EPS
        or min(ys) < -PIXEL_EPS
        or max(map(operator.add, xs, ws)) > width + PIXEL_EPS
        or max(map(operator.add, ys, hs)) > height + PIXEL_EPS
    ):
        raise ValueError("a box leaves the frame")
    # BoundingBox refuses a box that is invalid in its mode
    all_boxes = map(BoundingBox, xs, ys, ws, hs, repeat(normalized))
    tracks = []
    missing = None
    by_phrase: dict[int, list[dict]] = {}  # phrase index -> the boxes of each of its tracks
    for index, item in enumerate(items):
        phrase_index, presence, boxes = item["phrase_index"], item["presence"], item["boxes"]
        frames = list(map(int, boxes))
        if not (
            _is_integer(phrase_index)
            and 0 <= phrase_index < len(caption.phrases)
            and isinstance(presence, list)
            and len(presence) == frame_count
            and _all_pass(presence, {bool}, None)
            # the flags are true exactly at the box frames
            and max(frames) < frame_count
            and presence.count(True) == len(frames)
            and all(map(presence.__getitem__, frames))
        ):
            raise ValueError("a track field breaks the schema or the track rules")
        track_boxes = dict(zip(frames, islice(all_boxes, len(frames))))
        by_phrase.setdefault(int(phrase_index), []).append(track_boxes)
        confidence = None
        if "confidence" in item:
            scores = item["confidence"]
            # keys of the boxes are frame keys, so the keys of the scores need no test of their own
            if not (isinstance(scores, dict) and scores.keys() <= boxes.keys()):
                raise ValueError("a score breaks the schema or has no box")
            values = list(scores.values())
            if not (_all_pass(values, _NUMBERS, 0) and max(values, default=0) <= 1):
                raise ValueError("a score is not a number in [0, 1]")
            confidence = dict(zip(map(int, scores), map(float, values)))
            if threshold > 0.0 and missing is None and len(scores) < len(frames):
                missing = index, sorted(track_boxes.keys() - confidence.keys())
            if threshold > 0.0 and missing is None:
                kept = map(operator.ge, map(confidence.__getitem__, frames), repeat(threshold))
                track_boxes = dict(compress(track_boxes.items(), kept))
                if not track_boxes:
                    continue
                confidence = dict(zip(track_boxes, map(confidence.__getitem__, track_boxes)))
        tracks.append(ObjectTrack(int(phrase_index), track_boxes, frame_count, confidence))
    _check_distinct_tracks(by_phrase)
    record = VideoAnnotation(
        video_id=video_id,
        frame_count=frame_count,
        fps=float(fps),
        width=width,
        height=height,
        caption=caption,
        tracks=tuple(tracks),
        boxes_normalized=normalized,
    )
    return record, missing


def check_annotation(obj: dict) -> None:
    """Explain why the builder refused schema-valid plain-JSON annotation ``obj``.

    A :class:`RecordValidationError` for the first broken rule: the caption
    parses; each track in turn has valid boxes, at least one, inside its
    presence vector and agreeing with its flags, and a box for each
    confidence; then each track names a caption phrase and spans the video,
    pixel boxes stay inside the frame, and no two tracks of one phrase
    repeat a box.
    """
    try:
        caption = parse_tagged_caption(obj["caption"])
    except MalformedCaptionError as exc:
        raise RecordValidationError("caption-malformed", str(exc)) from exc
    normalized = obj["boxes_normalized"]
    boxes_of = []  # per track: frame -> (x, y, w, h)
    for item in obj["tracks"]:
        boxes = {}
        for key, coords in item["boxes"].items():
            box = tuple(map(float, coords))
            fault = box_fault(*box, normalized)
            if fault is not None:
                raise RecordValidationError("bad-box", f"frame {key}: {fault}")
            boxes[int(key)] = box
        if not boxes:
            raise RecordValidationError("empty-track", "track has no present frames")
        presence = item["presence"]
        for t in boxes:
            if t >= len(presence):
                raise RecordValidationError(
                    "frame-out-of-range", f"box frame {t} outside [0, {len(presence)})"
                )
        for t, flag in enumerate(presence):
            if flag != (t in boxes):
                raise RecordValidationError(
                    "presence-box-mismatch",
                    f"presence[{t}]={flag} but box "
                    f"{'missing' if flag else 'present'} at that frame",
                )
        for t in map(int, item.get("confidence", ())):
            if t not in boxes:
                raise RecordValidationError(
                    "bad-confidence", f"confidence at frame {t} without a box"
                )
        boxes_of.append(boxes)
    phrases = len(caption.phrases)
    frame_count, width, height = int(obj["frame_count"]), int(obj["width"]), int(obj["height"])
    right, bottom = width + PIXEL_EPS, height + PIXEL_EPS
    by_phrase: dict[int, list[dict]] = {}  # phrase index -> the boxes of each of its tracks
    for item, boxes in zip(obj["tracks"], boxes_of):
        phrase_index = int(item["phrase_index"])
        if phrase_index >= phrases:
            raise RecordValidationError(
                "bad-phrase-index",
                f"phrase_index {phrase_index} but caption has {phrases} phrases",
            )
        if len(item["presence"]) != frame_count:
            raise RecordValidationError(
                "presence-length",
                f"track presence length {len(item['presence'])} != frame_count {frame_count}",
            )
        if not normalized:
            for t, (x, y, w, h) in boxes.items():
                if x < -PIXEL_EPS or y < -PIXEL_EPS or x + w > right or y + h > bottom:
                    raise RecordValidationError(
                        "box-out-of-frame",
                        f"box {[x, y, w, h]} at frame {t} exceeds {width}x{height}",
                    )
        by_phrase.setdefault(phrase_index, []).append(boxes)
    _check_distinct_tracks(by_phrase)


def _check_distinct_tracks(by_phrase: dict[int, list[dict]]) -> None:
    """RecordValidationError when two tracks of one phrase in ``by_phrase`` (phrase index ->
    the boxes of each of its tracks) repeat a box on a shared frame.  Two tracks for one phrase
    are allowed (an object can be two tubes), but that means a duplicated record."""
    for phrase_index, group in by_phrase.items():
        for first, second in combinations(group, 2):
            for t in first.keys() & second.keys():
                if first[t] == second[t]:
                    raise RecordValidationError(
                        "duplicate-track-box",
                        f"tracks for phrase {phrase_index} repeat the same box at frame {t}",
                    )


def parse_video_annotation(data: bytes) -> VideoAnnotation:
    """Parse a single annotation document (inverse of serialization)."""
    return annotation_from_dict(_json_record(_decode(data, None), None))


def serialize_video_annotation(annotation: VideoAnnotation) -> bytes:
    """Canonical bytes for one annotation.

    Keys are sorted, box frames sort numerically, and floats carry exactly
    six decimals, so serialization is a golden-file-stable identity partner
    of :func:`parse_video_annotation` (coordinates beyond six decimals are
    quantized on write).
    """
    return canonical_json(annotation_to_dict(annotation)).encode("utf-8")


def validate_annotation_dict(obj: dict) -> list[tuple[str, str]]:
    """All validation failures for a plain-JSON annotation, not just the first.

    Covers the machine-checkable acceptance rules: the caption must parse,
    phrase spans index it correctly, boxes stay inside the declared frame,
    and presence flags agree with the stored boxes.  A record the builder
    accepts has none; a refused one gets up to ten schema errors, else the
    first rule :func:`check_annotation` finds broken, else ``unexplained``.
    """
    try:
        _annotation(obj, 0.0)
        return []
    except ValueError:
        pass
    errors = islice(_annotation_errors(obj), 10)
    reasons = [("schema", f"{field_path}: {message}") for field_path, message in errors]
    if reasons:
        return reasons
    try:
        check_annotation(obj)
    except RecordValidationError as exc:
        return [(exc.code, exc.message)]
    return [("unexplained", "a record the schema and its checks accept was refused")]


def read_annotations(data: bytes) -> list[VideoAnnotation]:
    """Read a JSON-lines dataset of annotation records."""
    return list(iter_annotations(data))


def iter_annotations(data: bytes, threshold: float = 0.0) -> Iterator[VideoAnnotation]:
    """:func:`load_predictions` at ``threshold``, one record at a time as its line is reached."""
    seen: set[str] = set()
    for line, obj in iter_jsonl(data):
        yield _read_annotation(obj, line, threshold, seen)


# ---------------------------------------------------------------------------
# Predictions


def load_predictions(
    data: bytes,
    objectness_threshold: float = PipelineConfig._field_defaults["objectness_threshold"],
) -> list[VideoAnnotation]:
    """Read prediction records and apply the temporal objectness threshold.

    Frames whose confidence falls below the threshold are removed from their
    track (presence set false); surviving confidences are kept for AP
    ranking.  Tracks and records may end up empty, which evaluation treats
    as no prediction.  A track without a confidence map is score-less: it
    evaluates at confidence 1.0 and passes any threshold (so ground-truth
    style records are valid predictions).  A track with a partial map is an
    error once filtering is requested: every present frame needs a score.
    """
    if not 0.0 <= objectness_threshold <= 1.0:
        raise ValueError(f"objectness threshold {objectness_threshold} outside [0, 1]")
    return list(iter_annotations(data, objectness_threshold))
