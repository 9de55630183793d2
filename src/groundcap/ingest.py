"""Parsers and validators for the three on-disk formats.

* frame grounding — JSON-lines, one record per video frame, boxes or RLE
  masks per object (``frame_grounding.schema.json``);
* video annotations — one JSON document per video, JSON-lines for datasets
  (``video_annotation.schema.json``);
* predictions — annotation records with per-frame confidence scores
  (``predictions.schema.json``, which differs from the annotation schema only
  in ``$id``, title and description, so predictions are checked against the
  annotation schema).

Masks are reduced to their pixel boxes as frame records are read.  All
parsing is pure per record, so files can be processed in parallel.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, compress, repeat
from typing import Callable, Iterable, Iterator, Optional

from .boxes import BoundingBox
from .captions import TaggedCaption, render_tagged_caption
from .jsonio import canonical_json
from .records import ObjectTrack, RecordValidationError, VideoAnnotation, check_annotation


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


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by file name."""
    text = importlib.resources.files("groundcap.schemas").joinpath(name).read_text("utf-8")
    return json.loads(text)


# The keywords the compiled checkers handle; the input schemas may use no
# others besides the annotations, which they ignore.
_KEYWORDS = frozenset(
    {
        "type",
        "required",
        "properties",
        "additionalProperties",
        "patternProperties",
        "items",
        "minItems",
        "maxItems",
        "minimum",
        "maximum",
        "exclusiveMinimum",
        "minLength",
        "oneOf",
    }
)
_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description"})

_DOUBLE_MAX = sys.float_info.max


def _is_number(value) -> bool:
    """A JSON number that fits a double: NaN, infinities and huge ints do not."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -_DOUBLE_MAX <= value <= _DOUBLE_MAX
    )


def _is_integer(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


_TYPES = {  # JSON Schema type -> (Python classes, further test, description in messages)
    "object": (dict, None, "an object"),
    "array": (list, None, "an array"),
    "string": (str, None, "a string"),
    "boolean": (bool, None, "a boolean"),
    "number": ((int, float), _is_number, "a finite number"),
    "integer": ((int, float), _is_integer, "an integer"),
}

# (keyword, whether a number fails it, message), in the order they are checked
_BOUNDS = (
    ("minimum", operator.lt, "{!r} is less than the minimum of {}"),
    ("maximum", operator.gt, "{!r} is greater than the maximum of {}"),
    ("exclusiveMinimum", operator.le, "{!r} is not greater than {}"),
)

# A checker returns None for a valid value, else ``(path, message)`` for each
# violation in walk order, the path relative to the checked value; a parent
# puts its own segment in front as the errors travel up.
_Errors = Optional[list[tuple[str, str]]]
_Checker = Callable[[object], _Errors]


def _show(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "an array"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _nested(errors: _Errors, found: list[tuple[str, str]], segment: str) -> list[tuple[str, str]]:
    """``errors`` followed by a child's ``found``, moved under ``segment``."""
    moved = [(segment + path, message) for path, message in found]
    return moved if errors is None else errors + moved


def _compile(schema) -> _Checker:
    """The checker for ``schema``; ``ValueError`` on anything it does not handle.

    Keywords mean what JSON Schema 2020-12 says and apply by the type of the
    value, with two tightenings: numbers must be finite doubles, and a
    ``patternProperties`` key must match its pattern whole (ECMA-262 ``$``,
    which Python's ``re.search`` would let match before a trailing newline).
    Each keyword's arguments are read here, once, so checking a value looks
    nothing up in the schema.
    """
    if not isinstance(schema, dict):
        raise ValueError(f"unsupported schema {schema!r}: only object schemas are checked")
    unknown = set(schema) - _KEYWORDS - _ANNOTATIONS
    if unknown:
        raise ValueError(f"unsupported schema keywords {sorted(unknown)}")
    kind = schema.get("type")
    if kind is not None and kind not in tuple(_TYPES):
        raise ValueError(f"unsupported schema type {kind!r}")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError("only additionalProperties: false is supported")
    by_value = {  # what applies to a value of each kind (a boolean has no keywords)
        "number": _number_checker(schema),
        "object": _object_checker(schema),
        "array": _array_checker(schema),
        "string": _string_checker(schema),
    }
    one_of = _one_of_checker(schema)
    if kind is None:
        return _then(_by_value_type(by_value), one_of) or (lambda value: None)
    body = _then(by_value.get("number" if kind == "integer" else kind), one_of)
    classes, further, expected = _TYPES[kind]

    def typed(value) -> _Errors:
        if not isinstance(value, classes) or (further is not None and not further(value)):
            return [("", f"expected {expected}, got {_show(value)}")]
        return body(value) if body is not None else None

    return typed


def _then(first: Optional[_Checker], second: Optional[_Checker]) -> Optional[_Checker]:
    """Both checks in order; None when neither has anything to check."""
    if first is None or second is None:
        return first or second

    def both(value) -> _Errors:
        errors, more = first(value), second(value)
        return errors + more if errors and more else errors or more

    return both


def _by_value_type(by_value: dict[str, Optional[_Checker]]) -> Optional[_Checker]:
    """For a schema without ``type``: the checks that apply to the value's kind."""
    if not any(by_value.values()):
        return None

    def check(value) -> _Errors:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            body = by_value["number"]
        elif isinstance(value, dict):
            body = by_value["object"]
        elif isinstance(value, list):
            body = by_value["array"]
        elif isinstance(value, str):
            body = by_value["string"]
        else:
            return None
        return body(value) if body is not None else None

    return check


def _number_checker(schema: dict) -> Optional[_Checker]:
    bounds = [(fails, schema[word], text) for word, fails, text in _BOUNDS if word in schema]
    if not bounds:
        return None

    def check(value) -> _Errors:
        errors = None
        for fails, limit, text in bounds:
            if fails(value, limit):
                errors = (errors or []) + [("", text.format(value, limit))]
        return errors

    return check


def _object_checker(schema: dict) -> Optional[_Checker]:
    required = tuple(schema.get("required", ()))
    properties = {key: _compile(sub) for key, sub in schema.get("properties", {}).items()}
    patterns = [
        (re.compile(pattern).fullmatch, _compile(sub))
        for pattern, sub in schema.get("patternProperties", {}).items()
    ]
    closed = "additionalProperties" in schema
    walk = bool(properties or patterns or closed)
    if not (required or walk):
        return None

    def check(value) -> _Errors:
        errors = None
        for name in required:
            if name not in value:
                errors = (errors or []) + [("", f"{name!r} is a required property")]
        if not walk:
            return errors
        for key, item in value.items():
            sub = properties.get(key)
            known = sub is not None
            if known:
                found = sub(item)
                if found:
                    errors = _nested(errors, found, f".{key}")
            for fullmatch, sub in patterns:
                if fullmatch(key):
                    known = True
                    found = sub(item)
                    if found:
                        errors = _nested(errors, found, f".{key}")
            if not known and closed:
                errors = (errors or []) + [("", f"unexpected property {key!r}")]
        return errors

    return check


def _array_checker(schema: dict) -> Optional[_Checker]:
    least, most = schema.get("minItems"), schema.get("maxItems")
    items = _compile(schema["items"]) if "items" in schema else None
    all_pass = _leaf_array_test(schema["items"]) if "items" in schema else None
    if least is None and most is None and items is None:
        return None

    def check(value) -> _Errors:
        errors = None
        if least is not None and len(value) < least:
            errors = [("", f"has {len(value)} items, fewer than {least}")]
        if most is not None and len(value) > most:
            errors = (errors or []) + [("", f"has {len(value)} items, more than {most}")]
        if items is not None and (all_pass is None or not all_pass(value)):
            for i, item in enumerate(value):
                found = items(item)
                if found:
                    errors = _nested(errors, found, f"[{i}]")
        return errors

    return check


def _leaf_array_test(items: dict) -> Optional[Callable[[list], bool]]:
    """A test that every item of a list passes the scalar schema ``items``.

    It runs in C-level builtins (``map(type, ...)``, ``min``, ``max``), and
    True means every item passes; on False the items are checked one by one,
    which finds the errors.  None when ``items`` is not a scalar leaf.
    """
    if set(items) - _ANNOTATIONS - {"type", "minimum", "maximum", "exclusiveMinimum"}:
        return None
    kind = items.get("type")
    if kind == "boolean":  # bounds apply to numbers only
        return lambda value: set(map(type, value)) <= {bool}
    if kind not in ("number", "integer"):
        return None
    # bool is its own type here, so True in a number array takes the slow path
    kinds = {int} if kind == "integer" else {int, float}
    floor = max(-_DOUBLE_MAX, items.get("minimum", -_DOUBLE_MAX))
    ceiling = min(_DOUBLE_MAX, items.get("maximum", _DOUBLE_MAX))
    above = items.get("exclusiveMinimum")

    def all_pass(value: list) -> bool:
        if not value:
            return True
        seen = set(map(type, value))
        if not seen <= kinds:
            return False
        # a NaN can hide from min and max, so a list with floats is searched for one
        low, high = min(value), max(value)
        return (
            floor <= low
            and high <= ceiling
            and (above is None or low > above)
            and not (float in seen and any(map(math.isnan, value)))
        )

    return all_pass


def _string_checker(schema: dict) -> Optional[_Checker]:
    if "minLength" not in schema:
        return None
    least = schema["minLength"]

    def check(value) -> _Errors:
        return [("", f"shorter than {least} characters")] if len(value) < least else None

    return check


def _one_of_checker(schema: dict) -> Optional[_Checker]:
    if "oneOf" not in schema:
        return None
    options = [_compile(sub) for sub in schema["oneOf"]]

    def check(value) -> _Errors:
        valid = 0
        for option in options:
            if not option(value):
                valid += 1
        if valid == 1:
            return None
        return [("", f"valid under {valid} of the {len(options)} oneOf schemas, expected 1")]

    return check


@lru_cache(maxsize=None)
def _input_schema(name: str) -> Callable[[object], list[tuple[str, str]]]:
    """The checker of shipped schema ``name``, loaded and compiled once per process.

    It returns ``(json_path, message)`` for each way a value breaks the
    schema, in walk order, and an empty list for a valid value.
    """
    check = _compile(load_schema(name))

    def errors(value) -> list[tuple[str, str]]:
        found = check(value)
        return [("$" + path, message) for path, message in found] if found else []

    return errors


def _check_schema(obj: dict, schema_name: str, line: Optional[int]) -> None:
    errors = _input_schema(schema_name)(obj)
    if errors:
        field_path, message = errors[0]
        raise SchemaError(message, line=line, field_path=field_path)


def iter_jsonl(data: bytes) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_number, parsed_object)`` for non-blank lines; 1-based."""
    for i, raw in enumerate(_decode(data, 1).split("\n"), start=1):
        if raw.strip():
            yield i, _json_record(raw, i)


def _decode(data: bytes, line: int) -> str:
    """``data``, from line ``line`` on, as UTF-8; a bad byte is a SchemaError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line += data.count(b"\n", 0, exc.start)
        raise SchemaError(f"invalid UTF-8: {exc.reason}", line=line) from exc


def _json_record(text: str, line: int) -> dict:
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
    fixed number of C-level passes, with no Python step per run:
    ``accumulate`` gives each run's end, slices and ``compress`` keep the
    non-empty foreground runs (the odd ones), y comes from the first and last
    of those, and x from their columns unless some run spans rows.

    Raises:
        EmptyMaskError: when the mask has no foreground pixels.
        SchemaError: on a negative run (the first one is named), or when the
            runs do not sum to ``width * height``.
    """
    if width < 1 or height < 1:
        raise SchemaError(f"mask dimensions must be >= 1, got {width}x{height}")
    runs = list(counts)
    if min(runs, default=0) < 0:
        raise SchemaError(f"negative run length {next(run for run in runs if run < 0)}")
    ends = list(accumulate(runs))  # one past the last pixel of each run
    total = ends[-1] if ends else 0
    if total != width * height:
        raise SchemaError(f"mask runs sum to {total}, expected {width * height}")
    # foreground runs are the odd ones, each starting where the run before ends
    lengths = runs[1::2]
    firsts = list(compress(ends[0::2], lengths))
    if not firsts:
        raise EmptyMaskError("mask has no foreground pixels")
    lasts = list(map(operator.sub, compress(ends[1::2], lengths), repeat(1)))
    min_y, max_y = firsts[0] // width, lasts[-1] // width
    first_cols = list(map(operator.mod, firsts, repeat(width)))
    last_cols = list(map(operator.mod, lasts, repeat(width)))
    # a run spans rows when it is longer than a row or ends in a column left
    # of the one it starts in; such a run touches both frame edges
    if max(lengths) > width or any(map(operator.gt, first_cols, last_cols)):
        min_x, max_x = 0, width - 1
    else:
        min_x, max_x = min(first_cols), max(last_cols)
    return BoundingBox(
        float(min_x), float(min_y), float(max_x - min_x + 1), float(max_y - min_y + 1)
    )


# ---------------------------------------------------------------------------
# Frame grounding (stage-1 output)


@dataclass(frozen=True)
class FrameObject:
    """One grounded phrase in a frame and its pixel box; None for an empty mask."""

    phrase: str
    box: Optional[BoundingBox]


@dataclass(frozen=True)
class FrameGrounding:
    """The grounded caption of one video frame."""

    video_id: str
    frame_index: int
    width: int
    height: int
    caption: str
    objects: tuple[FrameObject, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))


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
    """Check one frame-grounding record and build it; errors name ``line``."""
    _check_schema(obj, "frame_grounding.schema.json", line)
    # the schema lets integral floats such as 2.0 pass as integers
    width, height = int(obj["width"]), int(obj["height"])
    objects = []
    for i, item in enumerate(obj["objects"]):
        if "box" in item:
            x, y, w, h = (float(v) for v in item["box"])
            try:
                box = BoundingBox(x, y, w, h, normalized=False)
            except ValueError as exc:
                raise SchemaError(str(exc), line=line, field_path=f"$.objects[{i}].box") from exc
        else:
            try:
                box = mask_to_box(map(int, item["mask"]), width, height)
            except EmptyMaskError:
                box = None  # dropped, with a warning, by pipeline.collect_frame_objects
            except SchemaError as exc:  # the runs do not sum to width * height
                raise SchemaError(str(exc), line=line, field_path=f"$.objects[{i}].mask") from exc
        objects.append(FrameObject(item["phrase"], box))
    return FrameGrounding(
        video_id=obj["video_id"],
        frame_index=int(obj["frame_index"]),
        width=width,
        height=height,
        caption=obj["caption"],
        objects=tuple(objects),
    )


def group_frame_groundings(records: list[FrameGrounding]) -> dict[str, list[FrameGrounding]]:
    """Group sorted frame records by video id, preserving frame order."""
    by_video: dict[str, list[FrameGrounding]] = {}
    for record in records:
        by_video.setdefault(record.video_id, []).append(record)
    return by_video


def stream_frame_groundings(lines: Iterable[bytes]) -> Iterator[tuple[str, list[FrameGrounding]]]:
    """Stream a frame-grounding file as per-video groups, one video in memory.

    The input must already be grouped by video (the canonical sorted layout);
    a video id that reappears after another video is an error, as is a
    duplicate frame index within a video.
    """
    current_id: Optional[str] = None
    current: list[FrameGrounding] = []
    frames: set[int] = set()  # frame indices of the current video
    finished: set[str] = set()
    for line_no, raw in enumerate(lines, start=1):
        text = _decode(raw, line_no) if isinstance(raw, bytes) else raw
        if not text.strip():
            continue
        record = _frame_grounding(_json_record(text, line_no), line_no)
        if record.video_id != current_id:
            if record.video_id in finished:
                raise SchemaError(
                    f"video {record.video_id!r} is not contiguous in the stream", line=line_no
                )
            if current_id is not None:
                finished.add(current_id)
                yield current_id, sorted(current, key=lambda r: r.frame_index)
            current_id = record.video_id
            current = []
            frames = set()
        if record.frame_index in frames:
            raise SchemaError(
                f"duplicate frame record {(record.video_id, record.frame_index)}", line=line_no
            )
        frames.add(record.frame_index)
        current.append(record)
    if current_id is not None:
        yield current_id, sorted(current, key=lambda r: r.frame_index)


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
    _check_schema(obj, "video_annotation.schema.json", line)
    return _build_annotation(obj, check_annotation(obj))


def _build_annotation(
    obj: dict, caption: TaggedCaption, threshold: float = 0.0, line: Optional[int] = None
) -> VideoAnnotation:
    """The record of a checked plain-JSON annotation, thinned as :func:`load_predictions` says.

    Nothing is checked again: a subset of a checked track's frames breaks no
    invariant.  Integer fields go through ``int``, as the schema lets
    integral floats pass.
    """
    frame_count = int(obj["frame_count"])
    normalized = obj["boxes_normalized"]
    tracks = []
    for index, item in enumerate(obj["tracks"]):
        boxes = {
            int(key): BoundingBox(*map(float, coords), normalized=normalized)
            for key, coords in item["boxes"].items()
        }
        presence = tuple(item["presence"])
        confidence = None
        if "confidence" in item:
            confidence = {int(k): float(v) for k, v in item["confidence"].items()}
            if threshold > 0.0:
                missing = sorted(set(boxes) - set(confidence))
                if missing:
                    raise SchemaError(
                        f"track {index} missing confidence for frames {missing} "
                        f"with threshold {threshold}",
                        line=line,
                        field_path=f"$.tracks[{index}].confidence",
                    )
                boxes = {t: box for t, box in boxes.items() if confidence[t] >= threshold}
                if not boxes:
                    continue
                confidence = {t: confidence[t] for t in boxes}
                presence = tuple(t in boxes for t in range(frame_count))
        tracks.append(ObjectTrack(int(item["phrase_index"]), boxes, presence, confidence))
    return VideoAnnotation(
        video_id=obj["video_id"],
        frame_count=frame_count,
        fps=float(obj["fps"]),
        width=int(obj["width"]),
        height=int(obj["height"]),
        caption=caption,
        tracks=tuple(tracks),
        boxes_normalized=normalized,
    )


def parse_video_annotation(data: bytes) -> VideoAnnotation:
    """Parse a single annotation document (inverse of serialization)."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("annotation must be a JSON object")
    return annotation_from_dict(obj)


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
    and presence flags agree with the stored boxes.  No record is built.
    """
    errors = _input_schema("video_annotation.schema.json")(obj)[:10]
    reasons = [("schema", f"{field_path}: {message}") for field_path, message in errors]
    if reasons:
        return reasons
    try:
        check_annotation(obj)
    except RecordValidationError as exc:
        reasons.append((exc.code, exc.message))
    return reasons


def read_annotations(data: bytes) -> list[VideoAnnotation]:
    """Read a JSON-lines dataset of annotation records."""
    return list(_iter_annotations(data))


def _iter_annotations(data: bytes, threshold: float = 0.0) -> Iterator[VideoAnnotation]:
    """Each line's record, built with :func:`_build_annotation` at ``threshold``.

    A repeated ``video_id`` is an error, raised before a missing confidence.
    """
    seen: set[str] = set()
    for line, obj in iter_jsonl(data):
        _check_schema(obj, "video_annotation.schema.json", line)
        caption = check_annotation(obj)
        if obj["video_id"] in seen:
            raise SchemaError(f"duplicate video_id {obj['video_id']!r}", line=line)
        seen.add(obj["video_id"])
        yield _build_annotation(obj, caption, threshold, line)


# ---------------------------------------------------------------------------
# Predictions


def load_predictions(data: bytes, objectness_threshold: float = 0.5) -> list[VideoAnnotation]:
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
    return list(_iter_annotations(data, objectness_threshold))
