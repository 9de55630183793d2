"""Independent brute-force implementations used to pin expected values.

Everything here deliberately avoids the library's code paths: IoU by
counting unit grid cells, masks by full decode, CIDEr with dense vectors
over an enumerated vocabulary, AP by enumerating the PR curve, a
recursive-descent parser for the rendered SVO block grammar, and a schema
walker that interprets the schema dict at every node.  Four references use
library types: the former per-run mask loop raises the library's errors, the
former token-by-token tagger builds the library's tokens from the shipped
lexicon, the frame-record reference builds the library's frame records by
that walker and that loop, and the annotation-record reference at the end
builds the library's plain record types, boxes and captions, and checks them
the way the record constructors did when every construction checked every
invariant.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import re
import sys
from collections import Counter
from functools import lru_cache
from typing import Iterator

import numpy as np


def grid_iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    """IoU of two integer [x, y, w, h] boxes by enumerating covered cells."""
    cells_a = {(x, y) for x in range(a[0], a[0] + a[2]) for y in range(a[1], a[1] + a[3])}
    cells_b = {(x, y) for x in range(b[0], b[0] + b[2]) for y in range(b[1], b[1] + b[3])}
    union = cells_a | cells_b
    if not union:
        return 0.0
    return len(cells_a & cells_b) / len(union)


def rle_box_bruteforce(counts, width: int, height: int):
    """Tightest box around an RLE mask via full decode and min/max scan."""
    flat = []
    value = 0
    for run in counts:
        flat.extend([value] * run)
        value = 1 - value
    grid = np.array(flat, dtype=int).reshape(height, width)
    ys, xs = np.nonzero(grid)
    if xs.size == 0:
        return None
    return (
        float(xs.min()),
        float(ys.min()),
        float(xs.max() - xs.min() + 1),
        float(ys.max() - ys.min() + 1),
    )



def reference_mask_to_box(counts, width: int, height: int):
    """The former ``mask_to_box``: one Python step per run, errors in its order."""
    from groundcap import BoundingBox
    from groundcap.ingest import EmptyMaskError, SchemaError

    if width < 1 or height < 1:
        raise SchemaError(f"mask dimensions must be >= 1, got {width}x{height}")
    pos = 0
    foreground = False
    min_x, min_y = width, height
    max_x, max_y = -1, -1
    for run in counts:
        if run < 0:
            raise SchemaError(f"negative run length {run}")
        if foreground and run > 0:
            start, end = pos, pos + run - 1
            row_a, row_b = start // width, end // width
            min_y = min(min_y, row_a)
            max_y = max(max_y, row_b)
            if row_a == row_b:
                min_x = min(min_x, start % width)
                max_x = max(max_x, end % width)
            else:
                min_x = 0
                max_x = width - 1
        pos += run
        foreground = not foreground
    if pos != width * height:
        raise SchemaError(f"mask runs sum to {pos}, expected {width * height}")
    if max_x < 0:
        raise EmptyMaskError("mask has no foreground pixels")
    return BoundingBox(
        float(min_x), float(min_y), float(max_x - min_x + 1), float(max_y - min_y + 1)
    )


def reference_frame(obj, line: int):
    """A frame-grounding record checked by :func:`schema_errors`, then built object by object,
    masks by :func:`reference_mask_to_box`; the first fault raises, naming ``line``."""
    from groundcap import BoundingBox, EmptyMaskError, FrameGrounding, FrameObject, SchemaError

    for path, message in schema_errors(obj, load_schema("frame_grounding.schema.json")):
        raise SchemaError(message, line=line, field_path=path)
    width, height = int(obj["width"]), int(obj["height"])
    objects = []
    for i, item in enumerate(obj["objects"]):
        if "box" in item:
            x, y, w, h = (float(v) for v in item["box"])
            if w < 0 or h < 0:
                raise SchemaError(
                    f"box has negative size: w={w}, h={h}", line, f"$.objects[{i}].box"
                )
            box = BoundingBox(x, y, w, h)
        else:
            try:
                box = reference_mask_to_box([int(run) for run in item["mask"]], width, height)
            except EmptyMaskError:
                box = None
            except SchemaError as exc:
                raise SchemaError(str(exc), line, f"$.objects[{i}].mask") from exc
        objects.append(FrameObject(item["phrase"], box))
    frame_index = int(obj["frame_index"])
    return FrameGrounding(obj["video_id"], frame_index, width, height, obj["caption"], objects)


def _tokenize(text: str) -> list[str]:
    return re.findall(r"\w+|[^\w\s]", text.lower())


def cider_oracle(candidates: dict, references: dict, n_max: int = 4, sigma: float = 6.0) -> float:
    """CIDEr-D with dense TF-IDF vectors over an enumerated vocabulary."""
    vids = sorted(references)
    n_videos = len(vids)

    def grams(tokens, n):
        return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]

    ref_tokens = {v: [_tokenize(r) for r in references[v]] for v in vids}
    cand_tokens = {v: _tokenize(candidates[v]) for v in vids}

    per_video = []
    for vid in vids:
        per_n = []
        for n in range(1, n_max + 1):
            vocab = sorted(
                set(grams(cand_tokens[vid], n))
                | {g for toks in ref_tokens[vid] for g in grams(toks, n)}
            )
            index = {g: i for i, g in enumerate(vocab)}
            df = np.zeros(len(vocab))
            for other in vids:
                present = set()
                for toks in ref_tokens[other]:
                    present.update(g for g in grams(toks, n) if g in index)
                for g in present:
                    df[index[g]] += 1
            idf = np.log(n_videos) - np.log(np.maximum(df, 1.0))

            def vector(tokens):
                counts = Counter(grams(tokens, n))
                v = np.zeros(len(vocab))
                for g, c in counts.items():
                    v[index[g]] = c
                return v * idf

            hyp = vector(cand_tokens[vid])
            hyp_norm = np.linalg.norm(hyp)
            total = 0.0
            for toks in ref_tokens[vid]:
                ref = vector(toks)
                ref_norm = np.linalg.norm(ref)
                if hyp_norm == 0 or ref_norm == 0:
                    continue
                delta = len(cand_tokens[vid]) - len(toks)
                gauss = math.exp(-(delta**2) / (2 * sigma**2))
                total += gauss * float(np.minimum(hyp, ref) @ ref) / (hyp_norm * ref_norm)
            per_n.append(total / len(ref_tokens[vid]))
        per_video.append(10.0 * sum(per_n) / n_max)
    return sum(per_video) / len(per_video)


def ap_oracle(ranked_tp: list[bool], num_gt: int) -> float:
    """All-point interpolated AP by enumerating every PR point.

    AP = sum over distinct recall levels of (r - r_prev) * max precision
    among ranks whose recall is at least r.
    """
    if num_gt == 0:
        raise ValueError("undefined for zero ground truth")
    points = []
    tp = 0
    for k, flag in enumerate(ranked_tp, start=1):
        if flag:
            tp += 1
        points.append((tp / num_gt, tp / k))
    ap = 0.0
    prev_recall = 0.0
    for recall_level in sorted({r for r, _ in points}):
        if recall_level == prev_recall:
            continue
        best = max(p for r, p in points if r >= recall_level)
        ap += (recall_level - prev_recall) * best
        prev_recall = recall_level
    return ap


def _oracle_boxes(record) -> list[dict]:
    """Every box of a record in reading order (tracks, then frames), as
    normalized ``(x, y, w, h)`` tuples."""
    out = []
    for track in record.tracks:
        phrase = record.caption.phrases[track.phrase_index].text
        scores = track.confidence or {}
        for frame in sorted(track.boxes):
            b = track.boxes[frame]
            box = (b.x, b.y, b.w, b.h)
            if not b.normalized:
                box = (b.x / record.width, b.y / record.height,
                       b.w / record.width, b.h / record.height)
            out.append({"video": record.video_id, "frame": frame, "box": box,
                        "phrase": phrase, "conf": scores.get(frame, 1.0)})
    return out


def _oracle_iou(a: tuple, b: tuple) -> float:
    """IoU of two ``(x, y, w, h)`` boxes; identical boxes of positive area score 1."""
    (ax, ay, aw, ah), (bx, by, bw, bh) = a, b
    if a == b:
        return 1.0 if aw * ah > 0 else 0.0
    inter_w = max(min(ax + aw, bx + bw) - max(ax, bx), 0.0)
    inter_h = max(min(ay + ah, by + bh) - max(ay, by), 0.0)
    inter = inter_w * inter_h
    union = aw * ah + bw * bh - inter
    return 0.0 if union <= 0 else min(inter / union, 1.0)


def _oracle_match(dets: list[dict], gts: list[dict], gated: bool, similar,
                  iou_thresh: float, sim_thresh: float) -> dict[int, float]:
    """Greedy matching of a pool, one (video, frame) at a time.

    Returns detection position in ``dets`` -> IoU of its match.  In a frame,
    predictions go by confidence, ties by best IoU against any GT box, then
    reading order; each takes the free eligible GT box of highest IoU, the
    earliest on a tie.
    """
    matched: dict[int, float] = {}
    for key in dict.fromkeys((d["video"], d["frame"]) for d in dets):
        frame_dets = [i for i, d in enumerate(dets) if (d["video"], d["frame"]) == key]
        frame_gts = [g for g in gts if (g["video"], g["frame"]) == key]
        ious = {i: [_oracle_iou(dets[i]["box"], g["box"]) for g in frame_gts] for i in frame_dets}
        frame_dets.sort(key=lambda i: (-dets[i]["conf"], -max(ious[i], default=0.0), i))
        free = set(range(len(frame_gts)))
        for i in frame_dets:
            eligible = [
                j for j in sorted(free)
                if not gated or (
                    ious[i][j] >= iou_thresh
                    and similar(dets[i]["phrase"], frame_gts[j]["phrase"]) >= sim_thresh
                )
            ]
            if eligible:
                j = max(eligible, key=lambda j: (ious[i][j], -j))
                matched[i] = ious[i][j]
                free.discard(j)
    return matched


def grounding_oracle(preds, gts, similar, iou_thresh: float = 0.5, sim_thresh: float = 0.5):
    """AP50, mIoU and recall at frame and video level, rematched from the records.

    The frame level matches the whole corpus as one pool, frame by frame;
    the video level matches each video on its own and averages the videos
    that have ground-truth boxes.  AP ranks detections by confidence, then
    reading order (videos by id, tracks, frames).  Returns
    ``{"frame": (ap50, miou, recall), "video": (ap50, miou, recall)}`` with
    ``None`` where there is no ground-truth box.
    """
    pred_by_id = {r.video_id: r for r in preds}
    video_ids = sorted(r.video_id for r in gts)
    gt_by_id = {r.video_id: r for r in gts}

    def scores(dets, gt_boxes):
        if not gt_boxes:
            return None
        gated = _oracle_match(dets, gt_boxes, True, similar, iou_thresh, sim_thresh)
        overlaps = _oracle_match(dets, gt_boxes, False, similar, iou_thresh, sim_thresh)
        ranked = sorted(range(len(dets)), key=lambda i: (-dets[i]["conf"], i))
        ap = ap_oracle([i in gated for i in ranked], len(gt_boxes))
        return ap, sum(overlaps.values()) / len(gt_boxes), len(gated) / len(gt_boxes)

    per_video = []
    all_dets, all_gts = [], []
    for vid in video_ids:
        dets = _oracle_boxes(pred_by_id[vid]) if vid in pred_by_id else []
        gt_boxes = _oracle_boxes(gt_by_id[vid])
        per_video.append(scores(dets, gt_boxes))
        all_dets += dets
        all_gts += gt_boxes
    present = [v for v in per_video if v is not None]
    video = tuple(sum(v[k] for v in present) / len(present) for k in range(3)) if present else None
    frame = scores(all_dets, all_gts)
    return {"frame": frame or (None, None, None), "video": video or (None, None, None)}


# ---------------------------------------------------------------------------
# Reference grammar for the rendered SVO block


class SvoBlockParser:
    """Recursive-descent parser for the backtick-quoted list-of-lists layout."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> list[list[dict]]:
        if self.text == "[]":
            return []
        frames = [self._frame()]
        while self._peek(",\n"):
            self._expect(",\n")
            frames.append(self._frame())
        if self.pos != len(self.text):
            raise ValueError(f"trailing input at {self.pos}: {self.text[self.pos:]!r}")
        return frames

    def _frame(self) -> list[dict]:
        self._expect("[")
        relations = []
        if not self._peek("]"):
            relations.append(self._relation())
            while self._peek(", "):
                self._expect(", ")
                relations.append(self._relation())
        self._expect("]")
        return relations

    def _relation(self) -> dict:
        self._expect("[")
        subject = self._quoted()
        self._expect(", ")
        verb = self._quoted()
        obj = None
        adpositions = []
        while self._peek(", "):
            self._expect(", ")
            if self._peek("("):
                adpositions.append(self._pair())
            else:
                if obj is not None or adpositions:
                    raise ValueError(f"unexpected extra object at {self.pos}")
                obj = self._quoted()
        self._expect("]")
        return {"subject": subject, "verb": verb, "object": obj, "adpositions": adpositions}

    def _pair(self) -> tuple[str, str]:
        self._expect("(")
        adposition = self._quoted()
        self._expect(", ")
        obj = self._quoted()
        self._expect(")")
        return (adposition, obj)

    def _quoted(self) -> str:
        self._expect("`")
        end = self.text.find("'", self.pos)
        if end < 0:
            raise ValueError(f"unterminated quote at {self.pos}")
        value = self.text[self.pos : end]
        self.pos = end + 1
        return value

    def _peek(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def _expect(self, literal: str) -> None:
        if not self._peek(literal):
            raise ValueError(
                f"expected {literal!r} at {self.pos}, found {self.text[self.pos:self.pos+8]!r}"
            )
        self.pos += len(literal)


def parse_svo_block(text: str) -> list[list[dict]]:
    return SvoBlockParser(text).parse()


_REFERENCE_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z'\-]*|\d+(?:\.\d+)?|[^\sA-Za-z\d]")


def reference_pos_tag(sentence: str):
    """The former ``pos_tag``: one ``TaggedToken`` per token as it is looked up, then a
    left-to-right pass that rebuilds each repaired token, over the shipped lexicon."""
    from groundcap.svo import TaggedToken, _lexicon

    lexicon = _lexicon()
    tokens = [
        TaggedToken(text, _reference_lookup(lexicon, text, position))
        for position, text in enumerate(_REFERENCE_TOKEN_RE.findall(sentence))
    ]
    for i, token in enumerate(tokens):
        prev_pos = tokens[i - 1].pos if i > 0 else None
        next_pos = tokens[i + 1].pos if i + 1 < len(tokens) else None
        if token.pos == "VERB" and prev_pos in ("DET", "ADJ") and next_pos in ("NOUN", "PROPN"):
            tokens[i] = TaggedToken(token.text, "NOUN")
        elif token.pos == "NOUN" and prev_pos == "AUX" and token.text.lower().endswith("ing"):
            tokens[i] = TaggedToken(token.text, "VERB")
    return tokens


def _reference_lookup(lexicon: dict, text: str, position: int) -> str:
    lowered = text.lower()
    if lowered in lexicon:
        return lexicon[lowered]
    if not text[0].isalpha():
        return "OTHER"
    if position > 0 and text[0].isupper():
        return "PROPN"
    if lowered.endswith("ing") and len(lowered) > 4:
        return "VERB"
    if lowered.endswith("ed") and len(lowered) > 3:
        return "VERB"
    if lowered.endswith("ly") and len(lowered) > 3:
        return "OTHER"
    if lowered.endswith("s") and not lowered.endswith("ss"):
        for base in (lowered[:-1], lowered[:-2], lowered[:-3] + "y"):
            if base and base in lexicon:
                return lexicon[base]
    return "NOUN"


# ---------------------------------------------------------------------------
# Input schemas: the interpreting walker the ingest walkers must agree with

_DOUBLE_MAX = sys.float_info.max

# the keywords ``schema_errors`` reads, and the annotations it ignores
SCHEMA_KEYWORDS = frozenset(
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
        "$schema",
        "$id",
        "title",
        "description",
    }
)


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    """One of the shipped JSON schemas, by file name."""
    text = importlib.resources.files("groundcap.schemas").joinpath(name).read_text("utf-8")
    return json.loads(text)


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -_DOUBLE_MAX <= value <= _DOUBLE_MAX
    )


_TYPES = {
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "an array"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "boolean": (lambda v: isinstance(v, bool), "a boolean"),
    "number": (_is_number, "a finite number"),
    "integer": (lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()), "an integer"),
}


def _show(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "an array"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def schema_errors(value, schema: dict, path: str = "$") -> Iterator[tuple[str, str]]:
    """Yield ``(json_path, message)`` for each way ``value`` breaks ``schema``.

    Reads the schema dict afresh at every node.  Keywords mean what JSON
    Schema 2020-12 says and apply by the type of the value, with two
    tightenings: numbers must be finite doubles, and a ``patternProperties``
    key must match its pattern whole.
    """
    if "type" in schema:
        test, expected = _TYPES[schema["type"]]
        if not test(value):
            yield path, f"expected {expected}, got {_show(value)}"
            return
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            yield path, f"{value!r} is less than the minimum of {schema['minimum']}"
        if "maximum" in schema and value > schema["maximum"]:
            yield path, f"{value!r} is greater than the maximum of {schema['maximum']}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            yield path, f"{value!r} is not greater than {schema['exclusiveMinimum']}"
    elif isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                yield path, f"{name!r} is a required property"
        properties = schema.get("properties", {})
        patterns = schema.get("patternProperties", {})
        for key, item in value.items():
            known = key in properties
            if known:
                yield from schema_errors(item, properties[key], f"{path}.{key}")
            for pattern, sub in patterns.items():
                if re.fullmatch(pattern, key):
                    known = True
                    yield from schema_errors(item, sub, f"{path}.{key}")
            if not known and "additionalProperties" in schema:
                yield path, f"unexpected property {key!r}"
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"has {len(value)} items, fewer than {schema['minItems']}"
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            yield path, f"has {len(value)} items, more than {schema['maxItems']}"
        if "items" in schema:
            items = schema["items"]
            for i, item in enumerate(value):
                yield from schema_errors(item, items, f"{path}[{i}]")
    elif isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            yield path, f"shorter than {schema['minLength']} characters"
    if "oneOf" in schema:
        options = schema["oneOf"]
        valid = sum(next(schema_errors(value, sub, path), None) is None for sub in options)
        if valid != 1:
            yield path, f"valid under {valid} of the {len(options)} oneOf schemas, expected 1"


# ---------------------------------------------------------------------------
# Annotation records: the checks the ObjectTrack and VideoAnnotation
# constructors ran on every construction, and the dict-to-record path and
# objectness filter that ran them, as they were before records were checked
# once where they enter


def reference_track_check(track, presence) -> None:
    """The former ``ObjectTrack.__post_init__`` checks, in their order, with ``presence`` the
    flags of the track's JSON form: a track derives its own from its boxes, so they agree."""
    from groundcap.records import RecordValidationError

    if track.phrase_index < 0:
        raise RecordValidationError(
            "bad-phrase-index", f"negative phrase_index {track.phrase_index}"
        )
    if not track.boxes:
        raise RecordValidationError("empty-track", "track has no present frames")
    frame_count = len(presence)
    for t in track.boxes:
        if not 0 <= t < frame_count:
            raise RecordValidationError(
                "frame-out-of-range", f"box frame {t} outside [0, {frame_count})"
            )
    for t, flag in enumerate(presence):
        if flag != (t in track.boxes):
            raise RecordValidationError(
                "presence-box-mismatch",
                f"presence[{t}]={flag} but box {'missing' if flag else 'present'} at that frame",
            )
    modes = {b.normalized for b in track.boxes.values()}
    if len(modes) > 1:
        raise RecordValidationError("box-mode-mismatch", "track mixes normalized and pixel boxes")
    if track.confidence is not None:
        for t, score in track.confidence.items():
            if t not in track.boxes:
                raise RecordValidationError(
                    "bad-confidence", f"confidence at frame {t} without a box"
                )
            if not 0.0 <= score <= 1.0:
                raise RecordValidationError(
                    "bad-confidence", f"confidence {score} at frame {t} outside [0, 1]"
                )


def reference_record_check(record) -> None:
    """The former ``VideoAnnotation.__post_init__`` checks, in their order."""
    from groundcap.ingest import PIXEL_EPS
    from groundcap.records import RecordValidationError

    if not record.video_id:
        raise RecordValidationError("bad-video-id", "video_id must be non-empty")
    if record.frame_count < 1:
        raise RecordValidationError("bad-frame-count", f"frame_count {record.frame_count} < 1")
    if record.fps <= 0:
        raise RecordValidationError("bad-fps", f"fps {record.fps} must be positive")
    if record.width < 1 or record.height < 1:
        raise RecordValidationError("bad-dimensions", f"frame size {record.width}x{record.height}")
    for track in record.tracks:
        if track.phrase_index >= len(record.caption.phrases):
            raise RecordValidationError(
                "bad-phrase-index",
                f"phrase_index {track.phrase_index} but caption has "
                f"{len(record.caption.phrases)} phrases",
            )
        if track.frame_count != record.frame_count:
            raise RecordValidationError(
                "presence-length",
                f"track presence length {track.frame_count} != frame_count {record.frame_count}",
            )
        for t, box in track.boxes.items():
            if box.normalized != record.boxes_normalized:
                raise RecordValidationError(
                    "box-mode-mismatch",
                    f"box at frame {t} is {'normalized' if box.normalized else 'pixel'} "
                    f"but record declares boxes_normalized={record.boxes_normalized}",
                )
            if not box.normalized:
                if (
                    box.x < -PIXEL_EPS
                    or box.y < -PIXEL_EPS
                    or box.x + box.w > record.width + PIXEL_EPS
                    or box.y + box.h > record.height + PIXEL_EPS
                ):
                    raise RecordValidationError(
                        "box-out-of-frame",
                        f"box {box.as_list()} at frame {t} exceeds {record.width}x{record.height}",
                    )
    by_phrase: dict = {}
    for track in record.tracks:
        by_phrase.setdefault(track.phrase_index, []).append(track)
    for phrase_index, group in by_phrase.items():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                for t in group[i].boxes.keys() & group[j].boxes.keys():
                    if group[i].boxes[t] == group[j].boxes[t]:
                        raise RecordValidationError(
                            "duplicate-track-box",
                            f"tracks for phrase {phrase_index} repeat the same box at frame {t}",
                        )


def reference_annotation(obj: dict):
    """The record of a schema-valid annotation dict, each part checked as it is built."""
    from groundcap.boxes import BoundingBox
    from groundcap.captions import MalformedCaptionError, parse_tagged_caption
    from groundcap.records import ObjectTrack, RecordValidationError, VideoAnnotation

    try:
        caption = parse_tagged_caption(obj["caption"])
    except MalformedCaptionError as exc:
        raise RecordValidationError("caption-malformed", str(exc)) from exc
    tracks = []
    for item in obj["tracks"]:
        boxes = {}
        for key, coords in item["boxes"].items():
            try:
                boxes[int(key)] = BoundingBox(
                    *map(float, coords), normalized=obj["boxes_normalized"]
                )
            except ValueError as exc:
                raise RecordValidationError("bad-box", f"frame {key}: {exc}") from exc
        confidence = None
        if "confidence" in item:
            confidence = {int(k): float(v) for k, v in item["confidence"].items()}
        track = ObjectTrack(int(item["phrase_index"]), boxes, len(item["presence"]), confidence)
        reference_track_check(track, item["presence"])
        tracks.append(track)
    record = VideoAnnotation(
        obj["video_id"], int(obj["frame_count"]), float(obj["fps"]), int(obj["width"]),
        int(obj["height"]), caption, tuple(tracks), obj["boxes_normalized"],
    )
    reference_record_check(record)
    return record


def reference_objectness(record, threshold: float):
    """``record`` without frames scored below ``threshold``, every rebuilt part re-checked.

    Raises ``ValueError``, its message led by the JSON path of the track
    whose present frame has no score.
    """
    from groundcap.records import ObjectTrack, VideoAnnotation

    if threshold == 0.0:
        return record
    tracks = []
    for index, track in enumerate(record.tracks):
        if track.confidence is None:
            tracks.append(track)
            continue
        missing = sorted(set(track.boxes) - set(track.confidence))
        if missing:
            raise ValueError(
                f"$.tracks[{index}].confidence: track {index} missing confidence for "
                f"frames {missing} with threshold {threshold}"
            )
        kept = {t: box for t, box in track.boxes.items() if track.confidence[t] >= threshold}
        if kept:
            kept_track = ObjectTrack(
                track.phrase_index, kept, record.frame_count,
                {t: track.confidence[t] for t in kept},
            )
            reference_track_check(kept_track, kept_track.presence)
            tracks.append(kept_track)
    filtered = VideoAnnotation(
        record.video_id, record.frame_count, record.fps, record.width, record.height,
        record.caption, tuple(tracks), record.boxes_normalized,
    )
    reference_record_check(filtered)
    return filtered
