"""The evaluation suite: captioning metrics plus grounding metrics.

Captioning is scored with CIDEr-D (TF-IDF n-gram cosine, n = 1..4, length
gaussian sigma = 6, scaled by 10) and a METEOR variant reduced to its
exact+stem unigram core.  Grounding is scored with AP50, mean IoU, and
recall, each in two settings: frame level, where detections of all frames of
all videos are pooled, and video level, where metrics are computed per video
and averaged across videos.

The parts the task leaves open are pinned here and echoed into every report:
greedy one-to-one matching in confidence order, all-point interpolated AP
with a precision envelope, mIoU averaged over ground-truth boxes with
unmatched boxes scoring zero, and confidence 1.0 for score-less predictions.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Optional, Protocol, Sequence

from .boxes import XYWH, iou_xywh
from .config import check_fractions
from .llm import JsonEndpoint, TransportError
from .records import ObjectTrack, VideoAnnotation

CIDER_NGRAM_MAX = 4
CIDER_SIGMA = 6.0
DEFAULT_IOU_THRESH = 0.5
DEFAULT_SIM_THRESH = 0.5

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase tokens with punctuation split off and whitespace collapsed."""
    return _TOKEN_RE.findall(text.lower())


def stem(token: str) -> str:
    """Light deterministic English stemmer shared by METEOR and similarity.

    Strips plural/verbal suffixes and a trailing silent e so that inflected
    forms of one word map to one stem ("use", "used", "using" -> "us").  Not
    a full Porter stemmer; the point is self-consistency, not linguistics.
    """
    t = token.lower()
    if len(t) > 3 and t.endswith("ies"):
        t = t[: -3] + "y"
    elif len(t) > 3 and t.endswith("es") and (t[-3] in "sxz" or t.endswith(("ches", "shes"))):
        t = t[:-2]
    elif len(t) > 2 and t.endswith("s") and not t.endswith("ss"):
        t = t[:-1]
    if len(t) > 4 and t.endswith("ing"):
        t = _collapse_double(t[:-3])
    elif len(t) > 3 and t.endswith("ed"):
        t = _collapse_double(t[:-2])
    if len(t) > 2 and t.endswith("e"):
        t = t[:-1]
    if len(t) > 3 and t.endswith("y"):
        t = t[:-1] + "i"
    return t


def _collapse_double(t: str) -> str:
    if len(t) >= 2 and t[-1] == t[-2] and t[-1] not in "lsz":
        return t[:-1]
    return t


# ---------------------------------------------------------------------------
# CIDEr-D


def _ngram_counts(tokens: Sequence[str], n_max: int = CIDER_NGRAM_MAX) -> Counter:
    counts: Counter = Counter()
    for n in range(1, n_max + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


def cider_scores(
    candidates: dict[str, str], references: dict[str, list[str]]
) -> tuple[float, dict[str, float]]:
    """Corpus CIDEr-D and the per-video scores it averages.

    Document frequencies come from the reference corpus: an n-gram's df is
    the number of videos with the n-gram in at least one reference.  A
    candidate n-gram unseen in the references gets idf log(N).
    """
    if set(candidates) != set(references):
        raise ValueError("candidates and references must cover the same video ids")
    if not references:
        raise ValueError("cannot compute CIDEr over an empty corpus")
    for video_id, refs in references.items():
        if not refs:
            raise ValueError(f"video {video_id!r} has no references")

    ref_counts = {vid: [_ngram_counts(tokenize(r)) for r in refs] for vid, refs in references.items()}
    df: Counter = Counter()
    for counts_list in ref_counts.values():
        seen: set = set()
        for counts in counts_list:
            seen.update(counts)
        df.update(seen)
    log_n = math.log(len(references))

    def tfidf(counts: Counter) -> tuple[list[dict], list[float], int]:
        vec = [dict() for _ in range(CIDER_NGRAM_MAX)]
        norm_sq = [0.0] * CIDER_NGRAM_MAX
        length = sum(freq for gram, freq in counts.items() if len(gram) == 1)
        for gram, freq in counts.items():
            idf = log_n - math.log(max(df[gram], 1))
            weight = freq * idf
            slot = len(gram) - 1
            vec[slot][gram] = weight
            norm_sq[slot] += weight * weight
        return vec, [math.sqrt(v) for v in norm_sq], length

    per_video: dict[str, float] = {}
    for video_id in sorted(references):
        hyp_vec, hyp_norm, hyp_len = tfidf(_ngram_counts(tokenize(candidates[video_id])))
        total = [0.0] * CIDER_NGRAM_MAX
        for ref in ref_counts[video_id]:
            ref_vec, ref_norm, ref_len = tfidf(ref)
            gaussian = math.exp(-((hyp_len - ref_len) ** 2) / (2 * CIDER_SIGMA**2))
            for n in range(CIDER_NGRAM_MAX):
                dot = sum(
                    min(weight, ref_vec[n].get(gram, 0.0)) * ref_vec[n].get(gram, 0.0)
                    for gram, weight in hyp_vec[n].items()
                )
                if hyp_norm[n] != 0 and ref_norm[n] != 0:
                    total[n] += gaussian * dot / (hyp_norm[n] * ref_norm[n])
        per_video[video_id] = sum(total) / CIDER_NGRAM_MAX / len(ref_counts[video_id]) * 10.0
    return sum(per_video.values()) / len(per_video), per_video


def cider(candidates: dict[str, str], references: dict[str, list[str]]) -> float:
    """Corpus CIDEr-D in [0, 10]."""
    return cider_scores(candidates, references)[0]


# ---------------------------------------------------------------------------
# METEOR (exact + stem core)


def meteor_lite(candidate: str, reference: str) -> float:
    """Unigram METEOR: F_mean = 10PR/(P+9R), penalty = 0.5 (chunks/matches)^3.

    Alignment is exact matches first, stem matches second, each assigned
    greedily left to right; no synonym or paraphrase tables.
    """
    ref_tokens = tokenize(reference)
    if not ref_tokens:
        raise ValueError("reference must be non-empty")
    cand_tokens = tokenize(candidate)
    if not cand_tokens:
        return 0.0

    pairs: list[tuple[int, int]] = []
    ref_taken = [False] * len(ref_tokens)
    cand_taken = [False] * len(cand_tokens)

    def align(key) -> None:
        ref_keys = [key(t) for t in ref_tokens]
        for i, token in enumerate(cand_tokens):
            if cand_taken[i]:
                continue
            want = key(token)
            for j, ref_key in enumerate(ref_keys):
                if not ref_taken[j] and ref_key == want:
                    pairs.append((i, j))
                    ref_taken[j] = True
                    cand_taken[i] = True
                    break

    align(lambda t: t)
    align(stem)

    matches = len(pairs)
    if matches == 0:
        return 0.0
    precision = matches / len(cand_tokens)
    recall_v = matches / len(ref_tokens)
    f_mean = 10 * precision * recall_v / (precision + 9 * recall_v)
    pairs.sort()
    chunks = 1
    for (ci, ri), (cj, rj) in zip(pairs, pairs[1:]):
        if cj != ci + 1 or rj != ri + 1:
            chunks += 1
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1 - penalty)


def meteor_best(candidate: str, references: Sequence[str]) -> float:
    """Score against the best-matching reference."""
    if not references:
        raise ValueError("at least one reference required")
    return max(meteor_lite(candidate, ref) for ref in references)


# ---------------------------------------------------------------------------
# Phrase similarity


class SimilarityBackend(Protocol):
    name: str

    def similarity(self, a: str, b: str) -> float: ...


_STOPWORDS = frozenset(
    """
    a an the this that these those some any each every no another both all
    of in on at by with from to for into onto and or but as is are was were
    be been being it its his her my your our their
    """.split()
)


class LexicalSimilarity:
    """Cosine over stemmed-unigram count vectors; 1.0 exactly for equal vectors.

    Function words are ignored so that "a person" and "a bowl" do not count
    the shared article as overlap; a phrase made only of function words
    falls back to its raw tokens.
    """

    name = "lexical"

    @staticmethod
    @lru_cache(maxsize=4096)
    def _vector(text: str) -> tuple[tuple[str, int], ...]:
        tokens = tokenize(text)
        content = [t for t in tokens if t not in _STOPWORDS]
        counts = Counter(stem(t) for t in (content or tokens))
        return tuple(sorted(counts.items()))

    def similarity(self, a: str, b: str) -> float:
        if not a or not b:
            raise ValueError("phrases must be non-empty")
        va, vb = dict(self._vector(a)), dict(self._vector(b))
        if not va or not vb:
            return 0.0
        if va == vb:
            return 1.0
        dot = sum(count * vb.get(token, 0) for token, count in va.items())
        if dot == 0:
            return 0.0
        norm_a = sum(c * c for c in va.values())
        norm_b = sum(c * c for c in vb.values())
        return min(dot / math.sqrt(norm_a * norm_b), 1.0)


class EmbeddingSimilarity:
    """Cosine over vectors from an HTTP embedding endpoint.

    The endpoint takes ``POST {"texts": [string]}`` and answers
    ``{"vectors": [[number]]}``.  A failed request or a malformed answer is a
    ``ValueError`` naming the text and the endpoint; a similarity backend
    that silently degrades would corrupt the metrics.
    """

    name = "embedding"

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint
        self._transport = JsonEndpoint(endpoint, timeout)
        self._cache: dict[str, tuple[float, ...]] = {}

    def _vector(self, text: str) -> tuple[float, ...]:
        """The served vector of ``text``: a non-empty list of finite numbers, no bools."""
        if text not in self._cache:
            body = json.dumps({"texts": [text]}, allow_nan=False).encode("utf-8")
            try:
                answer = self._transport.post(body)
            except TransportError as exc:
                raise ValueError(
                    f"embedding of {text!r} from {self.endpoint} failed: {exc}"
                ) from exc
            vectors = answer.get("vectors") if isinstance(answer, dict) else None
            vector = vectors[0] if isinstance(vectors, list) and vectors else None
            # NaN and infinities fail the bound; a NaN similarity would pass
            # the similarity gate against every phrase
            if not (
                isinstance(vector, list)
                and vector
                and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in vector)
            ):
                raise ValueError(
                    f"embedding of {text!r} from {self.endpoint} is not a non-empty list "
                    "of finite numbers"
                )
            self._cache[text] = tuple(map(float, vector))
        return self._cache[text]

    def similarity(self, a: str, b: str) -> float:
        if not a or not b:
            raise ValueError("phrases must be non-empty")
        if a == b:
            return 1.0
        va, vb = self._vector(a), self._vector(b)
        if len(va) != len(vb):
            raise ValueError(
                f"embeddings of {a!r} and {b!r} differ in length: {len(va)} and {len(vb)}"
            )
        denom = math.hypot(*va) * math.hypot(*vb)
        if denom == 0:
            return 0.0
        return min(max(sum(x * y for x, y in zip(va, vb)) / denom, 0.0), 1.0)


_DEFAULT_BACKEND = LexicalSimilarity()


def phrase_similarity(a: str, b: str, backend: SimilarityBackend | None = None) -> float:
    """Similarity of two phrases in [0, 1] under the chosen backend."""
    return (backend or _DEFAULT_BACKEND).similarity(a, b)


# ---------------------------------------------------------------------------
# Matching


class _SimCache:
    def __init__(self, backend: SimilarityBackend):
        self.backend = backend
        self._cache: dict[tuple[str, str], float] = {}

    def __call__(self, a: str, b: str) -> float:
        key = (a, b)
        if key not in self._cache:
            self._cache[key] = self.backend.similarity(a, b)
        return self._cache[key]


def _iou_table(preds: Sequence, gts: Sequence) -> list[list[float]]:
    """IoU of every prediction against every ground-truth box of one frame."""
    return [[iou_xywh(p.box, g.box) for g in gts] for p in preds]


def _pred_order(preds: Sequence, table: list[list[float]]) -> list[int]:
    """Confidence-descending order; ties by best IoU, then input order."""
    best_iou = [max(row, default=0.0) for row in table]
    return sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, -best_iou[i], i))


def _greedy_assign(
    preds: Sequence,
    gts: Sequence,
    table: list[list[float]],
    order: list[int],
    iou_thresh: Optional[float],
    sim_thresh: Optional[float],
    sim,
) -> dict[int, tuple[int, float, float]]:
    """Greedy one-to-one assignment: pred index -> (gt index, iou, sim).

    Predictions are taken in ``order`` and ``table`` holds their IoUs.  With
    thresholds set, a pair is eligible only when both gates pass; with
    ``iou_thresh=None`` any unmatched GT is eligible (IoU-only matching with
    no floor) and similarity is not consulted.
    """
    taken: set[int] = set()
    result: dict[int, tuple[int, float, float]] = {}
    for pi in order:
        best: tuple[int, float, float] | None = None
        for gi, overlap in enumerate(table[pi]):
            if gi in taken:
                continue
            if iou_thresh is not None and overlap < iou_thresh:
                continue
            if sim_thresh is not None:
                similarity = sim(preds[pi].phrase, gts[gi].phrase)
                if similarity < sim_thresh:
                    continue
            else:
                similarity = 1.0
            if best is None or overlap > best[1]:
                best = (gi, overlap, similarity)
        if best is not None:
            result[pi] = best
            taken.add(best[0])
    return result


# ---------------------------------------------------------------------------
# Corpus-level grounding metrics


class _Detection(NamedTuple):
    frame: int
    box: XYWH  # as fractions of the frame
    phrase: str
    confidence: float
    seq: int


class _GtObject(NamedTuple):
    frame: int
    box: XYWH  # as fractions of the frame
    phrase: str


def _unit_boxes(record: VideoAnnotation, track: ObjectTrack) -> list[tuple[int, XYWH]]:
    """``(frame, box)`` of each box of ``track`` in frame order, as fractions of the frame.

    Pixel boxes take the divisions of :func:`~groundcap.boxes.normalize_box`;
    the record's out-of-frame check has already kept them inside the frame.
    """
    boxes = sorted(track.boxes.items())
    if record.boxes_normalized:
        return [(t, (b.x, b.y, b.w, b.h)) for t, b in boxes]
    width, height = record.width, record.height
    return [(t, (b.x / width, b.y / height, b.w / width, b.h / height)) for t, b in boxes]


def _extract_gt(record: VideoAnnotation) -> list[_GtObject]:
    objects = []
    for track in record.tracks:
        phrase = record.caption.phrases[track.phrase_index].text
        objects.extend(_GtObject(frame, box, phrase) for frame, box in _unit_boxes(record, track))
    return objects


def _extract_preds(record: Optional[VideoAnnotation], seq_start: int = 0) -> list[_Detection]:
    if record is None:
        return []
    detections = []
    seq = seq_start
    for track in record.tracks:
        phrase = record.caption.phrases[track.phrase_index].text
        confidence = track.confidence or {}
        for frame, box in _unit_boxes(record, track):
            detections.append(_Detection(frame, box, phrase, confidence.get(frame, 1.0), seq))
            seq += 1
    return detections


def _group_by_frame(items) -> dict:
    grouped: dict = {}
    for item in items:
        grouped.setdefault(item.frame, []).append(item)
    return grouped


def _match_pool(
    detections: list[_Detection],
    gt_objects: list[_GtObject],
    iou_thresh: float,
    sim_thresh: float,
    sim,
) -> tuple[set[int], list[float]]:
    """Greedy matching of one video, frame by frame, at both gates.

    Returns the seqs of the detections matched under the IoU and similarity
    gates, and the IoU of every IoU-only match in matching order.  Each
    frame's IoU table and prediction order serve both gates.
    """
    gt_by_frame = _group_by_frame(gt_objects)
    gated: set[int] = set()
    overlaps: list[float] = []
    for frame, frame_dets in _group_by_frame(detections).items():
        gts = gt_by_frame.get(frame, [])
        table = _iou_table(frame_dets, gts)
        order = _pred_order(frame_dets, table)
        assigned = _greedy_assign(frame_dets, gts, table, order, iou_thresh, sim_thresh, sim)
        gated.update(frame_dets[pi].seq for pi in assigned)
        iou_only = _greedy_assign(frame_dets, gts, table, order, None, None, sim)
        overlaps.extend(overlap for _gi, overlap, _similarity in iou_only.values())
    return gated, overlaps


def _average_precision(ranked_tp: list[bool], num_gt: int) -> Optional[float]:
    """All-point interpolated AP with the precision envelope.

    Equals the sum over true positives of the envelope precision at their
    rank, divided by the number of ground-truth boxes; the sum runs forward,
    in rank order.
    """
    if num_gt == 0:
        return None
    precision = [tp / rank for rank, tp in enumerate(accumulate(ranked_tp), start=1)]
    envelope = list(accumulate(reversed(precision), max))[::-1]
    return sum(p for p, hit in zip(envelope, ranked_tp) if hit) / num_gt


def _ranked_flags(detections: list[_Detection], matched: set[int]) -> list[bool]:
    order = sorted(detections, key=lambda d: (-d.confidence, d.seq))
    return [d.seq in matched for d in order]


# ---------------------------------------------------------------------------
# Report


@dataclass(frozen=True)
class LevelScores:
    ap50: Optional[float]
    miou: Optional[float]
    recall: Optional[float]

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EvalConfig:
    iou_thresh: float = DEFAULT_IOU_THRESH
    sim_thresh: float = DEFAULT_SIM_THRESH
    similarity: str = "lexical"
    embedding_endpoint: Optional[str] = None

    def __post_init__(self) -> None:
        check_fractions(self, "iou_thresh", "sim_thresh")

    def backend(self) -> SimilarityBackend:
        if self.similarity == "lexical":
            return LexicalSimilarity()
        if self.similarity == "embedding":
            if not self.embedding_endpoint:
                raise ValueError("embedding similarity requires an endpoint")
            return EmbeddingSimilarity(self.embedding_endpoint)
        raise ValueError(f"unknown similarity backend {self.similarity!r}")


@dataclass(frozen=True)
class MetricsReport:
    frame_level: LevelScores
    video_level: LevelScores
    meteor: float
    cider: float
    per_video: dict[str, dict]
    config: dict
    num_videos: int

    def as_dict(self) -> dict:
        return asdict(self)


def _mean_or_none(values: list[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(sum(present) / len(present))


def _grounding_scores(
    detections: list[_Detection], gated: set[int], overlaps: list[float], num_gt: int
) -> LevelScores:
    """AP50, mIoU and recall of one video's matches, or of the pooled corpus."""
    if num_gt == 0:
        return LevelScores(None, None, None)
    return LevelScores(
        _average_precision(_ranked_flags(detections, gated), num_gt),
        sum(overlaps) / num_gt,
        len(gated) / num_gt,
    )


def evaluate(
    pred_records: Sequence[VideoAnnotation],
    gt_records: Sequence[VideoAnnotation],
    config: EvalConfig = EvalConfig(),
) -> MetricsReport:
    """Score predictions against ground truth; all metrics, both settings.

    A ground-truth video with no prediction counts as an empty prediction; a
    predicted video absent from the ground truth is an error.
    """
    gt_by_id: dict[str, VideoAnnotation] = {}
    for record in gt_records:
        if record.video_id in gt_by_id:
            raise ValueError(f"duplicate ground-truth video {record.video_id!r}")
        gt_by_id[record.video_id] = record
    if not gt_by_id:
        raise ValueError("ground truth is empty")
    pred_by_id: dict[str, VideoAnnotation] = {}
    for record in pred_records:
        if record.video_id not in gt_by_id:
            raise ValueError(f"prediction for unknown video {record.video_id!r}")
        if record.video_id in pred_by_id:
            raise ValueError(f"duplicate prediction for video {record.video_id!r}")
        pred_by_id[record.video_id] = record

    backend = config.backend()
    sim = _SimCache(backend)
    video_ids = sorted(gt_by_id)

    # Matching never crosses a frame, so the frame level pools the per-video
    # matches.  Detection seqs are unique across the pool, and the overlaps
    # concatenate in video order, so the pooled sums equal a corpus-wide
    # rematch bit for bit.
    all_dets: list[_Detection] = []
    all_gated: set[int] = set()
    all_overlaps: list[float] = []
    total_gt = 0
    per_video: dict[str, dict] = {}
    for video_id in video_ids:
        detections = _extract_preds(pred_by_id.get(video_id), seq_start=len(all_dets))
        gt_objects = _extract_gt(gt_by_id[video_id])
        gated, overlaps = (
            _match_pool(detections, gt_objects, config.iou_thresh, config.sim_thresh, sim)
            if gt_objects
            else (set(), [])
        )
        per_video[video_id] = {
            **_grounding_scores(detections, gated, overlaps, len(gt_objects)).as_dict(),
            "num_gt_boxes": len(gt_objects),
            "num_pred_boxes": len(detections),
        }
        all_dets.extend(detections)
        all_gated.update(gated)
        all_overlaps.extend(overlaps)
        total_gt += len(gt_objects)
    frame_scores = _grounding_scores(all_dets, all_gated, all_overlaps, total_gt)
    video_scores = LevelScores(
        *(_mean_or_none([per_video[v][m] for v in video_ids]) for m in ("ap50", "miou", "recall"))
    )

    candidates = {}
    references = {}
    for video_id in video_ids:
        pred = pred_by_id.get(video_id)
        candidates[video_id] = pred.caption.plain if pred is not None else ""
        references[video_id] = [gt_by_id[video_id].caption.plain]
    cider_corpus, cider_by_video = cider_scores(candidates, references)
    meteor_by_video = {
        vid: meteor_best(candidates[vid], references[vid]) for vid in video_ids
    }
    meteor_corpus = float(sum(meteor_by_video.values()) / len(video_ids))

    for vid in video_ids:
        per_video[vid].update(meteor=meteor_by_video[vid], cider=cider_by_video[vid])

    return MetricsReport(
        frame_level=frame_scores,
        video_level=video_scores,
        meteor=meteor_corpus,
        cider=cider_corpus,
        per_video=per_video,
        config={
            "iou_thresh": config.iou_thresh,
            "sim_thresh": config.sim_thresh,
            "similarity_backend": backend.name,
            "matching": "greedy-one-to-one-by-confidence",
            "ap_interpolation": "all-point-envelope",
            "miou_average": "over-gt-boxes",
            "miou_unmatched": "zero",
            "missing_confidence": 1.0,
        },
        num_videos=len(video_ids),
    )
