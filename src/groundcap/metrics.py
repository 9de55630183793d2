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
The IoU and similarity thresholds are read from the run's
:class:`~groundcap.config.PipelineConfig`, which checks them; phrase
similarity is lexical unless the config names an ``embedding_endpoint``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from functools import lru_cache
from itertools import accumulate, compress, count, repeat
from operator import attrgetter, truediv
from typing import NamedTuple, Optional, Protocol, Sequence

from .boxes import XYWH, iou_xywh
from .config import PipelineConfig
from .llm import JsonEndpoint, TransportError
from .records import ObjectTrack, VideoAnnotation

CIDER_NGRAM_MAX = 4
CIDER_SIGMA = 6.0

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


def _ngram_counts(tokens: Sequence[str]) -> list[Counter]:
    """For n = 1..4, the count of each n-gram of ``tokens``, in order of first position."""
    return [Counter(zip(*(tokens[i:] for i in range(n)))) for n in range(1, CIDER_NGRAM_MAX + 1)]


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

    ref_counts = {
        vid: [_ngram_counts(tokenize(r)) for r in refs] for vid, refs in references.items()
    }
    df: Counter = Counter()
    for counts_list in ref_counts.values():
        df.update(set().union(*(counts for by_n in counts_list for counts in by_n)))
    log_n = math.log(len(references))
    idf = {gram: log_n - math.log(freq) for gram, freq in df.items()}

    def tfidf(counts_by_n: list[Counter]) -> tuple[list[dict], list[float]]:
        vec = []
        norms = []
        for counts in counts_by_n:
            # an n-gram in no reference has df 0, so idf log(N) - log(max(0, 1)) == log(N)
            weights = {gram: freq * idf.get(gram, log_n) for gram, freq in counts.items()}
            norm_sq = 0.0
            for weight in weights.values():
                norm_sq += weight * weight
            vec.append(weights)
            norms.append(math.sqrt(norm_sq))
        return vec, norms

    per_video: dict[str, float] = {}
    for video_id in sorted(references):
        hyp_tokens = tokenize(candidates[video_id])
        hyp_vec, hyp_norm = tfidf(_ngram_counts(hyp_tokens))
        total = [0.0] * CIDER_NGRAM_MAX
        for ref in ref_counts[video_id]:
            ref_vec, ref_norm = tfidf(ref)
            ref_len = sum(ref[0].values())  # its number of tokens
            gaussian = math.exp(-((len(hyp_tokens) - ref_len) ** 2) / (2 * CIDER_SIGMA**2))
            for n in range(CIDER_NGRAM_MAX):
                # an n-gram the reference lacks adds 0.0, which leaves the sum as it is
                ref_weights = ref_vec[n]
                dot = sum(
                    min(weight, ref_weight) * ref_weight
                    for gram, weight in hyp_vec[n].items()
                    if (ref_weight := ref_weights.get(gram)) is not None
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
        free: dict[str, list[int]] = {}  # key -> the untaken reference positions, ascending
        for j, token in enumerate(ref_tokens):
            if not ref_taken[j]:
                free.setdefault(key(token), []).append(j)
        for i, token in enumerate(cand_tokens):
            if cand_taken[i]:
                continue
            positions = free.get(key(token))
            if positions:
                j = positions.pop(0)
                pairs.append((i, j))
                ref_taken[j] = True
                cand_taken[i] = True

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

    def close(self) -> None: ...


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

    def close(self) -> None:
        """Nothing to release."""


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

    def close(self) -> None:
        """Close the kept-alive connection to the endpoint."""
        self._transport.close()


_DEFAULT_BACKEND = LexicalSimilarity()


def similarity_backend(config: PipelineConfig) -> SimilarityBackend:
    """Embedding similarity when ``config`` names an embedding endpoint, lexical otherwise."""
    if config.embedding_endpoint is None:
        return LexicalSimilarity()
    return EmbeddingSimilarity(config.embedding_endpoint)


def phrase_similarity(a: str, b: str, backend: SimilarityBackend | None = None) -> float:
    """Similarity of two phrases in [0, 1] under the chosen backend."""
    return (backend or _DEFAULT_BACKEND).similarity(a, b)


# ---------------------------------------------------------------------------
# Matching


def _iou_table(preds: Sequence, gts: Sequence) -> list[list[float]]:
    """IoU of every prediction against every ground-truth box of one frame."""
    gt_boxes = [g.box for g in gts]
    return [list(map(iou_xywh, repeat(p.box), gt_boxes)) for p in preds]


def _pred_order(preds: Sequence, table: list[list[float]]) -> list[int]:
    """Confidence-descending order; ties by best IoU, then input order."""
    best_iou = [max(row, default=0.0) for row in table]
    return sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, -best_iou[i], i))


# ---------------------------------------------------------------------------
# Corpus-level grounding metrics


class _BoxRow(NamedTuple):  # one box of a track, predicted or ground truth
    frame: int
    box: XYWH  # as fractions of the frame
    phrase: str
    confidence: float  # 1.0 where the track has no score, as on every ground-truth box
    seq: int  # unique across the predictions of a corpus; matching never reads a ground truth's


_XYWH = attrgetter("x", "y", "w", "h")
_CONFIDENCE, _SEQ = attrgetter("confidence"), attrgetter("seq")


def _unit_boxes(record: VideoAnnotation, track: ObjectTrack) -> tuple[list[int], list[XYWH]]:
    """The frames of ``track`` in order, and the box at each as fractions of the frame.

    Pixel boxes take the divisions of :func:`~groundcap.boxes.normalize_box`;
    the record's out-of-frame check has already kept them inside the frame.
    """
    frames = sorted(track.boxes)
    coords = map(_XYWH, map(track.boxes.__getitem__, frames))
    if record.boxes_normalized:
        return frames, list(coords)
    width, height = record.width, record.height
    return frames, [(x / width, y / height, w / width, h / height) for x, y, w, h in coords]


def _box_rows(record: VideoAnnotation, seq_start: int = 0) -> list[_BoxRow]:
    """The boxes of every track of ``record``, track by track, numbered from ``seq_start``."""
    rows: list[_BoxRow] = []
    for track in record.tracks:
        phrase = record.caption.phrases[track.phrase_index].text
        frames, boxes = _unit_boxes(record, track)
        confidence = track.confidence
        scores = map(confidence.get, frames, repeat(1.0)) if confidence else repeat(1.0)
        seqs = range(seq_start + len(rows), seq_start + len(rows) + len(frames))
        columns = zip(frames, boxes, repeat(phrase), scores, seqs)
        rows += map(tuple.__new__, repeat(_BoxRow), columns)  # with no Python call per row
    return rows


def _group_by_frame(items) -> dict:
    grouped: dict = {}
    for item in items:
        grouped.setdefault(item.frame, []).append(item)
    return grouped


def _match_pool(
    detections: list[_BoxRow],
    gt_objects: list[_BoxRow],
    iou_thresh: float,
    sim_thresh: float,
    sim,
) -> tuple[set[int], list[float]]:
    """Greedy matching of one video, frame by frame, at both gates.

    Returns the seqs of the detections matched under the IoU and similarity
    gates, and the IoU of every IoU-only match in matching order.  In each
    frame the predictions are taken in :func:`_pred_order`, once for both
    passes, and each takes the free ground-truth box of highest IoU, the
    first on a tie: under the gates, among those with IoU and phrase
    similarity at their thresholds; IoU-only, among all of them.
    """
    gt_by_frame = _group_by_frame(gt_objects)
    gated: set[int] = set()
    overlaps: list[float] = []
    for frame, frame_dets in _group_by_frame(detections).items():
        gts = gt_by_frame.get(frame)
        if gts is None:
            continue  # no ground truth to match in this frame
        table = _iou_table(frame_dets, gts)
        order = _pred_order(frame_dets, table) if len(frame_dets) > 1 else (0,)
        free = list(range(len(gts)))  # IoU-only
        free_gated = list(free)
        for pi in order:
            row = table[pi]
            if free:
                best = max(free, key=row.__getitem__)  # the first of equal maxima
                free.remove(best)
                overlaps.append(row[best])
            best = None
            phrase = frame_dets[pi].phrase
            for gi in free_gated:
                overlap = row[gi]
                if overlap >= iou_thresh and sim(phrase, gts[gi].phrase) >= sim_thresh:
                    if best is None or overlap > row[best]:
                        best = gi
            if best is not None:
                free_gated.remove(best)
                gated.add(frame_dets[pi].seq)
    return gated, overlaps


def _average_precision(ranked_tp: list[bool], num_gt: int) -> Optional[float]:
    """All-point interpolated AP with the precision envelope.

    Equals the sum over true positives of the envelope precision at their
    rank, divided by the number of ground-truth boxes; the sum runs forward,
    in rank order.
    """
    if num_gt == 0:
        return None
    precision = list(map(truediv, accumulate(ranked_tp), count(1)))
    envelope = list(accumulate(reversed(precision), max))[::-1]
    return sum(compress(envelope, ranked_tp)) / num_gt


def _ranked_flags(detections: list[_BoxRow], matched: set[int]) -> list[bool]:
    """Whether each of ``detections``, given in seq order, is matched, ranked by confidence
    (descending) then seq: a reversed sort keeps equal keys in their order."""
    order = sorted(detections, key=_CONFIDENCE, reverse=True)
    return list(map(matched.__contains__, map(_SEQ, order)))


# ---------------------------------------------------------------------------
# Report


class LevelScores(NamedTuple):
    ap50: Optional[float]
    miou: Optional[float]
    recall: Optional[float]


class MetricsReport(NamedTuple):
    frame_level: LevelScores
    video_level: LevelScores
    meteor: float
    cider: float
    per_video: dict[str, dict]
    config: dict
    num_videos: int

    def as_dict(self) -> dict:
        """The plain form: the fields, with each score, video and config as a dict."""
        return {
            **self._asdict(),
            "frame_level": self.frame_level._asdict(),
            "video_level": self.video_level._asdict(),
            "per_video": {video_id: dict(scores) for video_id, scores in self.per_video.items()},
            "config": dict(self.config),
        }


def _mean_or_none(values: list[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(sum(present) / len(present))


def _grounding_scores(
    detections: list[_BoxRow], gated: set[int], overlaps: list[float], num_gt: int
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
    config: PipelineConfig = PipelineConfig(),
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

    backend = similarity_backend(config)
    sim = lru_cache(maxsize=None)(backend.similarity)  # one call per (a, b); no failure kept
    video_ids = sorted(gt_by_id)

    # Matching never crosses a frame, so the frame level pools the per-video
    # matches.  Detection seqs are unique across the pool, and the overlaps
    # concatenate in video order, so the pooled sums equal a corpus-wide
    # rematch bit for bit.
    all_dets: list[_BoxRow] = []
    all_gated: set[int] = set()
    all_overlaps: list[float] = []
    total_gt = 0
    per_video: dict[str, dict] = {}
    candidates: dict[str, str] = {}
    references: dict[str, list[str]] = {}
    try:  # the backend may hold a kept-alive connection
        for video_id in video_ids:
            gt, pred = gt_by_id[video_id], pred_by_id.get(video_id)
            detections = _box_rows(pred, seq_start=len(all_dets)) if pred is not None else []
            gt_objects = _box_rows(gt)
            gated, overlaps = (
                _match_pool(detections, gt_objects, config.iou_thresh, config.sim_thresh, sim)
                if gt_objects
                else (set(), [])
            )
            candidates[video_id] = pred.caption.plain if pred is not None else ""
            references[video_id] = [gt.caption.plain]
            try:
                meteor = meteor_best(candidates[video_id], references[video_id])
            except ValueError as exc:  # the reader lets a caption of only whitespace pass
                message = f"ground-truth caption of video {video_id!r} has no words"
                raise ValueError(message) from exc
            per_video[video_id] = {
                **_grounding_scores(detections, gated, overlaps, len(gt_objects))._asdict(),
                "num_gt_boxes": len(gt_objects),
                "num_pred_boxes": len(detections),
                "meteor": meteor,
            }
            all_dets.extend(detections)
            all_gated.update(gated)
            all_overlaps.extend(overlaps)
            total_gt += len(gt_objects)
    finally:
        backend.close()
    cider_corpus, cider_by_video = cider_scores(candidates, references)
    for video_id, scores in per_video.items():
        scores["cider"] = cider_by_video[video_id]

    frame_scores = _grounding_scores(all_dets, all_gated, all_overlaps, total_gt)
    video_scores = LevelScores(
        *(_mean_or_none([s[m] for s in per_video.values()]) for m in ("ap50", "miou", "recall"))
    )
    meteor_corpus = float(sum(scores["meteor"] for scores in per_video.values()) / len(video_ids))

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
