"""Reference scores for the ``eval-noisy`` workload, computed without ``groundcap``.

This is a plain re-statement of the metric definitions in the project README:
greedy one-to-one matching per frame in confidence order (ties by best IoU,
then input order), all-point interpolated AP with the precision envelope, mIoU
over ground-truth boxes under IoU-only matching, recall under both gates,
CIDEr-D with document frequencies from the references, and the exact+stem
METEOR core. The generator picks a vocabulary in which distinct words never
share a stem and distinct phrases never share a content word, so here a stem
match cannot add to an exact one and two phrases are similar iff equal.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

IOU_THRESH = 0.5
OBJECTNESS_THRESH = 0.5
NGRAM_MAX = 4
SIGMA = 6.0

_TAG = re.compile(r"<p>(.*?)</p>")
_TOKEN = re.compile(r"\w+|[^\w\s]")


def _caption(tagged: str) -> tuple[str, list[str]]:
    return _TAG.sub(lambda m: m.group(1), tagged), _TAG.findall(tagged)


def _iou(a: tuple, b: tuple) -> float:
    # Same float operations as the program's IoU on normalized boxes, so
    # equal IoUs tie the same way in both.
    if a == b:
        return 1.0 if a[2] * a[3] > 0 else 0.0
    inter = max(min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0]), 0.0) * max(
        min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1]), 0.0
    )
    union = a[2] * a[3] + b[2] * b[3] - inter
    return 0.0 if union <= 0 else min(inter / union, 1.0)


def _boxes(record: dict, objectness: bool):
    """(frame, normalized box, phrase, confidence) per box, in file order."""
    _plain, phrases = _caption(record["caption"])
    width, height = record["width"], record["height"]
    out = []
    for track in record["tracks"]:
        confidence = track.get("confidence")
        for key in sorted(track["boxes"], key=int):
            score = 1.0 if confidence is None else confidence[key]
            if objectness and score < OBJECTNESS_THRESH:
                continue
            x, y, w, h = (float(v) for v in track["boxes"][key])
            out.append((int(key), (x / width, y / height, w / width, h / height),
                        phrases[track["phrase_index"]], score))
    return out


def _greedy(preds: list, gts: list, gated: bool) -> dict[int, float]:
    """One frame: pred position -> IoU of the GT it claims."""
    best = [max((_iou(p[1], g[1]) for g in gts), default=0.0) for p in preds]
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][3], -best[i], i))
    taken: set[int] = set()
    claimed = {}
    for i in order:
        pick = None
        for j, gt in enumerate(gts):
            if j in taken:
                continue
            overlap = _iou(preds[i][1], gt[1])
            if gated and (overlap < IOU_THRESH or preds[i][2] != gt[2]):
                continue
            if pick is None or overlap > pick[1]:
                pick = (j, overlap)
        if pick is not None:
            taken.add(pick[0])
            claimed[i] = pick[1]
    return claimed


def _ap(ranked_tp: list[bool], num_gt: int) -> float:
    precision = []
    tp = 0
    for rank, hit in enumerate(ranked_tp, start=1):
        tp += hit
        precision.append(tp / rank)
    for k in range(len(precision) - 2, -1, -1):
        precision[k] = max(precision[k], precision[k + 1])
    return sum(p for p, hit in zip(precision, ranked_tp) if hit) / num_gt


def _ngrams(tokens: list[str]) -> Counter:
    return Counter(
        tuple(tokens[i : i + n]) for n in range(1, NGRAM_MAX + 1) for i in range(len(tokens) - n + 1)
    )


def _cider(candidates: dict[str, list[str]], references: dict[str, list[str]]) -> dict[str, float]:
    ref_grams = {v: _ngrams(t) for v, t in references.items()}
    df = Counter(g for grams in ref_grams.values() for g in grams)
    log_n = math.log(len(references))

    def vectors(grams: Counter):
        vec = [{} for _ in range(NGRAM_MAX)]
        for gram, count in grams.items():
            vec[len(gram) - 1][gram] = count * (log_n - math.log(max(df[gram], 1)))
        return vec

    scores = {}
    for vid, ref_tokens in references.items():
        hyp, ref = vectors(_ngrams(candidates[vid])), vectors(ref_grams[vid])
        gauss = math.exp(-((len(candidates[vid]) - len(ref_tokens)) ** 2) / (2 * SIGMA**2))
        total = 0.0
        for h, r in zip(hyp, ref):
            h_norm = math.sqrt(sum(v * v for v in h.values()))
            r_norm = math.sqrt(sum(v * v for v in r.values()))
            if h_norm and r_norm:
                dot = sum(min(v, r.get(g, 0.0)) * r.get(g, 0.0) for g, v in h.items())
                total += gauss * dot / (h_norm * r_norm)
        scores[vid] = 10.0 * total / NGRAM_MAX
    return scores


def _meteor(cand: list[str], ref: list[str]) -> float:
    if not cand:
        return 0.0
    free = list(range(len(ref)))
    pairs = []
    for i, token in enumerate(cand):
        for pos, j in enumerate(free):
            if ref[j] == token:
                pairs.append((i, j))
                del free[pos]
                break
    if not pairs:
        return 0.0
    p, r = len(pairs) / len(cand), len(pairs) / len(ref)
    chunks = 1 + sum(1 for (a, b), (c, d) in zip(pairs, pairs[1:]) if c != a + 1 or d != b + 1)
    return 10 * p * r / (p + 9 * r) * (1 - 0.5 * (chunks / len(pairs)) ** 3)


def reference_report(pred_bytes: bytes, gt_bytes: bytes) -> dict:
    """Corpus and per-video scores in the shape of the program's report."""
    gts = {r["video_id"]: r for r in map(json.loads, gt_bytes.decode().splitlines()) if r}
    preds = {r["video_id"]: r for r in map(json.loads, pred_bytes.decode().splitlines()) if r}
    per_video = {}
    pooled = []  # (confidence, sequence, hit) over all detections
    total_gt = total_hit = 0
    total_iou = 0.0
    seq = 0
    for vid in sorted(gts):
        gt_boxes = _boxes(gts[vid], objectness=False)
        dets = _boxes(preds[vid], objectness=True) if vid in preds else []
        hits = [False] * len(dets)
        iou_sum = 0.0
        for frame in {d[0] for d in dets}:
            idx = [i for i, d in enumerate(dets) if d[0] == frame]
            frame_gts = [g for g in gt_boxes if g[0] == frame]
            frame_dets = [dets[i] for i in idx]
            for k in _greedy(frame_dets, frame_gts, gated=True):
                hits[idx[k]] = True
            iou_sum += sum(_greedy(frame_dets, frame_gts, gated=False).values())
        ranked = sorted(range(len(dets)), key=lambda i: (-dets[i][3], i))
        num_gt = len(gt_boxes)
        per_video[vid] = {
            "ap50": _ap([hits[i] for i in ranked], num_gt),
            "miou": iou_sum / num_gt,
            "recall": sum(hits) / num_gt,
            "num_gt_boxes": num_gt,
            "num_pred_boxes": len(dets),
        }
        pooled.extend((dets[i][3], seq + i, hits[i]) for i in range(len(dets)))
        seq += len(dets)
        total_gt += num_gt
        total_hit += sum(hits)
        total_iou += iou_sum
    pooled.sort(key=lambda d: (-d[0], d[1]))

    def tokens(record: dict) -> list[str]:
        return _TOKEN.findall(_caption(record["caption"])[0].lower())

    refs = {vid: tokens(gts[vid]) for vid in gts}
    cands = {vid: tokens(preds[vid]) if vid in preds else [] for vid in gts}
    cider = _cider(cands, refs)
    for vid, scores in per_video.items():
        scores["cider"] = cider[vid]
        scores["meteor"] = _meteor(cands[vid], refs[vid])

    def mean(key: str) -> float:
        return sum(s[key] for s in per_video.values()) / len(per_video)

    return {
        "num_videos": len(gts),
        "cider": mean("cider"),
        "meteor": mean("meteor"),
        "frame_level": {
            "ap50": _ap([hit for _c, _s, hit in pooled], total_gt),
            "miou": total_iou / total_gt,
            "recall": total_hit / total_gt,
        },
        "video_level": {key: mean(key) for key in ("ap50", "miou", "recall")},
        "per_video": per_video,
    }


def mismatches(report: dict, reference: dict, tol: float = 2e-6) -> tuple[list[str], list[str]]:
    """Videos whose scores differ from the reference, and differing corpus keys.

    The report writes six decimals, so scores agree within ``tol``.
    """
    def differs(a, b) -> bool:
        if isinstance(b, int) and not isinstance(b, bool):
            return a != b
        return a is None or abs(a - b) > tol

    videos = sorted(
        vid for vid, scores in reference["per_video"].items()
        if vid not in report.get("per_video", {})
        or any(differs(report["per_video"][vid].get(k), v) for k, v in scores.items())
    )
    corpus = [k for k in ("num_videos", "cider", "meteor") if differs(report.get(k), reference[k])]
    for level in ("frame_level", "video_level"):
        corpus += [f"{level}.{k}" for k, v in reference[level].items()
                   if differs(report.get(level, {}).get(k), v)]
    return videos, corpus
