"""Scoring predictions: captioning metrics plus grounding metrics.

Evaluation compares prediction records against ground-truth records by
video id.  Grounding quality is reported as AP50, mean IoU, and recall in
two settings: frame-level (detections pooled across all frames of all
videos) and video-level (per video, then averaged).  Captioning quality is
CIDEr-D and a METEOR reduced to its exact+stem unigram core.
"""

from groundcap import (
    BoundingBox,
    ObjectTrack,
    PipelineConfig,
    VideoAnnotation,
    evaluate,
    parse_tagged_caption,
)
from groundcap.jsonio import canonical_json


def record(video_id, tagged, boxes_by_phrase, confidence=None):
    caption = parse_tagged_caption(tagged)
    tracks = []
    for phrase_index, boxes in boxes_by_phrase.items():
        conf = {t: confidence for t in boxes} if confidence else None
        tracks.append(ObjectTrack(phrase_index, boxes, 4, confidence=conf))
    return VideoAnnotation(
        video_id=video_id, frame_count=4, fps=5.0, width=455, height=256,
        caption=caption, tracks=tuple(tracks),
    )


gt = [
    record(
        "vid-a",
        "<p>a woman</p> pours <p>a beverage</p>",
        {
            0: {t: BoundingBox(50, 10, 150, 230) for t in range(4)},
            1: {t: BoundingBox(90, 120, 50, 60) for t in range(2)},
        },
    )
]

# The prediction nails the woman, drifts on the beverage, and words the
# caption differently.
pred = [
    record(
        "vid-a",
        "<p>a woman</p> is pouring <p>a drink</p>",
        {
            0: {t: BoundingBox(52, 12, 150, 230) for t in range(4)},
            1: {t: BoundingBox(140, 150, 50, 60) for t in range(2)},
        },
        confidence=0.9,
    )
]

report = evaluate(pred, gt, PipelineConfig(iou_thresh=0.5, sim_thresh=0.5))
print("frame level :", report.frame_level._asdict())
print("video level :", report.video_level._asdict())
print(f"meteor {report.meteor:.4f}   cider {report.cider:.4f}")
print("\nfull report as canonical JSON:")
print(canonical_json(report.as_dict())[:400], "...")
