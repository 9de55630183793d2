"""Dataset statistics: instances, tube lengths, box sizes, caption lengths.

An instance is one box in one frame.  A tube is a maximal run of
consecutive present frames inside a track, so an object that disappears and
returns contributes several tubes whose lengths are averaged separately.
"""

import random

from groundcap import BoundingBox, ObjectTrack, VideoAnnotation, dataset_stats, parse_tagged_caption

rng = random.Random(7)


def random_record(video_id):
    frame_count = rng.randint(20, 50)
    caption = parse_tagged_caption("<p>a cook</p> stirs <p>a pot</p> on the stove")
    tracks = []
    for phrase_index in range(2):
        boxes = {}
        t = 0
        while t < frame_count:
            # present for a stretch, then a gap
            for _ in range(rng.randint(3, 10)):
                if t >= frame_count:
                    break
                boxes[t] = BoundingBox(
                    float(rng.randrange(0, 200)),
                    float(rng.randrange(0, 100)),
                    float(rng.randrange(20, 150)),
                    float(rng.randrange(20, 120)),
                )
                t += 1
            t += rng.randint(1, 6)
        tracks.append(ObjectTrack(phrase_index, boxes, frame_count))
    return VideoAnnotation(
        video_id=video_id, frame_count=frame_count, fps=5.0, width=455, height=256,
        caption=caption, tracks=tuple(tracks),
    )


records = [random_record(f"synth-{i:03d}") for i in range(50)]
report = dataset_stats(records)
for key, value in report._asdict().items():
    print(f"{key:32s} {value}")
