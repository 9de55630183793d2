"""Ingesting frame-level grounding output, including mask-to-box conversion.

Stage-1 grounding models emit one record per video frame: a caption plus
located objects.  Objects arrive either with a pixel box or with a
run-length-encoded binary mask; each mask is reduced to its tightest
enclosing box as the record is read.
"""

import json

from groundcap import mask_to_box, parse_frame_grounding

# A small frame-grounding file (JSON-lines, one frame per line).  The mask
# is row-major alternating background/foreground runs, starting with
# background: here a 4x3 foreground block inside a 10x8 frame.
width, height = 10, 8
runs = [22, 4, 6, 4, 6, 4, 80 - 46]
lines = [
    {
        "video_id": "demo",
        "frame_index": 0,
        "width": width,
        "height": height,
        "caption": "a person holding a cup",
        "objects": [
            {"phrase": "a person", "box": [1, 0, 5, 8]},
            {"phrase": "a cup", "mask": runs},
        ],
    },
    {
        "video_id": "demo",
        "frame_index": 1,
        "width": width,
        "height": height,
        "caption": "a person drinking from a cup",
        "objects": [{"phrase": "a person", "box": [2, 0, 5, 8]}],
    },
]
data = "\n".join(json.dumps(l) for l in lines).encode()

records = parse_frame_grounding(data)
print(f"parsed {len(records)} frames of video {records[0].video_id!r}")
for record, line in zip(records, lines):  # the lines are already in frame order
    print(f"frame {record.frame_index}: {record.caption!r}")
    for obj, item in zip(record.objects, line["objects"]):
        kind = "box" if "box" in item else "mask"
        print(f"  {obj.phrase!r} via {kind} -> box {obj.box.as_list()}")

# mask_to_box works straight on the runs, without materializing the grid.
print("\ndirect mask decode:", mask_to_box(runs, width, height).as_list())
