"""Seeded inputs for the benchmark workloads.

Every generator writes, into one directory:

* the files the program reads (``frames.jsonl`` for a build, ``pred.jsonl``
  and ``gt.jsonl`` for an evaluation);
* ``expected.jsonl``: for a build, the outcome each video must reach
  (accepted with the exact record, or rejected with the reason codes) and the
  model calls it must make;
* ``fixtures.json``: the mock chat server's answers, ``{"responses": {hash:
  text}}``.

Inputs and expectations are a pure function of the seed and never touch the
program, so their digest pins the generator. Only the fixtures call into
``groundcap``, because the mock answers by the program's own request hash.
Nothing here imports the test suite, so a test edit cannot change a workload.

Run on its own: ``python perfbench/generate.py WORKLOAD SEED OUTDIR``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

# Words are chosen so that no two distinct words share a stem under the
# evaluation's stemmer and every caption phrase holds exactly one content
# noun. That keeps the evaluation reference free of a stemmer and of the
# lexical similarity model: two phrases match iff their strings are equal.
PEOPLE = ["person", "woman", "man", "chef", "cook", "child"]
OBJECTS = [
    "bowl", "spoon", "knife", "cup", "plate", "pan", "pot", "board", "onion",
    "carrot", "tomato", "soup", "salad", "dough", "flour", "butter", "egg",
    "sauce", "oil", "lid", "towel", "stove", "oven", "tray", "jar", "bottle",
    "kettle", "ladle", "whisk", "brush", "mug",
]
VERBS = ["holding", "stirring", "cutting", "pouring", "mixing", "washing", "peeling", "slicing"]
ADPOSITIONS = ["in", "on", "with", "near", "over"]
# Disjoint from every word above: substitutions never create a stem match.
NOISE = ["zebra", "violin", "rocket", "planet", "guitar", "castle", "dragon", "meadow", "harbor", "tunnel"]

SALT_LETTERS = "bcdfghjkmnpqrtvwxz"  # no vowel-suffix or plural reading in the tagger

BUILD_FPS = 5.0
RETRIES = 2  # the CLI default: a failing answer is asked for 1 + RETRIES times


def salt_word(index: int, rng: random.Random) -> str:
    """A letters-only pseudo-noun unique to ``index``."""
    digits = []
    n = index
    while True:
        digits.append(SALT_LETTERS[n % len(SALT_LETTERS)])
        n //= len(SALT_LETTERS)
        if n == 0:
            break
    return "q" + "".join(digits) + "".join(rng.choice(SALT_LETTERS) for _ in range(3))


def caption_answer(tagged: str) -> str:
    return "{`CAPTION': `" + tagged + "'}"


def category_answer(category: str | None) -> str:
    return "{`CATEGORY': `" + (category if category is not None else "None") + "'}"


def rect_mask(x: int, y: int, w: int, h: int, width: int, height: int) -> list[int]:
    """Row-major RLE counts of a filled rectangle, background first."""
    counts = []
    pos = 0
    for row in range(y, y + h):
        start = row * width + x
        counts.append(start - pos)
        counts.append(w)
        pos = start + w
    counts.append(width * height - pos)
    return counts


def random_box(rng: random.Random, width: int, height: int) -> list[int]:
    w = rng.randint(width // 10, width // 3)
    h = rng.randint(height // 10, height // 2)
    return [rng.randint(0, width - w), rng.randint(0, height - h), w, h]


# ---------------------------------------------------------------------------
# Build workloads


def _pixel_box(obj: dict, width: int, height: int) -> list[float] | None:
    """The box the program must keep for one object, or None if dropped."""
    if "mask" in obj:
        if len(obj["mask"]) == 1:  # all background
            return None
        x, y, w, h = obj["rect"]
    else:
        x, y, w, h = obj["box"]
    x1, y1 = min(max(x, 0), width), min(max(y, 0), height)
    x2, y2 = min(max(x + w, 0), width), min(max(y + h, 0), height)
    if x2 <= x1 or y2 <= y1:
        return None
    return [float(x1), float(y1), float(x2 - x1), float(y2 - y1)]


def expected_outcome(video: dict) -> dict:
    """The record (or rejection) and the model calls one video must produce.

    ``video["categories"]`` maps every frame phrase to the caption phrase it
    belongs to (or None); phrases in ``video["unknown"]`` are answered with a
    category that does not exist, so the program must demote them to the
    None-class.
    """
    video_id, frames, phrases = video["video_id"], video["frames"], video["phrases"]
    width, height = video["width"], video["height"]
    if video["stage2"] != "ok":
        return {"video_id": video_id, "status": "rejected", "codes": [video["stage2"]],
                "record": None, "stage2_calls": 1 + RETRIES, "stage3_calls": 0, "demotions": 0}
    kept = []
    for frame in frames:
        for obj in frame["objects"]:
            box = _pixel_box(obj, width, height)
            if box is not None:
                kept.append((frame["frame_index"], obj["phrase"], box))
    stage3_calls = 0
    demotions = 0
    assigned: dict[str, str | None] = {}
    for _t, phrase, _box in kept:
        if phrase in assigned:
            continue
        if phrase in phrases:
            assigned[phrase] = phrase
        elif phrase in video["unknown"]:
            assigned[phrase] = None
            stage3_calls += 1 + RETRIES
            demotions += 1
        else:
            assigned[phrase] = video["categories"][phrase]
            stage3_calls += 1
    frame_count = max(f["frame_index"] for f in frames) + 1
    boxes_by_index: dict[int, dict[int, list[float]]] = {}
    for t, phrase, box in kept:
        target = assigned[phrase]
        if target is None:
            continue
        boxes = boxes_by_index.setdefault(phrases.index(target), {})
        if t not in boxes or boxes[t][2] * boxes[t][3] < box[2] * box[3]:
            boxes[t] = box
    base = {"video_id": video_id, "stage2_calls": 1, "stage3_calls": stage3_calls,
            "demotions": demotions}
    if not boxes_by_index:
        return {**base, "status": "rejected", "codes": ["no-tracks"], "record": None}
    tracks = [
        {
            "phrase_index": index,
            "presence": [t in boxes for t in range(frame_count)],
            "boxes": {str(t): boxes[t] for t in sorted(boxes)},
        }
        for index, boxes in sorted(boxes_by_index.items())
    ]
    record = {
        "video_id": video_id, "frame_count": frame_count, "fps": BUILD_FPS,
        "width": width, "height": height, "caption": video["caption"],
        "boxes_normalized": False, "tracks": tracks,
    }
    return {**base, "status": "accepted", "codes": [], "record": record}


def _frame_record(video_id, frame_index, width, height, caption, objects) -> dict:
    out = []
    for obj in objects:
        if "mask" in obj:
            out.append({"phrase": obj["phrase"], "mask": obj["mask"]})
        else:
            out.append({"phrase": obj["phrase"], "box": obj["box"]})
    return {"video_id": video_id, "frame_index": frame_index, "width": width,
            "height": height, "caption": caption, "objects": out}


def _shared_videos(seed: int, count: int):
    """Identical 4-frame, boxes-only videos that differ only in their id.

    Six distinct frame phrases, none equal to a caption phrase, so every
    video makes one stage-2 and six stage-3 calls: 7 distinct requests in the
    whole run.
    """
    rng = random.Random(seed)
    person = rng.choice(PEOPLE)
    container, food, tool, extra = rng.sample(OBJECTS, 4)
    verb = rng.choice(VERBS)
    width, height = 455, 256
    p0, p1 = f"A {person}", f"{food} in a {container}"
    caption = f"<p>{p0}</p> is {verb} <p>{p1}</p> using a {tool}"
    categories = {f"a {extra}": None, f"a {container}": p1, f"a {person}": p0,
                  f"a {tool}": None, food: p1, f"the {container}": p1}
    holding = f"a {person} holding a {tool}. the {tool} is in the {container}."
    layout = [
        (f"the image shows a {extra}. a {container} is visible.", [f"a {extra}", f"a {container}"]),
        (holding, [f"a {person}", f"a {tool}", f"the {container}"]),
        (f"a {person} is seen holding a {tool}. the {tool} is used to stir {food} in a {container}.",
         [f"a {person}", food]),
        (holding, [f"a {person}", f"the {container}"]),
    ]
    frames = [
        {"frame_index": i, "caption": text,
         "objects": [{"phrase": p, "box": random_box(rng, width, height)} for p in objs]}
        for i, (text, objs) in enumerate(layout)
    ]
    for i in range(count):
        yield {"video_id": f"shared-{i:05d}", "width": width, "height": height,
               "frames": frames, "caption": caption, "phrases": [p0, p1],
               "categories": categories, "stage2": "ok", "unknown": set()}


LONG_FRAMES = 40
LONG_OBJECTS_PER_FRAME = 5
UNKNOWN_ANSWERS = 3


def _long_object(rng: random.Random, phrase: str, width: int, height: int) -> dict:
    x, y, w, h = random_box(rng, width, height)
    roll = rng.random()
    if roll < 0.02:
        return {"phrase": phrase, "mask": [width * height]}  # empty mask: dropped
    if roll < 0.04:
        return {"phrase": phrase, "box": [width + rng.randint(1, 20), y, w, h]}  # off-frame
    if roll < 0.09:
        return {"phrase": phrase, "box": [-rng.randint(1, w - 1), y, w, h]}  # clamped
    if roll < 0.55:
        return {"phrase": phrase, "mask": rect_mask(x, y, w, h, width, height),
                "rect": [x, y, w, h]}
    return {"phrase": phrase, "box": [x, y, w, h]}


def _unique_long_videos(seed: int, count: int):
    """Long videos whose every model request is distinct.

    Salt words make each video's SVO block and caption phrases unique. A few
    answers are scripted failures, in fixed numbers so that every seed does
    the same amount of work: one video each gets a stage-2 ``no-dictionary``
    and ``malformed-tags`` answer and is rejected, and ``UNKNOWN_ANSWERS``
    stage-3 answers are ``unknown-category``, which demotes the phrase to the
    None-class.
    """
    rng = random.Random(seed)
    no_dictionary, malformed = rng.sample(range(count), 2)
    videos = []
    for index in range(count):
        salt = salt_word(index, rng)
        width, height = 320, 180  # one size: mask length, hence ingest work, is the same per seed
        person = rng.choice(PEOPLE)
        container, food, tool, *extras = rng.sample(OBJECTS, 6)
        verb = rng.choice(VERBS)
        p0, p1, p2 = f"A {person}", f"the {salt} {food}", f"a {container}"
        caption = f"<p>{p0}</p> is {verb} <p>{p1}</p> in <p>{p2}</p>"
        entities = {
            person: ([p0, f"a {person}", f"the {person}"], p0),
            food: ([f"the {food}", f"some {food}"], p1),
            container: ([p2, f"the {container}"], p2),
            tool: ([f"a {tool}", f"the {tool}"], None),
        }
        for extra in extras:
            entities[extra] = ([f"a {extra}"], None)
        categories = {p: target for surfaces, target in entities.values() for p in surfaces}
        frames = []
        for t in range(LONG_FRAMES):
            chosen = rng.sample(sorted(entities), LONG_OBJECTS_PER_FRAME)
            a, b = rng.sample(chosen, 2)
            text = (f"a {person} {rng.choice(VERBS)} the {a}. the {b} is "
                    f"{rng.choice(ADPOSITIONS)} the {container}. a {salt} is visible.")
            objects = [_long_object(rng, rng.choice(entities[e][0]), width, height) for e in chosen]
            frames.append({"frame_index": t, "caption": text, "objects": objects})
        stage2 = {no_dictionary: "no-dictionary", malformed: "malformed-tags"}.get(index, "ok")
        videos.append({"video_id": f"long-{index:04d}", "width": width, "height": height,
                       "frames": frames, "caption": caption, "phrases": [p0, p1, p2],
                       "categories": categories, "stage2": stage2, "unknown": set()})
    asked = [  # (video, phrase) pairs the program must send to stage 3
        (video, phrase)
        for video in videos if video["stage2"] == "ok"
        for phrase in sorted({obj["phrase"] for f in video["frames"] for obj in f["objects"]
                              if _pixel_box(obj, video["width"], video["height"]) is not None})
        if phrase not in video["phrases"]
    ]
    for video, phrase in rng.sample(asked, UNKNOWN_ANSWERS):
        video["unknown"].add(phrase)
    return videos


BUILD_SIZES = {"build-shared": 100, "build-unique-long": 16}


def _stage2_answer(video: dict) -> str:
    if video["stage2"] == "no-dictionary":
        return "Sorry, I can only describe the video in prose."
    if video["stage2"] == "malformed-tags":
        return caption_answer(video["caption"].replace("</p>", "", 1))
    return caption_answer(video["caption"])


def write_build(workload: str, seed: int, out: Path) -> dict:
    from groundcap import build_stage2_prompt, build_stage3_prompt, request_hash
    from groundcap.svo import extract_svo, pos_tag, render_svo_block

    videos = list((_shared_videos if workload == "build-shared" else _unique_long_videos)(
        seed, BUILD_SIZES[workload]))
    frames_lines, expected_lines, responses = [], [], {}
    for video in videos:
        vid, width, height = video["video_id"], video["width"], video["height"]
        for frame in video["frames"]:
            record = _frame_record(vid, frame["frame_index"], width, height,
                                   frame["caption"], frame["objects"])
            frames_lines.append(json.dumps(record, sort_keys=True))
        expected_lines.append(json.dumps(expected_outcome(video), sort_keys=True))

        svo = [extract_svo(pos_tag(f["caption"]), f["frame_index"]) for f in video["frames"]]
        probe = build_stage2_prompt(render_svo_block(svo))
        responses[request_hash(probe)] = _stage2_answer(video)
        if video["stage2"] != "ok":
            continue
        for phrase, target in video["categories"].items():
            if phrase in video["phrases"]:
                continue
            answer = (category_answer(f"a {NOISE[0]}") if phrase in video["unknown"]
                      else category_answer(target))
            responses[request_hash(build_stage3_prompt(phrase, video["phrases"]))] = answer
    files = {
        "frames.jsonl": "\n".join(frames_lines) + "\n",
        "expected.jsonl": "\n".join(expected_lines) + "\n",
    }
    digest = _write(out, files)
    (out / "fixtures.json").write_text(json.dumps({"responses": responses}, sort_keys=True))
    # A request the mock can answer, for the readiness probe.
    (out / "probe.json").write_text(json.dumps([m.as_dict() for m in probe]))
    return {"videos": len(videos), "digest": digest}


# ---------------------------------------------------------------------------
# Evaluation workload

EVAL_VIDEOS = 250
EVAL_FRAMES = 24


def _iou(a, b) -> float:
    ix = max(min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0]), 0)
    iy = max(min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1]), 0)
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def _clip(box, width, height):
    x, y, w, h = box
    w, h = max(2, min(w, width)), max(2, min(h, height))
    return [min(max(x, 0), width - w), min(max(y, 0), height - h), w, h]


def _noisy_box(rng, gt, width, height, others):
    """A prediction near ``gt``; never within 0.02 of the IoU gate against any GT box."""
    while True:
        x, y, w, h = gt
        if rng.random() < 0.8:
            dx, dy = rng.randint(-w // 8, w // 8), rng.randint(-h // 8, h // 8)
        else:
            dx, dy = rng.randint(-w, w), rng.randint(-h, h)
        box = _clip([x + dx, y + dy, w + rng.randint(-w // 8, w // 8),
                     h + rng.randint(-h // 8, h // 8)], width, height)
        if all(abs(_iou(box, o) - 0.5) >= 0.02 for o in others):
            return box


def _tagged(words: list[str], phrases: list[list[str]]) -> str:
    """Caption ``words`` with each phrase (a word list) spliced in as a tag."""
    return " ".join(
        "<p>" + " ".join(phrases[int(w[1:])]) + "</p>" if w.startswith("#") else w for w in words
    )


def _eval_video(rng: random.Random, index: int):
    vid = f"eval-{index:05d}"
    width, height = rng.choice([(320, 180), (455, 256), (640, 360)])
    person = rng.choice(PEOPLE)
    obj1, obj2, place = rng.sample(OBJECTS, 3)
    phrases = [["A", person], ["the", obj1], ["a", obj2]]
    words = ["#0", "is", rng.choice(VERBS), "#1", rng.choice(ADPOSITIONS), "#2",
             "near", "the", place]
    gt_tracks = []
    for phrase_index in range(len(phrases)):
        start = rng.randint(0, EVAL_FRAMES // 2)
        end = rng.randint(start + 2, EVAL_FRAMES)
        box = random_box(rng, width, height)
        boxes = {}
        for t in range(start, end):
            if t > start and rng.random() < 0.1:
                continue  # occlusion gap
            box = _clip([box[0] + rng.randint(-4, 4), box[1] + rng.randint(-4, 4), box[2], box[3]],
                        width, height)
            boxes[t] = box
        if boxes:
            gt_tracks.append((phrase_index, boxes))
    gt = {
        "video_id": vid, "frame_count": EVAL_FRAMES, "fps": 5.0, "width": width,
        "height": height, "caption": _tagged(words, phrases), "boxes_normalized": False,
        "tracks": [
            {"phrase_index": i, "presence": [t in boxes for t in range(EVAL_FRAMES)],
             "boxes": {str(t): b for t, b in sorted(boxes.items())}}
            for i, boxes in gt_tracks
        ],
    }
    if rng.random() < 0.03:
        return gt, None  # no prediction for this video

    pred_phrases = [list(p) for p in phrases]
    for p in pred_phrases:
        if rng.random() < 0.15:
            p[-1] = rng.choice(NOISE)  # wrong noun: fails the phrase gate
    pred_words = [w if w.startswith("#") or rng.random() > 0.2 else rng.choice(NOISE)
                  for w in words]
    gt_by_frame: dict[int, list] = {}
    for _i, boxes in gt_tracks:
        for t, b in boxes.items():
            gt_by_frame.setdefault(t, []).append(b)
    tracks = []
    for phrase_index, boxes in gt_tracks:
        if rng.random() < 0.1:
            continue  # missed object
        pred = {t: _noisy_box(rng, b, width, height, gt_by_frame[t])
                for t, b in boxes.items() if rng.random() < 0.85}
        if pred:
            tracks.append((phrase_index, pred))
    if rng.random() < 0.5:  # a false positive track
        phrase_index = rng.randrange(len(phrases))
        pred = {}
        for t in sorted(rng.sample(range(EVAL_FRAMES), 6)):
            box = random_box(rng, width, height)
            clear = all(abs(_iou(box, o) - 0.5) >= 0.02 for o in gt_by_frame.get(t, []))
            if clear and all(boxes.get(t) != box for _i, boxes in tracks):
                pred[t] = box
        if pred:
            tracks.append((phrase_index, pred))
    prediction = {
        "video_id": vid, "frame_count": EVAL_FRAMES, "fps": 5.0, "width": width,
        "height": height, "caption": _tagged(pred_words, pred_phrases), "boxes_normalized": False,
        "tracks": [
            {"phrase_index": i, "presence": [t in boxes for t in range(EVAL_FRAMES)],
             "boxes": {str(t): b for t, b in sorted(boxes.items())},
             "confidence": {str(t): round(rng.uniform(0.3, 1.0), 6) for t in sorted(boxes)}}
            for i, boxes in tracks
        ],
    }
    return gt, prediction


def write_eval(seed: int, out: Path) -> dict:
    rng = random.Random(seed)
    gt_lines, pred_lines = [], []
    for index in range(EVAL_VIDEOS):
        gt, pred = _eval_video(rng, index)
        gt_lines.append(json.dumps(gt, sort_keys=True))
        if pred is not None:
            pred_lines.append(json.dumps(pred, sort_keys=True))
    digest = _write(out, {"gt.jsonl": "\n".join(gt_lines) + "\n",
                          "pred.jsonl": "\n".join(pred_lines) + "\n"})
    return {"videos": EVAL_VIDEOS, "digest": digest}


# ---------------------------------------------------------------------------


def _write(out: Path, files: dict[str, str]) -> str:
    """Write ``files`` and return one digest over their names and bytes."""
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name in sorted(files):
        data = files[name].encode("utf-8")
        (out / name).write_bytes(data)
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


WORKLOADS = ("build-shared", "build-unique-long", "eval-noisy")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's files; returns ``{"videos": n, "digest": hex}``."""
    if workload == "eval-noisy":
        return write_eval(seed, out)
    if workload in BUILD_SIZES:
        return write_build(workload, seed, out)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def digest_table(first: int, last: int) -> dict:
    """``digests.json``: the input digest of every workload for seeds first..last."""
    import tempfile

    table = {}
    for workload in WORKLOADS:
        for seed in range(first, last + 1):
            with tempfile.TemporaryDirectory() as tmp:
                table.setdefault(workload, {})[str(seed)] = generate(workload, seed, Path(tmp))["digest"]
    return table


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--digests":
        print(json.dumps(digest_table(int(sys.argv[2]), int(sys.argv[3])), indent=1, sort_keys=True))
    elif len(sys.argv) == 4:
        print(json.dumps(generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))))
    else:
        sys.exit(f"usage: {sys.argv[0]} WORKLOAD SEED OUTDIR | --digests FIRST LAST")
