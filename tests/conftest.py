"""Shared fixtures: scripted clients, synthetic records, pipeline scenarios."""

from __future__ import annotations

import random
from typing import Optional, Sequence

import pytest

from groundcap import (
    BoundingBox,
    ChatMessage,
    FrameGrounding,
    FrameObject,
    ObjectTrack,
    TaggedCaption,
    VideoAnnotation,
    build_stage2_prompt,
    build_stage3_prompt,
    extract_svo,
    parse_tagged_caption,
    pos_tag,
    render_svo_block,
    request_hash,
)
from groundcap.llm import TransportError


class ScriptedClient:
    """In-process chat client that replays a fixed response sequence."""

    def __init__(self, responses: Sequence[str | Exception]):
        self.responses = list(responses)
        self.calls: list[list[ChatMessage]] = []

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        self.calls.append(list(messages))
        if not self.responses:
            raise AssertionError("scripted client ran out of responses")
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class ReplayClient:
    """In-process chat client keyed by request hash, like the mock server."""

    def __init__(self, responses: dict[str, str]):
        self.responses = dict(responses)
        self.call_count = 0

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        self.call_count += 1
        key = request_hash(messages)
        if key not in self.responses:
            raise TransportError(f"no fixture for request {key}")
        return self.responses[key]


def stage2_hash(frames) -> str:
    return request_hash(build_stage2_prompt(render_svo_block(frames)))


def stage3_hash(phrase: str, categories: list[str]) -> str:
    return request_hash(build_stage3_prompt(phrase, categories))


def caption_response(tagged: str) -> str:
    return "{`CAPTION': `" + tagged + "'}"


def category_response(category: Optional[str]) -> str:
    return "{`CATEGORY': `" + (category if category is not None else "None") + "'}"


def box(x, y, w, h) -> BoundingBox:
    return BoundingBox(float(x), float(y), float(w), float(h))


# ---------------------------------------------------------------------------
# The stirring scenario: frame captions that aggregate into the caption
# "A person is stirring food in a bowl using a spoon".

STIRRING_CAPTION = "<p>A person</p> is stirring <p>food in a bowl</p> using a spoon"
STIRRING_PHRASES = ["A person", "food in a bowl"]
STIRRING_STAGE3 = {
    "a cup": None,
    "a bowl": "food in a bowl",
    "a person": "A person",
    "a spoon": None,
    "food": "food in a bowl",
    "the bowl": "food in a bowl",
}


def salt_word(video_id: str) -> str:
    """A letters-only pseudo-noun derived from the id; makes prompts unique."""
    import hashlib

    digest = hashlib.sha256(video_id.encode()).hexdigest()[:6]
    return "q" + "".join(chr(ord("a") + int(c, 16)) for c in digest)


def stirring_frames(video_id: str = "vid-stir", salted: bool = False) -> list[FrameGrounding]:
    def frame(i, caption, objects):
        return FrameGrounding(
            video_id=video_id,
            frame_index=i,
            width=455,
            height=256,
            caption=caption,
            objects=tuple(FrameObject(p, box=b) for p, b in objects),
        )

    first_caption = "the image shows a cup. a bowl is visible."
    if salted:
        # an extra unknown noun makes this video's SVO block (and therefore
        # its aggregation request hash) unique
        first_caption += f" a {salt_word(video_id)} is visible."
    return [
        frame(
            0,
            first_caption,
            [("a cup", box(10, 20, 40, 50)), ("a bowl", box(120, 100, 140, 90))],
        ),
        frame(
            1,
            "a person holding a spoon. the spoon is in the bowl.",
            [
                ("a person", box(200, 10, 180, 240)),
                ("a spoon", box(150, 90, 60, 30)),
                ("the bowl", box(118, 102, 140, 92)),
            ],
        ),
        frame(
            2,
            "a person is seen holding a spoon. the spoon is used to stir food in a bowl.",
            [("a person", box(202, 12, 180, 240)), ("food", box(130, 110, 110, 70))],
        ),
        frame(
            3,
            "a person holding a spoon. the spoon is in the bowl.",
            [("a person", box(204, 11, 180, 240)), ("the bowl", box(119, 101, 141, 90))],
        ),
    ]


def stirring_fixtures(video_id: str = "vid-stir", salted: bool = False) -> dict[str, str]:
    frames = stirring_frames(video_id, salted=salted)
    svo_frames = [extract_svo(pos_tag(f.caption), f.frame_index) for f in frames]
    fixtures = {stage2_hash(svo_frames): caption_response(STIRRING_CAPTION)}
    for phrase, assigned in STIRRING_STAGE3.items():
        fixtures[stage3_hash(phrase, STIRRING_PHRASES)] = category_response(assigned)
    return fixtures


# ---------------------------------------------------------------------------
# The beverage scenario: three differently phrased frame objects that must
# land in a single "a beverage" track.

BEVERAGE_CAPTION = "<p>A woman</p> is drinking <p>a beverage</p>"
BEVERAGE_PHRASES = ["A woman", "a beverage"]
BEVERAGE_FRAME_PHRASES = ["a green beverage", "a glass", "a glass of green liquid"]


def beverage_frames(video_id: str = "vid-bev") -> list[FrameGrounding]:
    captions = [
        "a woman holding a green beverage.",
        "a woman holding a glass.",
        "a woman holding a glass of green liquid.",
    ]
    frames = []
    for i, (caption, phrase) in enumerate(zip(captions, BEVERAGE_FRAME_PHRASES)):
        frames.append(
            FrameGrounding(
                video_id=video_id,
                frame_index=i,
                width=455,
                height=256,
                caption=caption,
                objects=(
                    FrameObject("a woman", box=box(50, 10, 150, 230)),
                    FrameObject(phrase, box=box(90 + i, 120, 50, 60)),
                ),
            )
        )
    return frames


def beverage_fixtures(video_id: str = "vid-bev") -> dict[str, str]:
    frames = beverage_frames(video_id)
    svo_frames = [extract_svo(pos_tag(f.caption), f.frame_index) for f in frames]
    fixtures = {stage2_hash(svo_frames): caption_response(BEVERAGE_CAPTION)}
    fixtures[stage3_hash("a woman", BEVERAGE_PHRASES)] = category_response("A woman")
    for phrase in BEVERAGE_FRAME_PHRASES:
        fixtures[stage3_hash(phrase, BEVERAGE_PHRASES)] = category_response("a beverage")
    return fixtures


# ---------------------------------------------------------------------------
# Synthetic annotation records (all coordinates 6-decimal safe)

_WORDS = "cook helper bowl spoon cup tray board towel jar pot".split()
_VERBS = "lifts moves holds taps fills wipes stacks turns".split()


def make_annotation(
    rng: random.Random,
    video_id: str,
    frame_count: int | None = None,
    with_confidence: bool = False,
) -> VideoAnnotation:
    frame_count = frame_count or rng.randint(2, 12)
    num_phrases = rng.randint(1, 3)
    words = rng.sample(_WORDS, num_phrases)
    parts = []
    for i, word in enumerate(words):
        if i:
            parts.append(f" {rng.choice(_VERBS)} ")
        parts.append(f"<p>a {word}</p>")
    caption = parse_tagged_caption("".join(parts) + f" {rng.choice(_VERBS)} gently")
    tracks = []
    for index in range(num_phrases):
        if rng.random() < 0.2 and num_phrases > 1 and index > 0:
            continue  # some phrases stay ungrounded
        boxes = {}
        confidence = {}
        for t in range(frame_count):
            if rng.random() < 0.35:
                continue
            x = rng.randrange(0, 300)
            y = rng.randrange(0, 150)
            boxes[t] = BoundingBox(
                float(x), float(y), float(rng.randrange(4, 100)), float(rng.randrange(4, 80))
            )
            confidence[t] = rng.randrange(0, 101) / 100
        if not boxes:
            t = rng.randrange(frame_count)
            boxes[t] = BoundingBox(10.0, 12.0, 25.0, 30.0)
            confidence[t] = 1.0
        tracks.append(
            ObjectTrack(
                index, boxes, frame_count, confidence=confidence if with_confidence else None
            )
        )
    return VideoAnnotation(
        video_id=video_id,
        frame_count=frame_count,
        fps=5.0,
        width=455,
        height=256,
        caption=caption,
        tracks=tuple(tracks),
        boxes_normalized=False,
    )


def make_corpus(rng: random.Random, size: int, prefix: str = "vid") -> list[VideoAnnotation]:
    return [make_annotation(rng, f"{prefix}-{i:04d}") for i in range(size)]


@pytest.fixture
def record_checks(monkeypatch):
    """Video ids of the records checked at ingest or build, one per check.

    A check is a walk of the annotation reader, which a read line and each
    record ``build`` emits both get, or a ``check_annotation`` call, which
    explains a refused line.
    """
    import groundcap.ingest as ingest

    checked = []

    def counting(real):
        def count(obj, *args):
            checked.append(obj["video_id"])
            return real(obj, *args)

        return count

    monkeypatch.setattr(ingest, "_read_annotation", counting(ingest._read_annotation))
    monkeypatch.setattr(ingest, "check_annotation", counting(ingest.check_annotation))
    return checked


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def stirring_caption() -> TaggedCaption:
    return parse_tagged_caption(STIRRING_CAPTION)
