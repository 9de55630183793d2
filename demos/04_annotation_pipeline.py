"""The full annotation pipeline against the bundled mock chat server.

The two model-facing stages (caption aggregation, tracking by language) run
over any chat-completions endpoint.  For offline runs the package bundles a
mock server that replays canned responses keyed by the hash of the request
messages, which is also how the test suite drives the pipeline
deterministically.  This script builds the fixture map, starts the server,
and annotates one video end to end.
"""

from contextlib import closing

from groundcap import (
    BoundingBox,
    FrameGrounding,
    FrameObject,
    MockLlmServer,
    PipelineConfig,
    annotate_video,
    build_stage2_prompt,
    build_stage3_prompt,
    extract_svo,
    pos_tag,
    render_svo_block,
    request_hash,
)
from groundcap.llm import HttpChatClient
from groundcap.tubes import derive_presence


def frame(i, caption, objects):
    return FrameGrounding(
        video_id="demo",
        frame_index=i,
        width=455,
        height=256,
        caption=caption,
        objects=tuple(FrameObject(p, box=BoundingBox(*b)) for p, b in objects),
    )


frames = [
    frame(0, "the image shows a cup. a bowl is visible.",
          [("a cup", (10, 20, 40, 50)), ("a bowl", (120, 100, 140, 90))]),
    frame(1, "a person holding a spoon. the spoon is in the bowl.",
          [("a person", (200, 10, 180, 240)), ("the bowl", (118, 102, 140, 92))]),
    frame(2, "a person is seen holding a spoon. the spoon is used to stir food in a bowl.",
          [("a person", (202, 12, 180, 240)), ("food", (130, 110, 110, 70))]),
]

# Build the fixture map: hash each prompt the pipeline will send and attach
# the response the "model" should give.
video_phrases = ["A person", "food in a bowl"]
svo_frames = [extract_svo(pos_tag(f.caption), f.frame_index) for f in frames]
fixtures = {
    request_hash(build_stage2_prompt(render_svo_block(svo_frames))):
        "{`CAPTION': `<p>A person</p> is stirring <p>food in a bowl</p> using a spoon'}",
}
classification = {
    "a cup": "None",
    "a bowl": "food in a bowl",
    "a person": "A person",
    "the bowl": "food in a bowl",
    "food": "food in a bowl",
}
for phrase, category in classification.items():
    fixtures[request_hash(build_stage3_prompt(phrase, video_phrases))] = (
        "{`CATEGORY': `" + category + "'}"
    )

with MockLlmServer(fixtures) as server:
    print("mock endpoint:", server.url)
    with closing(HttpChatClient(endpoint=server.url, model="demo-model")) as client:
        events = []  # warnings about the video: objects dropped, phrases demoted
        config = PipelineConfig(fps=5.0, backoff=0.0)
        result = annotate_video(frames, client, config, events=events)
    calls = server.request_count

print("status:", "accepted" if result.annotation is not None else f"rejected {result.reasons}")
for event in events:
    print(f"event {event.code}: {event.message}")
annotation = result.annotation
print("caption:", annotation.caption.plain)
for track in annotation.tracks:
    phrase = annotation.caption.phrases[track.phrase_index].text
    tubes = derive_presence(track)
    print(f"track {phrase!r}: frames {track.present_frames}, tubes {tubes}")
# one aggregation plus one classification per distinct frame phrase
print("model calls served:", calls)
