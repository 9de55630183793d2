import gc
import logging
import threading
from collections import Counter
from contextlib import closing

import pytest

import groundcap.pipeline as pipeline
from groundcap import (
    BoundingBox,
    Event,
    FrameGrounding,
    FrameObject,
    MockLlmServer,
    PipelineConfig,
    annotate_video,
    run_pipeline,
)
from groundcap.llm import ChatMessage, HttpChatClient
from groundcap.pipeline import collect_frame_objects, http_client_factory, log_events
from conftest import (
    BEVERAGE_FRAME_PHRASES,
    ReplayClient,
    STIRRING_CAPTION,
    beverage_fixtures,
    beverage_frames,
    stirring_fixtures,
    stirring_frames,
)

CONFIG = PipelineConfig(backoff=0.0, fps=5.0)


class TestAnnotateVideo:
    def test_stirring_video_end_to_end(self):
        client = ReplayClient(stirring_fixtures())
        events = []
        result = annotate_video(stirring_frames(), client, CONFIG, events=events)
        assert result.annotation is not None and result.reasons == ()
        assert events == []
        annotation = result.annotation
        assert annotation.caption.plain == "A person is stirring food in a bowl using a spoon"
        assert annotation.caption.phrase_texts == ["A person", "food in a bowl"]
        assert len(annotation.tracks) == 2
        assert annotation.frame_count == 4
        assert annotation.width == 455 and annotation.height == 256
        # person appears in frames 1..3, bowl/food phrases cover 0..3
        by_phrase = {t.phrase_index: t for t in annotation.tracks}
        assert by_phrase[0].present_frames == [1, 2, 3]
        assert by_phrase[1].present_frames == [0, 1, 2, 3]

    def test_beverage_video_single_track(self):
        client = ReplayClient(beverage_fixtures())
        result = annotate_video(beverage_frames(), client, CONFIG, events=[])
        assert result.annotation is not None and result.reasons == ()
        by_phrase = {t.phrase_index: t for t in result.annotation.tracks}
        beverage_track = by_phrase[1]
        assert beverage_track.present_frames == [0, 1, 2]
        # three distinct frame phrases classified, plus "a woman"
        assert client.call_count == 1 + 1 + len(BEVERAGE_FRAME_PHRASES)

    def test_memoization_bounds_model_calls(self):
        client = ReplayClient(stirring_fixtures())
        annotate_video(stirring_frames(), client, CONFIG, events=[])
        # 1 aggregation + one call per distinct non-exact-match phrase
        assert client.call_count == 1 + 6

    def test_unparseable_aggregation_rejects_video(self):
        fixtures = stirring_fixtures()
        svo_key = next(iter(stirring_fixtures()))
        fixtures[svo_key] = "I cannot answer."
        client = ReplayClient(fixtures)
        events = []
        config = CONFIG.override(retries=1)
        result = annotate_video(stirring_frames(), client, config, events=events)
        assert result.annotation is None
        assert [code for code, _ in result.reasons] == ["no-dictionary"]
        assert events == []  # rejected before its objects were read

    @pytest.mark.parametrize("fps", [0.0, -1.0])
    def test_nonpositive_fps_refused_by_config(self, fps):
        with pytest.raises(ValueError, match=rf"^config key 'fps' must be > 0, got {fps}$"):
            CONFIG.override(fps=fps)

    def test_mixed_videos_rejected(self):
        frames = stirring_frames("a") + stirring_frames("b")
        with pytest.raises(ValueError):
            annotate_video(frames, ReplayClient({}), CONFIG, events=[])

    def test_inconsistent_dimensions_rejected(self):
        frames = stirring_frames()
        bad = frames[1].__class__(
            video_id=frames[1].video_id,
            frame_index=frames[1].frame_index,
            width=640,
            height=480,
            caption=frames[1].caption,
            objects=frames[1].objects,
        )
        result = annotate_video([frames[0], bad], ReplayClient({}), CONFIG, events=[])
        assert result.annotation is None
        assert [code for code, _ in result.reasons] == ["inconsistent-frames"]

    def test_deterministic_output(self):
        results = [
            annotate_video(stirring_frames(), ReplayClient(stirring_fixtures()), CONFIG, events=[])
            for _ in range(2)
        ]
        assert results[0].annotation == results[1].annotation


class TestCollectFrameObjects:
    def test_drops_name_the_object_and_its_frame(self):
        frame = FrameGrounding(
            "v1",
            3,
            455,
            256,
            "a cup and a bowl on a table.",
            (
                FrameObject("a cup", None),  # an empty mask
                FrameObject("a bowl", BoundingBox(460, 10, 20, 20)),  # right of the frame
                FrameObject("a table", BoundingBox(440, 200, 40, 80)),  # clamped, kept
            ),
        )
        events = []
        objects = collect_frame_objects([frame], events=events)
        assert objects == [(3, "a table", BoundingBox(440, 200, 15, 56))]
        assert events == [
            Event("empty-mask", "groundcap.pipeline",
                  "video v1 frame 3: phrase 'a cup' has an empty mask, dropped"),
            Event("clamped-away", "groundcap.pipeline",
                  "video v1 frame 3: box for 'a bowl' vanished after clamping, dropped"),
        ]

    def test_a_message_reaches_the_handler_as_written(self):
        # a phrase is never a format string: '%' and '{}' in it stay as they are
        phrase = "a 100% {0} %s %(name)s {} cup"
        frame = FrameGrounding("v%d", 0, 8, 8, "a cup.", (FrameObject(phrase, None),))
        events = []
        collect_frame_objects([frame], events=events)
        handled = []

        class Seen(logging.Handler):
            def emit(self, record):
                handled.append(self.format(record))

        seen = Seen()
        seen.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        source = logging.getLogger("groundcap.pipeline")
        source.addHandler(seen)
        try:
            log_events(events)
        finally:
            source.removeHandler(seen)
        assert handled == [
            "WARNING groundcap.pipeline: video v%d frame 0: "
            "phrase 'a 100% {0} %s %(name)s {} cup' has an empty mask, dropped"
        ]


class TestRunPipeline:
    def test_batch_over_http_with_workers(self):
        fixtures = {}
        groundings = {}
        for i in range(6):
            video_id = f"vid-{i:02d}"
            frames = stirring_frames(video_id)
            groundings[video_id] = frames
            fixtures.update(stirring_fixtures(video_id))
        with MockLlmServer(fixtures) as server:
            config = CONFIG.override(endpoint=server.url, model="mock", max_in_flight=4)
            results = run_pipeline(groundings, config)
        assert [r.video_id for r in results] == sorted(groundings)
        assert all(r.annotation is not None for r in results)
        captions = {r.annotation.caption.plain for r in results}
        assert captions == {"A person is stirring food in a bowl using a spoon"}

    def test_build_checks_each_emitted_record_once(self, record_checks):
        groundings = {f"vid-{i:02d}": stirring_frames(f"vid-{i:02d}") for i in range(3)}
        with MockLlmServer(stirring_fixtures()) as server:
            config = CONFIG.override(endpoint=server.url, model="mock", max_in_flight=2)
            results = run_pipeline(groundings, config)
        assert all(r.annotation is not None for r in results)
        assert sorted(record_checks) == sorted(groundings)

    def test_accepted_plus_rejected_equals_input(self):
        groundings = {}
        fixtures = {}
        for i in range(5):
            video_id = f"vid-{i:02d}"
            groundings[video_id] = stirring_frames(video_id, salted=True)
            fixtures.update(stirring_fixtures(video_id, salted=True))
        # break one video's stage-2 fixture
        broken_id = "vid-03"
        broken_key = next(iter(stirring_fixtures(broken_id, salted=True)))
        fixtures[broken_key] = "{`WRONG': `thing'}"
        with MockLlmServer(fixtures) as server:
            config = CONFIG.override(
                endpoint=server.url, model="mock", max_in_flight=3, retries=1
            )
            results = run_pipeline(groundings, config)
        accepted = [r for r in results if r.annotation is not None]
        rejected = [r for r in results if r.annotation is None]
        assert len(accepted) + len(rejected) == 5
        assert [r.video_id for r in rejected] == [broken_id]
        assert [code for code, _ in rejected[0].reasons] == ["no-caption-key"]


class TestMapVideos:
    def test_an_item_that_raises(self, monkeypatch):
        # two workers: item 1 adds an event and raises while item 0 still
        # works, and item 0 waits (briefly) for item 1's event to reach the
        # handlers
        made, closed, handled = [], [], []
        item_1_handled = threading.Event()

        class Tracked(HttpChatClient):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

            def close(self):
                closed.append(self)
                super().close()

        class Seen(logging.Handler):
            def emit(self, record):
                handled.append(record.getMessage())
                if record.getMessage() == "item 1":
                    item_1_handled.set()

        def work(item, client, events):
            client.complete([ChatMessage("user", f"item {item}")])  # a kept-alive socket
            events.append(Event("test", "groundcap.pipeline", f"item {item}"))
            if item == 1:
                raise RuntimeError("item 1 failed")
            item_1_handled.wait(0.2)
            return item

        monkeypatch.setattr(pipeline, "HttpChatClient", Tracked)
        seen = Seen()
        source = logging.getLogger("groundcap.pipeline")
        source.addHandler(seen)
        try:
            with MockLlmServer({}, default="ok") as server:
                config = CONFIG.override(endpoint=server.url, model="mock", max_in_flight=2)
                with pytest.raises(RuntimeError, match="^item 1 failed$"):
                    pipeline.map_videos([0, 1], work, config)
        finally:
            source.removeHandler(seen)
        assert handled == ["item 0", "item 1"]
        assert len(made) == 2 and sorted(map(id, closed)) == sorted(map(id, made))
        gc.collect()  # an unclosed socket would warn here


class TestSharedResponseMemo:
    # 50 videos with the same content: one aggregation and six phrase
    # classifications are the only distinct requests of the whole build
    GROUNDINGS = {f"vid-{i:02d}": stirring_frames(f"vid-{i:02d}") for i in range(50)}

    @pytest.mark.parametrize("workers", [1, 4])
    def test_build_sends_each_distinct_request_once_per_worker_at_most(self, workers):
        # a worker that misses on a request another worker is sending waits
        # for that answer, so the bound is exact whatever the worker count
        with MockLlmServer(stirring_fixtures()) as server:
            config = CONFIG.override(endpoint=server.url, model="mock", max_in_flight=workers)
            results = run_pipeline(self.GROUNDINGS, config)
            requests_sent = server.request_count
        assert all(r.annotation is not None for r in results)
        assert requests_sent == 7

    def test_each_run_tags_each_distinct_caption_itself(self, monkeypatch):
        # the caption memo belongs to one run: a second run in the same
        # process tags every caption again, and no run tags one more than
        # once per worker
        tagged = []
        tag = pipeline.pos_tag

        def counting_tag(sentence):
            tagged.append(sentence)  # list.append: no count lost between workers
            return tag(sentence)

        monkeypatch.setattr(pipeline, "pos_tag", counting_tag)
        captions = {f.caption for frames in self.GROUNDINGS.values() for f in frames}
        with MockLlmServer(stirring_fixtures()) as server:
            config = CONFIG.override(endpoint=server.url, model="mock", max_in_flight=2)
            for _ in range(2):
                tagged.clear()
                results = run_pipeline(self.GROUNDINGS, config)
                assert all(r.annotation is not None for r in results)
                counts = Counter(tagged)
                assert counts.keys() == captions and max(counts.values()) <= 2

    def test_clients_of_one_factory_share_answers(self):
        frames = stirring_frames()
        with MockLlmServer(stirring_fixtures()) as server:
            config = CONFIG.override(endpoint=server.url, model="mock")
            make = http_client_factory(config)
            for client in (make(), make()):
                with closing(client):
                    annotate_video(frames, client, config, events=[])
            assert server.request_count == 7
            with closing(http_client_factory(config)()) as client:
                annotate_video(frames, client, config, events=[])
            assert server.request_count == 14


def test_integral_number_for_a_float_field_hashes_like_the_float():
    as_int = PipelineConfig.from_dict({"temperature": 0, "fps": 5})
    as_float = PipelineConfig.from_dict({"temperature": 0.0, "fps": 5.0})
    assert as_int == as_float
    assert type(as_int.temperature) is float and type(as_int.fps) is float
    assert as_int.config_hash() == as_float.config_hash()


def test_http_client_seed_and_auth_fields():
    client = HttpChatClient(endpoint="http://x", model="m", seed=7, api_key="k")
    assert client.seed == 7 and client.api_key == "k"
