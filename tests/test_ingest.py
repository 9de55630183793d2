import copy
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import groundcap.ingest as ingest
from groundcap.boxes import box_fault
from groundcap.ingest import check_annotation
from groundcap.pipeline import collect_frame_objects
from groundcap import (
    BoundingBox,
    EmptyMaskError,
    FrameObject,
    ObjectTrack,
    RecordValidationError,
    SchemaError,
    VideoAnnotation,
    evaluate,
    load_predictions,
    mask_to_box,
    parse_frame_grounding,
    parse_tagged_caption,
    parse_video_annotation,
    read_annotations,
    serialize_video_annotation,
    validate_annotation_dict,
)
from conftest import make_annotation
from oracles import (
    load_schema,
    reference_annotation,
    reference_frame,
    reference_mask_to_box,
    reference_objectness,
    rle_box_bruteforce,
    schema_errors,
)


def frame_line(**overrides) -> dict:
    record = {
        "video_id": "v1",
        "frame_index": 0,
        "width": 455,
        "height": 256,
        "caption": "a woman holding a glass of green liquid",
        "objects": [{"phrase": "a woman", "box": [10, 10, 100, 200]}],
    }
    record.update(overrides)
    return record


def to_jsonl(records) -> bytes:
    return ("\n".join(json.dumps(r) for r in records) + "\n").encode()


class TestParseFrameGrounding:
    def test_single_record(self):
        records = parse_frame_grounding(to_jsonl([frame_line()]))
        assert len(records) == 1
        assert records[0].objects[0].phrase == "a woman"
        assert records[0].objects[0].box == BoundingBox(10, 10, 100, 200)

    def test_two_object_frame(self):
        line = frame_line(
            objects=[
                {"phrase": "a woman", "box": [10, 10, 100, 200]},
                {"phrase": "a glass of green liquid", "box": [120, 90, 40, 60]},
            ]
        )
        records = parse_frame_grounding(to_jsonl([line]))
        assert [o.phrase for o in records[0].objects] == [
            "a woman",
            "a glass of green liquid",
        ]

    def test_both_box_and_mask_rejected(self):
        line = frame_line(
            objects=[{"phrase": "a cup", "box": [0, 0, 5, 5], "mask": [10, 2, 4]}]
        )
        with pytest.raises(SchemaError):
            parse_frame_grounding(to_jsonl([line]))

    def test_neither_box_nor_mask_rejected(self):
        with pytest.raises(SchemaError):
            parse_frame_grounding(to_jsonl([frame_line(objects=[{"phrase": "a cup"}])]))

    def test_duplicate_frame_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse_frame_grounding(to_jsonl([frame_line(), frame_line()]))

    def test_sorted_by_video_and_frame(self):
        lines = [
            frame_line(video_id="v2", frame_index=1),
            frame_line(video_id="v1", frame_index=1),
            frame_line(video_id="v1", frame_index=0),
        ]
        records = parse_frame_grounding(to_jsonl(lines))
        assert [(r.video_id, r.frame_index) for r in records] == [
            ("v1", 0),
            ("v1", 1),
            ("v2", 1),
        ]

    def test_error_names_line_and_field(self):
        lines = [frame_line(), frame_line(frame_index=-1, video_id="v9")]
        with pytest.raises(SchemaError) as excinfo:
            parse_frame_grounding(to_jsonl(lines))
        assert excinfo.value.line == 2

    def test_integral_floats_stored_as_ints(self):
        floats = frame_line(
            frame_index=2.0,
            width=10.0,
            height=3.0,
            objects=[{"phrase": "a cup", "mask": [12.0, 6, 12.0]}],
        )
        ints = frame_line(
            frame_index=2, width=10, height=3, objects=[{"phrase": "a cup", "mask": [12, 6, 12]}]
        )
        record = parse_frame_grounding(to_jsonl([floats]))[0]
        assert record == parse_frame_grounding(to_jsonl([ints]))[0]
        assert all(type(v) is int for v in (record.frame_index, record.width, record.height))
        assert record.objects[0].box == mask_to_box([12, 6, 12], 10, 3) == BoundingBox(2, 1, 6, 1)

    def test_infinite_mask_count_names_line_and_field(self):
        line = frame_line(objects=[{"phrase": "a cup", "mask": [100, float("inf"), 6]}])
        with pytest.raises(SchemaError) as excinfo:
            parse_frame_grounding(to_jsonl([frame_line(frame_index=1), line]))
        assert excinfo.value.line == 2
        assert excinfo.value.field_path == "$.objects[0].mask[1]"

    @pytest.mark.parametrize("runs", [[10**400], [1, 2]])
    def test_mask_of_a_frame_past_a_double_reads_as_the_walker_explains(self, runs):
        # a frame of 10**400 pixels is larger than a double holds, so int runs that sum to
        # it are not all numbers the schema allows: the walker, not the sum, decides
        line = frame_line(width=10**200, height=10**200, objects=[{"phrase": "a", "mask": runs}])
        with pytest.raises(SchemaError) as excinfo:
            parse_frame_grounding(to_jsonl([line]))
        with pytest.raises(SchemaError) as expected:
            reference_frame(json.loads(json.dumps(line)), 1)
        assert str(excinfo.value) == str(expected.value)

    @pytest.mark.parametrize(
        "second, field_path",
        [
            ({"phrase": "a cup", "mask": [100, 6, 5]}, "$.objects[1].mask"),
            ({"phrase": "a cup", "box": [10, 10, -4, 20]}, "$.objects[1].box"),
        ],
    )
    def test_object_check_names_the_object(self, second, field_path):
        first = {"phrase": "a bowl", "mask": [100, 6, 455 * 256 - 106]}
        with pytest.raises(SchemaError) as excinfo:
            parse_frame_grounding(to_jsonl([frame_line(objects=[first, second])]))
        assert excinfo.value.field_path == field_path

    def test_masks_become_boxes_and_empty_masks_none(self):
        runs = [100, 6, 455 * 256 - 106]
        line = frame_line(
            objects=[{"phrase": "a cup", "mask": runs}, {"phrase": "a bowl", "mask": [455 * 256]}]
        )
        cup, bowl = parse_frame_grounding(to_jsonl([line]))[0].objects
        assert (cup.phrase, cup.box) == ("a cup", mask_to_box(runs, 455, 256))
        assert cup.box == BoundingBox(100, 0, 6, 1)
        assert (bowl.phrase, bowl.box) == ("a bowl", None)

    def test_frame_to_dict_is_read_back_as_the_clamped_boxes(self):
        line = frame_line(
            objects=[
                {"phrase": "a cup", "mask": [100, 6, 455 * 256 - 106]},
                {"phrase": "a bowl", "mask": [455 * 256]},  # empty, so dropped
                {"phrase": "a woman", "box": [400.5, -20, 100, 200]},  # past two edges
                {"phrase": "a wall", "box": [500, 10, 20, 20]},  # outside, so dropped
            ]
        )
        (record,) = parse_frame_grounding(to_jsonl([line]))
        events = []
        objects = collect_frame_objects([record], events=events)
        kept = tuple(FrameObject(phrase, box) for _frame, phrase, box in objects)
        assert [o.phrase for o in kept] == ["a cup", "a woman"]
        assert kept[1].box == BoundingBox(400.5, 0, 54.5, 180)
        written = ingest.frame_to_dict(record._replace(objects=kept))
        assert written["objects"][1] == {"phrase": "a woman", "box": [400.5, 0.0, 54.5, 180.0]}
        assert ingest._frame(written, 1) == record._replace(objects=kept)
        assert parse_frame_grounding(to_jsonl([written])) == [record._replace(objects=kept)]



@st.composite
def rle_masks(draw) -> tuple[list[int], int, int, bool]:
    """``(runs, width, height, well_formed)``: runs that cover the frame, with
    zero-length runs anywhere, then perhaps broken by negative runs, a run
    made longer or shorter, or runs cut off the end."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    total = width * height
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=12)))
    runs = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    flaw = draw(st.sampled_from(["none", "negative", "resized", "cut"]))
    if flaw == "negative":
        for _ in range(draw(st.integers(1, 2))):
            runs[draw(st.integers(0, len(runs) - 1))] = draw(st.integers(-5, -1))
    elif flaw == "resized":
        runs[draw(st.integers(0, len(runs) - 1))] += draw(st.integers(-3, 3).filter(bool))
    elif flaw == "cut":
        runs = runs[: draw(st.integers(0, len(runs) - 1))]
    return runs, width, height, flaw == "none"


def mask_outcome(function, runs, width, height):
    """``("box", [x, y, w, h])`` or ``(error type, message)`` of one call."""
    try:
        return "box", function(runs, width, height).as_list()
    except (SchemaError, EmptyMaskError) as exc:
        return type(exc), str(exc)


class TestMaskToBox:
    def test_all_foreground(self):
        assert mask_to_box([0, 48], 8, 6) == BoundingBox(0, 0, 8, 6)

    def test_single_pixel(self):
        # pixel at (x=3, y=7) in a 10-wide mask: flat index 73
        assert mask_to_box([73, 1, 26], 10, 10) == BoundingBox(3, 7, 1, 1)

    def test_empty_mask(self):
        with pytest.raises(EmptyMaskError):
            mask_to_box([100], 10, 10)

    def test_wrong_total_rejected(self):
        with pytest.raises(SchemaError):
            mask_to_box([5, 5], 10, 10)

    @pytest.mark.parametrize(
        "runs",
        [
            [2, 0, 3, 4, 0],
            [0, 2, 3, 0, 1, 3],
            [4, 0, 0, 1, 4],  # one pixel between two empty runs
            [1, 0, 1, 0, 1, 1, 5],
            [0, 0, 9],  # only an empty foreground run: no pixels
            [3, 0, 6, 0],
        ],
    )
    def test_empty_foreground_runs_match_bruteforce(self, runs):
        expected = rle_box_bruteforce(runs, 3, 3)
        for counts in (runs, iter(runs)):
            if expected is None:
                with pytest.raises(EmptyMaskError):
                    mask_to_box(counts, 3, 3)
            else:
                assert mask_to_box(counts, 3, 3).as_list() == list(expected)

    def test_random_masks_match_bruteforce(self):
        rng = random.Random(11)
        for _ in range(200):
            width, height = rng.randint(1, 24), rng.randint(1, 24)
            total = width * height
            runs = []
            remaining = total
            while remaining > 0:
                run = rng.randint(1, max(1, remaining // 2)) if remaining > 1 else 1
                runs.append(min(run, remaining))
                remaining -= runs[-1]
            expected = rle_box_bruteforce(runs, width, height)
            if expected is None:
                with pytest.raises(EmptyMaskError):
                    mask_to_box(runs, width, height)
            else:
                assert mask_to_box(runs, width, height).as_list() == list(expected)

    @given(st.integers(2, 16), st.integers(2, 16), st.data())
    def test_box_contains_all_foreground(self, width, height, data):
        total = width * height
        flat = data.draw(st.lists(st.booleans(), min_size=total, max_size=total))
        runs = []
        value = False
        count = 0
        for cell in flat:
            if cell == value:
                count += 1
            else:
                runs.append(count)
                value = cell
                count = 1
        runs.append(count)
        expected = rle_box_bruteforce(runs, width, height)
        if expected is None:
            with pytest.raises(EmptyMaskError):
                mask_to_box(runs, width, height)
        else:
            assert mask_to_box(runs, width, height).as_list() == list(expected)


    @settings(max_examples=500, deadline=None)
    @given(rle_masks())
    @example(([2, 0, 3, 4, 0], 3, 3, True))  # zero-length runs inside and at the end
    @example(([1, 3, 5], 1, 9, True))  # one column: every longer run spans rows
    @example(([2, 3, 4], 9, 1, True))  # one row
    @example(([2, 5, 2], 3, 3, True))  # a run spanning rows
    @example(([3, -1, 2, -4], 2, 2, False))  # the first negative run is named
    @example(([-1, 5], 1, 1, False))  # a negative run is named before the total
    @example(([], 2, 2, False))
    @example(([1], 0, 1, False))  # a frame without pixels
    def test_matches_the_per_run_loop(self, mask):
        runs, width, height, well_formed = mask
        outcome = mask_outcome(mask_to_box, runs, width, height)
        assert outcome == mask_outcome(reference_mask_to_box, runs, width, height)
        assert outcome == mask_outcome(mask_to_box, iter(runs), width, height)
        if well_formed:
            expected = rle_box_bruteforce(runs, width, height)
            if expected is None:
                assert outcome == (EmptyMaskError, "mask has no foreground pixels")
            else:
                assert outcome == ("box", list(expected))


def minimal_annotation() -> VideoAnnotation:
    caption = parse_tagged_caption("<p>a cook</p> rests")
    track = ObjectTrack(0, {0: BoundingBox(1.0, 2.0, 3.0, 4.0)}, 1)
    return VideoAnnotation(
        video_id="v1",
        frame_count=1,
        fps=5.0,
        width=455,
        height=256,
        caption=caption,
        tracks=(track,),
    )


class TestAnnotationRoundTrip:
    def test_canonical_golden_file_stable(self):
        golden = (
            __import__("pathlib").Path(__file__).parent / "golden" / "annotation.golden.json"
        ).read_bytes()
        record = parse_video_annotation(golden)
        assert serialize_video_annotation(record) + b"\n" == golden

    def test_minimal_round_trip(self):
        record = minimal_annotation()
        data = serialize_video_annotation(record)
        assert parse_video_annotation(data) == record
        assert serialize_video_annotation(parse_video_annotation(data)) == data

    def test_multi_track_record_parses(self):
        # a long caption in the style of the evaluation set: 13.7 words average
        tagged = (
            "<p>a woman</p> in a striped shirt pours <p>a green beverage</p> "
            "into <p>a glass</p> on the counter"
        )
        caption = parse_tagged_caption(tagged)
        assert len(caption.plain.split()) == 16
        tracks = tuple(
            ObjectTrack(
                i, {t: BoundingBox(float(5 * i), 0.0, 20.0, 30.0) for t in range(40)}, 40
            )
            for i in range(3)
        )
        record = VideoAnnotation(
            video_id="eval-style",
            frame_count=40,
            fps=5.0,
            width=455,
            height=256,
            caption=caption,
            tracks=tracks,
        )
        assert parse_video_annotation(serialize_video_annotation(record)) == record

    def test_round_trip_many_random_records(self, rng):
        for i in range(100):
            record = make_annotation(rng, f"rt-{i}")
            data = serialize_video_annotation(record)
            assert parse_video_annotation(data) == record

    def test_presence_without_box_is_validation_error(self):
        obj = json.loads(serialize_video_annotation(minimal_annotation()))
        obj["frame_count"] = 2
        obj["tracks"][0]["presence"] = [True, True]  # no box for frame 1
        with pytest.raises(RecordValidationError) as excinfo:
            ingest.annotation_from_dict(obj)
        assert excinfo.value.code == "presence-box-mismatch"
        assert [c for c, _ in validate_annotation_dict(obj)] == ["presence-box-mismatch"]

    def test_out_of_frame_box_is_validation_error(self):
        obj = json.loads(serialize_video_annotation(minimal_annotation()))
        obj["tracks"][0]["boxes"]["0"] = [400.0, 200.0, 100.0, 100.0]
        assert [c for c, _ in validate_annotation_dict(obj)] == ["box-out-of-frame"]

    def test_bad_phrase_index_is_validation_error(self):
        obj = json.loads(serialize_video_annotation(minimal_annotation()))
        obj["tracks"][0]["phrase_index"] = 5
        assert [c for c, _ in validate_annotation_dict(obj)] == ["bad-phrase-index"]

    def test_malformed_caption_is_validation_error(self):
        obj = json.loads(serialize_video_annotation(minimal_annotation()))
        obj["caption"] = "<p>broken"
        assert [c for c, _ in validate_annotation_dict(obj)] == ["caption-malformed"]

    @pytest.mark.parametrize(
        "data, message",
        [(b"\xff", "invalid UTF-8: invalid start byte"), (b"[]", "record must be a JSON object")],
    )
    def test_a_document_fails_as_a_dataset_line_does(self, data, message):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            parse_video_annotation(data)
        with pytest.raises(SchemaError, match=f"^line 1: {message}$"):
            read_annotations(data)

    def test_schema_violation_reported(self):
        assert validate_annotation_dict({"video_id": "x"})[0][0] == "schema"

    def test_validate_checks_the_schema_once(self, schema_passes):
        obj = json.loads(serialize_video_annotation(minimal_annotation()))
        obj["caption"] = "<p>broken"
        assert [c for c, _ in validate_annotation_dict(obj)] == ["caption-malformed"]
        assert schema_passes == ["video_annotation.schema.json"]


@pytest.mark.parametrize(
    "read", [read_annotations, load_predictions, parse_frame_grounding, ingest.iter_jsonl]
)
def test_invalid_utf8_names_the_line(read, rng):
    # line 1 is a record its reader accepts, as a fault there would be reported first
    if read is parse_frame_grounding:
        first = to_jsonl([frame_line()])
    else:
        first = serialize_video_annotation(make_annotation(rng, "v")) + b"\n"
    data = first + b"\n\xff\n"
    with pytest.raises(SchemaError, match="^line 3: invalid UTF-8: invalid start byte$"):
        list(read(data))


@pytest.fixture
def schema_passes(monkeypatch):
    """One name per walk of a record: the schema of each walker call, or "annotation reader"
    for each call of the reader that checks and builds an annotation line."""
    passes = []
    for walker, name in [
        ("_frame_errors", "frame_grounding.schema.json"),
        ("_annotation_errors", "video_annotation.schema.json"),
        ("_read_annotation", "annotation reader"),
    ]:

        def counting(obj, *args, real=getattr(ingest, walker), name=name):
            passes.append(name)
            return real(obj, *args)

        monkeypatch.setattr(ingest, walker, counting)
    return passes


def prediction_line(scores: dict[int, float], threshold_frames=3) -> bytes:
    caption = "<p>a cook</p> stirs"
    boxes = {str(t): [10.0, 10.0, 20.0, 20.0] for t in scores}
    presence = [t in scores for t in range(threshold_frames)]
    record = {
        "video_id": "p1",
        "frame_count": threshold_frames,
        "fps": 5.0,
        "width": 455,
        "height": 256,
        "caption": caption,
        "boxes_normalized": False,
        "tracks": [
            {
                "phrase_index": 0,
                "presence": presence,
                "boxes": boxes,
                "confidence": {str(t): s for t, s in scores.items()},
            }
        ],
    }
    return (json.dumps(record) + "\n").encode()


class TestLoadPredictions:
    def test_above_threshold_kept(self):
        records = load_predictions(prediction_line({0: 0.6}, 1), objectness_threshold=0.5)
        assert records[0].tracks[0].present_frames == [0]

    def test_threshold_zero_is_identity(self):
        records = load_predictions(prediction_line({0: 0.1, 1: 0.9, 2: 0.2}), 0.0)
        assert records[0].tracks[0].present_frames == [0, 1, 2]

    def test_filtering_matches_elementwise_comparison(self):
        scores = {0: 0.9, 1: 0.4, 2: 0.7}
        records = load_predictions(prediction_line(scores), objectness_threshold=0.5)
        assert list(records[0].tracks[0].presence) == [True, False, True]
        assert records[0].tracks[0].confidence == {0: 0.9, 2: 0.7}

    def test_track_fully_below_threshold_dropped(self):
        records = load_predictions(prediction_line({0: 0.1, 1: 0.2}), objectness_threshold=0.5)
        assert records[0].tracks == ()

    def test_missing_confidence_with_filtering_is_error(self):
        record = json.loads(prediction_line({0: 0.9, 1: 0.9}))
        del record["tracks"][0]["confidence"]["1"]
        record["video_id"] = "p2"
        data = prediction_line({0: 0.9}) + (json.dumps(record) + "\n").encode()
        with pytest.raises(SchemaError, match="confidence") as excinfo:
            load_predictions(data, objectness_threshold=0.5)
        assert (excinfo.value.line, excinfo.value.field_path) == (2, "$.tracks[0].confidence")
        assert str(excinfo.value).startswith("line 2: $.tracks[0].confidence: track 0 missing")
        # without filtering the partial confidence map is tolerated
        assert load_predictions(data, objectness_threshold=0.0)

    def test_scoreless_track_passes_any_threshold(self):
        # ground-truth style records are valid predictions at confidence 1.0
        record = json.loads(prediction_line({0: 0.9, 1: 0.9, 2: 0.9}))
        del record["tracks"][0]["confidence"]
        records = load_predictions((json.dumps(record) + "\n").encode(), 0.5)
        assert records[0].tracks[0].present_frames == [0, 1, 2]
        assert records[0].tracks[0].confidence is None

    def test_integral_float_fields_score_the_same(self):
        as_ints = prediction_line({0: 0.9, 1: 0.4}, 2)
        record = json.loads(as_ints)
        record.update(frame_count=2.0, width=455.0, height=256.0)
        record["tracks"][0]["phrase_index"] = 0.0
        pred = load_predictions((json.dumps(record) + "\n").encode())
        assert pred == load_predictions(as_ints)
        values = [pred[0].frame_count, pred[0].width, pred[0].height, pred[0].tracks[0].phrase_index]
        assert all(type(v) is int for v in values)
        gt = read_annotations(prediction_line({0: 1.0, 1: 1.0}, 2))
        assert evaluate(pred, gt) == evaluate(load_predictions(as_ints), gt)

    @staticmethod
    def second_line(record: dict) -> bytes:
        """A valid first record, then ``record`` on line 2."""
        first = prediction_line({0: 0.9}, 1).replace(b'"p1"', b'"p0"')
        return first + (json.dumps(record) + "\n").encode()

    def test_newline_frame_key_rejected(self):
        # Python's "$" matches before a trailing newline, and int("0\n") == 0
        record = json.loads(prediction_line({0: 0.9}, 1))
        record["tracks"][0]["boxes"]["0\n"] = [200.0, 200.0, 20.0, 20.0]
        with pytest.raises(SchemaError, match=r"'0\\n'") as excinfo:
            load_predictions(self.second_line(record))
        assert excinfo.value.line == 2
        assert excinfo.value.field_path == "$.tracks[0].boxes"

    @pytest.mark.parametrize(
        "load, path, field_path",
        [
            (read_annotations, ("fps",), "$.fps"),
            (load_predictions, ("tracks", 0, "boxes", "0", 1), "$.tracks[0].boxes.0[1]"),
        ],
    )
    def test_nan_names_line_and_field(self, load, path, field_path):
        record = json.loads(prediction_line({0: 0.9}, 1))
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = float("nan")
        with pytest.raises(SchemaError) as excinfo:
            load(self.second_line(record))
        assert excinfo.value.line == 2
        assert excinfo.value.field_path == field_path

    def test_predictions_schema_is_the_annotation_schema(self):
        # predictions are checked against the annotation schema alone
        def body(name):
            schema = dict(load_schema(name))
            for key in ("$id", "title", "description"):
                schema.pop(key)
            return schema

        assert body("predictions.schema.json") == body("video_annotation.schema.json")

    def test_each_record_checked_once(self, schema_passes):
        second = json.loads(prediction_line({0: 0.9}))
        second["video_id"] = "p2"
        data = prediction_line({0: 0.9}) + (json.dumps(second) + "\n").encode()
        assert len(load_predictions(data)) == 2
        assert schema_passes == ["annotation reader"] * 2  # and no walker call

    def test_thresholding_checks_each_record_once(self, record_checks):
        lines = []
        for i in range(3):
            record = json.loads(prediction_line({0: 0.9, 1: 0.2, 2: 0.7}))
            record["video_id"] = f"p{i}"
            lines.append(json.dumps(record) + "\n")
        predictions = load_predictions("".join(lines).encode(), objectness_threshold=0.5)
        assert [p.tracks[0].present_frames for p in predictions] == [[0, 2]] * 3
        assert record_checks == ["p0", "p1", "p2"]  # one reader walk, no check_annotation


# ---------------------------------------------------------------------------
# Records are checked once, where they enter; the reference in ``oracles``
# checks every part as it is built, the way the record constructors did

MUTATIONS = (
    "presence-flip",
    "box-past-end",
    "phrase-past-end",
    "box-out-of-frame",
    "negative-size",
    "duplicate-track",
    "confidence-without-box",
    "short-presence",
    "drop-confidence",
    "normalize",
)


def mutate(obj: dict, kind: str, pick: int) -> None:
    """Apply mutation ``kind`` to an annotation dict in place; ``pick`` chooses where."""
    track = obj["tracks"][pick % len(obj["tracks"])]
    keys = sorted(track["boxes"], key=int)
    key = keys[pick % len(keys)]
    frame_count = obj["frame_count"]
    if kind == "presence-flip" and track["presence"]:
        t = pick % len(track["presence"])
        track["presence"][t] = not track["presence"][t]
    elif kind == "box-past-end":
        track["boxes"][str(frame_count + pick % 2)] = [1.0, 1.0, 2.0, 2.0]
    elif kind == "phrase-past-end":
        track["phrase_index"] = obj["caption"].count("<p>") + pick % 2
    elif kind == "box-out-of-frame":
        x, y, w, h = track["boxes"][key]
        track["boxes"][key] = [x + obj["width"] - w / 2, y, w, h]
    elif kind == "negative-size":
        track["boxes"][key][2] = -2.0
    elif kind == "duplicate-track":
        obj["tracks"].append(copy.deepcopy(track))
    elif kind == "confidence-without-box":
        track.setdefault("confidence", {})[str(pick % (frame_count + 2))] = 0.5
    elif kind == "short-presence":
        track["presence"] = track["presence"][:-1]
    elif kind == "drop-confidence":
        track.get("confidence", {}).pop(key, None)
    elif kind == "normalize" and not obj["boxes_normalized"]:
        obj["boxes_normalized"] = True
        width, height = obj["width"], obj["height"]
        for each in obj["tracks"]:
            for t, (x, y, w, h) in each["boxes"].items():
                each["boxes"][t] = [x / width, y / height, w / width, h / height]


def mutant(seed: int, with_confidence: bool, mutations) -> dict:
    record = make_annotation(random.Random(seed), "v", with_confidence=with_confidence)
    obj = json.loads(serialize_video_annotation(record))
    for kind, pick in mutations:
        mutate(obj, kind, pick)
    return obj


def outcome(call):
    """What ``call()`` gives: its result, or the (code, message) it refused with."""
    try:
        return call()
    except SchemaError as exc:
        return ("schema", str(exc))
    except RecordValidationError as exc:
        return (exc.code, exc.message)
    except AssertionError as exc:  # the reader refused a record its explainers accept
        return ("unexplained", str(exc))


def is_reason(result) -> bool:
    """A ``(code, message)`` pair, not a record (a record is a named tuple)."""
    return type(result) is tuple


def reference_outcome(obj: dict, threshold=None, prefix: str = ""):
    """The schema plus the reference: the record, or the first (code, message)."""
    errors = list(schema_errors(obj, load_schema("video_annotation.schema.json")))
    if errors:
        return ("schema", f"{prefix}{errors[0][0]}: {errors[0][1]}")
    try:
        record = reference_annotation(obj)
        return record if threshold is None else reference_objectness(record, threshold)
    except RecordValidationError as exc:
        return (exc.code, exc.message)
    except ValueError as exc:  # a present frame without a score
        return ("schema", f"{prefix}{exc}")


def disagreements(obj: dict) -> list[str]:
    """The entry points whose outcome on ``obj`` differs from the reference's.

    Records are compared by ``repr``, so the reader's must also hold the same
    types in the same order as the reference builds them.
    """
    found = []
    expected = reference_outcome(obj)
    reasons = validate_annotation_dict(obj)[:1]
    if reasons != ([expected] if is_reason(expected) else []):
        found.append(f"validate_annotation_dict: {reasons} != {expected}")
    got = outcome(lambda: ingest.annotation_from_dict(obj))
    if repr(got) != repr(expected):
        found.append(f"annotation_from_dict: {got} != {expected}")
    line = (json.dumps(obj) + "\n").encode()
    for threshold in (0.0, 0.5):
        want = reference_outcome(obj, threshold, prefix="line 1: ")
        got = outcome(lambda: load_predictions(line, threshold))
        if repr(got) != repr(want if is_reason(want) else [want]):
            found.append(f"load_predictions at {threshold}: {got} != {want}")
    return found


# each mutation and each pair of them, on records with and without confidence maps
SWEEP = [mutant(seed, seed % 2 == 1, [(kind, seed)]) for seed in range(4) for kind in MUTATIONS] + [
    mutant(seed, seed % 2 == 1, [(first, seed * 7 + 1), (second, seed * 3)])
    for seed in range(4, 8)
    for first in MUTATIONS
    for second in MUTATIONS
]


class TestRecordChecksMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.booleans(),
        st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2**16)), max_size=3),
    )
    def test_entry_points_agree_with_reference(self, seed, with_confidence, mutations):
        assert disagreements(mutant(seed, with_confidence, mutations)) == []

    def test_sweep_agrees_and_reaches_every_kept_check(self):
        assert [found for obj in SWEEP for found in disagreements(obj)] == []
        outcomes = [reference_outcome(obj, 0.5) for obj in SWEEP]
        codes = {o[0] for o in outcomes if is_reason(o)}
        assert codes == {
            "bad-box",
            "bad-confidence",
            "bad-phrase-index",
            "box-out-of-frame",
            "duplicate-track-box",
            "frame-out-of-range",
            "presence-box-mismatch",
            "presence-length",
            "schema",
        }
        assert any(not is_reason(o) for o in outcomes)

    def test_a_dropped_check_is_caught(self, monkeypatch):
        def without_duplicate_check(obj):  # the duplicate check runs last
            try:
                check_annotation(obj)
            except RecordValidationError as exc:
                if exc.code != "duplicate-track-box":
                    raise

        monkeypatch.setattr(ingest, "check_annotation", without_duplicate_check)
        assert any(disagreements(obj) for obj in SWEEP)

    def test_track_checks_after_all_tracks_are_built_are_caught(self, monkeypatch):
        def late(obj):  # every track's boxes first, as if all tracks were built before any check
            for item in obj["tracks"]:
                for key, coords in item["boxes"].items():
                    fault = box_fault(*map(float, coords), obj["boxes_normalized"])
                    if fault is not None:
                        raise RecordValidationError("bad-box", f"frame {key}: {fault}")
            check_annotation(obj)

        monkeypatch.setattr(ingest, "check_annotation", late)
        assert any(disagreements(obj) for obj in SWEEP)


def reader_record() -> dict:
    """A valid plain-JSON annotation with two phrases, one scored track, two frames."""
    return {
        "video_id": "v1",
        "frame_count": 2,
        "fps": 5.0,
        "width": 455,
        "height": 256,
        "caption": "<p>a cook</p> stirs <p>a pot</p>",
        "boxes_normalized": False,
        "tracks": [
            {
                "phrase_index": 0,
                "presence": [True, True],
                "boxes": {"0": [1.0, 2.0, 3.0, 4.0], "1": [2.0, 2.0, 3.0, 4.0]},
                "confidence": {"0": 0.9, "1": 0.4},
            },
            {
                "phrase_index": 1,
                "presence": [True, False],
                "boxes": {"0": [10.0, 20.0, 30.0, 40.0]},
            },
        ],
    }


DELETE = object()


def _set(path, value):
    """An edit of :func:`reader_record` that sets the value at ``path``, or deletes it
    when ``value`` is ``DELETE``."""

    def edit(obj):
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)

    return edit


def _renamed_key(path, old, new):
    def edit(obj):
        parent = obj
        for key in path:
            parent = parent[key]
        parent[new] = parent.pop(old)

    return edit


def _edits(*edits):
    def edit(obj):
        for each in edits:
            each(obj)

    return edit


READER_RULES = [
    # every code of check_annotation
    ("caption-malformed", _set(("caption",), "<p>a cook stirs"), "caption-malformed"),
    ("negative-size", _set(("tracks", 1, "boxes", "0", 2), -30.0), "bad-box"),
    ("normalized-box-past-unit", _set(("boxes_normalized",), True), "bad-box"),
    (
        "empty-track",
        _edits(_set(("tracks", 1, "boxes"), {}), _set(("tracks", 1, "presence"), [False, False])),
        "empty-track",
    ),
    ("box-past-end", _set(("tracks", 1, "boxes", "2"), [1.0, 1.0, 2.0, 2.0]), "frame-out-of-range"),
    (
        "flagged-box-past-end",
        _edits(
            _set(("tracks", 1, "boxes", "2"), [1.0, 1.0, 2.0, 2.0]),
            _set(("tracks", 1, "presence"), [True, True]),
        ),
        "frame-out-of-range",
    ),
    ("flag-without-box", _set(("tracks", 1, "presence"), [True, True]), "presence-box-mismatch"),
    ("box-without-flag", _set(("tracks", 0, "presence"), [True, False]), "presence-box-mismatch"),
    ("flag-beside-box", _set(("tracks", 1, "presence"), [False, True]), "presence-box-mismatch"),
    ("score-without-box", _set(("tracks", 1, "confidence"), {"1": 0.5}), "bad-confidence"),
    ("phrase-past-end", _set(("tracks", 1, "phrase_index"), 2), "bad-phrase-index"),
    ("long-presence", _set(("tracks", 1, "presence"), [True, False, False]), "presence-length"),
    (
        "box-out-of-frame",
        _set(("tracks", 1, "boxes", "0"), [440.0, 20.0, 30.0, 40.0]),
        "box-out-of-frame",
    ),
    (
        "repeated-box",
        _edits(
            _set(("tracks", 1, "phrase_index"), 0),
            _set(("tracks", 1, "boxes", "0"), [1.0, 2.0, 3.0, 4.0]),
        ),
        "duplicate-track-box",
    ),
    # the schema's rules
    ("score-above-one", _set(("tracks", 0, "confidence", "1"), 1.5), "schema"),
    ("score-below-zero", _set(("tracks", 0, "confidence", "0"), -0.1), "schema"),
    ("missing-fps", _set(("fps",), DELETE), "schema"),
    ("missing-presence", _set(("tracks", 0, "presence"), DELETE), "schema"),
    ("missing-boxes", _set(("tracks", 1, "boxes"), DELETE), "schema"),
    ("unexpected-key", _set(("extra",), 1), "schema"),
    ("unexpected-track-key", _set(("tracks", 1, "extra"), 1), "schema"),
    ("leading-zero-frame-key", _renamed_key(("tracks", 1, "boxes"), "0", "00"), "schema"),
    ("signed-frame-key", _renamed_key(("tracks", 1, "boxes"), "0", "+0"), "schema"),
    ("empty-video-id", _set(("video_id",), ""), "schema"),
    ("zero-fps", _set(("fps",), 0.0), "schema"),
    ("infinite-fps", _set(("fps",), float("inf")), "schema"),
    ("boolean-fps", _set(("fps",), True), "schema"),
    ("fractional-width", _set(("width",), 455.5), "schema"),
    ("zero-width", _edits(_set(("tracks",), []), _set(("width",), 0)), "schema"),
    ("integer-normalized-flag", _set(("boxes_normalized",), 0), "schema"),
    ("negative-phrase-index", _set(("tracks", 1, "phrase_index"), -1), "schema"),
    ("fractional-phrase-index", _set(("tracks", 1, "phrase_index"), 0.5), "schema"),
    ("boolean-phrase-index", _set(("tracks", 1, "phrase_index"), True), "schema"),
    ("string-flag", _set(("tracks", 1, "presence", 1), "no"), "schema"),
    ("three-coordinates", _set(("tracks", 1, "boxes", "0"), [10.0, 20.0, 30.0]), "schema"),
    ("nan-coordinate", _set(("tracks", 1, "boxes", "0", 0), float("nan")), "schema"),
    ("int-past-double", _set(("tracks", 1, "boxes", "0", 0), 10**400), "schema"),
    ("boolean-coordinate", _set(("tracks", 1, "boxes", "0", 0), True), "schema"),
]


class TestReaderRules:
    # One mutant of a valid record per rule: the reader's own walk must refuse
    # each, since a valid line reaches neither the walker nor check_annotation.
    def test_the_unmutated_record_is_read(self):
        obj = reader_record()
        assert validate_annotation_dict(obj) == []
        record, missing = ingest._annotation(obj, 0.0)
        assert missing is None
        assert ingest.annotation_to_dict(record) == obj

    @pytest.mark.parametrize(
        "edit, code", [pytest.param(edit, code, id=name) for name, edit, code in READER_RULES]
    )
    def test_the_reader_refuses_each_mutant(self, edit, code):
        obj = reader_record()
        edit(obj)
        assert [c for c, _ in validate_annotation_dict(obj)][:1] == [code]
        with pytest.raises((ValueError, OverflowError)):
            ingest._annotation(obj, 0.0)

    @pytest.mark.parametrize("field", ["boxes", "confidence"])
    @pytest.mark.parametrize("key", [0, None])
    def test_a_frame_key_that_is_not_a_string_is_a_schema_error(self, field, key):
        # JSON cannot hold such a key, but a record built in Python can
        obj = reader_record()
        _renamed_key(("tracks", 0, field), "1", key)(obj)
        message = f"$.tracks[0].{field}: unexpected property {key!r}"
        assert validate_annotation_dict(obj) == [("schema", message)]
        with pytest.raises(SchemaError) as excinfo:
            ingest.annotation_from_dict(obj)
        assert str(excinfo.value) == message
