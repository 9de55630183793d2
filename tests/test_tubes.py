import math

import pytest

from groundcap import (
    BoundingBox,
    ObjectTrack,
    PhraseAssignment,
    RecordValidationError,
    SchemaError,
    VideoAnnotation,
    assemble_tracks,
    build_record,
    derive_presence,
    parse_tagged_caption,
)
from groundcap.ingest import annotation_from_dict, annotation_to_dict

CAPTION = parse_tagged_caption("<p>a woman</p> pours <p>a beverage</p>")
BOX = BoundingBox(0, 0, 2, 2)
NAN_BOX = BoundingBox(math.nan, 1, 2, 2)


def track_from(frames, frame_count, phrase_index=0):
    return ObjectTrack(
        phrase_index, {t: BoundingBox(0, 0, 10, 10) for t in frames}, frame_count
    )


class TestAssembleTracks:
    def test_contiguous_boxes_build_one_track(self):
        objects = [(t, "a drink", BoundingBox(5, 5, 20, 20)) for t in range(3)]
        assignments = [PhraseAssignment(t, "a drink", "a beverage") for t in range(3)]
        tracks = assemble_tracks(assignments, objects, CAPTION, 5, events=[])
        assert len(tracks) == 1
        assert tracks[0].phrase_index == 1
        assert list(tracks[0].presence) == [True, True, True, False, False]

    def test_beverage_phrases_grouped_into_single_track(self):
        phrases = ["a green beverage", "a glass", "a glass of green liquid"]
        objects = [(t, p, BoundingBox(5 + t, 5, 20, 20)) for t, p in enumerate(phrases)]
        assignments = [PhraseAssignment(t, p, "a beverage") for t, p in enumerate(phrases)]
        tracks = assemble_tracks(assignments, objects, CAPTION, 3, events=[])
        assert len(tracks) == 1
        assert tracks[0].present_frames == [0, 1, 2]

    def test_none_class_dropped(self):
        objects = [(0, "table", BoundingBox(0, 0, 5, 5)), (0, "a lady", BoundingBox(1, 1, 8, 8))]
        assignments = [
            PhraseAssignment(0, "table", None),
            PhraseAssignment(0, "a lady", "a woman"),
        ]
        tracks = assemble_tracks(assignments, objects, CAPTION, 1, events=[])
        assert len(tracks) == 1
        assert tracks[0].phrase_index == 0

    def test_duplicate_phrase_in_frame_keeps_larger_box(self):
        objects = [
            (4, "a cup", BoundingBox(0, 0, 10, 10)),  # area 100
            (4, "a mug", BoundingBox(50, 50, 8, 5)),  # area 40
            (5, "a mug", BoundingBox(50, 50, 8, 5)),
            (5, "a cup", BoundingBox(0, 0, 10, 10)),  # the larger comes second
        ]
        assignments = [
            PhraseAssignment(4, "a cup", "a beverage"),
            PhraseAssignment(4, "a mug", "a beverage"),
            PhraseAssignment(5, "a mug", "a beverage"),
            PhraseAssignment(5, "a cup", "a beverage"),
        ]
        events = []
        tracks = assemble_tracks(assignments, objects, CAPTION, 6, events=events)
        assert tracks[0].boxes[4] == tracks[0].boxes[5] == BoundingBox(0, 0, 10, 10)
        message = "frame {}: two boxes for phrase 'a beverage', keeping the larger (100.0 px^2)"
        assert [(e.code, e.source, e.message) for e in events] == [
            ("two-boxes", "groundcap.tubes", message.format(4)),
            ("two-boxes", "groundcap.tubes", message.format(5)),
        ]

    def test_missing_assignment_is_error(self):
        with pytest.raises(ValueError):
            assemble_tracks([], [(0, "a cup", BoundingBox(0, 0, 1, 1))], CAPTION, 1, events=[])


class TestDerivePresence:
    def test_two_segments_with_gap(self):
        track = track_from({0, 1, 2, 5, 6}, 8)
        assert derive_presence(track) == [(0, 2), (5, 6)]

    def test_all_present(self):
        track = track_from(range(7), 7)
        assert derive_presence(track) == [(0, 6)]

    def test_alternating(self):
        track = track_from({0, 2}, 4)
        assert derive_presence(track) == [(0, 0), (2, 2)]

    def test_single_last_frame(self):
        track = track_from({9}, 10)
        assert derive_presence(track) == [(9, 9)]


class TestBuildRecord:
    def test_no_tracks_rejected(self):
        with pytest.raises(RecordValidationError) as excinfo:
            build_record("v1", 10, 5.0, 455, 256, CAPTION, [], events=[])
        assert excinfo.value.code == "no-tracks"

    def test_accepted_with_tracks(self):
        tracks = [track_from({0, 1}, 4, 0), track_from({2}, 4, 1)]
        events = []
        annotation = build_record("v1", 4, 5.0, 455, 256, CAPTION, tracks, events=events)
        assert len(annotation.tracks) == 2
        assert events == []

    def test_ungrounded_phrase_kept_with_warning(self):
        tracks = [track_from({0}, 2, 0)]  # phrase 1 has no boxes
        events = []
        annotation = build_record("v1", 2, 5.0, 455, 256, CAPTION, tracks, events=events)
        assert annotation.caption.phrase_texts == ["a woman", "a beverage"]
        assert [(e.code, e.source, e.message) for e in events] == [(
            "no-track",
            "groundcap.tubes",
            "video v1: caption phrase 'a beverage' has no boxes; kept in caption without a track",
        )]

    def test_invariant_violation_becomes_rejection(self):
        bad = track_from({0}, 3, phrase_index=7)  # phrase index out of range
        with pytest.raises(RecordValidationError) as excinfo:
            build_record("v1", 3, 5.0, 455, 256, CAPTION, [bad], events=[])
        assert excinfo.value.code == "bad-phrase-index"

    @pytest.mark.parametrize(
        "video_id, fps, track, field_path",
        [
            ("v1", 0.0, track_from({0}, 3), "$.fps"),
            ("v1", math.nan, track_from({0}, 3), "$.fps"),
            ("v1", math.inf, track_from({0}, 3), "$.fps"),
            ("", 5.0, track_from({0}, 3), "$.video_id"),
            ("v1", 5.0, track_from({0}, 3, phrase_index=-1), "$.tracks[0].phrase_index"),
            ("v1", 5.0, ObjectTrack(0, {0: NAN_BOX}, 3), "$.tracks[0].boxes.0[0]"),
            ("v1", 5.0, ObjectTrack(0, {0: BOX}, 3, {0: 2.0}), "$.tracks[0].confidence.0"),
        ],
        ids=["fps-0", "fps-nan", "fps-inf", "empty-id", "phrase-index", "nan-box", "confidence"],
    )
    def test_records_the_reader_refuses_are_refused(self, video_id, fps, track, field_path):
        record = VideoAnnotation(video_id, 3, fps, 455, 256, CAPTION, (track,))
        with pytest.raises(SchemaError) as read:
            annotation_from_dict(annotation_to_dict(record))
        with pytest.raises(SchemaError) as built:
            build_record(video_id, 3, fps, 455, 256, CAPTION, [track], events=[])
        assert built.value.field_path == read.value.field_path == field_path
        assert str(built.value) == str(read.value)

    def test_acceptance_monotone_under_added_boxes(self):
        base = [track_from({0}, 4, 0)]
        richer = [track_from({0, 1}, 4, 0), track_from({3}, 4, 1)]
        for tracks in (base, richer):
            annotation = build_record("v1", 4, 5.0, 455, 256, CAPTION, tracks, events=[])
            assert annotation.tracks == tuple(tracks)


def test_track_count_never_exceeds_phrase_count(rng):
    for _ in range(50):
        frame_count = rng.randint(1, 6)
        objects = []
        assignments = []
        for t in range(frame_count):
            for p in ("a cup", "a jar", "table"):
                if rng.random() < 0.5:
                    continue
                assigned = rng.choice(["a woman", "a beverage", None])
                objects.append((t, p, BoundingBox(0, 0, 4, 4)))
                assignments.append(PhraseAssignment(t, p, assigned))
        # de-duplicate conflicting assignments for the same (frame, phrase)
        seen = {}
        for a in assignments:
            seen[(a.frame_index, a.frame_phrase)] = a
        assignments = list(seen.values())
        tracks = assemble_tracks(assignments, objects, CAPTION, frame_count, events=[])
        assert len(tracks) <= len(CAPTION.phrases)
        for track in tracks:
            assert sum(track.presence) <= frame_count
