import pytest

from groundcap import (
    BoundingBox,
    ObjectTrack,
    VideoAnnotation,
    dataset_stats,
    normalize_box,
    parse_tagged_caption,
)
from conftest import make_corpus


def single_video() -> VideoAnnotation:
    # T=10 at 5 fps, one track present everywhere with a 20x10 box,
    # 5-word caption
    caption = parse_tagged_caption("<p>a cook</p> lifts a tray")
    assert len(caption.plain.split()) == 5
    track = ObjectTrack(
        0, {t: BoundingBox(5.0, 6.0, 20.0, 10.0) for t in range(10)}, 10
    )
    return VideoAnnotation(
        video_id="solo",
        frame_count=10,
        fps=5.0,
        width=455,
        height=256,
        caption=caption,
        tracks=(track,),
    )


def empty_video(video_id="empty") -> VideoAnnotation:
    return VideoAnnotation(
        video_id=video_id,
        frame_count=4,
        fps=2.0,
        width=100,
        height=100,
        caption=parse_tagged_caption("<p>a wall</p> stands"),
        tracks=(),
    )


class TestDatasetStats:
    def test_hand_computed_single_video(self):
        report = dataset_stats([single_video()])
        assert report.num_videos == 1
        assert report.avg_num_frames == 10
        assert report.avg_duration_seconds == 2.0
        assert report.avg_num_instances_per_video == 10
        assert report.total_num_instances == 10
        assert report.avg_box_width == 20.0
        assert report.avg_box_height == 10.0
        assert report.avg_tube_length_frames == 10.0
        assert report.avg_caption_length_words == 5.0

    def test_zero_track_video_contributes_no_instances(self):
        solo = dataset_stats([single_video()])
        both = dataset_stats([single_video(), empty_video()])
        assert both.total_num_instances == solo.total_num_instances
        assert both.avg_box_width == solo.avg_box_width
        assert both.avg_tube_length_frames == solo.avg_tube_length_frames
        assert both.avg_num_frames == (10 + 4) / 2
        assert both.avg_duration_seconds == (2.0 + 2.0) / 2

    def test_empty_dataset_rejected(self):
        for records in ([], iter(())):
            with pytest.raises(ValueError, match="empty dataset"):
                dataset_stats(records)

    def test_a_generator_gives_the_report_of_a_list(self, rng):
        records = make_corpus(rng, 40)
        report = dataset_stats(record for record in records)
        assert report == dataset_stats(records)
        # each mean is the sum the report was always made from, bit for bit
        n = len(records)
        assert report.avg_duration_seconds == sum(r.duration_seconds for r in records) / n
        assert report.avg_num_frames == sum(r.frame_count for r in records) / n

    def test_tubes_respect_gaps(self):
        caption = parse_tagged_caption("<p>a cup</p> appears")
        track = ObjectTrack(
            0, {t: BoundingBox(0.0, 0.0, 4.0, 4.0) for t in (0, 1, 5, 6, 7)}, 9
        )
        record = VideoAnnotation(
            video_id="gaps",
            frame_count=9,
            fps=3.0,
            width=50,
            height=50,
            caption=caption,
            tracks=(track,),
        )
        report = dataset_stats([record])
        # segments (0,1) and (5,7): lengths 2 and 3
        assert report.avg_tube_length_frames == 2.5
        assert report.total_num_instances == 5

    def test_normalized_boxes_reported_in_pixels(self):
        caption = parse_tagged_caption("<p>a cup</p> sits")
        box = normalize_box(BoundingBox(0.0, 0.0, 91.0, 64.0), 455, 256)
        track = ObjectTrack(0, {0: box}, 1)
        record = VideoAnnotation(
            video_id="norm",
            frame_count=1,
            fps=5.0,
            width=455,
            height=256,
            caption=caption,
            tracks=(track,),
            boxes_normalized=True,
        )
        report = dataset_stats([record])
        assert report.avg_box_width == pytest.approx(91.0)
        assert report.avg_box_height == pytest.approx(64.0)

    def test_instance_total_matches_presence_sum(self, rng):
        records = make_corpus(rng, 20)
        report = dataset_stats(records)
        expected = sum(sum(t.presence) for r in records for t in r.tracks)
        assert report.total_num_instances == expected
