"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the PASS
lines inline).
"""

import importlib.resources
import json
import os
import random
import time
from pathlib import Path

import pytest

from groundcap import (
    BoundingBox,
    MockLlmServer,
    evaluate,
    iou,
    load_predictions,
    meteor_lite,
    parse_video_annotation,
    read_annotations,
    serialize_video_annotation,
    cider,
    dataset_stats,
)
from groundcap.cli import main
from groundcap.metrics import _average_precision
from conftest import (
    beverage_fixtures,
    beverage_frames,
    make_annotation,
    make_corpus,
    stirring_fixtures,
    stirring_frames,
)
from oracles import ap_oracle, cider_oracle, grid_iou
from test_cli import frames_jsonl, write_config

GOLD = Path(__file__).parent / "golden"


def _report(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_metric_identity_suite():
    rng = random.Random(101)
    corpus = make_corpus(rng, 100, prefix="ident")
    start = time.perf_counter()
    report = evaluate(corpus, corpus)
    elapsed = time.perf_counter() - start
    for scores in (report.frame_level, report.video_level):
        assert scores.ap50 == 1.0
        assert scores.miou == 1.0
        assert scores.recall == 1.0
    assert elapsed < 5.0, f"identity evaluation took {elapsed:.2f}s"
    _report(f"metric identity suite (AP50/mIoU/Recall all exactly 1.0 in {elapsed:.2f}s)")


def test_oracle_equivalence_cider():
    rng = random.Random(404)
    vocab = "a the person bowl spoon cup tray pours lifts stirs fast red".split()
    for trial in range(100):
        n = rng.randint(1, 5)
        candidates, references = {}, {}
        for v in range(n):
            vid = f"v{v}"
            candidates[vid] = " ".join(rng.choices(vocab, k=rng.randint(0, 12)))
            references[vid] = [
                " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
                for _ in range(rng.randint(1, 2))
            ]
        ours = cider(candidates, references)
        expected = cider_oracle(candidates, references)
        assert ours == pytest.approx(expected, abs=1e-9), f"corpus {trial}"
    _report("CIDEr matches brute-force TF-IDF oracle within 1e-9 on 100 corpora")


def test_oracle_equivalence_iou():
    rng = random.Random(202)
    for _ in range(1000):
        a = (rng.randint(0, 60), rng.randint(0, 60), rng.randint(0, 40), rng.randint(0, 40))
        b = (rng.randint(0, 60), rng.randint(0, 60), rng.randint(0, 40), rng.randint(0, 40))
        ours = iou(BoundingBox(*map(float, a)), BoundingBox(*map(float, b)))
        assert ours == grid_iou(a, b)
    _report("IoU matches integer-grid enumeration exactly on 1000 random boxes")


def test_oracle_equivalence_ap50():
    # the documented PR fixture: TP, FP, TP over 2 ground-truth boxes
    flags = [True, False, True]
    value = _average_precision(flags, 2)
    assert value == pytest.approx(0.8333, abs=5e-5)
    assert value == pytest.approx(ap_oracle(flags, 2), abs=1e-12)
    fixtures = [
        ([True] * 4, 4),
        ([], 3),
        ([False, False], 2),
        ([True, True, False, True, False], 4),
        ([False, True, True], 2),
    ]
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(0, 10)
        npos = rng.randint(1, 6)
        budget = npos
        flags = []
        for _ in range(n):
            hit = budget > 0 and rng.random() < 0.5
            budget -= hit
            flags.append(hit)
        fixtures.append((flags, npos))
    for flags, npos in fixtures:
        ours = _average_precision(flags, npos)
        assert ours == pytest.approx(ap_oracle(flags, npos), abs=1e-12)
    _report("AP50 matches exhaustive PR enumeration on all fixtures incl. 0.8333")


def test_meteor_formula_spot_checks():
    assert meteor_lite("a b c", "a b c") == pytest.approx(0.981481, abs=1e-6)
    assert meteor_lite("a b c", "c b a") == 0.5
    _report("METEOR-lite spot checks: 0.981481 identical, 0.5 permuted")


def test_pipeline_end_to_end_with_mock_server(tmp_path, monkeypatch):
    fixtures = {**stirring_fixtures(), **beverage_fixtures()}
    stir_path = tmp_path / "stir.jsonl"
    stir_path.write_text(frames_jsonl(stirring_frames()), "utf-8")
    bev_path = tmp_path / "bev.jsonl"
    bev_path.write_text(frames_jsonl(beverage_frames()), "utf-8")

    outputs = []
    with MockLlmServer(fixtures) as server:
        for run in range(2):
            run_dir = tmp_path / f"run-{run}"
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            config = write_config(run_dir, server)
            code = main(
                [
                    "build",
                    "--input",
                    str(stir_path),
                    "--out",
                    "dataset.jsonl",
                    "--rejected",
                    "rejected.jsonl",
                    "--config",
                    str(config.name),
                ]
            )
            assert code == 0
            outputs.append(
                (
                    (run_dir / "dataset.jsonl").read_bytes(),
                    (run_dir / "rejected.jsonl").read_bytes(),
                    (run_dir / "dataset.jsonl.manifest.json").read_bytes(),
                )
            )
        # exactly one accepted record with the aggregated caption
        records = read_annotations(outputs[0][0])
        assert len(records) == 1
        record = records[0]
        assert record.caption.plain == "A person is stirring food in a bowl using a spoon"
        assert record.caption.phrase_texts == ["A person", "food in a bowl"]
        assert outputs[0] == outputs[1], "two runs must be byte-identical"

        # the beverage fixture maps three frame phrases into one track
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, server)
        code = main(
            [
                "build",
                "--input",
                str(bev_path),
                "--out",
                "bev-dataset.jsonl",
                "--rejected",
                "bev-rejected.jsonl",
                "--config",
                str(config),
            ]
        )
        assert code == 0
        bev_records = read_annotations((tmp_path / "bev-dataset.jsonl").read_bytes())
        assert len(bev_records) == 1
        beverage_tracks = [
            t
            for t in bev_records[0].tracks
            if bev_records[0].caption.phrases[t.phrase_index].text == "a beverage"
        ]
        assert len(beverage_tracks) == 1
        assert beverage_tracks[0].present_frames == [0, 1, 2]
    _report("pipeline end-to-end via mock server: accepted record, byte-identical runs")


def test_rejection_behavior_hundred_video_batch(tmp_path):
    groundings = {}
    fixtures = {}
    for i in range(100):
        video_id = f"batch-{i:03d}"
        groundings[video_id] = stirring_frames(video_id, salted=True)
        fixtures.update(stirring_fixtures(video_id, salted=True))
    # three scripted failure modes
    malformed = {
        "batch-007": ("I cannot answer.", "no-dictionary"),
        "batch-042": ("{`WRONG': `value'}", "no-caption-key"),
        "batch-077": ("{`CAPTION': `A woman dances'}", "no-phrases"),
    }
    for video_id, (response, _code) in malformed.items():
        key = next(iter(stirring_fixtures(video_id, salted=True)))
        fixtures[key] = response

    input_path = tmp_path / "batch.jsonl"
    input_path.write_text(
        "".join(frames_jsonl(groundings[v]) for v in sorted(groundings)), "utf-8"
    )
    out = tmp_path / "dataset.jsonl"
    rejected = tmp_path / "rejected.jsonl"
    with MockLlmServer(fixtures) as server:
        config = write_config(tmp_path, server, retries=1, max_in_flight=8)
        code = main(
            [
                "build",
                "--input",
                str(input_path),
                "--out",
                str(out),
                "--rejected",
                str(rejected),
                "--config",
                str(config),
            ]
        )
    assert code == 0
    accepted = read_annotations(out.read_bytes())
    rejections = [json.loads(l) for l in rejected.read_text().splitlines()]
    assert len(accepted) == 97
    assert len(rejections) == 3
    got = {r["video_id"]: r["reasons"][0]["code"] for r in rejections}
    assert got == {vid: code for vid, (_resp, code) in malformed.items()}
    _report("rejection behavior: 97 accepted + 3 rejected with correct reason codes")


def test_round_trip_thousand_records_and_schema_goldens():
    rng = random.Random(909)
    for i in range(1000):
        record = make_annotation(rng, f"roundtrip-{i:04d}", with_confidence=bool(i % 2))
        data = serialize_video_annotation(record)
        parsed = parse_video_annotation(data)
        assert parsed == record
        assert serialize_video_annotation(parsed) == data
    for name in (
        "frame_grounding.schema.json",
        "video_annotation.schema.json",
        "predictions.schema.json",
    ):
        shipped = importlib.resources.files("groundcap.schemas").joinpath(name).read_bytes()
        assert shipped == (GOLD / name).read_bytes(), f"schema {name} drifted"
    _report("round-trip identity on 1000 records; all three schemas stable")


def test_stats_synthetic_single_video():
    from test_stats import single_video

    report = dataset_stats([single_video()])
    assert report.avg_num_frames == 10
    assert report.avg_duration_seconds == 2.0
    assert report.total_num_instances == 10
    assert report.avg_num_instances_per_video == 10
    assert report.avg_box_width == 20.0
    assert report.avg_box_height == 10.0
    assert report.avg_tube_length_frames == 10.0
    assert report.avg_caption_length_words == 5.0
    _report("stats: synthetic single-video fixture matches hand computation exactly")


def test_stats_real_evaluation_set_if_available():
    path = os.environ.get("GROUNDCAP_EVALSET_PATH")
    if not path or not Path(path).exists():
        pytest.skip("real evaluation-set files not available (set GROUNDCAP_EVALSET_PATH)")
    records = read_annotations(Path(path).read_bytes())
    report = dataset_stats(records)
    assert report.avg_caption_length_words == pytest.approx(13.7, abs=0.05)
    assert report.total_num_instances == 118775
    assert report.avg_tube_length_frames == pytest.approx(29.8, abs=0.05)
    _report("stats: real evaluation-set statistics reproduced")


def test_objectness_thresholding():
    record = {
        "video_id": "p1",
        "frame_count": 3,
        "fps": 5.0,
        "width": 100,
        "height": 100,
        "caption": "<p>a cup</p> sits",
        "boxes_normalized": False,
        "tracks": [
            {
                "phrase_index": 0,
                "presence": [True, True, True],
                "boxes": {str(t): [10.0, 10.0, 20.0, 20.0] for t in range(3)},
                "confidence": {"0": 0.9, "1": 0.4, "2": 0.7},
            }
        ],
    }
    data = (json.dumps(record) + "\n").encode()
    loaded = load_predictions(data, objectness_threshold=0.5)
    track = loaded[0].tracks[0]
    assert list(track.presence) == [True, False, True]
    assert track.confidence == {0: 0.9, 2: 0.7}
    kept = load_predictions(data, objectness_threshold=0.0)[0].tracks[0]
    assert list(kept.presence) == [True, True, True]
    _report("objectness thresholding removes exactly the below-threshold frames")


def test_throughput_thousand_video_build(tmp_path):
    # all videos share the same (unsalted) content, so the fixture map stays
    # tiny while the build still performs one aggregation and six phrase
    # classifications per video over HTTP
    groundings_text = []
    for i in range(1000):
        groundings_text.append(frames_jsonl(stirring_frames(f"bulk-{i:04d}")))
    input_path = tmp_path / "bulk.jsonl"
    input_path.write_text("".join(groundings_text), "utf-8")
    out = tmp_path / "dataset.jsonl"
    rejected = tmp_path / "rejected.jsonl"
    fixtures = stirring_fixtures()
    with MockLlmServer(fixtures) as server:
        config = write_config(tmp_path, server, max_in_flight=16)
        start = time.perf_counter()
        code = main(
            [
                "build",
                "--input",
                str(input_path),
                "--out",
                str(out),
                "--rejected",
                str(rejected),
                "--config",
                str(config),
            ]
        )
        elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 60.0, f"bulk build took {elapsed:.1f}s"
    # 7 distinct requests, each sent once: workers that miss together share one fetch
    assert server.request_count == 7
    records = read_annotations(out.read_bytes())
    assert len(records) == 1000
    _report(f"throughput: 1000-video build with max_in_flight=16 in {elapsed:.1f}s")
