import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import groundcap.llm as llm
from groundcap import read_annotations, serialize_video_annotation
from groundcap.cli import main
from groundcap.config import PipelineConfig
from groundcap.jsonio import canonical_json
from groundcap.mockllm import load_fixtures
from conftest import (
    beverage_fixtures,
    beverage_frames,
    make_annotation,
    make_corpus,
    salt_word,
    stirring_fixtures,
    stirring_frames,
)
from groundcap import HttpChatClient, MockLlmServer


def frames_jsonl(frames) -> str:
    lines = []
    for f in frames:
        lines.append(
            json.dumps(
                {
                    "video_id": f.video_id,
                    "frame_index": f.frame_index,
                    "width": f.width,
                    "height": f.height,
                    "caption": f.caption,
                    "objects": [
                        {"phrase": o.phrase, "box": [v for v in o.box.as_list()]}
                        for o in f.objects
                    ],
                }
            )
        )
    return "\n".join(lines) + "\n"


@pytest.fixture
def stir_input(tmp_path):
    path = tmp_path / "frames.jsonl"
    path.write_text(frames_jsonl(stirring_frames() + beverage_frames()), "utf-8")
    return path


UNKNOWN_SIMILARITY = "unknown config keys: ['similarity']"  # the key is retired
# what a file that holds "{bad", or starts with the byte 0xff, fails with
NOT_JSON = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
BAD_URLS = [  # (endpoint, why urllib refuses it)
    pytest.param("http://127.0.0.1:99999/x", "Port out of range 0-65535", id="port-range"),
    pytest.param(
        "http://127.0.0.1:abc/x", "Port could not be cast to integer value as 'abc'", id="port-text"
    ),
    pytest.param("http://[::1/x", "Invalid IPv6 URL", id="open-bracket"),
]


def write_config(tmp_path, server, **extra):
    config = {"endpoint": server.url, "model": "mock", "backoff": 0.0}
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), "utf-8")
    return path


def write_warning_videos(path):
    """Frame groundings of 6 videos that each log three warnings.

    Every video drops an empty mask and an off-frame box, and demotes a
    phrase of its own that has no fixture (an HTTP 404) to the None-class.
    Returns the fixtures and the video of each demoted phrase's salt word.
    """
    records, fixtures, owner = [], {}, {}
    for n in range(6):
        video_id = f"vid-{n}"
        salt = salt_word(video_id)
        owner[salt] = video_id
        fixtures.update(stirring_fixtures(video_id, salted=True))
        frames = frames_jsonl(stirring_frames(video_id, salted=True)).splitlines()
        video = [json.loads(line) for line in frames]
        video[1]["objects"].append({"phrase": f"a {salt}", "box": [1, 1, 5, 5]})
        video[2]["objects"].append({"phrase": "a cup", "mask": [455 * 256]})
        video[3]["objects"].append({"phrase": "a cup", "box": [500, 300, 10, 10]})
        records += video
    path.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    return fixtures, owner


class TestBuild:
    def test_end_to_end_and_determinism(self, tmp_path, stir_input):
        fixtures = {**stirring_fixtures(), **beverage_fixtures()}
        outputs = []
        with MockLlmServer(fixtures) as server:
            config = write_config(tmp_path, server)
            for run in range(2):
                out = tmp_path / f"dataset-{run}.jsonl"
                rejected = tmp_path / f"rejected-{run}.jsonl"
                manifest = tmp_path / f"manifest-{run}.json"
                code = main(
                    [
                        "build",
                        "--input",
                        str(stir_input),
                        "--out",
                        str(out),
                        "--rejected",
                        str(rejected),
                        "--manifest",
                        str(manifest),
                        "--config",
                        str(config),
                    ]
                )
                assert code == 0
                outputs.append(
                    (out.read_bytes(), rejected.read_bytes(), manifest.read_bytes())
                )
        assert outputs[0][0] == outputs[1][0]  # dataset byte-identical
        assert outputs[0][1] == outputs[1][1] == b""  # no rejections
        # manifests identical except they were written to different paths
        records = read_annotations(outputs[0][0])
        assert [r.video_id for r in records] == ["vid-bev", "vid-stir"]
        stir = records[1]
        assert stir.caption.plain == "A person is stirring food in a bowl using a spoon"
        manifest = json.loads(outputs[0][2])
        assert manifest["counts"] == {"videos": 2, "accepted": 2, "rejected": 0}
        assert set(manifest["inputs"]) == {str(stir_input)}

    def test_rejections_logged(self, tmp_path):
        frames = stirring_frames("broken", salted=True)
        path = tmp_path / "frames.jsonl"
        path.write_text(frames_jsonl(frames), "utf-8")
        with MockLlmServer({}, default="not a dict") as server:
            config = write_config(tmp_path, server, retries=0)
            out = tmp_path / "dataset.jsonl"
            rejected = tmp_path / "rejected.jsonl"
            code = main(
                [
                    "build",
                    "--input",
                    str(path),
                    "--out",
                    str(out),
                    "--rejected",
                    str(rejected),
                    "--config",
                    str(config),
                ]
            )
        assert code == 0
        assert out.read_bytes() == b""
        log = json.loads(rejected.read_text())
        assert log["video_id"] == "broken"
        assert log["reasons"][0]["code"] == "no-dictionary"

    def test_failed_write_keeps_the_old_files(self, tmp_path, stir_input, capsys):
        out = tmp_path / "dataset.jsonl"
        manifest = tmp_path / "dataset.jsonl.manifest.json"
        out.write_bytes(b"old dataset\n")
        manifest.write_bytes(b"old manifest\n")
        with MockLlmServer({**stirring_fixtures(), **beverage_fixtures()}) as server:
            config = write_config(tmp_path, server)
            command = [
                "build", "--input", str(stir_input), "--out", str(out), "--config", str(config)
            ]
            missing = tmp_path / "missing" / "rejected.jsonl"
            assert main([*command, "--rejected", str(missing)]) == 1
            error = capsys.readouterr().err.splitlines()[-1]
            assert error == f"error: [Errno 2] No such file or directory: '{missing}'"
            assert out.read_bytes() == b"old dataset\n"
            assert manifest.read_bytes() == b"old manifest\n"
            names = ["config.json", "dataset.jsonl", "dataset.jsonl.manifest.json", "frames.jsonl"]
            assert sorted(p.name for p in tmp_path.iterdir()) == names

            umask = os.umask(0o027)
            try:  # the files are created under the umask, as a plain open() would
                assert main([*command, "--rejected", str(tmp_path / "rejected.jsonl")]) == 0
            finally:
                os.umask(umask)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*names, "rejected.jsonl"])
        assert read_annotations(out.read_bytes())
        assert json.loads(manifest.read_bytes())["command"] == "build"
        for name in ("dataset.jsonl", "dataset.jsonl.manifest.json", "rejected.jsonl"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o640

    def test_multi_worker_stderr_is_the_same_every_run(self, tmp_path):
        frames_path = tmp_path / "frames.jsonl"
        fixtures, owner = write_warning_videos(frames_path)
        runs = []
        with MockLlmServer(fixtures) as server:
            config = write_config(tmp_path, server)
            for run in range(2):
                command = [
                    sys.executable, "-m", "groundcap.cli", "build",
                    "--input", str(frames_path),
                    "--out", str(tmp_path / f"dataset-{run}.jsonl"),
                    "--rejected", str(tmp_path / f"rejected-{run}.jsonl"),
                    "--config", str(config),
                    "--max-in-flight", "2",
                ]
                runs.append(subprocess.run(command, capture_output=True, timeout=120, check=True))
        assert runs[0].stderr == runs[1].stderr
        warnings = runs[0].stderr.decode().splitlines()

        def video_of(line: str) -> str:
            named = re.search(r"video (vid-\d)", line)
            return named.group(1) if named else next(v for s, v in owner.items() if s in line)

        videos = [video_of(line) for line in warnings]
        assert videos == sorted(videos)
        assert len(warnings) == 6 * 3


    @pytest.mark.parametrize("workers", [1, 3])
    def test_stderr_logs_every_kind_of_event_in_input_order(self, tmp_path, workers):
        # vid-0 drops an empty mask and an off-frame box, demotes its salt-word
        # phrase (no fixture: HTTP 404) and has two boxes for one phrase in
        # frame 0; vid-1 has no box for "A person" and drops an empty mask
        # whose phrase holds '%' and '{}'; vid-2 drops its only object and is
        # rejected with no-tracks, after its event
        records, fixtures = [], {}
        for video_id in ("vid-0", "vid-1", "vid-2"):
            fixtures.update(stirring_fixtures(video_id, salted=True))
            lines = frames_jsonl(stirring_frames(video_id, salted=True)).splitlines()
            records.append([json.loads(line) for line in lines])
        vid0, vid1, vid2 = records
        vid0[0]["objects"].append({"phrase": "food", "box": [130, 110, 10, 10]})
        vid0[1]["objects"].append({"phrase": f"a {salt_word('vid-0')}", "box": [1, 1, 5, 5]})
        vid0[2]["objects"].append({"phrase": "a cup", "mask": [455 * 256]})
        vid0[3]["objects"].append({"phrase": "a cup", "box": [500, 300, 10, 10]})
        for frame in vid1:
            frame["objects"] = [o for o in frame["objects"] if o["phrase"] != "a person"]
        vid1[0]["objects"].append({"phrase": "a 100% {0} %s %(name)s {} cup", "mask": [455 * 256]})
        for frame in vid2:
            frame["objects"] = []
        vid2[2]["objects"] = [{"phrase": "food", "mask": [455 * 256]}]
        frames_path = tmp_path / "frames.jsonl"
        frames_path.write_text("".join(json.dumps(r) + "\n" for v in records for r in v), "utf-8")
        with MockLlmServer(fixtures) as server:
            command = [
                sys.executable, "-m", "groundcap.cli", "build",
                "--input", str(frames_path),
                "--out", str(tmp_path / "dataset.jsonl"),
                "--rejected", str(tmp_path / "rejected.jsonl"),
                "--config", str(write_config(tmp_path, server)),
                "--max-in-flight", str(workers),
            ]
            run = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        stderr = run.stderr.replace(server.url, "<endpoint>").splitlines()
        assert stderr == [
            "WARNING groundcap.pipeline: video vid-0 frame 2: phrase 'a cup' has an empty mask, "
            "dropped",
            "WARNING groundcap.pipeline: video vid-0 frame 3: box for 'a cup' vanished after "
            "clamping, dropped",
            "WARNING groundcap.llm: phrase 'a qehpimi' dropped to None-class: HTTP 404 from "
            "<endpoint> (transport)",
            "WARNING groundcap.tubes: frame 0: two boxes for phrase 'food in a bowl', keeping the "
            "larger (12600.0 px^2)",
            "WARNING groundcap.pipeline: video vid-1 frame 0: phrase 'a 100% {0} %s %(name)s {} "
            "cup' has an empty mask, dropped",
            "WARNING groundcap.tubes: video vid-1: caption phrase 'A person' has no boxes; kept "
            "in caption without a track",
            "WARNING groundcap.pipeline: video vid-2 frame 2: phrase 'food' has an empty mask, "
            "dropped",
        ]
        rejected = [json.loads(l) for l in (tmp_path / "rejected.jsonl").read_text().splitlines()]
        assert [(r["video_id"], r["reasons"][0]["code"]) for r in rejected] == [
            ("vid-2", "no-tracks")
        ]

class TestEval:
    def test_self_evaluation_is_perfect(self, tmp_path, rng):
        records = make_corpus(rng, 4)
        gt = tmp_path / "gt.jsonl"
        gt.write_bytes(
            b"".join(serialize_video_annotation(r) + b"\n" for r in records)
        )
        # predictions: same records with full-confidence scores
        preds = []
        for r in records:
            obj = json.loads(serialize_video_annotation(r))
            for track in obj["tracks"]:
                track["confidence"] = {k: 1.0 for k in track["boxes"]}
            preds.append(obj)
        pred = tmp_path / "pred.jsonl"
        pred.write_text("\n".join(json.dumps(p) for p in preds) + "\n", "utf-8")
        out = tmp_path / "report.json"
        code = main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        for level in ("frame_level", "video_level"):
            assert report[level]["ap50"] == 1.0
            assert report[level]["miou"] == 1.0
            assert report[level]["recall"] == 1.0
        # the written report conforms to the shipped schema
        import importlib.resources

        import jsonschema

        schema = json.loads(
            importlib.resources.files("groundcap.schemas")
            .joinpath("metrics_report.schema.json")
            .read_text("utf-8")
        )
        jsonschema.Draft202012Validator(schema).validate(report)

    def test_same_file_both_sides_scores_perfect(self, tmp_path, rng):
        # ground-truth records carry no confidences but are valid predictions
        records = make_corpus(rng, 3)
        data = tmp_path / "data.jsonl"
        data.write_bytes(b"".join(serialize_video_annotation(r) + b"\n" for r in records))
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(data), "--gt", str(data), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["frame_level"] == {"ap50": 1.0, "miou": 1.0, "recall": 1.0}
        assert report["video_level"] == {"ap50": 1.0, "miou": 1.0, "recall": 1.0}

    def test_bad_pred_video_fails(self, tmp_path, rng):
        gt_records = make_corpus(rng, 2)
        stray = make_corpus(rng, 1, prefix="stray")
        gt = tmp_path / "gt.jsonl"
        gt.write_bytes(b"".join(serialize_video_annotation(r) + b"\n" for r in gt_records))
        pred = tmp_path / "pred.jsonl"
        obj = json.loads(serialize_video_annotation(stray[0]))
        for track in obj["tracks"]:
            track["confidence"] = {k: 1.0 for k in track["boxes"]}
        pred.write_text(json.dumps(obj) + "\n", "utf-8")
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out)]) == 1

    def test_help_names_the_objectness_default(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--help"])
        assert excinfo.value.code == 0
        # argparse wraps the help text, so runs of white space are joined first
        assert "(default 0.5)" in " ".join(capsys.readouterr().out.split())

    def test_embedding_endpoint_down_exits_one(self, tmp_path, rng, capsys):
        # the first phrase is renamed, so its boxes reach the similarity gate
        obj = json.loads(serialize_video_annotation(make_corpus(rng, 1)[0]))
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps(obj) + "\n", "utf-8")
        obj["caption"] = obj["caption"].replace("<p>a ", "<p>one ", 1)
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps(obj) + "\n", "utf-8")
        endpoint = "http://127.0.0.1:1/embed"  # nothing listens there
        code = main(
            ["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp_path / "r.json"),
             "--embedding-endpoint", endpoint]
        )
        assert code == 1
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("error: embedding of 'one ") and f"from {endpoint} failed" in error


    @pytest.mark.parametrize("url, reason", BAD_URLS)
    def test_a_bad_embedding_endpoint_url_is_named(self, tmp_path, rng, capsys, url, reason):
        data = tmp_path / "data.jsonl"
        data.write_bytes(serialize_video_annotation(make_annotation(rng, "v")) + b"\n")
        argv = ["eval", "--pred", str(data), "--gt", str(data), "--out", str(tmp_path / "r.json")]
        assert main([*argv, "--embedding-endpoint", url]) == 1
        error = capsys.readouterr().err
        assert error == f"error: endpoint must be an http or https URL, got {url!r}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]


class TestValidate:
    def test_valid_dataset_exits_zero(self, tmp_path, rng):
        records = make_corpus(rng, 3)
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"".join(serialize_video_annotation(r) + b"\n" for r in records))
        assert main(["validate", "--input", str(path)]) == 0

    def test_out_of_frame_box_exits_one(self, tmp_path, rng, capsys):
        record = json.loads(serialize_video_annotation(make_corpus(rng, 1)[0]))
        first_track = record["tracks"][0]
        frame_key = next(iter(first_track["boxes"]))
        first_track["boxes"][frame_key] = [9000.0, 9000.0, 50.0, 50.0]
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(record) + "\n", "utf-8")
        assert main(["validate", "--input", str(path)]) == 1
        assert "box-out-of-frame" in capsys.readouterr().out

    def test_records_without_a_usable_id_are_named_by_line(self, tmp_path, rng, capsys):
        good = json.loads(serialize_video_annotation(make_corpus(rng, 1)[0]))
        lines = [dict(good, video_id=7), dict(good, video_id=""), dict(good, video_id=["a"]), good]
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in lines), "utf-8")
        report = tmp_path / "report.jsonl"
        assert main(["validate", "--input", str(path), "--out", str(report)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "line-1: schema: $.video_id: expected a string, got 7",
            "line-2: schema: $.video_id: shorter than 1 characters",
            "line-3: schema: $.video_id: expected a string, got an array",
            "validated 4 records: 1 ok, 3 invalid",
        ]
        reports = [json.loads(line) for line in report.read_text("utf-8").splitlines()]
        assert [(r["video_id"], r["status"]) for r in reports] == [
            ("line-1", "rejected"),
            ("line-2", "rejected"),
            ("line-3", "rejected"),
            (good["video_id"], "accepted"),
        ]

    def test_repeated_video_id_is_rejected(self, tmp_path, rng, capsys):
        # stats and eval refuse such a file, so validate must not pass it
        first, second = (json.loads(serialize_video_annotation(r)) for r in make_corpus(rng, 2))
        lines = [first, second, first, dict(first, fps=-1.0)]
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in lines), "utf-8")
        report = tmp_path / "report.jsonl"
        assert main(["validate", "--input", str(path), "--out", str(report)]) == 1
        vid = first["video_id"]
        duplicate = f"duplicate video_id {vid!r} (first on line 1)"
        assert capsys.readouterr().out.splitlines() == [
            f"{vid}: duplicate-video-id: {duplicate}",
            f"{vid}: schema: $.fps: -1.0 is not greater than 0",
            f"{vid}: duplicate-video-id: {duplicate}",
            "validated 4 records: 2 ok, 2 invalid",
        ]
        reports = [json.loads(line) for line in report.read_text("utf-8").splitlines()]
        assert [(r["video_id"], r["status"]) for r in reports] == [
            (vid, "accepted"),
            (second["video_id"], "accepted"),
            (vid, "rejected"),
            (vid, "rejected"),
        ]
        assert reports[3]["reasons"] == [
            {"code": "schema", "message": "$.fps: -1.0 is not greater than 0"},
            {"code": "duplicate-video-id", "message": duplicate},
        ]

    def test_bad_config_is_an_error_without_out(self, tmp_path, rng, capsys):
        path = tmp_path / "data.jsonl"
        path.write_bytes(serialize_video_annotation(make_corpus(rng, 1)[0]) + b"\n")
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"retries": -1}), "utf-8")
        assert main(["validate", "--input", str(path), "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: config key 'retries' must be >= 0, got -1\n"
        assert captured.out == ""

    def test_manifest_without_out_is_a_usage_error(self, tmp_path, rng, capsys):
        path = tmp_path / "data.jsonl"
        path.write_bytes(serialize_video_annotation(make_corpus(rng, 1)[0]) + b"\n")
        assert main(["validate", "--input", str(path)]) == 0  # neither flag: no file written
        capsys.readouterr()
        missing = str(tmp_path / "missing.jsonl")  # reading it would fail with another error
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "--input", missing, "--manifest", str(tmp_path / "m.json")])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error == "groundcap: error: validate --manifest requires --out"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]

    def test_manifest_path_that_is_a_directory_keeps_the_old_report(self, tmp_path, rng, capsys):
        path = tmp_path / "data.jsonl"
        path.write_bytes(serialize_video_annotation(make_corpus(rng, 1)[0]) + b"\n")
        report = tmp_path / "report.jsonl"
        report.write_bytes(b"old report\n")
        manifest = tmp_path / "manifest"
        manifest.mkdir()
        argv = ["validate", "--input", str(path), "--out", str(report), "--manifest", str(manifest)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(manifest)!r}\n"
        assert report.read_bytes() == b"old report\n"
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["data.jsonl", "manifest", "report.jsonl"]


class TestStats:
    def test_stats_report_written(self, tmp_path, rng):
        records = make_corpus(rng, 5)
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"".join(serialize_video_annotation(r) + b"\n" for r in records))
        out = tmp_path / "stats.json"
        assert main(["stats", "--input", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["num_videos"] == 5
        assert report["total_num_instances"] > 0

    @pytest.mark.parametrize("command", ["stats", "eval"])
    def test_a_record_rule_error_names_its_line(self, tmp_path, rng, capsys, command):
        good, bad = (json.loads(serialize_video_annotation(r)) for r in make_corpus(rng, 2))
        boxes = bad["tracks"][0]["boxes"]
        frame = next(iter(boxes))
        boxes[frame] = [0.0, 0.0, 500.0, 5.0]  # the frame is 455x256
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", "utf-8")
        inputs = {"stats": ["--input"], "eval": ["--pred", str(path), "--gt"]}[command]
        argv = [command, *inputs, str(path), "--out", str(tmp_path / "out.json")]
        assert main(argv) == 1
        error = capsys.readouterr().err.splitlines()[-1]
        message = f"box [0.0, 0.0, 500.0, 5.0] at frame {frame} exceeds 455x256"
        assert error == f"error: line 2: {message}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]


    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--input", "{twice}"],
            ["eval", "--pred", "{once}", "--gt", "{twice}"],
            ["eval", "--pred", "{twice}", "--gt", "{once}"],
        ],
        ids=["stats", "eval-gt", "eval-pred"],
    )
    def test_a_repeated_video_id_exits_1(self, tmp_path, rng, capsys, argv):
        line = serialize_video_annotation(make_annotation(rng, "v")) + b"\n"
        (tmp_path / "once.jsonl").write_bytes(line)
        (tmp_path / "twice.jsonl").write_bytes(line * 2)
        files = {"once": tmp_path / "once.jsonl", "twice": tmp_path / "twice.jsonl"}
        argv = [arg.format(**files) for arg in argv]
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr().err == "error: line 2: duplicate video_id 'v'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["once.jsonl", "twice.jsonl"]

    def test_eval_of_empty_ground_truth_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(empty), "--gt", str(empty), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: ground truth is empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.jsonl"]

    def test_eval_names_a_ground_truth_caption_without_words(self, tmp_path, rng, capsys):
        good = json.loads(serialize_video_annotation(make_annotation(rng, "v1")))
        blank = {**good, "video_id": "v2", "caption": " ", "tracks": []}  # a valid record
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps(good) + "\n" + json.dumps(blank) + "\n", "utf-8")
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(gt), "--gt", str(gt), "--out", str(out)]) == 1
        error = capsys.readouterr().err
        assert error == "error: ground-truth caption of video 'v2' has no words\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.jsonl"]

    def test_eval_scores_a_video_whose_id_is_a_non_ascii_digit(self, tmp_path, rng):
        # "²" passes str.isdigit() but not int(); the report keys it by string order
        path = tmp_path / "data.jsonl"
        path.write_bytes(serialize_video_annotation(make_annotation(rng, "²")) + b"\n")
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(path), "--gt", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text("utf-8"))
        assert list(report["per_video"]) == ["²"]
        assert report["frame_level"]["ap50"] == 1.0


    def test_outputs_given_as_links_are_written_through_them(self, tmp_path, rng, capsys):
        path = tmp_path / "data.jsonl"
        path.write_bytes(serialize_video_annotation(make_corpus(rng, 1)[0]) + b"\n")
        store = tmp_path / "store"
        store.mkdir()
        (store / "stats.json").write_bytes(b"old\n")
        out, manifest = tmp_path / "stats.json", tmp_path / "stats.manifest.json"
        out.symlink_to(Path("store", "stats.json"))
        manifest.symlink_to(store / "manifest.json")  # dangling until the run
        argv = ["stats", "--input", str(path), "--out", str(out), "--manifest", str(manifest)]
        assert main(argv) == 0
        assert out.is_symlink() and manifest.is_symlink()
        assert sorted(p.name for p in store.iterdir()) == ["manifest.json", "stats.json"]
        assert json.loads(out.read_text("utf-8"))["num_videos"] == 1
        written = json.loads(manifest.read_text("utf-8"))  # it names the paths as typed
        assert written["outputs"] == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}

        # a link into a missing directory fails, names the path as typed, and writes nothing
        manifest.unlink()
        manifest.symlink_to(tmp_path / "nowhere" / "manifest.json")
        before = out.read_bytes()
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.endswith(f"No such file or directory: {str(manifest)!r}\n")
        assert out.read_bytes() == before
        assert sorted(p.name for p in store.iterdir()) == ["manifest.json", "stats.json"]


@pytest.mark.parametrize(
    "argv, config",
    [
        (
            ["eval", "--pred", "{dir}/pred.jsonl", "--gt", "{dir}/gt.jsonl",
             "--out", "{dir}/report.json", "--iou-thresh", "0.3"],
            PipelineConfig(iou_thresh=0.3),
        ),
        (
            ["eval", "--pred", "{dir}/gt.jsonl", "--gt", "{dir}/gt.jsonl",
             "--out", "{dir}/report.json"],
            PipelineConfig(),
        ),
        (
            ["validate", "--input", "{dir}/gt.jsonl", "--out", "{dir}/report.jsonl",
             "--config", "{dir}/config.json"],
            PipelineConfig(fps=2.0),
        ),
        (["stats", "--input", "{dir}/pred.jsonl", "--out", "{dir}/stats.json"], PipelineConfig()),
    ],
    ids=["eval", "eval-one-file-both-sides", "validate", "stats"],
)
def test_manifest_names_the_command_config_and_inputs(tmp_path, rng, argv, config):
    records = make_corpus(rng, 2)
    (tmp_path / "gt.jsonl").write_bytes(
        b"".join(serialize_video_annotation(r) + b"\n" for r in records)
    )
    # the same records spelled another way, so that the two files' digests differ
    (tmp_path / "pred.jsonl").write_text(
        "".join(json.dumps(json.loads(serialize_video_annotation(r))) + "\n" for r in records),
        "utf-8",
    )
    (tmp_path / "config.json").write_text(json.dumps({"fps": 2.0}), "utf-8")
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert main(argv) == 0
    out = argv[argv.index("--out") + 1]
    manifest = json.loads(Path(f"{out}.manifest.json").read_text("utf-8"))
    assert manifest["command"] == argv[0]
    assert manifest["config_hash"] == config.config_hash()
    given = [argv[argv.index(flag) + 1] for flag in ("--pred", "--gt", "--input") if flag in argv]
    digests = {path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in given}
    assert manifest["inputs"] == digests
    assert len(set(digests.values())) == len(digests)


class TestSvoAndIngest:
    def test_ingest_normalizes_masks(self, tmp_path):
        record = {
            "video_id": "m1",
            "frame_index": 0,
            "width": 10,
            "height": 10,
            "caption": "a cup",
            "objects": [
                {"phrase": "a cup", "mask": [73, 1, 26]},
                {"phrase": "a lid", "mask": [100]},  # empty mask
                {"phrase": "a bowl", "box": [12, 3, 4, 4]},  # off frame, vanishes when clamped
                {"phrase": "a pan", "box": [8, 8, 5, 5]},  # clamped to the frame
            ],
        }
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps(record) + "\n", "utf-8")
        out = tmp_path / "normalized.jsonl"
        assert main(["ingest", "--input", str(path), "--out", str(out)]) == 0
        parsed = json.loads(out.read_text())
        assert parsed["objects"] == [
            {"phrase": "a cup", "box": [3.0, 7.0, 1.0, 1.0]},
            {"phrase": "a pan", "box": [8.0, 8.0, 2.0, 2.0]},
        ]
        manifest = json.loads((tmp_path / "normalized.jsonl.manifest.json").read_text())
        assert manifest["counts"] == {"dropped_objects": 2, "frames": 1, "videos": 1}

    def test_svo_output(self, tmp_path, stir_input):
        out = tmp_path / "svo.jsonl"
        assert main(["svo", "--input", str(stir_input), "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert {l["video_id"] for l in lines} == {"vid-stir", "vid-bev"}
        stir = next(l for l in lines if l["video_id"] == "vid-stir")
        first = stir["frames"][0]["relations"][0]
        assert first["subject"] == "image" and first["verb"] == "shows"

    def test_aggregate_then_track(self, tmp_path, stir_input):
        fixtures = {**stirring_fixtures(), **beverage_fixtures()}
        with MockLlmServer(fixtures) as server:
            config = write_config(tmp_path, server)
            svo_out = tmp_path / "svo.jsonl"
            assert main(["svo", "--input", str(stir_input), "--out", str(svo_out)]) == 0
            captions = tmp_path / "captions.jsonl"
            rejected = tmp_path / "agg-rejected.jsonl"
            assert (
                main(
                    [
                        "aggregate",
                        "--input",
                        str(svo_out),
                        "--out",
                        str(captions),
                        "--rejected",
                        str(rejected),
                        "--config",
                        str(config),
                    ]
                )
                == 0
            )
            track_out = tmp_path / "assignments.jsonl"
            assert (
                main(
                    [
                        "track",
                        "--input",
                        str(stir_input),
                        "--captions",
                        str(captions),
                        "--out",
                        str(track_out),
                        "--config",
                        str(config),
                    ]
                )
                == 0
            )
        caption_lines = [json.loads(l) for l in captions.read_text().splitlines()]
        assert len(caption_lines) == 2
        assignments = [json.loads(l) for l in track_out.read_text().splitlines()]
        stir = next(a for a in assignments if a["video_id"] == "vid-stir")
        assigned = {a["frame_phrase"]: a["assigned"] for a in stir["assignments"]}
        assert assigned["a person"] == "A person"
        assert assigned["a cup"] is None


def write_rejecting_videos(path):
    """:func:`write_warning_videos`' corpus and fixtures, but vid-3's aggregation
    answer has no caption, so ``aggregate`` and ``build`` reject that video."""
    fixtures, _owner = write_warning_videos(path)
    fixtures[next(iter(stirring_fixtures("vid-3", salted=True)))] = "{`WRONG': `thing'}"
    return fixtures


class TestStageWorkers:
    @pytest.fixture
    def warning_inputs(self, tmp_path):
        fixtures = write_rejecting_videos(tmp_path / "frames.jsonl")
        svo = ["svo", "--input", str(tmp_path / "frames.jsonl")]
        assert main([*svo, "--out", str(tmp_path / "svo.jsonl")]) == 0
        return fixtures

    def test_aggregate_and_track_give_the_same_bytes_at_any_worker_count(
        self, tmp_path, warning_inputs, monkeypatch, capsys, caplog
    ):
        original = HttpChatClient.complete
        callers: set[int] = set()
        lock = threading.Lock()
        # the first two threads to ask wait for each other, so a run that
        # sends every request from one thread fails here
        barrier = threading.Barrier(2, timeout=10)

        def complete(self, messages):
            with lock:
                first = threading.get_ident() not in callers and len(callers) < 2
                callers.add(threading.get_ident())
            if first and workers > 1:
                barrier.wait()
            return original(self, messages)

        monkeypatch.setattr(HttpChatClient, "complete", complete)
        capsys.readouterr()
        runs = {}
        with MockLlmServer(warning_inputs) as server:
            config = write_config(tmp_path, server, retries=1)
            for workers in (1, 3):
                caplog.clear()
                run_dir = tmp_path / f"workers-{workers}"
                run_dir.mkdir()
                monkeypatch.chdir(run_dir)
                client = ["--config", str(config), "--max-in-flight", str(workers)]
                aggregate = ["aggregate", "--input", "../svo.jsonl", "--out", "captions.jsonl"]
                track = ["track", "--input", "../frames.jsonl", "--captions", "captions.jsonl"]
                threads = []  # how many threads sent requests, per command
                for argv in (
                    [*aggregate, "--rejected", "rejected.jsonl"],
                    [*track, "--out", "assignments.jsonl"],
                ):
                    callers.clear()
                    assert main([*argv, *client]) == 0
                    threads.append(len(callers))
                out, err = capsys.readouterr()
                logged = "".join(
                    f"{r.levelname} {r.name}: {r.getMessage()}\n" for r in caplog.records
                )
                files = {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())}
                runs[workers] = (files, out, err + logged, threads)
        files, out, stderr, threads = runs[1]
        files3, out3, stderr3, threads3 = runs[3]
        # whole manifests: max_in_flight is left out of the config hash
        assert (files3, out3, stderr3) == (files, out, stderr)
        assert threads == [1, 1]
        assert min(threads3) > 1
        assert sorted(files) == [
            "assignments.jsonl",
            "assignments.jsonl.manifest.json",
            "captions.jsonl",
            "captions.jsonl.manifest.json",
            "rejected.jsonl",
        ]
        assert len(files["captions.jsonl"].splitlines()) == 5
        assert b"vid-3" in files["rejected.jsonl"]
        warnings = stderr.splitlines()
        assert len(warnings) == 5 * 3  # track warns three times for each captioned video
        assert [re.search(r"vid-\d", w) is not None for w in warnings].count(True) == 10


GOLDEN_STAGES = Path(__file__).parent / "golden" / "stage_commands"


@pytest.mark.parametrize("workers", [1, 3])
def test_per_video_commands_match_their_goldens(tmp_path, monkeypatch, capsys, caplog, workers):
    # Every file a per-video command writes, and its stdout, warnings and
    # manifest, bar the config hash: the endpoint in the config holds the mock's
    # port, which the warnings name as <endpoint>.  Relative paths keep the
    # manifests' file names the same in any directory.
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    fixtures = write_rejecting_videos(run_dir / "frames.jsonl")
    monkeypatch.chdir(run_dir)
    commands = {
        "ingest": ["--input", "frames.jsonl", "--out", "ingested.jsonl"],
        "svo": ["--input", "frames.jsonl", "--out", "svo.jsonl"],
        "aggregate": [
            "--input", "svo.jsonl", "--out", "captions.jsonl",
            "--rejected", "captions.rejected.jsonl",
        ],
        "track": [
            "--input", "frames.jsonl", "--captions", "captions.jsonl",
            "--out", "assignments.jsonl",
        ],
        "build": [
            "--input", "frames.jsonl", "--out", "dataset.jsonl",
            "--rejected", "dataset.rejected.jsonl",
        ],
    }
    runs = {}
    with MockLlmServer(fixtures) as server:
        config = write_config(tmp_path, server)
        client = ["--config", str(config), "--max-in-flight", str(workers)]
        for command, argv in commands.items():
            caplog.clear()
            extra = client if command in ("aggregate", "track", "build") else []
            assert main([command, *argv, *extra]) == 0
            out, err = capsys.readouterr()
            logged = [
                f"{r.levelname} {r.name}: {r.getMessage()}".replace(server.url, "<endpoint>")
                for r in caplog.records
            ]
            out_path = Path(argv[argv.index("--out") + 1])
            manifest = json.loads(Path(f"{out_path}.manifest.json").read_text("utf-8"))
            runs[command] = {
                "stdout": out,
                "stderr": err.splitlines() + logged,
                **{key: manifest[key] for key in ("counts", "inputs", "outputs")},
            }
    commands_json = json.dumps(runs, indent=2, sort_keys=True) + "\n"
    (run_dir / "commands.json").write_text(commands_json, "utf-8")
    pinned = {
        path.name: path.read_bytes()
        for path in sorted(run_dir.iterdir())
        if not path.name.endswith(".manifest.json")
    }
    golden = {path.name: path.read_bytes() for path in sorted(GOLDEN_STAGES.iterdir())}
    assert pinned == golden


def svo_record(frame_index=0, **relation) -> dict:
    """One ``svo`` output record whose one relation has ``relation``'s keys replaced."""
    relation = {"subject": "cook", "verb": "stirs", "object": None, "adpositions": [], **relation}
    return {"video_id": "v1", "frames": [{"frame_index": frame_index, "relations": [relation]}]}


class TestMalformedStageInput:
    @pytest.fixture
    def server(self):
        with MockLlmServer({}) as server:
            yield server

    def run_failing(self, argv, tmp_path, server, capsys) -> str:
        """The last line ``argv`` prints to stderr; it must fail before any request."""
        config = write_config(tmp_path, server)
        out = ["--out", str(tmp_path / "out.jsonl"), "--config", str(config)]
        assert main([*argv, *out]) == 1
        assert server.request_count == 0
        return capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize(
        "records, message",
        [
            ([{"video_id": "v1"}], "line 1: 'frames' is a required property"),
            ([{"frames": []}], "line 1: 'video_id' is a required property"),
            (
                [
                    {"video_id": "v0", "frames": []},
                    {"video_id": "v1", "frames": [{"frame_index": 0}]},
                ],
                "line 2: 'relations' is a required property",
            ),
            ([{"video_id": 5, "frames": []}], "line 1: 'video_id' must be a string, got 5"),
            ([svo_record(frame_index=1.5)], "line 1: frame_index must be an integer, got 1.5"),
            ([svo_record(frame_index=True)], "line 1: frame_index must be an integer, got True"),
            (
                [svo_record(subject=["a", "cook"])],
                "line 1: relation subject must be a string, got ['a', 'cook']",
            ),
            ([svo_record(verb=7)], "line 1: relation verb must be a string, got 7"),
            ([svo_record(object={})], "line 1: relation object must be a string, got {}"),
            (
                [svo_record(adpositions=["in"])],
                "line 1: adposition must be a pair of strings, got 'in'",
            ),
            (
                [svo_record(adpositions=[["in", "bowl", "x"]])],
                "line 1: adposition must be a pair of strings, got ['in', 'bowl', 'x']",
            ),
            (
                [svo_record(adpositions=[["in", 3]])],
                "line 1: adposition must be a pair of strings, got ['in', 3]",
            ),
            ([{"video_id": "v1", "frames": "abc"}], "line 1: frames must be an array, got 'abc'"),
            ([{"video_id": "v1", "frames": [7]}], "line 1: frame must be an object, got 7"),
            (
                [{"video_id": "v1", "frames": [{"frame_index": 0, "relations": 5}]}],
                "line 1: relations must be an array, got 5",
            ),
            (
                [{"video_id": "v1", "frames": [{"frame_index": 0, "relations": [["a", "b"]]}]}],
                "line 1: relation must be an object, got ['a', 'b']",
            ),
            (
                [{"video_id": "v1", "frames": [{"frame_index": 0, "relations": [{"verb": "x"}]}]}],
                "line 1: 'subject' is a required property",
            ),
            ([svo_record(colour="red")], "line 1: unexpected property 'colour'"),
            (
                [{"video_id": "", "frames": []}],
                "line 1: 'video_id' must be a non-empty string, got ''",
            ),
            ([svo_record(frame_index=-1)], "line 1: negative frame_index -1"),
            ([svo_record(subject="")], "line 1: relation subject and verb must be non-empty"),
            (
                [svo_record(adpositions=[["in", ""]])],
                "line 1: adposition pairs must have non-empty members",
            ),
        ],
    )
    def test_aggregate_names_the_line(self, tmp_path, server, capsys, records, message):
        svo = tmp_path / "svo.jsonl"
        svo.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        argv = ["aggregate", "--input", str(svo), "--rejected", str(tmp_path / "rejected.jsonl")]
        error = self.run_failing(argv, tmp_path, server, capsys)
        assert error == f"error: {message}"

    @pytest.mark.parametrize(
        "records, message",
        [
            ([svo_record(frame_index=1.5, verb=7)], "relation verb must be a string, got 7"),
            (
                [svo_record(subject="", adpositions=["in"])],
                "relation subject and verb must be non-empty",
            ),
            ([svo_record(subject=5, colour="red")], "unexpected property 'colour'"),
            ([{"frames": [7]}], "frame must be an object, got 7"),
            (
                [svo_record(frame_index=-1, adpositions=[["in", ""]])],
                "adposition pairs must have non-empty members",
            ),
            ([svo_record(subject="", object=5)], "relation object must be a string, got 5"),
            (
                [svo_record(adpositions=[["in", ""], ["on", 3]])],
                "adposition pairs must have non-empty members",
            ),
            ([svo_record(frame_index=-1, adpositions=5)], "'int' object is not iterable"),
        ],
    )
    def test_aggregate_reports_the_first_of_several_faults(
        self, tmp_path, server, capsys, records, message
    ):
        svo = tmp_path / "svo.jsonl"
        svo.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        argv = ["aggregate", "--input", str(svo), "--rejected", str(tmp_path / "rejected.jsonl")]
        error = self.run_failing(argv, tmp_path, server, capsys)
        assert error == f"error: line 1: {message}"

    @pytest.mark.parametrize("url, reason", BAD_URLS)
    def test_aggregate_names_a_bad_endpoint_url(self, tmp_path, server, capsys, url, reason):
        svo = tmp_path / "svo.jsonl"
        svo.write_text(json.dumps(svo_record()) + "\n", "utf-8")
        argv = ["aggregate", "--input", str(svo), "--rejected", str(tmp_path / "rejected.jsonl")]
        error = self.run_failing([*argv, "--endpoint", url], tmp_path, server, capsys)
        assert error == f"error: endpoint must be an http or https URL, got {url!r}: {reason}"

    @pytest.mark.parametrize("url, reason", BAD_URLS)
    def test_aggregate_names_a_bad_proxy_url(
        self, tmp_path, server, capsys, monkeypatch, url, reason
    ):
        for name in ("HTTP_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", url)
        svo = tmp_path / "svo.jsonl"
        svo.write_text(json.dumps(svo_record()) + "\n", "utf-8")
        argv = ["aggregate", "--input", str(svo), "--rejected", str(tmp_path / "rejected.jsonl")]
        error = self.run_failing(argv, tmp_path, server, capsys)
        assert error == f"error: http proxy must be a URL, got {url!r}: {reason}"

    def test_track_names_the_line(self, tmp_path, stir_input, server, capsys):
        captions = tmp_path / "captions.jsonl"
        argv = ["track", "--input", str(stir_input), "--captions", str(captions)]
        for record, message in [
            ({"video_id": "v1"}, "line 1: 'caption' is a required property"),
            ({"video_id": "x", "caption": 5}, "line 1: caption must be a string, got 5"),
            (
                {"video_id": "", "caption": "<p>A person</p> is stirring"},
                "line 1: 'video_id' must be a non-empty string, got ''",
            ),
        ]:
            captions.write_text(json.dumps(record) + "\n", "utf-8")
            assert self.run_failing(argv, tmp_path, server, capsys) == f"error: {message}"

    def test_aggregate_refuses_a_repeated_video(self, tmp_path, server, capsys):
        svo = tmp_path / "svo.jsonl"
        records = [{"video_id": v, "frames": []} for v in ("v0", "v1", "v0")]
        svo.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        argv = ["aggregate", "--input", str(svo), "--rejected", str(tmp_path / "rejected.jsonl")]
        error = self.run_failing(argv, tmp_path, server, capsys)
        assert error == "error: line 3: duplicate video_id 'v0'"
        assert not (tmp_path / "out.jsonl").exists()

    def test_track_refuses_a_repeated_video(self, tmp_path, stir_input, server, capsys):
        captions = tmp_path / "captions.jsonl"
        records = [
            {"video_id": "vid-stir", "caption": "<p>A person</p> is stirring"},
            {"video_id": "vid-bev", "caption": "<p>A woman</p> is drinking"},
            {"video_id": "vid-stir", "caption": "<p>A cook</p> is stirring"},
        ]
        captions.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        argv = ["track", "--input", str(stir_input), "--captions", str(captions)]
        error = self.run_failing(argv, tmp_path, server, capsys)
        assert error == "error: line 3: duplicate video_id 'vid-stir'"
        assert not (tmp_path / "out.jsonl").exists()

    def test_track_checks_every_video_before_any_request(
        self, tmp_path, stir_input, server, capsys
    ):
        captions = tmp_path / "captions.jsonl"
        records = [
            {"video_id": "vid-stir", "caption": "<p>A person</p> is stirring"},
            {"video_id": "vid-zzz", "caption": "<p>A person</p> is stirring"},
        ]
        captions.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        argv = ["track", "--input", str(stir_input), "--captions", str(captions)]
        error = self.run_failing(argv, tmp_path, server, capsys)
        assert error == "error: no frame groundings for video 'vid-zzz'"
        assert not (tmp_path / "out.jsonl").exists()

    def test_track_refuses_a_caption_without_phrases(self, tmp_path, stir_input, server, capsys):
        captions = tmp_path / "captions.jsonl"
        records = [
            {"video_id": "vid-bev", "caption": "<p>A woman</p> is drinking"},
            {"video_id": "vid-stir", "caption": "A person is stirring"},
        ]
        captions.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        argv = ["track", "--input", str(stir_input), "--captions", str(captions)]
        error = self.run_failing(argv, tmp_path, server, capsys)
        assert error == "error: line 2: caption tags no phrases"
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["captions.jsonl", "config.json", "frames.jsonl"]


@pytest.mark.parametrize("command", ["ingest", "stats", "aggregate"])
def test_a_fault_on_line_2_is_reported_before_a_bad_byte_on_line_4(tmp_path, rng, capsys, command):
    if command == "ingest":
        good = json.loads(frames_jsonl(stirring_frames()[:1]))
        bad, message = {**good, "frame_index": -1}, "$.frame_index: -1 is less than the minimum of 0"
    elif command == "stats":
        good = json.loads(serialize_video_annotation(make_annotation(rng, "v1")))
        bad, message = {**good, "fps": 0}, "$.fps: 0 is not greater than 0"
    else:
        good = svo_record()
        bad, message = {"video_id": "v2"}, "'frames' is a required property"
    path = tmp_path / "input.jsonl"
    path.write_bytes(f"{json.dumps(good)}\n{json.dumps(bad)}\n\n".encode() + b"\xff\n")
    argv = [command, "--input", str(path), "--out", str(tmp_path / "out")]
    if command == "aggregate":
        argv += ["--rejected", str(tmp_path / "rejected.jsonl")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: line 2: {message}"


def test_validate_reports_earlier_lines_before_a_bad_byte(tmp_path, rng, capsys):
    good = json.loads(serialize_video_annotation(make_annotation(rng, "v1")))
    path = tmp_path / "input.jsonl"
    path.write_bytes(f"{json.dumps({**good, 'fps': 0})}\n".encode() + b"\xff\n")
    assert main(["validate", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "v1: schema: $.fps: 0 is not greater than 0\n"
    assert err.splitlines()[-1] == "error: line 2: invalid UTF-8: invalid start byte"


class TestUsageErrors:
    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--nonsense"])
        assert excinfo.value.code == 2

    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "document, message",
        [
            ("[]", "config must be a JSON object, got list"),
            (
                '{"objectness_threshold": "0.5"}',
                "config key 'objectness_threshold' must be a number, got '0.5'",
            ),
            ('{"iou_threshold": 0.5}', "unknown config keys: ['iou_threshold']"),
            ('{"retries": -1}', "config key 'retries' must be >= 0, got -1"),
            ('{"iou_thresh": 2}', "config key 'iou_thresh' must be in [0, 1], got 2.0"),
            ('{"sim_thresh": NaN}', "config key 'sim_thresh' must be in [0, 1], got nan"),
            ('{"backoff": Infinity}', "config key 'backoff' must be finite, got inf"),
            ('{"max_in_flight": 0}', "config key 'max_in_flight' must be >= 1, got 0"),
            ('{"fps": 0}', "config key 'fps' must be > 0, got 0.0"),
            ('{"fps": -1}', "config key 'fps' must be > 0, got -1.0"),
            ('{"similarity": "lexical"}', UNKNOWN_SIMILARITY),
            (
                '{"embedding_endpoint": 5}',
                "config key 'embedding_endpoint' must be a string or null, got 5",
            ),
            ("{bad", f"config {{path}}: invalid JSON: {NOT_JSON}"),
            ("\udcff{}", f"config {{path}}: invalid JSON: {NOT_UTF8}"),
        ],
    )
    def test_malformed_config_exits_1(self, tmp_path, rng, capsys, document, message):
        data = tmp_path / "data.jsonl"
        data.write_bytes(serialize_video_annotation(make_corpus(rng, 1)[0]) + b"\n")
        config = tmp_path / "config.json"
        config.write_text(document, "utf-8", errors="surrogateescape")  # "\udcff" is byte 0xff
        code = main(
            ["eval", "--pred", str(data), "--gt", str(data), "--out", str(tmp_path / "r.json"),
             "--config", str(config)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.replace('{path}', str(config))}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["build", "--input", "{dir}/frames.jsonl", "--out", "{dir}/d.jsonl",
                 "--rejected", "{dir}/d.jsonl"],
                "--out and --rejected are one file: {dir}/d.jsonl",
            ),
            (
                ["aggregate", "--input", "{dir}/svo.jsonl", "--out", "{dir}/c.jsonl",
                 "--rejected", "{dir}/./c.jsonl"],
                "--out and --rejected are one file: {dir}/./c.jsonl",
            ),
            (
                ["stats", "--input", "{dir}/data.jsonl", "--out", "{dir}/s.json",
                 "--manifest", "{dir}/s.json"],
                "--out and the manifest are one file: {dir}/s.json",
            ),
            (
                ["eval", "--pred", "{dir}/data.jsonl", "--gt", "{dir}/data.jsonl",
                 "--out", "{dir}/r.json", "--manifest", "{dir}/./r.json"],
                "--out and the manifest are one file: {dir}/./r.json",
            ),
        ],
        ids=["build", "aggregate", "stats", "eval"],
    )
    def test_two_outputs_on_one_file_exit_1_before_reading_input(
        self, tmp_path, capsys, argv, message
    ):
        # the inputs are missing, so reading any would fail with another error
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {message.format(dir=tmp_path)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_file_exit_1(self, tmp_path):
        out = tmp_path / "x.jsonl"
        assert main(["svo", "--input", str(tmp_path / "nope.jsonl"), "--out", str(out)]) == 1

    def test_directory_as_input_exits_1(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["stats", "--input", str(tmp_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_similarity_refused_by_a_command_that_does_not_use_it(
        self, tmp_path, stir_input, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"similarity": "lexical"}), "utf-8")
        out = tmp_path / "ingested.jsonl"
        code = main(
            ["ingest", "--input", str(stir_input), "--out", str(out), "--config", str(config)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {UNKNOWN_SIMILARITY}\n"
        assert not out.exists()

    def test_eval_unknown_similarity_exits_1_before_reading_input(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"similarity": "lexical"}), "utf-8")
        missing = str(tmp_path / "missing.jsonl")  # reading it would fail with another error
        out = tmp_path / "report.json"
        code = main(
            ["eval", "--pred", missing, "--gt", missing, "--out", str(out), "--config", str(config)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {UNKNOWN_SIMILARITY}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_negative_retries_flag_exits_1_before_any_request(
        self, tmp_path, stir_input, capsys, monkeypatch
    ):
        posts = []
        monkeypatch.setattr(llm.JsonEndpoint, "post", lambda self, body: posts.append(body))
        out = tmp_path / "dataset.jsonl"
        code = main(
            ["build", "--input", str(stir_input), "--out", str(out),
             "--rejected", str(tmp_path / "rejected.jsonl"),
             "--endpoint", "http://127.0.0.1:9/v1/chat/completions", "--retries", "-1"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: config key 'retries' must be >= 0, got -1\n"
        assert posts == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--iou-thresh", "2"], "config key 'iou_thresh' must be in [0, 1], got 2.0"),
            (["--iou-thresh", "nan"], "config key 'iou_thresh' must be in [0, 1], got nan"),
            (["--sim-thresh", "-1"], "config key 'sim_thresh' must be in [0, 1], got -1.0"),
            (
                ["--objectness-threshold", "1.5"],
                "config key 'objectness_threshold' must be in [0, 1], got 1.5",
            ),
        ],
    )
    def test_eval_threshold_flag_exits_1_before_reading_input(
        self, tmp_path, capsys, flags, message
    ):
        missing = str(tmp_path / "missing.jsonl")  # reading it would fail with another error
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", missing, "--gt", missing, "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-in-flight", "-3"], "config key 'max_in_flight' must be >= 1, got -3"),
            (["--max-in-flight", "0"], "config key 'max_in_flight' must be >= 1, got 0"),
            (["--fps", "inf"], "config key 'fps' must be finite, got inf"),
            (["--temperature", "nan"], "config key 'temperature' must be finite, got nan"),
            (["--fps", "0"], "config key 'fps' must be > 0, got 0.0"),
            (["--fps", "-1"], "config key 'fps' must be > 0, got -1.0"),
        ],
    )
    def test_build_config_flag_exits_1_before_any_request(
        self, tmp_path, stir_input, capsys, monkeypatch, flags, message
    ):
        posts = []
        monkeypatch.setattr(llm.JsonEndpoint, "post", lambda self, body: posts.append(body))
        out = tmp_path / "dataset.jsonl"
        code = main(
            ["build", "--input", str(stir_input), "--out", str(out),
             "--rejected", str(tmp_path / "rejected.jsonl"),
             "--endpoint", "http://127.0.0.1:9/v1/chat/completions", *flags]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert posts == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.jsonl"]

    def test_build_without_endpoint_fails_like_aggregate(
        self, tmp_path, stir_input, capsys, monkeypatch
    ):
        posts = []
        monkeypatch.setattr(llm.JsonEndpoint, "post", lambda self, body: posts.append(body))
        svo = tmp_path / "svo.jsonl"
        assert main(["svo", "--input", str(stir_input), "--out", str(svo)]) == 0
        capsys.readouterr()
        runs = {
            "aggregate": ["--input", str(svo), "--out", str(tmp_path / "captions.jsonl")],
            "build": ["--input", str(stir_input), "--out", str(tmp_path / "dataset.jsonl")],
        }
        errors = {}
        for command, args in runs.items():
            rejected = str(tmp_path / f"{command}-rejected.jsonl")
            assert main([command, *args, "--rejected", rejected]) == 1
            errors[command] = capsys.readouterr().err.splitlines()[-1]
        assert errors["build"] == errors["aggregate"]
        assert errors["build"] == "error: no endpoint configured (use --endpoint or a config file)"
        assert posts == []
        assert not (tmp_path / "dataset.jsonl").exists()


def test_mock_llm_subcommand_serves_fixtures(tmp_path):
    fixtures_path = tmp_path / "fixtures.json"
    fixtures_path.write_text(
        json.dumps({"responses": {}, "default": "{`CATEGORY': `None'}"}), "utf-8"
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "groundcap.cli",
            "mock-llm",
            "--fixtures",
            str(fixtures_path),
            "--port",
            "18457",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.time() + 10
        url = "http://127.0.0.1:18457/v1/chat/completions"
        request = urllib.request.Request(
            url,
            data=json.dumps({"messages": [{"role": "user", "content": "hello"}]}).encode(),
            headers={"Content-Type": "application/json"},
        )
        answer = None
        while time.time() < deadline:
            try:
                with urllib.request.urlopen(request, timeout=1) as response:
                    assert response.status == 200
                    answer = json.loads(response.read())
                break
            except urllib.error.URLError:
                time.sleep(0.1)
        assert answer is not None, "mock server never came up"
        assert answer["choices"][0]["message"]["content"] == "{`CATEGORY': `None'}"
    finally:
        proc.terminate()
        proc.wait(timeout=5)
        proc.stdout.close()


@pytest.mark.parametrize(
    "document, message",
    [
        ("[]", "fixtures must be a JSON object, got list"),
        ('{"responses": []}', "fixtures 'responses' must map strings to strings"),
        ('{"responses": {"abc": 7}}', "fixtures 'responses' must map strings to strings"),
        ('{"default": 7}', "fixtures 'default' must be a string, got 7"),
        ('{"default": null}', "fixtures 'default' must be a string, got None"),
        ("{bad", f"fixtures {{path}}: invalid JSON: {NOT_JSON}"),
        ("\udcff{}", f"fixtures {{path}}: invalid JSON: {NOT_UTF8}"),
    ],
)
def test_mock_llm_refuses_malformed_fixtures(tmp_path, capsys, document, message):
    fixtures_path = tmp_path / "fixtures.json"
    fixtures_path.write_text(document, "utf-8", errors="surrogateescape")  # "\udcff" is byte 0xff
    message = message.replace("{path}", str(fixtures_path))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_fixtures(fixtures_path)
    # refused before it serves anything, so the command returns
    assert main(["mock-llm", "--fixtures", str(fixtures_path), "--port", "0"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("port", [-1, 65536, 99999])
def test_mock_llm_refuses_a_port_outside_the_range(tmp_path, capsys, port):
    fixtures_path = tmp_path / "fixtures.json"
    fixtures_path.write_text("{}", "utf-8")
    # refused before a socket is bound, so no server starts and the command returns
    assert main(["mock-llm", "--fixtures", str(fixtures_path), "--port", str(port)]) == 1
    assert capsys.readouterr().err == f"error: port {port} outside 0..65535\n"


def test_canonical_json_float_format():
    assert canonical_json({"x": 0.5, "n": 3, "s": "é"}) == '{"n": 3, "s": "é", "x": 0.500000}'
    assert canonical_json({"10": 1, "2": 2}) == '{"2": 2, "10": 1}'


# what a string escape can get wrong: quotes, backslashes, control characters, the two
# line separators JavaScript refuses, characters past the BMP and lone surrogates
ESCAPED_CHARACTERS = st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x7f\u2028\u2029'),
    st.integers(0, 0x1F).map(chr),
    st.integers(0x10000, 0x10FFFF).map(chr),
    st.integers(0xD800, 0xDFFF).map(chr),
)


@pytest.mark.parametrize(
    "value, error, message",
    [
        ({1: 0}, TypeError, "object keys must be strings, got int"),
        ([{0.5}], TypeError, "cannot serialize set"),
        ({"x": float("nan")}, ValueError, "non-finite float nan cannot be serialized"),
    ],
)
def test_canonical_json_refuses_what_json_cannot_hold(value, error, message):
    with pytest.raises(error) as excinfo:
        canonical_json(value)
    assert str(excinfo.value) == message


@given(st.text(ESCAPED_CHARACTERS))
def test_canonical_json_writes_strings_as_json_dumps_does(text):
    quoted = json.dumps(text, ensure_ascii=False)
    assert canonical_json(text) == quoted
    assert canonical_json({text: [text]}) == "{" + quoted + ": [" + quoted + "]}"


@pytest.mark.parametrize(
    "keys, order",
    [
        (["2", "10", "1", "01"], ["01", "1", "2", "10"]),  # equal numbers tie-break by string
        (["²"], ["²"]),  # str.isdigit() accepts it, int() refuses it
        (["²", "10", "9"], ["10", "9", "²"]),  # a non-ASCII digit key sorts them all as strings
        (["١", "1"], ["1", "١"]),  # Arabic-Indic one, which int() reads as 1
    ],
)
def test_canonical_json_key_order_does_not_depend_on_insertion(keys, order):
    expected = "{" + ", ".join(f'"{key}": 0' for key in order) + "}"
    assert canonical_json(dict.fromkeys(keys, 0)) == expected
    assert canonical_json(dict.fromkeys(reversed(keys), 0)) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--pred", "{dir}/data.jsonl", "--gt", "{dir}/data.jsonl", "--out", "{dir}/r.json"],
        ["ingest", "--input", "{dir}/frames.jsonl", "--out", "{dir}/ingested.jsonl"],
        ["svo", "--input", "{dir}/frames.jsonl", "--out", "{dir}/svo.jsonl"],
        ["validate", "--input", "{dir}/data.jsonl"],
        ["stats", "--input", "{dir}/data.jsonl", "--out", "{dir}/stats.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_runs_without_jsonschema(tmp_path, rng, argv):
    # jsonschema and numpy are test dependencies only: the CLI checks inputs
    # and sums the metrics itself.  The HTTP stack is loaded only by the
    # commands that talk to a model or an embedding endpoint.
    unused = (
        "{'jsonschema', 'numpy', 'requests', 'urllib3', 'http.server', 'http.client', 'ssl',"
        " 'urllib.request'}"
    )
    code = f"import sys, groundcap.cli; print(sorted({unused} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "[]"

    annotation = serialize_video_annotation(make_corpus(rng, 1)[0])
    (tmp_path / "data.jsonl").write_bytes(annotation + b"\n")
    (tmp_path / "frames.jsonl").write_text(frames_jsonl(stirring_frames()), "utf-8")
    argv = [arg.format(dir=tmp_path) for arg in argv]
    code = (
        f"import sys; from groundcap import cli; status = cli.main({argv!r}); "
        f"print(status, sorted({unused} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.splitlines()[-1] == "0 []"
