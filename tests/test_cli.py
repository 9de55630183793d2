import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import groundcap.llm as llm
from groundcap import read_annotations, serialize_video_annotation
from groundcap.cli import main
from groundcap.jsonio import canonical_json
from groundcap.mockllm import load_fixtures
from conftest import (
    beverage_fixtures,
    beverage_frames,
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


UNKNOWN_SIMILARITY = (
    "config key 'similarity' must be one of ['lexical', 'embedding'], got 'nonsense'"
)


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
            assert error.startswith("error: [Errno 2] No such file or directory")
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
             "--similarity", "embedding", "--embedding-endpoint", endpoint]
        )
        assert code == 1
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("error: embedding of 'one ") and f"from {endpoint} failed" in error


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

    def test_bad_config_is_an_error_without_out(self, tmp_path, rng, capsys):
        path = tmp_path / "data.jsonl"
        path.write_bytes(serialize_video_annotation(make_corpus(rng, 1)[0]) + b"\n")
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"retries": -1}), "utf-8")
        assert main(["validate", "--input", str(path), "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: config key 'retries' must be >= 0, got -1\n"
        assert captured.out == ""

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


class TestStageWorkers:
    @pytest.fixture
    def warning_inputs(self, tmp_path):
        fixtures, _owner = write_warning_videos(tmp_path / "frames.jsonl")
        # vid-3's aggregation answer has no caption, so aggregate rejects it
        fixtures[next(iter(stirring_fixtures("vid-3", salted=True)))] = "{`WRONG': `thing'}"
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
        ],
    )
    def test_aggregate_names_the_line(self, tmp_path, server, capsys, records, message):
        svo = tmp_path / "svo.jsonl"
        svo.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        argv = ["aggregate", "--input", str(svo), "--rejected", str(tmp_path / "rejected.jsonl")]
        error = self.run_failing(argv, tmp_path, server, capsys)
        assert error == f"error: {message}"

    def test_track_names_the_line(self, tmp_path, stir_input, server, capsys):
        captions = tmp_path / "captions.jsonl"
        captions.write_text(json.dumps({"video_id": "v1"}) + "\n", "utf-8")
        argv = ["track", "--input", str(stir_input), "--captions", str(captions)]
        error = self.run_failing(argv, tmp_path, server, capsys)
        assert error == "error: line 1: 'caption' is a required property"

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

    def test_track_checks_every_video_before_any_request(self, tmp_path, stir_input, server):
        captions = tmp_path / "captions.jsonl"
        records = [
            {"video_id": "vid-stir", "caption": "<p>A person</p> is stirring"},
            {"video_id": "vid-zzz", "caption": "<p>A person</p> is stirring"},
        ]
        captions.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        config = write_config(tmp_path, server)
        argv = ["track", "--input", str(stir_input), "--captions", str(captions)]
        with pytest.raises(SystemExit, match="no frame groundings for video 'vid-zzz'"):
            main([*argv, "--out", str(tmp_path / "a.jsonl"), "--config", str(config)])
        assert server.request_count == 0


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
            ('{"similarity": "nonsense"}', UNKNOWN_SIMILARITY),
        ],
    )
    def test_malformed_config_exits_1(self, tmp_path, rng, capsys, document, message):
        data = tmp_path / "data.jsonl"
        data.write_bytes(serialize_video_annotation(make_corpus(rng, 1)[0]) + b"\n")
        config = tmp_path / "config.json"
        config.write_text(document, "utf-8")
        code = main(
            ["eval", "--pred", str(data), "--gt", str(data), "--out", str(tmp_path / "r.json"),
             "--config", str(config)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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
        config.write_text(json.dumps({"similarity": "nonsense"}), "utf-8")
        out = tmp_path / "ingested.jsonl"
        code = main(
            ["ingest", "--input", str(stir_input), "--out", str(out), "--config", str(config)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {UNKNOWN_SIMILARITY}\n"
        assert not out.exists()

    def test_eval_unknown_similarity_exits_1_before_reading_input(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"similarity": "nonsense"}), "utf-8")
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
    ],
)
def test_mock_llm_refuses_malformed_fixtures(tmp_path, capsys, document, message):
    fixtures_path = tmp_path / "fixtures.json"
    fixtures_path.write_text(document, "utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_fixtures(fixtures_path)
    # refused before it serves anything, so the command returns
    assert main(["mock-llm", "--fixtures", str(fixtures_path), "--port", "0"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_canonical_json_float_format():
    assert canonical_json({"x": 0.5, "n": 3, "s": "é"}) == '{"n": 3, "s": "é", "x": 0.500000}'
    assert canonical_json({"10": 1, "2": 2}) == '{"2": 2, "10": 1}'


def test_cli_runs_without_jsonschema(tmp_path, rng):
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

    data = tmp_path / "data.jsonl"
    data.write_bytes(serialize_video_annotation(make_corpus(rng, 1)[0]) + b"\n")
    argv = ["eval", "--pred", str(data), "--gt", str(data), "--out", str(tmp_path / "r.json")]
    code = (
        f"import sys; from groundcap import cli; status = cli.main({argv!r}); "
        f"print(status, sorted({unused} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.splitlines()[-1] == "0 []"
