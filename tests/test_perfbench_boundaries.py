"""The benchmark tracer still hooks the package where it runs.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` of its
``BOUNDARIES`` list with a timed wrapper, and some wrappers read the
arguments of the call they time; a rename, a moved call or a changed
argument would only show as a failed traced benchmark run.  So every
attribute is resolved here, and a small ``eval`` and ``build`` run under
the tracer, which fails a run on which a boundary never fired.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from groundcap import MockLlmServer, serialize_video_annotation
from conftest import (
    beverage_fixtures,
    beverage_frames,
    make_annotation,
    make_corpus,
    stirring_fixtures,
    stirring_frames,
)
from test_cli import frames_jsonl

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
needs_perfbench = pytest.mark.skipif(
    not TRACING.is_file(), reason="perfbench/ is not in this checkout"
)


def _perfbench(name: str):
    """The module ``perfbench/<name>.py``, loaded from its file."""
    path = TRACING.with_name(f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _perfbench("tracing")


def _boundaries() -> list[tuple[str, str]]:
    if not TRACING.is_file():
        return []
    return [(module, attribute) for _layer, module, attribute, _kinds in _tracing().BOUNDARIES]


@needs_perfbench
@pytest.mark.parametrize("module, attribute", _boundaries())
def test_traced_boundary_resolves(module, attribute):
    owner = importlib.import_module(module)
    for name in attribute.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def _traced_events(tmp_path, kind: str, argv: list[str]) -> list[list]:
    """Run the CLI under the tracer, which must exit 0; the events it recorded."""
    spans = tmp_path / "spans.json"
    assert _tracing().run(str(spans), kind, argv) == 0
    return json.loads(spans.read_text("utf-8"))["events"]


@needs_perfbench
def test_traced_eval_fires_every_boundary(tmp_path, rng):
    gts = make_corpus(rng, 3)
    preds = [make_annotation(rng, gt.video_id, with_confidence=True) for gt in gts]
    paths = {}
    for name, records in (("pred", preds), ("gt", gts)):
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_bytes(b"".join(serialize_video_annotation(r) + b"\n" for r in records))
    events = _traced_events(
        tmp_path,
        "eval",
        ["eval", "--pred", str(paths["pred"]), "--gt", str(paths["gt"]),
         "--out", str(tmp_path / "report.json")],
    )
    assert [e[2:] for e in events if e[0] == "records"] == [[3], [3]]
    gt_boxes = sum(len(track.boxes) for gt in gts for track in gt.tracks)
    [(_kind, _video, frames, pred_boxes, seen_gt_boxes)] = [e for e in events if e[0] == "eval"]
    assert frames > 0 and pred_boxes > 0 and seen_gt_boxes == gt_boxes


@needs_perfbench
def test_traced_build_fires_every_boundary(tmp_path):
    frames = tmp_path / "frames.jsonl"
    frames.write_text(frames_jsonl(stirring_frames() + beverage_frames()), "utf-8")
    with MockLlmServer({**stirring_fixtures(), **beverage_fixtures()}) as server:
        events = _traced_events(
            tmp_path,
            "build",
            ["build", "--input", str(frames), "--out", str(tmp_path / "dataset.jsonl"),
             "--rejected", str(tmp_path / "rejected.jsonl"),
             "--endpoint", server.url, "--model", "mock"],
        )
    videos = sorted((e[1], e[2]) for e in events if e[0] == "video")
    assert videos == [("vid-bev", False), ("vid-stir", False)]  # (video, rejected)


@needs_perfbench
def test_eval_scores_the_benchmark_workload_as_its_reference_does(tmp_path):
    """``eval`` on the eval-noisy workload, seed 1, against the benchmark's own scorer,
    so a broken score fails here rather than in a benchmark run."""
    from groundcap.cli import main

    _perfbench("generate").generate("eval-noisy", 1, tmp_path)
    pred, gt, out = (tmp_path / name for name in ("pred.jsonl", "gt.jsonl", "report.json"))
    assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out)]) == 0
    reference = _perfbench("reference")
    report = json.loads(out.read_text("utf-8"))
    expected = reference.reference_report(pred.read_bytes(), gt.read_bytes())
    assert reference.mismatches(report, expected) == ([], [])
    assert len(report["per_video"]) == 250
