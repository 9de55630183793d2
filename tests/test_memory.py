"""Memory growth per video stays bounded: a tier-1 property, not only a benchmark figure.

Each command runs as a child process on a small and a large corpus, and the
child reports its own peak resident set (``VmHWM`` from ``/proc/self/status``)
as it exits.  A child's ``VmHWM`` starts afresh at ``exec``, so the parent's
size does not show in it.  The growth from the small corpus to the large one,
per 1000 videos, must stay under the command's bound.

The bounds are the growth measured when they were set (``make_corpus`` data
at 250 and 1000 videos, Python 3.11, Linux), plus the larger of 1.5 MiB and
25%: validate 1.0 -> 2.5, stats 0.9 -> 2.5 (since ``stats`` reads its
records as they are built; it was 4.9 -> 6.5), eval 13.9 -> 17.5 MiB per
1000 videos.  Keeping every decoded line a second time grows validate and
eval to 5.1 and 22.6, and holding every stats record, as ``stats`` once did,
grows it to 4.0, past every bound.  A change that streams a command lowers
its bound.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import groundcap
from groundcap import serialize_video_annotation
from conftest import make_annotation, make_corpus

SRC = str(Path(groundcap.__file__).resolve().parents[1])
SIZES = (250, 1000)
BOUNDS = {"validate": 2.5, "stats": 2.5, "eval": 17.5}  # MiB per 1000 videos
# runs the command line it is given, then prints its own peak RSS line, if it has one
CHILD = """\
import sys
from groundcap.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(*(line for line in status if line.startswith("VmHWM:")), end="")
sys.exit(code)
"""


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> Path:
    """``gt<N>.jsonl`` and ``pred<N>.jsonl`` (the same ids, with scores) for each size."""
    directory = tmp_path_factory.mktemp("corpora")
    rng = random.Random(7)
    for size in SIZES:
        gts = make_corpus(rng, size)
        preds = [make_annotation(rng, gt.video_id, with_confidence=True) for gt in gts]
        for name, records in (("gt", gts), ("pred", preds)):
            data = b"".join(serialize_video_annotation(r) + b"\n" for r in records)
            (directory / f"{name}{size}.jsonl").write_bytes(data)
    return directory


def peak_mib(argv: list[str]) -> float:
    """The peak RSS in MiB of a child process that runs ``groundcap argv``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    if not lines or not lines[-1].startswith("VmHWM:"):
        pytest.skip("/proc/self/status has no VmHWM line here")
    _label, kib, _unit = lines[-1].split()
    return int(kib) / 1024


@pytest.mark.parametrize("command", sorted(BOUNDS))
def test_growth_per_1000_videos_stays_under_the_bound(corpora, tmp_path, command):
    peaks = []
    for size in SIZES:
        gt, pred, out = corpora / f"gt{size}.jsonl", corpora / f"pred{size}.jsonl", tmp_path / "out"
        argv = {
            "validate": ["validate", "--input", str(gt)],
            "stats": ["stats", "--input", str(gt), "--out", str(out)],
            "eval": ["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out)],
        }[command]
        peaks.append(peak_mib(argv))
    growth = (peaks[1] - peaks[0]) / (SIZES[1] - SIZES[0]) * 1000
    assert growth <= BOUNDS[command], f"{growth:.1f} MiB; peaks {peaks} MiB at {SIZES} videos"
