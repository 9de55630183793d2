"""``tools/line_coverage.py`` lists the groundcap lines a pytest run never executed."""

import os
import subprocess
import sys
from pathlib import Path

import groundcap

ROOT = Path(__file__).resolve().parents[1]
SOURCE = Path(groundcap.__file__).parent
# runs boxes code in the main thread and in a thread of its own
SMALL_TEST = """\
import threading
from groundcap.boxes import BoundingBox, normalize_box

def test_area_here_and_normalize_in_a_thread():
    box = BoundingBox(0.0, 0.0, 2.0, 3.0)
    assert box.area == 6.0
    thread = threading.Thread(target=normalize_box, args=(box, 10, 10))
    thread.start()
    thread.join()
"""


def run(directory: Path, test_file: str):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_coverage.py"), "-q", "-p", "no:cacheprovider",
         test_file],
        cwd=directory,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def never_ran(stdout: str) -> dict[str, set[int]]:
    """Module name -> the lines the report lists as never run."""
    listed = {}
    for line in stdout.splitlines():
        name, sep, rest = line.partition(".py: ")
        if not sep:
            continue
        lines = set()
        for span in filter(None, rest.partition("never ran")[2].lstrip(": ").split(", ")):
            first, _, last = span.partition("-")
            lines.update(range(int(first), int(last or first) + 1))
        listed[f"{name}.py"] = lines
    return listed


def line_of(text: str) -> int:
    lines = (SOURCE / "boxes.py").read_text("utf-8").splitlines()
    return next(number for number, line in enumerate(lines, 1) if line.strip() == text)


def test_lists_the_lines_never_run_and_exits_with_the_code_of_pytest(tmp_path):
    (tmp_path / "test_small.py").write_text(SMALL_TEST, "utf-8")
    result = run(tmp_path, "test_small.py")
    assert result.returncode == 0, result.stdout + result.stderr
    listed = never_ran(result.stdout)
    assert sorted(listed) == [path.name for path in sorted(SOURCE.glob("*.py"))]
    assert result.stdout.splitlines()[-1].startswith("total: ")
    boxes = listed["boxes.py"]
    assert line_of("return self.w * self.h") not in boxes  # ran in the main thread
    assert line_of("return BoundingBox(b.x / width, b.y / height, b.w / width, b.h / height, "
                   "normalized=True)") not in boxes  # ran in the other thread
    assert line_of('raise ValueError("box is already normalized")') in boxes
    assert line_of('raise ValueError("box is already in pixel coordinates")') in boxes

    (tmp_path / "test_small.py").write_text("def test_fails():\n    assert False\n", "utf-8")
    assert run(tmp_path, "test_small.py").returncode == 1
