"""The layer boundaries the benchmark tracer wraps still exist in the package.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` of its
``BOUNDARIES`` list with a timed wrapper; a rename in ``groundcap`` would
only show as a failed traced benchmark run, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries() -> list[tuple[str, str]]:
    if not TRACING.is_file():
        return []
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attribute) for _layer, module, attribute, _kinds in tracing.BOUNDARIES]


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is not in this checkout")
@pytest.mark.parametrize("module, attribute", _boundaries())
def test_traced_boundary_resolves(module, attribute):
    owner = importlib.import_module(module)
    for name in attribute.split("."):
        owner = getattr(owner, name)
    assert callable(owner)
