"""The benchmark tracer's targets name functions that exist in trifree.

``perfbench/spans.py`` patches each ``module.attr`` in ``TARGETS`` by name,
so a rename in ``src/`` would otherwise only surface when a traced benchmark
run fails.  The file is loaded by path; nothing else under ``perfbench/`` is
imported.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    for target in targets:
        module_name, attr = target.split(".")
        module = importlib.import_module(f"trifree.{module_name}")
        assert hasattr(module, attr), f"{target} names no attribute of trifree.{module_name}"
