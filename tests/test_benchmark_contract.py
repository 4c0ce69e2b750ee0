"""Every per-layer metric of BENCHMARK.json must find the function it measures.

The tracer leaves out a metric whose function it cannot find, so a renamed
or deleted function would silently drop a value from the benchmark's
report.  This test names that fault instead.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_finds_its_function():
    import similitude.cli  # noqa: F401  (loads every module the tracer wraps)

    tracer = _load_tracer()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [metric["name"] for metric in spec["per_layer"]]
    t = tracer.Tracer()
    t.install()
    try:
        agg = {"absent": t.absent, "calls": {}, "self_s": {}, "counters": {}}
        values, missing = tracer.layer_metrics(agg, wanted)
    finally:
        t.uninstall()
    assert missing == []
    assert set(values) == {name for name in wanted if not name.startswith("trace.")}
