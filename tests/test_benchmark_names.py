"""Every function the benchmark's per-layer metrics name must still exist.

The benchmark tracer looks each `<module>.<function>` of a per-layer metric
up by name, so a renamed or deleted function crashes traced runs.
"""

import importlib
import inspect
import json
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_per_layer_metrics_name_existing_functions():
    metrics = json.loads(SPEC.read_text())["per_layer"]
    assert len(metrics) > 100
    for metric in metrics:
        layer, _, rest = metric["name"].partition(".")
        module = importlib.import_module(f"quandlekit.{layer}")
        if rest in ("self_s", "self_share"):  # whole-module metrics
            continue
        function = rest.rpartition(".")[0]
        owner, _, attr = function.rpartition(".")
        scope = getattr(module, owner) if owner else module
        obj = inspect.getattr_static(scope, attr, None)
        assert inspect.isfunction(obj), metric["name"]
        assert obj.__module__ == module.__name__, metric["name"]
