"""Every binding the benchmark's tracer replaces exists.

`perfbench/spans.py` wraps each `LAYERS` entry with
`getattr(module, attr)`, so a library module that stops importing a
traced name would make `--trace 1` fail with AttributeError. This test
only reads `perfbench`."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for layer, module, attr, _ in spans.LAYERS:
        binding = getattr(importlib.import_module(module), attr, None)
        assert callable(binding), (layer, module, attr)
