"""The benchmark script's sweep rows still run.

`benchmarks/bench_depth.py` times `depth_sweep` by wrapping functions
as `wreathconj.depth` binds them, looked up by name, so renaming one of
them would break the script without failing any library test. This
test loads the script and measures one small sweep."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_depth.py"


def test_measure_sweep_runs():
    spec = importlib.util.spec_from_file_location("bench_depth", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    row = bench.measure_sweep(2, 3, 16, 1)
    assert row["max_depths"] == [3, 3, 4]
    assert row["classes"] > 1
    assert row["subgroups_read"] > 0
    assert row["class_keys"] > 0
