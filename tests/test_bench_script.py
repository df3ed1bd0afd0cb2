"""The benchmark script's sweep and Z-enumeration rows still run.

`benchmarks/bench_depth.py` times `depth_sweep` by wrapping functions
as `wreathconj.depth` binds them, looked up by name, and calls
`enumerate_split_subgroups_z` the same way, so renaming one of them
would break the script without failing any library test. This test
loads the script and measures one small sweep and one small
enumeration."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_depth.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench_depth", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_measure_sweep_runs():
    row = _bench().measure_sweep(2, 3, 16, 1)
    assert row["max_depths"] == [3, 3, 4]
    assert row["classes"] > 1
    assert row["subgroups_read"] > 0
    assert row["class_keys"] > 0


def test_measure_enum_z_runs():
    row = _bench().measure_enum_z(8, 1)
    assert row["section"] == "enum_z"
    assert row["subgroups"] == 23
