"""The benchmark script's sweep, Z- and F_p-enumeration, Z- and F_p-depth,
witness-parse and witness rows still run.

`benchmarks/bench_depth.py` times `depth_sweep` by wrapping functions
as `wreathconj.depth` binds them, looked up by name, calls both
enumerators the same way, reads the `z_depth`, `fp_depth` and `witness` pools
of the benchmark, and counts the witness path's calls by wrapping
functions as `wreathconj.wreath` and `wreathconj.witness` bind them, so
renaming one of them would break the script without failing any library
test. This test loads the script and measures one small sweep, one
small enumeration of each kind, the Z and F_p depth rows, the parse of
the `witness` pool's element documents and one witness group."""

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
    assert row["classes"] == 12
    assert row["subgroups_read"] > 0
    assert row["class_keys"] > 0
    assert isinstance(row["rows_seconds"], float) and row["rows_seconds"] >= 0


def test_measure_enum_z_runs():
    row = _bench().measure_enum_z(8, 1)
    assert row["section"] == "enum_z"
    assert row["subgroups"] == 23


def test_measure_enum_fp_runs():
    row = _bench().measure_enum_fp(2, 8, 1)
    assert (row["section"], row["p"]) == ("enum_fp", 2)
    assert row["subgroups"] == 13


def test_measure_depth_z_runs():
    bench = _bench()
    row = bench.measure_depth_pool("z_depth", 1)
    assert (row["section"], row["ops"], row["budget"]) == ("depth_z", "s8", 18)
    assert row["queries"] == 340
    for budget, want in ((18, "exceeds budget"), (24, 21)):
        row = bench.measure_depth_pair(0, bench.DEEP_PAIR, budget, 1)
        assert (row["section"], row["split_depth"]) == ("depth_z", want)
    pair = bench.depth.family_zwrz(3).semidirect()
    zwrz = tuple(bench.laurent.format_semidirect(s) for s in pair)
    for budget in (300, 1000):
        row = bench.measure_depth_pair(0, zwrz, budget, 1)
        assert (row["section"], row["split_depth"]) == ("depth_z", 272)
    assert (bench.DEEP_BUDGETS, bench.ZWRZ_BUDGETS) == ([18, 24], [300, 1000])


def test_measure_depth_fp_runs():
    bench = _bench()
    row = bench.measure_depth_pool("fp_depth", 1)
    assert (row["section"], row["ops"], row["budget"]) == ("depth_fp", "s8", 1024)
    assert row["queries"] == 682
    depths = [2, 2, 2, 56, 56, 351]
    for (ring, pair, budget), want in zip(bench.SHIFT_FP, depths, strict=True):
        row = bench.measure_depth_pair(ring, pair, budget, 1)
        assert (row["section"], row["split_depth"]) == ("depth_fp", want)


def test_measure_witness_runs():
    bench = _bench()
    row = bench.measure_witness(bench.WITNESS_GROUPS[0], 1)
    assert (row["section"], row["group"]) == ("witness", "F2 wr Z")
    assert (row["elements"], row["pairs"], row["nonconjugate"]) == (160, 80, 40)
    assert row["conjugate_test_reduce_calls"] == 80
    assert row["full_witness_verify_modulus"] > 0
    assert row["contract_failures"] == 0
    row = bench.measure_witness_parse(1)
    assert (row["section"], row["documents"], row["runs"]) == ("witness_parse", 2400, 1)
    assert row["seconds"] > 0 and row["loops"] >= 1
