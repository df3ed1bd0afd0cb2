"""Every entry of the benchmark's `witness` pool, run as the benchmark
runs it.

`perfbench/child.py`'s `WitnessOps` parses each of the 1,200 entries of
`perfbench/pool/witness.json`, runs the conj-test and witness path on
it and checks the answer the way the benchmark does. An entry recorded
`ok` must answer with its recorded digest (`expect`) and a passing
check. The `*/near/contract` entries were recorded while the acting
stage's bound still failed them, so they carry no digest; each must now
answer with a passing check and the digest frozen below. This test only
reads `perfbench`."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# answer digests of the entries recorded as contract failures
CONTRACT_DIGESTS = {
    "witness/0721": "74ac63ad9b586f78",
    "witness/0723": "bfe5c732648dc411",
    "witness/0733": "0b06a2b2690ab077",
    "witness/0736": "571af19c354ad38c",
    "witness/0745": "d280bbc6b300f5fd",
    "witness/0770": "24bb7656f9c04446",
    "witness/0775": "90a070a3b70700fa",
    "witness/0778": "872914ac3f0feeaf",
    "witness/0783": "8cd84cd4252a670a",
    "witness/0785": "bac48028874894b4",
    "witness/0813": "02dd9f97bdfe9631",
    "witness/0815": "fdf5f00dab62dca2",
    "witness/0835": "de9131ff8f6d7c9b",
    "witness/0968": "286703736130fd5c",
    "witness/0972": "8775ffc337e1a108",
    "witness/0979": "af147313122ab83c",
    "witness/0992": "9a1a327cbc98b038",
    "witness/0993": "3b72645c521bd79e",
    "witness/1003": "bb68c8951dfc9ad5",
    "witness/1014": "3db260042584270d",
    "witness/1023": "c186e7dd4388f8d8",
    "witness/1024": "e6f46b605edfbf16",
    "witness/1028": "435db86a93d903f6",
    "witness/1040": "172ee4ec3a154c57",
    "witness/1041": "dc2596f396e176f7",
    "witness/1045": "0695100553b5519c",
    "witness/1078": "c7f3dd9456e2e50d",
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench_modules():
    # child.py imports its siblings by their bare names
    saved = {name: sys.modules.get(name) for name in ("spans", "workloads", "child")}
    try:
        yield _load("spans"), _load("workloads"), _load("child")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_every_witness_pool_entry_answers_as_recorded(perfbench_modules):
    _, workloads, child = perfbench_modules
    kind = child.WitnessOps()
    pool = workloads.load_pool("witness")
    assert len(pool) == 1200
    contract = {}
    for entry in pool:
        parsed = kind.parse(entry["spec"])
        doc, check, _ = kind.answer(parsed, kind.call(parsed)())
        digest = workloads.answer_digest(doc)
        assert check, entry["id"]
        if entry["outcome"] == "ok":
            assert digest == entry["expect"], entry["id"]
        else:
            assert entry["outcome"] == "contract" and entry["expect"] is None, entry["id"]
            assert entry["stratum"].endswith("/near/contract"), entry["id"]
            contract[entry["id"]] = digest
    assert contract == CONTRACT_DIGESTS
