"""Tests of the benchmark itself (not of ahalg).

    python3 -m pytest perfbench/tests -q

They run tiny decks (the first few operations of each kind) so the whole
file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 6  # operations per kind in a tiny deck


@pytest.fixture(scope="module", params=run.WORKLOADS)
def tiny(request):
    """(name, module, tiny deck): the first few operations of every kind."""
    module = run.load_workload(request.param)
    run.import_program()
    by_kind = {}
    for case in run.build_deck(module, 1):
        by_kind.setdefault(case.kind, [])
        if len(by_kind[case.kind]) < TINY:
            by_kind[case.kind].append(case)
    return request.param, module, [c for group in by_kind.values() for c in group]


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_smoke_prints_every_end_to_end_metric_with_its_unit(tiny, capsys):
    name, module, deck = tiny
    result = run.end_to_end(name, 1, deck, rounds=1)
    run.emit(name, result)
    lines = capsys.readouterr().out.splitlines()
    payload = json.loads(lines[-1])
    assert payload["correct"] and payload["failed"] == 0 and payload["attempted"] >= 1
    expected = _units(SPEC["end_to_end"])
    assert {k: v["unit"] for k, v in payload["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in payload["metrics"].values())
    for metric, unit in dict(expected, fail_ratio="ratio").items():
        assert any(line.split()[1:2] == [metric] and unit in line.split() for line in lines[:-1]), metric


def test_smoke_traced_prints_every_per_layer_metric_and_counts_repeat(tiny, capsys):
    name, module, deck = tiny
    meta = {"workload": name, "seed": 1}
    first = run.traced(name, module, 1, deck, meta)
    second = run.traced(name, module, 1, deck, meta)
    run.emit(name, first)
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["correct"]
    assert {k: v["unit"] for k, v in payload["metrics"].items()} == _units(SPEC["per_layer"])
    for metric, (value, unit) in first.metrics.items():
        if unit == "count/op":
            assert value == second.metrics[metric][0], metric


def test_corrupted_result_counts_as_a_failure(tiny):
    """Swap the results of two operations of one kind: both checks must fail."""
    name, module, deck = tiny
    outcomes = [(i, run.call(case.run)) for i, case in enumerate(deck)]
    assert run.count_failures(deck, outcomes) == 0
    by_kind = {}
    for i, case in enumerate(deck):
        by_kind.setdefault(case.kind, []).append(i)
    i, j = next(
        (a, b) for idx in by_kind.values() for a in idx for b in idx
        if a < b and outcomes[a][1] != outcomes[b][1]
    )
    corrupted = list(outcomes)
    corrupted[i], corrupted[j] = (i, outcomes[j][1]), (j, outcomes[i][1])
    assert run.count_failures(deck, corrupted) == 2
    # a repeat that disagrees with the checked first result fails too
    assert run.count_failures(deck, outcomes + [(i, outcomes[j][1])]) == 1


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in run.WORKLOADS:
        module = run.load_workload(name)
        assert repr(module.plan(7)) == repr(module.plan(7))
        assert repr(module.plan(7)) != repr(module.plan(8))


def test_tracer_restores_every_patched_attribute():
    from spans import Tracer

    import ahalg
    from ahalg import algebra, autgroup, fields, poly

    before = (poly.Poly.__mul__, autgroup.gcd_monic, ahalg.compute_P, fields.FieldElem.__init__,
              algebra.OreElement.__mul__)
    tracer = Tracer()
    tracer.install()
    assert autgroup.gcd_monic is not before[1] and poly.gcd_monic is autgroup.gcd_monic
    tracer.uninstall()
    after = (poly.Poly.__mul__, autgroup.gcd_monic, ahalg.compute_P, fields.FieldElem.__init__,
             algebra.OreElement.__mul__)
    assert after == before


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, exit non-zero and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
