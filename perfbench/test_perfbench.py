"""Tests of the benchmark itself, at the smoke-test size.

    python3 -m pytest perfbench -q
"""

import json
import os

import pytest

import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_runs_every_op_and_check(name, tmp_path):
    result, lines = run.measure(name, seed=1, seconds=0, trace=0, size="tiny",
                                work=str(tmp_path / "work"))
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"]
               for m in BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("metric fail_ratio 0 ") for line in lines)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result, _ = run.measure("large-q", seed=1, seconds=0, trace=1, size="tiny",
                            work=str(tmp_path / "work"))
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    # large-q calls the criterion and the census outside any search, so
    # the allocation probe ran and the counts are exact per pass.
    assert metrics["construction.criterion_peak_alloc_mb"]["value"] > 0
    assert metrics["geometry.ngon_peak_alloc_mb"]["value"] > 0
    assert metrics["construction.gq_criterion_calls"]["value"] == 1
    assert metrics["iso.canonical_form_calls"]["value"] == 0


def test_wrong_expected_value_raises_fail_ratio(tmp_path, monkeypatch):
    tiny = dict(workloads.SIZES["large-q"]["tiny"], w_order=(3, 4))
    monkeypatch.setitem(workloads.SIZES["large-q"], "tiny", tiny)
    result, lines = run.measure("large-q", seed=1, seconds=0, trace=0, size="tiny",
                                work=str(tmp_path / "work"))
    assert not result["correct"]
    assert result["failed"] == 1 and result["failed"] / result["attempted"] > 0
    assert any(line.startswith("FAILED verify w:3") for line in lines)


def _seeded_files(seed, work):
    workloads.WORKLOADS["payne"].prepare(run.fresh_import(), str(work), seed, "tiny")
    contents = {}
    for name in sorted(os.listdir(work / "in")):
        with open(work / "in" / name, "rb") as fh:
            contents[name] = fh.read()
    return contents


def test_seed_fixes_the_relabelling(tmp_path):
    first = _seeded_files(1, tmp_path / "a")
    again = _seeded_files(1, tmp_path / "b")
    other = _seeded_files(2, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    relabelled = [name for name in first if name != "m3.json"]  # m3 is as built
    assert relabelled and all(first[n] != other[n] for n in relabelled)
    assert first["m3.json"] == other["m3.json"]


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    rc = run.main(["--workload", "payne", "--seed", "1", "--seconds", "1"])
    assert rc != 0
    assert capsys.readouterr().out == ""
