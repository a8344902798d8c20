"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import stages  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def last_line(report, capsys) -> dict:
    run.emit(report)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    result = last_line(run.run(workload, 5, 0.1, trace, scale="tiny"), capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_a_wrong_expected_value_is_counted_as_a_failure(monkeypatch, capsys):
    good = run.run("census", 5, 0.1, False, scale="tiny")
    monkeypatch.setitem(stages.EXPECTED_ROWS, 2, (16, 5, 12))
    bad = run.run("census", 5, 0.1, False, scale="tiny")
    assert good["fail_ratio"] == 0
    assert bad["fail_ratio"] > 0 and not bad["correct"]
    # each census call failed once and every other unit still ran
    assert bad["failed"] == bad["stages"]["census"]["blocks"] < bad["attempted"]
    assert last_line(bad, capsys)["failed"] == bad["failed"]


def test_a_sample_is_scaled_by_the_probes_during_or_nearest_it():
    prober = probe.Prober()
    prober.at.extend(range(0, 1000, 10))
    prober.took.extend([probe.REF_NS] * 50 + [2 * probe.REF_NS] * 50)
    assert prober.slowdown(100, 200) == 1.0
    assert prober.slowdown(802, 803) == 2.0  # no probe inside: the nearest ones
    prober.took[60] = 100 * probe.REF_NS  # one probe cut into by an interrupt
    assert prober.slowdown(550, 650) == 2.0


def test_no_result_without_a_source_checkout(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
