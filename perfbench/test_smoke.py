"""Smoke test of the benchmark at tiny size: every metric is emitted with its
unit, broken outputs count as failed operations, and the tracer's self times
add up.  Run with `python -m pytest perfbench/test_smoke.py`.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from dcan import cli  # noqa: E402


def _workload(name: str):
    return workloads.WORKLOAD_CLASSES[name](workloads.TINY, 3, 1, ROOT / "src")


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name, tmp_path):
    result, tally, _ = run.measure(_workload(name), tmp_path, 0.0, False, tmp_path / "t.gz")
    assert tally.failures == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {n: u for n, u, _, _ in spec.END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def test_truncated_overlay_counts_as_a_failed_operation(tmp_path, monkeypatch):
    export = cli.export_heatmap

    def export_truncated(heatmap, base, out_path):
        export(heatmap, base, out_path)
        path = Path(out_path)
        path.write_bytes(path.read_bytes()[:-7])

    monkeypatch.setattr(cli, "export_heatmap", export_truncated)
    wl = _workload("explain")
    tally = run.closed_loop(wl, wl.setup(tmp_path), 0.0)
    assert tally.attempted >= 2 and tally.failed == tally.attempted
    assert tally.seconds == []
    assert any("truncated payload" in f for f in tally.failures)


def test_traced_run_emits_every_layer_metric_and_self_times_add_up(tmp_path):
    trace_file = tmp_path / "spans.csv.gz"
    result, tally, _ = run.measure(_workload("explain"), tmp_path, 0.0, True, trace_file)
    assert tally.failures == [] and result["correct"]
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: u for n, u, _, _ in spec.PER_LAYER}
    selfs = sum(metrics[f"{layer}.self_ms"] for layer in spec.LAYERS + ["bench"])
    assert selfs == pytest.approx(metrics["trace.wall_ms"], rel=1e-9)
    assert metrics["imaging.clahe_calls_per_image"] == 2
    assert metrics["autograd.tape_nodes_per_step"] == 23
    assert trace_file.stat().st_size > 0
    assert not hasattr(cli.main, "__wrapped__")


def test_self_time_shares_instants_among_concurrent_spans():
    def span(name, t0, t1, parent, tid):
        return [name, "x", t0, t1, parent, tid, None, None, "root", 0.0, 0]

    root = span("root", 0.0, 10.0, None, 1)
    pool = span("pool", 1.0, 9.0, root, 1)
    a = span("a", 2.0, 6.0, pool, 2)
    b = span("b", 3.0, 8.0, pool, 3)
    got = {id(s): seconds for s, seconds in tracer.self_times([root, pool, a, b])}
    # pool waits while a or b runs; a and b share [3, 6)
    assert [got[id(s)] for s in (root, pool, a, b)] == pytest.approx([2.0, 2.0, 2.5, 3.5])


def test_benchmark_json_matches_the_spec_and_the_contract_limits():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert data == spec.benchmark_json()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(data["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and name.match(w["name"]) for w in data["workloads"])
    assert 1 <= len(data["per_layer"]) <= 128
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in data["end_to_end"] + data["per_layer"])
    assert all(m["bound"] <= 0.25 for m in data["end_to_end"])
