"""The benchmark's own tests, at reduced size.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import time
from pathlib import Path

import pytest

from repro.cluster import ClusterSpec
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.muppet.queues import OverflowPolicy
from repro.sim import SimConfig, SimRuntime, Source, create_runtime

from perfbench import apps, layers, measure, run, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _small(spec: workloads.SimSpec, events: int) -> workloads.SimSpec:
    return dataclasses.replace(spec, events=events)


def test_sim_hot_fused_and_exact_reports_are_identical():
    events = apps.zipf_events(6_000, 25_000.0, 200, 1.0, seed=7)
    horizon = 6_000 / 25_000.0 + 5.0
    cluster = ClusterSpec.uniform(4, cores=4)
    fused = create_runtime(apps.chain_app(), cluster,
                           SimConfig(fastforward=True),
                           [Source("S1", iter(events))])
    exact = SimRuntime(apps.chain_app(), cluster, SimConfig(),
                       [Source("S1", iter(events))])
    fused_report = fused.run(horizon)
    exact_report = exact.run(horizon)
    assert fused.ff_summary()["mode"] == "fused"
    assert fused_report.counter_report() == exact_report.counter_report()
    assert fused.slates_of("U1") == exact.slates_of("U1")


@pytest.mark.xfail(strict=True, reason=(
    "known defect: under OverflowPolicy.throttle() only the source "
    "blocks on a full queue; LocalMuppet._dispatch drops events a mapper "
    "emits into a full queue, so counts are not exact under throttle"))
def test_throttle_keeps_every_mapper_emit():
    events = apps.zipf_events(20_000, 1e9, 5_000, 1.0, seed=3)
    runtime = LocalMuppet(apps.count_app(), LocalConfig(
        num_threads=4, queue_capacity=256,
        overflow=OverflowPolicy.throttle())).start()
    try:
        for event in events:
            runtime.ingest(event)
        assert runtime.drain(timeout=60.0)
        counted = sum(s["count"]
                      for s in runtime.read_slates_of("U1").values())
        dropped = runtime.counters.dropped_overflow
    finally:
        runtime.stop()
    assert (counted, dropped) == (len(events), 0)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: under effectively-once delivery with m001 crashing "
    "and recovering, this sim_churn input loses one update of k68 (29 of "
    "30 counted, lost_failure=2); the exact SimRuntime loses it too"))
def test_sim_churn_effectively_once_loses_no_update():
    # The fourth repetition's input of ``--seed 33``.
    data = workloads.sim_input(workloads.SIM_CHURN, 1001662401)
    rep = workloads.sim_rep(workloads.SIM_CHURN, data)
    slates = rep.notes["runtime"].slates_of("U1", read_through=True)
    assert apps.miscounted(data.expected, slates) == 0


class _Inner:
    def leaf(self, delay: float) -> int:
        time.sleep(delay)
        return 3


class _Outer:
    def __init__(self) -> None:
        self.inner = _Inner()

    def work(self) -> int:
        time.sleep(0.01)
        return self.inner.leaf(0.02) + self.inner.leaf(0.0)


def test_tracer_self_time_excludes_nested_calls(tmp_path):
    tracer = Tracer()
    tracer.install([("t.work", _Outer, "work"), ("t.leaf", _Inner, "leaf")],
                   roots=("t.root",), count_bytes=())
    try:
        outer = _Outer()
        assert tracer.call("t.root", outer.work) == 6
    finally:
        tracer.uninstall()
    assert not hasattr(_Outer.work, "__wrapped__")
    totals = tracer.totals()
    assert totals["t.leaf"]["calls"] == 2
    assert totals["t.work"]["calls"] == 1
    assert totals["t.leaf"]["self_s"] >= 0.02
    assert 0.01 <= totals["t.work"]["self_s"] < 0.02
    covered = sum(row["self_s"] for row in totals.values())
    assert covered == pytest.approx(totals["t.root"]["total_s"], abs=1e-9)
    path = tmp_path / "spans.tsv.gz"
    assert tracer.write(path) == 4
    with gzip.open(path, "rt") as spans:
        rows = [line.rstrip("\n").split("\t") for line in spans][1:]
    parents = {row[2]: int(row[5]) for row in rows}
    assert parents["t.root"] == -1
    assert parents["t.work"] == 0
    assert parents["t.leaf"] == 1


@pytest.mark.parametrize("spec", [workloads.SIM_HOT, workloads.SIM_CHURN],
                         ids=lambda spec: spec.name)
def test_traced_sim_rep_is_exact_and_fully_accounted(spec):
    small = _small(spec, 3_000)
    data = workloads.sim_input(small, seed=5)
    tracer = Tracer()
    tracer.install(layers.TARGETS, roots=layers.ROOTS,
                   count_bytes=layers.COUNT_BYTES)
    try:
        rep = workloads.sim_rep(small, data, tracer=tracer)
    finally:
        tracer.uninstall()
    assert rep.failed == 0
    row = measure._sim_layer_metrics(rep)
    # Calls come from the run alone: the benchmark's post-run point reads
    # and read-through check add no kv reads.
    assert row["kvstore.cluster.read.calls"] == row["slates.kv_reads"]
    hops = 2 if spec is workloads.SIM_HOT else 1
    assert row["core.operators.map.calls"] >= hops * small.events
    assert row["bench.accounted_frac"] == pytest.approx(1.0, abs=0.01)
    if spec is workloads.SIM_HOT:
        # The fused path bypasses the dispatcher and the worker queues.
        assert row["muppet.dispatch.choose_workers.calls"] == 0
        assert row["muppet.queues.offer.calls"] == 0
    else:
        assert row["muppet.dispatch.choose_workers.calls"] > 0
        assert row["muppet.replay.record.calls"] > 0


def test_local_rep_counts_are_exact():
    rep = workloads.local_rep(workloads.local_input(1.0, seed=2))
    assert rep.failed == 0
    assert rep.notes["statuses"].get(200, 0) > 0


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        measure.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.METRICS]
