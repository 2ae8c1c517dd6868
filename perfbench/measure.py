"""Runs a workload for the time budget and turns repetitions into metrics.

``end_to_end`` reports what a user of the engine sees, tracing off.
``per_layer`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``perfbench.layers.METRICS``. Both return
``(metrics, attempted, failed, summary lines)``; each metric is a
``{"value", "unit"}`` pair.
"""

from __future__ import annotations

import random
import resource
import statistics
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.metrics import percentile

from perfbench import layers, workloads
from perfbench.tracer import Tracer
from perfbench.workloads import Rep

SIMS = {"sim_hot": workloads.SIM_HOT, "sim_churn": workloads.SIM_CHURN}

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("events_per_s", "ev/s"),
    ("cpu_us_per_event", "us"),
    ("latency_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("engine_latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Where the traced run writes its spans (inside the checkout).
SPANS_DIR = Path(__file__).resolve().parent / "out"

Result = Tuple[Dict[str, Dict[str, Any]], int, int, List[str]]


def _pooled_median(reps: List[Rep],
                   per_window: Callable[[Rep], List[float]]) -> float:
    """The median over every window of every repetition.

    A window is a stretch of one repetition: a whole simulated run, 2,000
    point reads, or 2 s of a ``local_mixed`` stream. The number of
    repetitions and windows depends on ``--seconds`` only, never on how
    fast the code runs, so a faster change gets no extra draws.
    """
    return statistics.median(v for rep in reps for v in per_window(rep))


def _tails(reps: List[Rep]) -> Dict[str, float]:
    """Tail latencies of untraced repetitions, reported per layer.

    On a shared 2-CPU host they move with the neighbours' load far more
    than with the code: ``local_mixed``'s tails spread 0.3 to
    1.0 (quartile distance over median) across runs of identical code.
    """
    return {
        "e2e.latency_p95_ms": _pooled_median(
            reps, lambda r: [q[1] for q in r.latency_q]),
        "e2e.read_p95_ms": _pooled_median(
            reps, lambda r: [q[1] for q in r.read_q]),
        "e2e.engine_latency_p99_ms": statistics.median(
            r.engine_p99_ms for r in reps),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sim_reps(name: str, seed: int, seconds: float) -> List[Rep]:
    """``seconds / rep_s`` untraced repetitions.

    Each repetition draws its input from its own seed, derived from
    ``seed``: the modelled latencies depend on how the hot keys' events
    interleave, and a median over several draws does not hang on one.
    """
    spec = SIMS[name]
    seeds = random.Random(seed)
    reps: List[Rep] = []
    for _ in range(max(1, round(seconds / spec.rep_s))):
        data = workloads.sim_input(spec, seeds.getrandbits(32))
        rep = workloads.sim_rep(spec, data)
        rep.notes.clear()
        reps.append(rep)
    return reps


def _local_reps(seed: int, seconds: float) -> List[Rep]:
    """Streams of ``LOCAL_REP_S`` each, on a fresh engine, filling the
    budget; each draws its input from its own seed, derived from
    ``seed``."""
    seeds = random.Random(seed)
    count = max(1, round(seconds / workloads.LOCAL_REP_S))
    return [workloads.local_rep(workloads.local_input(
        min(seconds, workloads.LOCAL_REP_S), seeds.getrandbits(32)))
        for _ in range(count)]


def _read_p50(name: str, reps: List[Rep]) -> float:
    """On the simulator the fastest window: a simulated point read takes
    a few µs and moves by up to 50% with the shared host's load, in
    spells that can outlast a run. Over sets of 7-10 runs of identical
    code, the median over windows spread 0.13-0.26 (quartile distance
    over median) and the lowest window 0.04-0.25.

    On ``local_mixed`` the median over all windows, like the other
    latencies: an HTTP read takes about 1.5 ms and tracks the host's
    speed, and there the lowest window, one lucky 2 s stretch, spread
    0.23-0.27 in sets of ten runs, the median 0.13.
    """
    medians = [q[0] for r in reps for q in r.read_q]
    return statistics.median(medians) if name == "local_mixed" else min(medians)


def end_to_end(name: str, seed: int, seconds: float) -> Result:
    if name == "local_mixed":
        reps = _local_reps(seed, seconds)
    else:
        reps = _sim_reps(name, seed, seconds)
    values = {
        "setup_s": statistics.median(t for r in reps for t in r.setups),
        "events_per_s": _pooled_median(reps, lambda r: [r.events / r.wall_s]),
        "cpu_us_per_event": _pooled_median(
            reps, lambda r: [cpu / n * 1e6 for n, cpu in r.cpu]),
        "latency_p50_ms": _pooled_median(
            reps, lambda r: [q[0] for q in r.latency_q]),
        "read_p50_ms": _read_p50(name, reps),
        "engine_latency_p50_ms": statistics.median(
            r.engine_p50_ms for r in reps),
        "peak_rss_mb": _peak_rss_mb(),
    }
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in END_TO_END}
    lines = [f"{name}: {len(reps)} repetition(s); "
             f"{sum(r.samples[0] for r in reps)} event latencies in "
             f"{sum(len(r.latency_q) for r in reps)} window(s), "
             f"{sum(r.samples[1] for r in reps)} reads in "
             f"{sum(len(r.read_q) for r in reps)}"]
    if name == "local_mixed":
        lines.append(_lag_line(reps))
    else:
        lines.append("generator lag: none (the simulator pulls its source)")
    return (metrics, sum(r.attempted for r in reps),
            sum(r.failed for r in reps), lines)


def _lag_line(reps: List[Rep]) -> str:
    lags = [lag for rep in reps for key in ("event_lag_ms", "read_lag_ms")
            for lag in rep.notes[key]]
    return (f"generator lag ms: p50 {percentile(lags, 0.5):.3f} "
            f"p99 {percentile(lags, 0.99):.3f} max {max(lags):.3f}")


# -- per-layer ---------------------------------------------------------------
def _wrapped_keys() -> List[str]:
    return list(dict.fromkeys(key for key, _, _ in layers.TARGETS))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _family_sum(family: Dict[str, Any], suffix: str) -> int:
    return sum(v for k, v in family.items() if k.endswith("." + suffix))


def _install() -> Tracer:
    tracer = Tracer()
    tracer.install(layers.TARGETS, roots=layers.ROOTS,
                   count_bytes=layers.COUNT_BYTES)
    return tracer


def _call_metrics(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key in _wrapped_keys():
        out[f"{key}.calls"] = totals[key]["calls"]
        out[f"{key}.self_s"] = totals[key]["self_s"]
    return out


def _kv_metrics(node_stats: List[Dict[str, int]]) -> Dict[str, float]:
    def total(field: str) -> int:
        return sum(stats.get(field, 0) for stats in node_stats)

    return {
        # Share of SSTable checks the bloom filter answered (one get may
        # check several SSTables, so gets are not the base).
        "kv.bloom_skip_ratio": _ratio(
            total("bloom_skips"),
            total("bloom_skips") + total("sstables_probed")),
        "kv.sstables_probed": total("sstables_probed"),
        "kv.flushes": total("flushes"),
        "kv.compactions": total("compactions"),
        "kv.bytes_flushed": total("bytes_flushed"),
        "kv.bytes_compacted": total("bytes_compacted"),
    }


def _dispatch_metrics(stats: Dict[str, int]) -> Dict[str, float]:
    return {
        "dispatch.memo_hit_ratio": _ratio(
            stats["memo_hits"], stats["memo_hits"] + stats["memo_misses"]),
        "dispatch.spill_ratio": _ratio(stats["spills"], stats["dispatched"]),
        "dispatch.affinity_ratio": _ratio(stats["affinity_hits"],
                                          stats["dispatched"]),
    }


def _sim_layer_metrics(rep: Rep) -> Dict[str, float]:
    report = rep.notes["report"]
    runtime = rep.notes["runtime"]
    # Taken right after run(): the benchmark's own reads and checks that
    # follow are not the engine's work.
    run_totals = rep.notes["run_totals"]
    out = _call_metrics(run_totals)
    ff = runtime.ff_summary()
    core = (run_totals[layers.ROOT_RUN]["self_s"]
            + run_totals["sim.des.run_until"]["self_s"])
    below_loop = sum(run_totals[key]["self_s"] for key in _wrapped_keys()
                     if key != "sim.des.run_until")
    slates = report.metrics["slates"]
    hits = _family_sum(slates, "cache_hits")
    misses = _family_sum(slates, "cache_misses")
    out.update({
        "sim.des.steps": report.steps,
        "sim.fastforward.inlined_steps": ff["inlined_steps"],
        "sim.fastforward.heap_steps": ff["heap_steps"],
        "sim.core.self_s": core,
        "bench.accounted_frac": (below_loop + core) / rep.wall_s,
        "queues.peak_depth": report.queue_peak_depth,
        "queues.rejected": _family_sum(report.metrics["queues"], "rejected"),
        "slates.cache_hit_ratio": _ratio(hits, hits + misses),
        "slates.kv_reads": _family_sum(slates, "kv_reads"),
        "slates.kv_writes": _family_sum(slates, "kv_writes"),
        "slates.batch_flushes": _family_sum(slates, "batch_flushes"),
        "slates.codec.bytes_out":
            run_totals["slates.codec.encode"]["out_bytes"],
        "replay.recorded": report.replay.recorded,
        "replay.replayed": report.replay.replayed,
        "replay.dedup_ratio": _ratio(report.replay.deduped,
                                     report.replay.replayed),
    })
    out.update(_dispatch_metrics(report.dispatch_stats))
    out.update(_kv_metrics(list(report.kv_stats.values())))
    return out


def _median_rows(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}


def _sim_per_layer(name: str, seed: int, seconds: float,
                   spans_path: Path) -> Result:
    """One untraced repetition and one with the engine's own tracing on,
    then traced and untraced repetitions in turn: one pair per
    ``3 * rep_s`` of the budget (a traced repetition takes about twice
    an untraced one)."""
    spec = SIMS[name]
    data = workloads.sim_input(spec, seed)
    untraced = [workloads.sim_rep(spec, data)]
    engine_traced = workloads.sim_rep(spec, data, sim_trace=True)
    traced: List[Rep] = []
    rows: List[Dict[str, float]] = []
    for _ in range(max(1, round(seconds / (3 * spec.rep_s)))):
        tracer = _install()
        try:
            rep = workloads.sim_rep(spec, data, tracer=tracer)
        finally:
            tracer.uninstall()
        rows.append(_sim_layer_metrics(rep))
        rep.notes.clear()
        traced.append(rep)
        untraced.append(workloads.sim_rep(spec, data))
    base_wall = statistics.median(r.wall_s for r in untraced)
    values = _median_rows(rows)
    values.update(_tails(untraced))
    values["obs.trace_on_slowdown"] = engine_traced.wall_s / base_wall
    values["bench.trace_overhead_frac"] = (
        statistics.median(r.wall_s for r in traced) / base_wall - 1.0)
    spans = tracer.write(spans_path)
    lines = [f"{name}: {len(untraced)} untraced, {len(traced)} traced "
             f"repetition(s); {spans} spans of the last written to "
             f"{spans_path}"]
    reps = untraced + traced + [engine_traced]
    return (values, sum(r.attempted for r in reps),
            sum(r.failed for r in reps), lines)


def _local_per_layer(seed: int, seconds: float, spans_path: Path) -> Result:
    """Three streams of a third of the budget each: untraced, traced,
    and untraced with a single worker thread."""
    seconds = max(2.0, seconds / 3)
    data = workloads.local_input(seconds, seed)
    plain = workloads.local_rep(data)
    tracer = _install()
    try:
        traced = workloads.local_rep(data, tracer=tracer)
    finally:
        tracer.uninstall()
    single = workloads.local_rep(data, threads=1)

    def cpu_us(rep: Rep) -> float:
        return sum(cpu for _, cpu in rep.cpu) / rep.events * 1e6

    totals = traced.notes["totals"]
    runtime = traced.notes["runtime"]
    out = _call_metrics(totals)
    snapshot = runtime.metrics_snapshot()
    cache = runtime.manager.cache.stats
    read_slate = totals["muppet.local.read_slate"]
    statuses = traced.notes["statuses"]
    out.update({
        "queues.peak_depth": snapshot["queues.peak"],
        "queues.rejected": snapshot["queues.rejected"],
        "slates.cache_hit_ratio": _ratio(cache.hits, cache.hits + cache.misses),
        "slates.kv_reads": snapshot["slates.kv_reads"],
        "slates.kv_writes": snapshot["slates.kv_writes"],
        "slates.batch_flushes": snapshot["slates.batch_flushes"],
        "slates.codec.bytes_out": totals["slates.codec.encode"]["out_bytes"],
        "local.cpu_us_per_event_1t": cpu_us(single),
        "local.thread_cost_ratio": cpu_us(plain) / cpu_us(single),
        "http.overhead_ms": (
            statistics.mean(traced.notes["read_rtt_ms"])
            - _ratio(read_slate["total_s"], read_slate["calls"]) * 1e3),
        "http.status_200": statuses.get(200, 0),
        "http.status_404": statuses.get(404, 0),
        "http.status_5xx": sum(v for k, v in statuses.items()
                               if k >= 500 or k < 0),
        "bench.generator_lag_ms": percentile(
            plain.notes["event_lag_ms"] + plain.notes["read_lag_ms"], 0.99),
        "bench.trace_overhead_frac": cpu_us(traced) / cpu_us(plain) - 1.0,
    })
    out.update(_tails([plain]))
    out.update(_dispatch_metrics(runtime.dispatcher.stats.as_dict()))
    out.update(_kv_metrics(list(runtime.store.stats_by_node().values())))
    spans = tracer.write(spans_path)
    lines = ["local_mixed: untraced, traced and 1-thread streams of "
             f"{seconds:g} s; {spans} spans written to {spans_path}",
             _lag_line([plain])]
    reps = [plain, traced, single]
    return (out, sum(r.attempted for r in reps),
            sum(r.failed for r in reps), lines)


def per_layer(name: str, seed: int, seconds: float) -> Result:
    spans_path = SPANS_DIR / f"spans-{name}-seed{seed}.tsv.gz"
    if name == "local_mixed":
        values, attempted, failed, lines = _local_per_layer(
            seed, seconds, spans_path)
    else:
        values, attempted, failed, lines = _sim_per_layer(
            name, seed, seconds, spans_path)
    units = {key: unit for key, unit, _, _ in layers.METRICS}
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"per-layer metrics missing from layers.METRICS: "
                       f"{sorted(unknown)}")
    # A metric that does not apply to the workload reads 0.
    metrics = {key: {"value": values.get(key, 0.0), "unit": unit}
               for key, unit in units.items()}
    return metrics, attempted, failed, lines
