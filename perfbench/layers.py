"""Which public functions the traced run wraps, and the per-layer
metrics it reports.

Every name here is a public class and method of the engine; the
benchmark reaches no private attribute. ``METRICS`` is the single list
of per-layer metrics: ``BENCHMARK.json`` lists the same names, and each
row says which end-to-end metric the layer's numbers should move, on
which workload (checked by ``perfbench/tests``).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.hashring import HashRing
from repro.kvstore.cluster import ReplicatedKVStore
from repro.kvstore.commitlog import CommitLog
from repro.kvstore.node import StorageNode
from repro.muppet.dispatch import SingleChoiceDispatcher, TwoChoiceDispatcher
from repro.muppet.local import LocalMuppet
from repro.muppet.queues import BoundedQueue
from repro.muppet.replay import ReplayJournal
from repro.sim.des import Simulator
from repro.sim.fastforward import FastForwardSimulator
from repro.slates.codec import CompressedJsonCodec
from repro.slates.manager import SlateManager

from perfbench.apps import Count, Echo

#: (metric key, class, method). Classes that share a key are the variants
#: an engine may pick (the exact or fast-forward event loop, the single-
#: or two-choice dispatcher); each defines the method itself.
TARGETS: List[Tuple[str, type, str]] = [
    ("sim.des.run_until", Simulator, "run_until"),
    ("sim.des.run_until", FastForwardSimulator, "run_until"),
    ("cluster.hashring.lookup", HashRing, "lookup"),
    ("cluster.hashring.preference_list", HashRing, "preference_list"),
    ("muppet.dispatch.choose_workers", TwoChoiceDispatcher, "choose_workers"),
    ("muppet.dispatch.choose_workers", SingleChoiceDispatcher,
     "choose_workers"),
    ("muppet.dispatch.choose", TwoChoiceDispatcher, "choose"),
    ("muppet.queues.offer", BoundedQueue, "offer"),
    ("muppet.queues.poll", BoundedQueue, "poll"),
    ("core.operators.map", Echo, "map"),
    ("core.operators.update", Count, "update"),
    ("slates.manager.get", SlateManager, "get"),
    ("slates.manager.note_update", SlateManager, "note_update"),
    ("slates.manager.flush_all_dirty", SlateManager, "flush_all_dirty"),
    ("slates.manager.flush_one", SlateManager, "flush_one"),
    ("slates.codec.encode", CompressedJsonCodec, "encode"),
    ("slates.codec.decode", CompressedJsonCodec, "decode"),
    ("kvstore.cluster.read", ReplicatedKVStore, "read"),
    ("kvstore.cluster.write", ReplicatedKVStore, "write"),
    ("kvstore.cluster.write_batch", ReplicatedKVStore, "write_batch"),
    ("kvstore.node.get", StorageNode, "get"),
    ("kvstore.node.put_many", StorageNode, "put_many"),
    ("kvstore.node.flush", StorageNode, "flush"),
    ("kvstore.node.compact", StorageNode, "compact"),
    ("kvstore.commitlog.append", CommitLog, "append"),
    ("muppet.replay.record", ReplayJournal, "record"),
    ("muppet.replay.prune_before", ReplayJournal, "prune_before"),
    ("muppet.replay.take_for", ReplayJournal, "take_for"),
    ("muppet.local.ingest", LocalMuppet, "ingest"),
    ("muppet.local.read_slate", LocalMuppet, "read_slate"),
]

#: Root spans the benchmark opens around its own calls into the engine.
ROOT_RUN = "bench.run"
ROOTS = (ROOT_RUN,)

#: Keys whose results' lengths are summed (encoded bytes out).
COUNT_BYTES = ("slates.codec.encode",)

#: Which end-to-end metric each wrapped layer's calls/self time should
#: move, and on which workload.
_MOVES = {
    "sim.des": "events_per_s on sim_hot (most of its time); on sim_churn "
               "only the runtime share",
    "cluster.hashring": "events_per_s on sim_churn; ~0 calls on sim_hot",
    "muppet.dispatch": "events_per_s on sim_churn; latency_p50_ms on "
                       "local_mixed",
    "muppet.queues": "e2e.latency_p95_ms on local_mixed",
    "core.operators": "none: the user-code floor",
    "slates.manager": "events_per_s on sim_churn; e2e.latency_p95_ms on "
                      "local_mixed (flusher)",
    "slates.codec": "events_per_s on sim_churn",
    "kvstore.cluster": "events_per_s on sim_churn; e2e.read_p95_ms on "
                       "local_mixed (absent keys)",
    "kvstore.node": "events_per_s on sim_churn; e2e.read_p95_ms on "
                    "local_mixed (absent keys)",
    "kvstore.commitlog": "events_per_s on sim_churn",
    "muppet.replay": "events_per_s and peak_rss_mb on sim_churn",
    "muppet.local": "cpu_us_per_event and latency_p50_ms on local_mixed",
}


def _layer_of(key: str) -> str:
    return ".".join(key.split(".")[:2])


def _wrapped_metrics() -> List[Tuple[str, str, str, str]]:
    rows: List[Tuple[str, str, str, str]] = []
    for key in dict.fromkeys(k for k, _, _ in TARGETS):
        moves = _MOVES[_layer_of(key)]
        rows.append((f"{key}.calls", "count", "lower", moves))
        rows.append((f"{key}.self_s", "s", "lower", moves))
    return rows


#: (name, unit, better, what it should move) for every per-layer metric.
#: A metric that does not apply to a workload reads 0 there.
METRICS: List[Tuple[str, str, str, str]] = _wrapped_metrics() + [
    ("sim.des.steps", "count", "lower", _MOVES["sim.des"]),
    ("sim.fastforward.inlined_steps", "count", "higher", _MOVES["sim.des"]),
    ("sim.fastforward.heap_steps", "count", "lower", _MOVES["sim.des"]),
    ("sim.core.self_s", "s", "lower",
     "events_per_s on sim_hot: run() wall no layer below the event loop "
     "claims (the loop plus the runtime's handlers)"),
    ("dispatch.memo_hit_ratio", "ratio", "higher",
     _MOVES["cluster.hashring"]),
    ("dispatch.spill_ratio", "ratio", "lower", _MOVES["muppet.dispatch"]),
    ("dispatch.affinity_ratio", "ratio", "higher", _MOVES["muppet.dispatch"]),
    ("queues.peak_depth", "count", "lower", _MOVES["muppet.queues"]),
    ("queues.rejected", "count", "lower", _MOVES["muppet.queues"]),
    ("slates.cache_hit_ratio", "ratio", "higher", _MOVES["slates.manager"]),
    ("slates.kv_reads", "count", "lower", _MOVES["slates.manager"]),
    ("slates.kv_writes", "count", "lower", _MOVES["slates.manager"]),
    ("slates.batch_flushes", "count", "lower", _MOVES["slates.manager"]),
    ("slates.codec.bytes_out", "bytes", "lower", _MOVES["slates.codec"]),
    ("kv.bloom_skip_ratio", "ratio", "higher", _MOVES["kvstore.node"]),
    ("kv.sstables_probed", "count", "lower", _MOVES["kvstore.node"]),
    ("kv.flushes", "count", "lower", _MOVES["kvstore.node"]),
    ("kv.compactions", "count", "lower", _MOVES["kvstore.node"]),
    ("kv.bytes_flushed", "bytes", "lower", _MOVES["kvstore.node"]),
    ("kv.bytes_compacted", "bytes", "lower", _MOVES["kvstore.node"]),
    ("replay.recorded", "count", "lower", _MOVES["muppet.replay"]),
    ("replay.replayed", "count", "lower", _MOVES["muppet.replay"]),
    ("replay.dedup_ratio", "ratio", "higher", _MOVES["muppet.replay"]),
    ("local.cpu_us_per_event_1t", "us", "lower", _MOVES["muppet.local"]),
    ("local.thread_cost_ratio", "ratio", "lower", _MOVES["muppet.local"]),
    ("http.overhead_ms", "ms", "lower", "read_p50_ms on local_mixed"),
    ("http.status_200", "count", "higher", "read_p50_ms on local_mixed"),
    ("http.status_404", "count", "lower", "read_p50_ms on local_mixed"),
    ("http.status_5xx", "count", "lower", "read_p50_ms on local_mixed"),
    ("e2e.latency_p95_ms", "ms", "lower",
     "the tail beside latency_p50_ms, every workload; unbounded, because "
     "host load sets it more than the code"),
    ("e2e.read_p95_ms", "ms", "lower",
     "the tail beside read_p50_ms, every workload; unbounded as above"),
    ("e2e.engine_latency_p99_ms", "ms", "lower",
     "the tail beside engine_latency_p50_ms; virtual and deterministic "
     "per seed on the simulator, real-clock on local_mixed"),
    ("obs.trace_on_slowdown", "ratio", "lower",
     "none (tracing is off in end-to-end runs)"),
    ("bench.generator_lag_ms", "ms", "lower", "validity check of every run"),
    ("bench.trace_overhead_frac", "ratio", "lower",
     "validity check of every run"),
    ("bench.accounted_frac", "ratio", "higher",
     "validity check: layer self times plus sim.core.self_s over run() wall"),
]
