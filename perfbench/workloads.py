"""The three workloads: one measured repetition each, untraced or traced.

``sim_hot`` and ``sim_churn`` drive the discrete-event simulator through
``repro.sim.create_runtime``; ``local_mixed`` drives the real-thread
``LocalMuppet`` engine and its HTTP slate server from two generator
threads. Every repetition checks the final slate counts against the
generated input.
"""

from __future__ import annotations

import gc
import http.client
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster import ClusterSpec
from repro.core.event import Event
from repro.faults import FaultSchedule
from repro.metrics import percentile
from repro.muppet.http import SlateHTTPServer
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.sim import SimConfig, Source, create_runtime
from repro.slates.manager import FlushPolicy

from perfbench import apps
from perfbench.layers import ROOT_RUN
from perfbench.tracer import Tracer

#: Engine constructions per repetition; setup_s is their median.
SIM_SETUP_REPEATS = 15
LOCAL_SETUP_REPEATS = 5
#: Slate reads timed after each simulated run, in windows of 2,000 (a
#: window takes 5-50 ms, so a neighbour's burst spoils few of them).
SIM_READS = 60_000
SIM_READ_WINDOW = 2_000
#: local_mixed open-loop rates. At these the engine keeps the interpreter
#: lock under half busy even when the host runs 3x slower; at twice the
#: rates a slow spell saturates it and the latencies grow without bound.
LOCAL_EVENT_RATE = 1_000.0
LOCAL_READ_RATE = 100.0
LOCAL_KEYS = 5_000
#: local_mixed repeats 10 s streams, each on a fresh engine, so a run
#: can report a repetition that a neighbour's burst left alone.
LOCAL_REP_S = 10.0
#: Latency quantiles are taken per 2 s window (2,000 events and 200
#: reads, 10 of them past the 95th percentile); CPU per 5 s stretch.
LOCAL_WINDOW_S = 2.0
LOCAL_CPU_STRETCH_S = 5.0


@dataclass
class Rep:
    """What one repetition measured."""

    #: Every timed engine construction (and start), seconds.
    setups: List[float]
    #: Source events, and the wall time from the first one's due time
    #: until the last one's update finished.
    events: int
    wall_s: float
    #: (events, process CPU seconds) of each stretch of the repetition.
    cpu: List[Tuple[int, float]]
    #: (p50, p95) in ms of each window of event and read latencies, and
    #: the sample counts; raw samples are not kept, so memory does not
    #: grow with the number of repetitions.
    latency_q: List[Tuple[float, float]]
    read_q: List[Tuple[float, float]]
    samples: Tuple[int, int]
    engine_p50_ms: float
    engine_p99_ms: float
    attempted: int
    failed: int
    #: Engine objects and raw samples the traced run reads.
    notes: Dict[str, Any] = field(default_factory=dict)


# -- simulator workloads -----------------------------------------------------
@dataclass(frozen=True)
class SimSpec:
    """One simulated workload: app, cluster, config, input and faults."""

    name: str
    app: Callable[[Optional[List[float]]], Any]
    events: int
    rate: float
    keys: int
    exponent: float
    config: Callable[[bool], SimConfig]
    #: Nominal wall seconds of one repetition on a 2-CPU host; a run of
    #: ``--seconds`` makes ``seconds / rep_s`` repetitions, however fast
    #: the code under test is.
    rep_s: float
    #: Crash and recovery of this machine at these shares of the stream.
    crash: Optional[Tuple[str, float, float]] = None
    #: Delivery replay re-sends lost events, so lost deliveries are not
    #: failures; the final counts are checked instead.
    replays: bool = False

    @property
    def stream_s(self) -> float:
        return self.events / self.rate

    @property
    def horizon_s(self) -> float:
        return self.stream_s + 5.0

    def faults(self) -> FaultSchedule:
        schedule = FaultSchedule(seed=0)
        if self.crash is not None:
            machine, at, until = self.crash
            # Off the 0.1 s flusher grid (a crash exactly on a flush
            # tick is a documented source of fluky results).
            schedule.crash(at * self.stream_s + 0.013, machine,
                           recover_at=until * self.stream_s + 0.013)
        return schedule


def _hot_config(trace: bool) -> SimConfig:
    return SimConfig(fastforward=True, trace=trace)


def _churn_config(trace: bool) -> SimConfig:
    return SimConfig(
        fastforward=True, trace=trace,
        delivery_semantics="effectively-once", two_choice=False,
        kill_kv_on_machine_failure=True, checkpoint_epoch_s=0.5,
        flush_policy=FlushPolicy.every(0.2),
        batch_max_events=32, batch_linger_s=0.002,
        cache_slates_per_machine=2_000,
        kv_memtable_flush_bytes=64 * 1024)


SIM_HOT = SimSpec("sim_hot", apps.chain_app, events=60_000, rate=25_000.0,
                  keys=200, exponent=1.0, config=_hot_config, rep_s=3.5)
SIM_CHURN = SimSpec("sim_churn", apps.count_app, events=30_000,
                    rate=4_000.0, keys=20_000, exponent=0.8,
                    config=_churn_config, rep_s=7.5,
                    crash=("m001", 0.4, 0.6),
                    replays=True)


@dataclass
class Input:
    """A workload's generated events, their reference counts, and the
    keys its reads ask for."""

    events: List[Event]
    expected: Counter
    reads: List[str]


def _input(n_events: int, rate: float, keys: int, exponent: float,
           n_reads: int, seed: int) -> Input:
    events = apps.zipf_events(n_events, rate, keys, exponent, seed)
    reads = apps.read_keys(n_reads, keys, exponent, seed + 1)
    return Input(events, apps.expected_counts(events), reads)


def _timed_setups(make: Callable[[], Any], repeats: int,
                  dispose: Callable[[Any], None]) -> Tuple[List[float], Any]:
    """Time ``make()`` ``repeats`` times; dispose of all but the last."""
    setups: List[float] = []
    built = None
    for _ in range(repeats):
        if built is not None:
            dispose(built)
        t0 = time.perf_counter()
        built = make()
        setups.append(time.perf_counter() - t0)
    return setups, built


def sim_input(spec: SimSpec, seed: int) -> Input:
    return _input(spec.events, spec.rate, spec.keys, spec.exponent,
                  SIM_READS, seed)


def sim_rep(spec: SimSpec, data: Input, tracer: Optional[Tracer] = None,
            sim_trace: bool = False) -> Rep:
    """Build the runtime (timed ``SIM_SETUP_REPEATS`` times), run it,
    time point reads of the final slates, and check the counts."""
    gc.collect()
    n = len(data.events)
    done = [0.0] * n
    pulled = [0.0] * n
    cluster = ClusterSpec.uniform(4, cores=4)
    setups, runtime = _timed_setups(
        lambda: create_runtime(
            spec.app(done), cluster, spec.config(sim_trace),
            [Source("S1", apps.stamped(data.events, pulled))],
            failures=spec.faults()),
        SIM_SETUP_REPEATS, dispose=lambda runtime: None)
    if tracer is not None:
        tracer.reset()
    c0, w0 = time.process_time(), time.perf_counter()
    if tracer is not None:
        report = tracer.call(ROOT_RUN, runtime.run, spec.horizon_s)
    else:
        report = runtime.run(spec.horizon_s)
    wall = time.perf_counter() - w0
    cpu = time.process_time() - c0
    notes: Dict[str, Any] = {"runtime": runtime, "report": report}
    if tracer is not None:
        # The reads and checks below are the benchmark's, not the run's.
        notes["run_totals"] = tracer.totals()
        tracer.uninstall()

    read_ms = []
    wrong_reads = 0
    for key in data.reads:
        t0 = time.perf_counter()
        slate = runtime.slate("U1", key)
        read_ms.append((time.perf_counter() - t0) * 1e3)
        want = data.expected.get(key)
        got = None if slate is None else slate.get("count")
        wrong_reads += got != want

    slates = runtime.slates_of("U1", read_through=True)
    failed = apps.miscounted(data.expected, slates) + wrong_reads
    if not spec.replays:
        failed += report.counters.lost_total()
    latency_ms = [(d - p) * 1e3 for d, p in zip(done, pulled) if d > 0.0]
    summary = report.latency
    return Rep(
        setups=setups, events=n, wall_s=wall, cpu=[(n, cpu)],
        latency_q=_quantiles([latency_ms]),
        read_q=_quantiles(_windows(read_ms, SIM_READ_WINDOW)),
        samples=(len(latency_ms), len(read_ms)),
        engine_p50_ms=summary.p50 * 1e3, engine_p99_ms=summary.p99 * 1e3,
        attempted=n + len(data.reads), failed=failed, notes=notes)


# -- real-thread workload ------------------------------------------------------
def local_input(seconds: float, seed: int) -> Input:
    return _input(int(LOCAL_EVENT_RATE * seconds), LOCAL_EVENT_RATE,
                  LOCAL_KEYS, 1.0, int(LOCAL_READ_RATE * seconds), seed)


def _quantiles(windows: List[List[float]]) -> List[Tuple[float, float]]:
    return [(percentile(w, 0.50), percentile(w, 0.95)) for w in windows if w]


def _windows(samples: List[float], size: float) -> List[List[float]]:
    """Consecutive windows of ``size`` samples; a short tail joins the
    last full window."""
    size = int(size)
    cuts = list(range(0, len(samples), size))
    if len(cuts) > 1 and len(samples) - cuts[-1] < size:
        cuts.pop()
    return [samples[lo:hi] for lo, hi in zip(cuts, cuts[1:] + [None])]


def _sleep_until(due: float) -> float:
    """Sleep until ``due`` (perf_counter seconds); return the lag."""
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    return time.perf_counter() - due


def _stop_local(engine: Tuple[LocalMuppet, SlateHTTPServer]) -> None:
    runtime, server = engine
    server.stop()
    runtime.stop()


def local_rep(data: Input, threads: int = 4,
              tracer: Optional[Tracer] = None) -> Rep:
    """Stream the input open loop beside slate reads over HTTP, then
    drain and check the counts. One ingest thread, one reader thread,
    one HTTP connection at a time."""
    gc.collect()
    n = len(data.events)
    done = [0.0] * n

    def start_local() -> Tuple[LocalMuppet, SlateHTTPServer]:
        runtime = LocalMuppet(apps.count_app(done),
                              LocalConfig(num_threads=threads)).start()
        return runtime, SlateHTTPServer(runtime).start()

    setups, (runtime, server) = _timed_setups(
        start_local, LOCAL_SETUP_REPEATS, dispose=_stop_local)
    if tracer is not None:
        tracer.reset()

    per_stretch = int(LOCAL_EVENT_RATE * LOCAL_CPU_STRETCH_S)
    start = time.perf_counter() + 0.05
    event_lag = [0.0] * n
    #: Process CPU time at each stretch boundary (ingest side).
    cpu_marks = [time.process_time()]
    #: (ms from due to response, status, round trip ms, key, generator
    #: lag ms) per read, in due order.
    read_log: List[tuple] = []

    def ingest() -> None:
        for i, event in enumerate(data.events):
            event_lag[i] = _sleep_until(start + i / LOCAL_EVENT_RATE)
            if i and i % per_stretch == 0:
                cpu_marks.append(time.process_time())
            runtime.ingest(event)

    def read() -> None:
        host, port = server.host, server.port
        for j, key in enumerate(data.reads):
            due = start + j / LOCAL_READ_RATE
            lag = _sleep_until(due)
            sent = time.perf_counter()
            status = 0
            conn = http.client.HTTPConnection(host, port, timeout=10.0)
            try:
                conn.request("GET", f"/slate/U1/{key}")
                response = conn.getresponse()
                response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                status = -1
            finally:
                conn.close()
            end = time.perf_counter()
            read_log.append(((end - due) * 1e3, status, (end - sent) * 1e3,
                             key, lag * 1e3))

    workers = [threading.Thread(target=ingest, name="perfbench-ingest"),
               threading.Thread(target=read, name="perfbench-read")]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    drained = runtime.drain(timeout=60.0)
    cpu_marks.append(time.process_time())
    last = max(done)
    slates = runtime.read_slates_of("U1")
    failed = apps.miscounted(data.expected, slates)
    failed += runtime.counters.lost_total() + (0 if drained else 1)
    engine = runtime.latency.summary()
    statuses: Dict[int, int] = {}
    for _, status, _, key, _ in read_log:
        statuses[status] = statuses.get(status, 0) + 1
        # A never-written key must not be found; errors are failures.
        failed += status < 0 or status >= 500 or (
            status == 200 and key.startswith("absent"))
    notes = {"runtime": runtime, "statuses": statuses,
             "event_lag_ms": [lag * 1e3 for lag in event_lag],
             "read_lag_ms": [row[4] for row in read_log],
             "read_rtt_ms": [row[2] for row in read_log]}
    if tracer is not None:
        notes["totals"] = tracer.totals()
    _stop_local((runtime, server))

    latency_ms = [(d - start - i / LOCAL_EVENT_RATE) * 1e3
                  for i, d in enumerate(done) if d > 0.0]
    read_ms = [row[0] for row in read_log]
    stretches = [min(per_stretch, n - lo) for lo in range(0, n, per_stretch)]
    return Rep(
        setups=setups, events=n, wall_s=last - start,
        cpu=list(zip(stretches, (b - a for a, b in zip(cpu_marks,
                                                       cpu_marks[1:])))),
        latency_q=_quantiles(
            _windows(latency_ms, LOCAL_EVENT_RATE * LOCAL_WINDOW_S)),
        read_q=_quantiles(_windows(read_ms, LOCAL_READ_RATE * LOCAL_WINDOW_S)),
        samples=(len(latency_ms), len(read_ms)),
        engine_p50_ms=engine.p50 * 1e3, engine_p99_ms=engine.p99 * 1e3,
        attempted=n + len(data.reads), failed=failed, notes=notes)
