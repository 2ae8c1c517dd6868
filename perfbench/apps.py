"""The benchmark's applications and seeded inputs.

The engine only ever sees the generated events; everything random is
drawn here from the run's seed, so one seed gives one input.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Dict, Iterator, List, Optional

from repro.core.application import Application
from repro.core.event import Event
from repro.core.operators import Context, Mapper, Updater
from repro.workloads.zipf import ZipfSampler


class Echo(Mapper):
    """Republishes each event unchanged on its configured output stream."""

    def map(self, ctx: Context, event: Event) -> None:
        ctx.publish(self.config["output_sid"], event.key, event.value)


class Count(Updater):
    """Counts events per key and stamps when each event's update finished.

    ``config["done"]`` is a list indexed by the source event's ordinal
    (carried in ``event.value``); the stamp is ``time.perf_counter()``.
    A replayed event that is applied again overwrites its stamp, so the
    stamp marks the application that the final count holds.
    """

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"count": 0}

    def update(self, ctx: Context, event: Event, slate: Any) -> None:
        slate["count"] += 1
        done = self.config.get("done")
        if done is not None:
            done[event.value] = time.perf_counter()


def chain_app(done: Optional[List[float]] = None) -> Application:
    """S1 -> M1 -> S2 -> M2 -> S3 -> U1: two map hops, then a count."""
    app = Application("perfbench-chain")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_stream("S3")
    app.add_mapper("M1", Echo, subscribes=["S1"], publishes=["S2"],
                   config={"output_sid": "S2"})
    app.add_mapper("M2", Echo, subscribes=["S2"], publishes=["S3"],
                   config={"output_sid": "S3"})
    app.add_updater("U1", Count, subscribes=["S3"], config={"done": done})
    return app.validate()


def count_app(done: Optional[List[float]] = None) -> Application:
    """S1 -> M1 -> S2 -> U1: one map hop, then a count."""
    app = Application("perfbench-count")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_mapper("M1", Echo, subscribes=["S1"], publishes=["S2"],
                   config={"output_sid": "S2"})
    app.add_updater("U1", Count, subscribes=["S2"], config={"done": done})
    return app.validate()


def zipf_events(n: int, rate: float, keys: int, exponent: float,
                seed: int) -> List[Event]:
    """``n`` source events ``1/rate`` apart, keys Zipf-drawn by rank.

    ``value`` is the event's ordinal, which the ``Count`` updater uses to
    stamp completion.
    """
    sampler = ZipfSampler(keys, exponent, seed)
    return [Event("S1", ts=i / rate, key=f"k{sampler.sample()}", value=i)
            for i in range(n)]


#: Every tenth read asks for a key that is never written.
ABSENT_EVERY = 10


def read_keys(n: int, keys: int, exponent: float, seed: int) -> List[str]:
    """Keys for ``n`` slate reads: Zipf-drawn like the writes, except
    every ``ABSENT_EVERY``-th read asks for a key that is never written
    (it falls through the slate cache to the kv read path)."""
    sampler = ZipfSampler(keys, exponent, seed)
    return [f"absent{i}" if i % ABSENT_EVERY == ABSENT_EVERY - 1
            else f"k{sampler.sample()}" for i in range(n)]


def expected_counts(events: List[Event]) -> Counter:
    """Per-key event counts of the generated input: the reference."""
    return Counter(event.key for event in events)


def miscounted(expected: Counter, slates: Dict[str, Dict[str, Any]]) -> int:
    """Events missing from (or counted twice in) the final slates."""
    wrong = sum(abs(slates.get(key, {}).get("count", 0) - count)
                for key, count in expected.items())
    wrong += sum(slate.get("count", 0) for key, slate in slates.items()
                 if key not in expected)
    return wrong


def stamped(events: List[Event], pulled: List[float]) -> Iterator[Event]:
    """Yield ``events``, stamping when the engine pulled each one."""
    clock = time.perf_counter
    for event in events:
        pulled[event.value] = clock()
        yield event
