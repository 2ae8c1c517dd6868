"""Outside-in tracer: spans around calls into the engine's public API.

The tracer replaces public methods on engine classes with timing
wrappers. It must be installed *before* an engine is constructed: the
fused simulator handlers and the real-thread workers bind methods such
as ``SlateManager.get`` once, when they are built, and a wrapper
installed later would never see those calls.

Each call records a span (key, start, end, parent span) in the calling
thread's log. A span's *self time* is its duration minus the durations
of the wrapped calls nested directly inside it, so the self times of all
spans in a thread add up to the wall time they cover. Spans stay in
memory and are written out by :meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: Spans kept per thread; calls past the cap are still timed and counted.
SPAN_CAP = 1_500_000


class _ThreadLog:
    """One thread's open-call stack, per-key totals and span arrays."""

    __slots__ = ("stack", "current", "calls", "self_s", "total_s",
                 "out_bytes", "keys", "starts", "ends", "parents")

    def __init__(self, nkeys: int) -> None:
        #: Nested-call time accumulated by each open span.
        self.stack: List[float] = []
        self.current = -1
        self.calls = [0] * nkeys
        self.self_s = [0.0] * nkeys
        self.total_s = [0.0] * nkeys
        self.out_bytes = [0] * nkeys
        self.keys = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")


class Tracer:
    """Wraps public methods with span recorders; see the module docstring."""

    def __init__(self) -> None:
        self.keys: List[str] = []
        self._index: Dict[str, int] = {}
        self._logs: Dict[int, _ThreadLog] = {}
        self._lock = threading.Lock()
        self._patches: List[Tuple[type, str, Any]] = []
        self.origin = time.perf_counter()

    # -- installation --------------------------------------------------------
    def key_index(self, key: str) -> int:
        index = self._index.get(key)
        if index is None:
            if self._logs:
                raise RuntimeError("declare every key before tracing starts")
            index = self._index[key] = len(self.keys)
            self.keys.append(key)
        return index

    def install(self, targets: List[Tuple[str, type, str]],
                roots: Tuple[str, ...] = (),
                count_bytes: Tuple[str, ...] = ()) -> None:
        """Wrap ``cls.method`` for each ``(key, cls, method)`` target and
        declare the ``roots`` keys that :meth:`call` spans use.

        Only methods a class defines itself are wrapped, so a subclass
        override and its base can share one key without double counting.
        For keys in ``count_bytes`` the length of each result is summed.
        """
        for key in roots:
            self.key_index(key)
        for key, cls, name in targets:
            original = cls.__dict__.get(name)
            if original is None:
                raise AttributeError(f"{cls.__name__} defines no {name!r}")
            wrapper = self._wrap(original, self.key_index(key),
                                 key in count_bytes)
            self._patches.append((cls, name, original))
            setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)

    def reset(self) -> None:
        """Forget all recorded calls and spans (between repetitions)."""
        with self._lock:
            self._logs = {}
            self.origin = time.perf_counter()

    def _log(self) -> _ThreadLog:
        ident = threading.get_ident()
        log = self._logs.get(ident)
        if log is None:
            with self._lock:
                log = self._logs.get(ident)
                if log is None:
                    log = _ThreadLog(len(self.keys))
                    # Copy-on-write so readers never see a dict resize.
                    logs = dict(self._logs)
                    logs[ident] = log
                    self._logs = logs
        return log

    def _wrap(self, fn: Callable, k: int, count_bytes: bool) -> Callable:
        tracer = self
        perf = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args: Any, **kwargs: Any) -> Any:
            log = tracer._logs.get(get_ident()) or tracer._log()
            stack = log.stack
            stack.append(0.0)
            parent = log.current
            idx = len(log.starts)
            recorded = idx < SPAN_CAP
            t0 = perf()
            if recorded:
                log.keys.append(k)
                log.parents.append(parent)
                log.starts.append(t0)
                log.ends.append(t0)
                log.current = idx
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                dur = t1 - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += dur
                log.calls[k] += 1
                log.self_s[k] += dur - nested
                log.total_s[k] += dur
                if count_bytes and result is not None:
                    log.out_bytes[k] += len(result)
                if recorded:
                    log.ends[idx] = t1
                log.current = parent

        return functools.wraps(fn)(traced)

    def call(self, key: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` inside a span of its own: the root under
        which the engine's wrapped calls nest."""
        return self._wrap(fn, self._index[key], False)(*args)

    # -- results -------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per key: calls, self_s, total_s and out_bytes over all threads."""
        out = {key: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                     "out_bytes": 0} for key in self.keys}
        for log in list(self._logs.values()):
            for k, key in enumerate(self.keys):
                if not log.calls[k]:
                    continue
                row = out[key]
                row["calls"] += log.calls[k]
                row["self_s"] += log.self_s[k]
                row["total_s"] += log.total_s[k]
                row["out_bytes"] += log.out_bytes[k]
        return out

    def write(self, path: Path) -> int:
        """Write every kept span as gzip'd TSV; returns the span count.

        Columns: thread, span id, key, start_us, end_us, parent span id
        (``-1`` for a root). Times are microseconds since the last
        :meth:`reset`; span ids are per thread.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.origin
        written = 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("thread\tspan\tkey\tstart_us\tend_us\tparent\n")
            for t, log in enumerate(list(self._logs.values())):
                keys = self.keys
                lines = [
                    f"{t}\t{i}\t{keys[k]}\t{(s - origin) * 1e6:.1f}\t"
                    f"{(e - origin) * 1e6:.1f}\t{p}\n"
                    for i, (k, s, e, p) in enumerate(
                        zip(log.keys, log.starts, log.ends, log.parents))]
                out.writelines(lines)
                written += len(lines)
        return written
