"""Benchmark-side spans: one per operation, one per call into a layer.

The benchmark records its own spans around the calls it makes into each
layer's public functions; it does not switch on the program's tracer, so
the traced run measures the same program as the untraced one.

An operation is timed by a :class:`Clock` as consecutive layer spans: each
``lap`` closes the span that began where the previous one ended, so the
layer spans tile the operation's wall and nothing is left unattributed.
Time a thread spends waiting for the interpreter lock inside an operation
(the ``service-mix`` clients share one) lands in the layer it interrupted.
Spans are kept in memory and written out at the end as Chrome-trace JSON
(loadable in Perfetto) and a per-layer self-time table.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass

#: Name of the span that encloses one whole operation.
OP = "op"


@dataclass(frozen=True)
class SpanRecord:
    name: str
    op: int
    start_ns: int
    duration_ns: int
    thread: int


class Clock:
    """Times one operation as a sequence of layer spans."""

    def __init__(self, trace: "Trace", op: int):
        self.trace = trace
        self.op = op
        self.start = self.last = time.perf_counter_ns()

    def lap(self, name: str) -> None:
        """Close the span *name*: from the previous lap (or the start) to now."""
        now = time.perf_counter_ns()
        self.trace.add(name, self.op, self.last, now - self.last)
        self.last = now

    def close(self) -> float:
        """Record the operation span; returns its seconds."""
        self.trace.add(OP, self.op, self.start, self.last - self.start)
        return (self.last - self.start) / 1e9


class Trace:
    """Thread-safe in-memory span recorder."""

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []
        self._lock = threading.Lock()

    def clock(self, op: int) -> Clock:
        return Clock(self, op)

    def add(self, name: str, op: int, start_ns: int, duration_ns: int) -> None:
        record = SpanRecord(name, op, start_ns, duration_ns, threading.get_ident())
        with self._lock:
            self.records.append(record)

    def layer_seconds(self) -> dict[str, float]:
        """Total seconds per layer span name."""
        totals: dict[str, float] = {}
        for record in self.records:
            if record.name != OP:
                totals[record.name] = totals.get(record.name, 0.0) + record.duration_ns / 1e9
        return totals

    def self_time_table(self) -> str:
        """Self time per layer (layer spans have no children) and its share."""
        totals = self.layer_seconds()
        op_total = sum(r.duration_ns for r in self.records if r.name == OP) / 1e9
        lines = [f"{'span':<24} {'self s':>10} {'share':>7}"]
        for name, seconds in sorted(totals.items(), key=lambda item: -item[1]):
            share = seconds / op_total if op_total else 0.0
            lines.append(f"{name:<24} {seconds:>10.4f} {share:>7.1%}")
        lines.append(f"{'operations (wall)':<24} {op_total:>10.4f}")
        return "\n".join(lines)

    def write_chrome_trace(self, path: str, labels: dict[int, str]) -> None:
        origin = min((r.start_ns for r in self.records), default=0)
        threads = {tid: n for n, tid in enumerate(sorted({r.thread for r in self.records}))}
        events = [
            {
                "name": labels.get(r.op, str(r.op)) if r.name == OP else r.name,
                "cat": r.name.split(".")[0],
                "ph": "X",
                "ts": (r.start_ns - origin) / 1e3,
                "dur": r.duration_ns / 1e3,
                "pid": 1,
                "tid": threads[r.thread],
                "args": {"op": labels.get(r.op, str(r.op))},
            }
            for r in sorted(self.records, key=lambda r: (r.start_ns, -r.duration_ns))
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class _NullClock:
    def lap(self, name: str) -> None:
        pass

    def close(self) -> float:
        return 0.0


class NullTrace:
    """The untraced path: a clock whose laps record nothing."""

    _CLOCK = _NullClock()

    def clock(self, op: int) -> _NullClock:
        return self._CLOCK


NULL_TRACE = NullTrace()
