"""Set-associative LRU cache simulation.

The paper evaluates generated code on real CPUs (AMD EPYC 7452, two Xeons) and
on an Ascend 910 NPU.  None of that hardware is available here, so locality
effects are measured with a classic trace-driven cache simulator: the executor
replays the memory accesses of the scheduled code and each access walks down a
small cache hierarchy.

The hierarchy sizes used by the machine models are *scaled down* together with
the problem sizes (MINI/SMALL PolyBench datasets), so that working sets
overflow caches at the same relative points as in the paper's full-size runs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = ["CacheLevelSpec", "CacheLevel", "CacheHierarchy", "AccessOutcome"]


@dataclass(frozen=True)
class CacheLevelSpec:
    """Static description of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    latency_cycles: int = 4

    @property
    def n_sets(self) -> int:
        lines = max(1, self.size_bytes // self.line_bytes)
        return max(1, lines // max(1, self.associativity))


@dataclass
class AccessOutcome:
    """Result of one access: which level served it (``None`` = main memory)."""

    level: str | None
    latency_cycles: int


class CacheLevel:
    """One set-associative LRU cache level."""

    def __init__(self, spec: CacheLevelSpec):
        self.spec = spec
        # The geometry is read on every access: resolve it once.
        self.line_bytes = spec.line_bytes
        self.n_sets = spec.n_sets
        self.associativity = spec.associativity
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit (line loaded on miss)."""
        line = address // self.line_bytes
        ways = self._sets[line % self.n_sets]
        if line in ways:
            ways.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        ways[line] = None
        if len(ways) > self.associativity:
            ways.popitem(last=False)
        return False

    def reset_statistics(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class CacheHierarchy:
    """A stack of inclusive cache levels in front of main memory."""

    def __init__(self, specs: list[CacheLevelSpec], memory_latency_cycles: int = 200):
        self.levels = [CacheLevel(spec) for spec in specs]
        self.memory_latency_cycles = memory_latency_cycles
        self.memory_accesses = 0

    def access(self, address: int) -> AccessOutcome:
        """Access an address; every level is updated (inclusive hierarchy)."""
        hit_level: CacheLevel | None = None
        for level in self.levels:
            if level.access(address) and hit_level is None:
                hit_level = level
        if hit_level is not None:
            return AccessOutcome(hit_level.spec.name, hit_level.spec.latency_cycles)
        self.memory_accesses += 1
        return AccessOutcome(None, self.memory_latency_cycles)

    def reset_statistics(self) -> None:
        for level in self.levels:
            level.reset_statistics()
        self.memory_accesses = 0

    def total_accesses(self) -> int:
        return self.levels[0].accesses if self.levels else self.memory_accesses

    def statistics(self) -> dict[str, dict[str, int]]:
        """Per-level hit/miss counters."""
        stats = {
            level.spec.name: {"hits": level.hits, "misses": level.misses}
            for level in self.levels
        }
        stats["memory"] = {"accesses": self.memory_accesses}
        return stats

    def total_latency(self) -> int:
        """Total access latency in cycles accumulated so far."""
        cycles = 0
        for level in self.levels:
            cycles += level.hits * level.spec.latency_cycles
        cycles += self.memory_accesses * self.memory_latency_cycles
        return cycles
