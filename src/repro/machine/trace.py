"""Memory-trace collection.

The trace collector is an ``on_instance`` hook for the executor: for every
executed statement instance it computes the byte address of each array access
(arrays are laid out contiguously, row-major, 8 bytes per element) and feeds it
to a cache hierarchy, accumulating per-level hit/miss counts and per-statement
access counts used by the cost model.  Each statement's accesses are resolved
to their array base and strides once, on its first instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..model.access import ArrayAccess
from ..model.scop import Scop
from ..model.statement import Statement
from .cache import CacheHierarchy

__all__ = ["MemoryTraceCollector"]

_ELEMENT_BYTES = 8


@dataclass
class _ArrayLayout:
    base: int
    shape: tuple[int, ...]
    strides: tuple[int, ...]


class MemoryTraceCollector:
    """Feeds the memory accesses of executed statement instances into a cache model."""

    def __init__(
        self,
        scop: Scop,
        hierarchy: CacheHierarchy,
        parameter_values: Mapping[str, int] | None = None,
    ):
        self.scop = scop
        self.hierarchy = hierarchy
        self.parameter_values = scop.resolved_parameters(parameter_values)
        self.layouts = self._layout_arrays()
        self.accesses = 0
        self.vector_accesses = 0
        self.statement_accesses: dict[str, int] = {}
        self._plans: dict[str, tuple[tuple[ArrayAccess, int, tuple[int, ...]], ...]] = {}

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    def _layout_arrays(self) -> dict[str, _ArrayLayout]:
        layouts: dict[str, _ArrayLayout] = {}
        cursor = 0
        for name, shape_exprs in self.scop.arrays.items():
            shape = tuple(
                max(1, int(expr.evaluate(self.parameter_values))) for expr in shape_exprs
            ) or (1,)
            strides = []
            running = 1
            for extent in reversed(shape):
                strides.append(running)
                running *= extent
            layouts[name] = _ArrayLayout(cursor, shape, tuple(reversed(strides)))
            cursor += running * _ELEMENT_BYTES + 256  # pad between arrays
        return layouts

    # ------------------------------------------------------------------ #
    # Hook
    # ------------------------------------------------------------------ #
    def __call__(self, statement: Statement, values: Mapping[str, int]) -> None:
        """Record the accesses of one statement instance."""
        plan = self._plans.get(statement.name)
        if plan is None:
            plan = self._plans[statement.name] = self._plan(statement)
        if not plan:
            return
        access = self.hierarchy.access
        for array_access, base, strides in plan:
            offset = 0
            for index, stride in zip(array_access.evaluate(values), strides):
                offset += index * stride
            access(base + offset * _ELEMENT_BYTES)
        self.accesses += len(plan)
        self.statement_accesses[statement.name] = (
            self.statement_accesses.get(statement.name, 0) + len(plan)
        )

    def _plan(self, statement: Statement) -> tuple[tuple[ArrayAccess, int, tuple[int, ...]], ...]:
        """The statement's accesses to laid-out arrays, with their base and strides."""
        plan = []
        for access in statement.accesses:
            layout = self.layouts.get(access.array)
            if layout is not None:
                plan.append((access, layout.base, layout.strides))
        return tuple(plan)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def memory_cycles(self) -> int:
        """Total access latency accumulated in the hierarchy."""
        return self.hierarchy.total_latency()

    def miss_ratio(self, level: int = 0) -> float:
        if not self.hierarchy.levels:
            return 0.0
        return self.hierarchy.levels[min(level, len(self.hierarchy.levels) - 1)].miss_ratio

    def statistics(self) -> dict[str, object]:
        return {
            "accesses": self.accesses,
            "levels": self.hierarchy.statistics(),
            "per_statement": dict(self.statement_accesses),
        }
