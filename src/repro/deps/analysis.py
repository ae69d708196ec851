"""Memory-based dependence analysis.

For every ordered pair of statements and every pair of accesses to the same
array (with at least one write), a dependence polyhedron is built per original
execution depth: both instances in their domains, equal subscripts, and the
source instance lexicographically before the target instance with the first
difference at that depth.  Non-empty polyhedra become :class:`Dependence`
objects.  This matches the abstraction used by Candl/Pluto (memory-based
dependences, per-depth splitting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..linalg.varspace import VariableSpace
from ..model.access import ArrayAccess
from ..model.scop import Scop
from ..model.statement import Statement
from ..polyhedra.affine import AffineExpr
from ..polyhedra.constraint import AffineConstraint
from ..polyhedra.emptiness import BatchProbe
from ..polyhedra.fourier_motzkin import constraint_rows
from ..polyhedra.polyhedron import Polyhedron
from ..polyhedra.space import Space
from .dependence import SOURCE_SUFFIX, TARGET_SUFFIX, Dependence, DependenceKind

__all__ = ["DependenceAnalysis", "compute_dependences", "deduplicate_dependences"]


def deduplicate_dependences(dependences: Sequence[Dependence]) -> list[Dependence]:
    """Drop dependences whose (source, target, polyhedron) repeats an earlier one.

    Dependences that only differ by their kind (RAW/WAR/WAW on the same access
    pair) impose identical scheduling constraints; keeping one representative
    each keeps the scheduler's ILPs small.
    """
    seen: set[tuple] = set()
    unique: list[Dependence] = []
    for dependence in dependences:
        signature = (
            dependence.source,
            dependence.target,
            dependence.polyhedron.row_signature(),
        )
        if signature in seen:
            continue
        seen.add(signature)
        unique.append(dependence)
    return unique


@dataclass
class DependenceAnalysis:
    """Configuration for the dependence analysis.

    Every candidate polyhedron of one :meth:`run` is probed for integer
    emptiness through a single :class:`~repro.polyhedra.emptiness.BatchProbe`
    — one engine context per SCoP instead of one solver per probe.

    :attr:`last_statistics` holds the deterministic counters of the last
    run: the probe counters (probes, trivial and cache reuse hits, engine
    probes) and the analysis work, ``access_pairs`` (access pairs analysed),
    ``polyhedra`` (level polyhedra built, one per pair and original depth)
    and ``rows_admitted`` (constraint rows those polyhedra kept after
    simplification).  The pipeline's dependence stage puts them on its span.
    """

    include_flow: bool = True
    include_anti: bool = True
    include_output: bool = True

    def __post_init__(self) -> None:
        self.last_statistics: dict[str, int] = {}

    def run(self, scop: Scop) -> list[Dependence]:
        probe = BatchProbe()
        counters = dict.fromkeys(("access_pairs", "polyhedra", "rows_admitted"), 0)
        dependences: list[Dependence] = []
        for source in scop.statements:
            for target in scop.statements:
                dependences.extend(
                    self._statement_pair(scop, source, target, probe, counters)
                )
        self.last_statistics = {**counters, **probe.statistics()}
        return dependences

    # ------------------------------------------------------------------ #
    # Per statement pair
    # ------------------------------------------------------------------ #
    def _statement_pair(
        self,
        scop: Scop,
        source: Statement,
        target: Statement,
        probe: BatchProbe,
        counters: dict[str, int],
    ) -> Iterable[Dependence]:
        arrays = source.accessed_arrays() & target.accessed_arrays()
        for array in sorted(arrays):
            for source_access in source.accesses_to(array):
                for target_access in target.accesses_to(array):
                    kind = self._classify(source_access, target_access)
                    if kind is None:
                        continue
                    yield from self._access_pair(
                        scop, source, target, source_access, target_access, kind,
                        probe, counters,
                    )

    def _classify(
        self, source_access: ArrayAccess, target_access: ArrayAccess
    ) -> DependenceKind | None:
        if not (source_access.is_write or target_access.is_write):
            return None
        kind = DependenceKind.of(source_access, target_access)
        if kind is DependenceKind.FLOW and not self.include_flow:
            return None
        if kind is DependenceKind.ANTI and not self.include_anti:
            return None
        if kind is DependenceKind.OUTPUT and not self.include_output:
            return None
        return kind

    def _access_pair(
        self,
        scop: Scop,
        source: Statement,
        target: Statement,
        source_access: ArrayAccess,
        target_access: ArrayAccess,
        kind: DependenceKind,
        probe: BatchProbe,
        counters: dict[str, int],
    ) -> Iterable[Dependence]:
        source_map = {name: f"{name}{SOURCE_SUFFIX}" for name in source.iterators}
        target_map = {name: f"{name}{TARGET_SUFFIX}" for name in target.iterators}
        combined_space = Space(
            tuple(source_map[name] for name in source.iterators)
            + tuple(target_map[name] for name in target.iterators),
            scop.parameters,
        )

        # The rows of every level polyhedron are built once over one growing
        # column space: both domains, the context, the subscript equalities,
        # then per depth the earlier levels' equalities and this level's
        # strict difference.  Names are interned in that order of first
        # appearance, exactly as when the level's constraints are listed.
        columns = VariableSpace()
        base_rows = source.domain.rows_in(columns, source_map)
        base_rows.extend(target.domain.rows_in(columns, target_map))
        base_rows.extend(constraint_rows(scop.context, columns))
        base_rows.extend(
            constraint_rows(
                (
                    AffineConstraint.equals(
                        source_index.rename(source_map), target_index.rename(target_map)
                    )
                    for source_index, target_index in zip(
                        source_access.indices, target_access.indices
                    )
                ),
                columns,
            )
        )

        source_rows = _padded_rows(source.original_schedule, scop)
        target_rows = _padded_rows(target.original_schedule, scop)
        n_levels = max(len(source_rows), len(target_rows))
        source_rows = _pad(source_rows, n_levels)
        target_rows = _pad(target_rows, n_levels)

        counters["access_pairs"] += 1
        prefix_rows = []
        for depth in range(n_levels):
            difference = target_rows[depth].rename(target_map) - source_rows[depth].rename(
                source_map
            )
            level_rows = base_rows + prefix_rows
            level_rows.extend(
                constraint_rows([AffineConstraint.greater_equal(difference, 1)], columns)
            )
            polyhedron = Polyhedron.from_rows(combined_space, columns, level_rows)
            counters["polyhedra"] += 1
            counters["rows_admitted"] += polyhedron.n_constraints
            if not probe.is_integer_empty(polyhedron):
                yield Dependence(
                    source=source.name,
                    target=target.name,
                    kind=kind,
                    array=source_access.array,
                    polyhedron=polyhedron,
                    source_map=source_map,
                    target_map=target_map,
                    depth=depth,
                    source_access=source_access,
                    target_access=target_access,
                )
            prefix_rows.extend(
                constraint_rows([AffineConstraint.equals(difference, 0)], columns)
            )


def _padded_rows(rows: Sequence[AffineExpr], scop: Scop) -> list[AffineExpr]:
    return list(rows)


def _pad(rows: list[AffineExpr], length: int) -> list[AffineExpr]:
    padded = list(rows)
    while len(padded) < length:
        padded.append(AffineExpr.const(0))
    return padded


def compute_dependences(
    scop: Scop,
    include_flow: bool = True,
    include_anti: bool = True,
    include_output: bool = True,
    deduplicate: bool = False,
    statistics: dict | None = None,
) -> list[Dependence]:
    """Compute the dependences of *scop* (flow, anti and output by default).

    With ``deduplicate=True`` dependences imposing identical scheduling
    constraints (same source, target and polyhedron, differing only by kind)
    are collapsed to one representative each.  Passing a dict as
    ``statistics`` fills it with the run's counters
    (:attr:`DependenceAnalysis.last_statistics`).
    """
    analysis = DependenceAnalysis(include_flow, include_anti, include_output)
    dependences = analysis.run(scop)
    if statistics is not None:
        statistics.update(analysis.last_statistics)
    if deduplicate:
        return deduplicate_dependences(dependences)
    return dependences
