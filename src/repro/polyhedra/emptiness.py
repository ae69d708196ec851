"""Exact integer emptiness, sampling and enumeration for polyhedra.

Emptiness and sampling are delegated to the ILP layer with all dimensions
(iterators *and* parameters) treated as free integer variables; the
incremental engine answers these feasibility probes warm (with the dense
branch & bound as its automatic fallback).  Enumeration requires a bounded set
and proceeds dimension by dimension using the rational bounds from
Fourier–Motzkin projection, checking each candidate point against the
original constraints.

Callers issuing *many* probes — dependence analysis asks one per access pair
and original depth — should hold a :class:`BatchProbe`: one engine-backed
solver (and its aggregated statistics) serves every candidate polyhedron of
a SCoP, and structurally identical polyhedra are answered from a signature
cache instead of a fresh ILP.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from ..ilp.engine import EngineError, EngineStatistics
from ..ilp.options import SolverOptions
from ..ilp.problem import ConstraintSense, LinearProblem
from ..ilp.revised import _RevisedTableau
from ..ilp.simplex import LpStatus
from ..ilp.solver import IlpSolver
from ..obs import active_tracer
from .polyhedron import Polyhedron
from .space import CONSTANT_KEY

__all__ = [
    "BatchProbe",
    "RedundancyProber",
    "is_integer_empty",
    "find_integer_point",
    "enumerate_integer_points",
    "count_integer_points",
]

_ENUMERATION_LIMIT = 2_000_000


def _to_problem(polyhedron: Polyhedron) -> LinearProblem:
    problem = LinearProblem()
    for name in polyhedron.space.names:
        problem.add_variable(name, lower=None, upper=None, is_integer=True)
    names = polyhedron.column_names
    for row, is_equality in polyhedron.rows:
        problem.add_constraint(
            {names[column]: value for column, value in row.terms},
            ConstraintSense.EQ if is_equality else ConstraintSense.GE,
            -row.constant,
        )
    return problem


class BatchProbe:
    """One engine-backed context answering a batch of emptiness probes.

    The historical path built a fresh :class:`IlpSolver` per probe, so a
    SCoP's dependence analysis paid solver construction and statistics
    isolation for every access pair and depth.  A ``BatchProbe`` amortises
    both: the solver (and the incremental engine statistics it aggregates)
    lives for the whole batch, and a canonical constraint signature caches
    verdicts so structurally identical candidate polyhedra — common under
    per-depth splitting, where only the lexicographic difference row moves —
    are answered without touching the engine at all.

    ``workers=1`` pins the probes to the sequential path: feasibility trees
    are tiny and a probe context must not spin up a worker pool under a
    ``REPRO_ILP_WORKERS`` default.  A ``BatchProbe`` is *not* thread-safe;
    concurrent pipeline workers hold one each (dependence analysis creates
    one per run).
    """

    def __init__(self, tracer=None) -> None:
        self.solver = IlpSolver(options=SolverOptions.resolve(workers=1))
        self._verdicts: dict[tuple, dict[str, int] | None] = {}
        self.probes = 0
        self.trivial_hits = 0
        self.reuse_hits = 0
        self.engine_probes = 0
        #: Span sink for engine-backed probes; resolved from the active
        #: tracer at construction (dependence analysis builds one probe per
        #: run, on the thread the session tracer is activated on).
        self.tracer = tracer if tracer is not None else active_tracer()

    @staticmethod
    def _signature(polyhedron: Polyhedron) -> tuple:
        return (polyhedron.space.names, polyhedron.row_signature())

    def find_integer_point(self, polyhedron: Polyhedron) -> dict[str, int] | None:
        """Some integer point of the polyhedron, or ``None`` when it is empty."""
        self.probes += 1
        if polyhedron.has_trivial_contradiction():
            self.trivial_hits += 1
            return None
        signature = self._signature(polyhedron)
        if signature in self._verdicts:
            self.reuse_hits += 1
            cached = self._verdicts[signature]
            # A fresh dict per call: callers may adjust the witness point,
            # which must not corrupt the cached verdict.
            return None if cached is None else dict(cached)
        self.engine_probes += 1
        # Only probes that actually reach the engine get a span: trivial and
        # cached verdicts are dictionary lookups, not timeline-worthy work.
        with self.tracer.span(
            "emptiness.probe",
            category="emptiness",
            dimensions=len(polyhedron.space.names),
            constraints=polyhedron.n_constraints,
        ) as span:
            solution = self.solver.solve(_to_problem(polyhedron))
            span.set("empty", solution is None)
        point = (
            None
            if solution is None
            else {name: int(value) for name, value in solution.assignment.items()}
        )
        self._verdicts[signature] = point
        return None if point is None else dict(point)

    def is_integer_empty(self, polyhedron: Polyhedron) -> bool:
        """True when the polyhedron contains no integer point."""
        return self.find_integer_point(polyhedron) is None

    def statistics(self) -> dict[str, int]:
        """Probe counters (batch totals, cheap to read at any point)."""
        return {
            "emptiness_probes": self.probes,
            "emptiness_trivial_hits": self.trivial_hits,
            "emptiness_reuse_hits": self.reuse_hits,
            "emptiness_engine_probes": self.engine_probes,
        }


class _BlockContext:
    """One factored tableau answering every implication probe of one block.

    The block is hand-encoded to the bounded standard form once: boxed
    variables become shifted non-negative columns (integer widths as column
    spans, fractional widths as explicit bound rows), upper-only variables
    are negated, free variables split.  Equality rows carry a span-0 slack;
    every inequality row carries a slack *and* a pinned span-0 **escape**
    column with coefficient ``-1`` — widening the escape's span to
    ``[0, inf)`` makes the row vacuous, so relaxing a candidate is one O(1)
    span edit instead of a fresh solver stack.

    A probe is then: pin the previous kept candidate back (dual repair under
    the still-dual-feasible previous objective), relax the new candidate's
    escape (loosening a bound never breaks primal feasibility), install the
    candidate's objective and run the primal simplex from the current basis.
    Dropped rows simply stay relaxed, which reproduces the sequential
    ``others = kept - {candidate}`` semantics of the historical
    one-problem-per-probe path verdict for verdict.
    """

    def __init__(
        self,
        row_keys: list[tuple],
        names: list[str],
        boxes: Mapping[str, tuple],
        stats,
    ) -> None:
        self.feasible = False
        self._pending: int | None = None
        self._needs_zero_objective = False
        #: Block row index -> (slack column, escape column) of its tableau row.
        self._handles: dict[int, tuple[int, int]] = {}

        # Column encoding over the boxes: x = shift + sum(sign * w_column).
        terms: dict[str, list[tuple[int, int]]] = {}
        shifts: dict[str, Fraction] = {}
        spans: list[int | None] = []
        bound_rows: list[tuple[dict[int, Fraction], Fraction]] = []

        def new_column(span: int | None) -> int:
            spans.append(span)
            return len(spans) - 1

        for name in names:
            lower, upper = boxes.get(name) or (None, None)
            if lower is not None:
                shift = Fraction(lower)
                if upper is not None:
                    width = Fraction(upper) - shift
                    if width < 0:
                        return  # empty box: the block is infeasible
                    if width.denominator == 1:
                        column = new_column(int(width))
                    else:
                        # Fractional width: unbounded column plus an explicit
                        # w <= width row (spans are integers by contract).
                        column = new_column(None)
                        bound_rows.append(({column: Fraction(1)}, width))
                else:
                    column = new_column(None)
                terms[name] = [(column, 1)]
                shifts[name] = shift
            elif upper is not None:
                column = new_column(None)
                terms[name] = [(column, -1)]
                shifts[name] = Fraction(upper)
            else:
                positive = new_column(None)
                negative = new_column(None)
                terms[name] = [(positive, 1), (negative, -1)]
                shifts[name] = Fraction(0)

        # Rows: LE-normalise, clear denominators, slack (+ escape) columns.
        tableau_rows: list[tuple[list[tuple[int, int]], int]] = []
        basis: list[int] = []

        def append_row(
            working: dict[int, Fraction], rhs: Fraction, escape: bool, equality: bool
        ) -> tuple[int, int] | None:
            scale = math.lcm(
                rhs.denominator, *(value.denominator for value in working.values())
            )
            pairs = [
                (column, int(value * scale))
                for column, value in sorted(working.items())
                if value
            ]
            slack = new_column(0 if equality else None)
            pairs.append((slack, 1))
            handle = None
            if escape:
                escape_column = new_column(0)
                pairs.append((escape_column, -1))
                handle = (slack, escape_column)
            tableau_rows.append((pairs, int(rhs * scale)))
            basis.append(slack)
            return handle

        for index, (pairs, sense, rhs) in enumerate(row_keys):
            working: dict[int, Fraction] = {}
            offset = Fraction(0)
            for name, coefficient in pairs:
                offset += coefficient * shifts[name]
                for column, sign in terms[name]:
                    working[column] = working.get(column, Fraction(0)) + sign * coefficient
            residual = Fraction(rhs) - offset
            inequality = sense in ("<=", ">=")
            if sense == ">=":
                working = {column: -value for column, value in working.items()}
                residual = -residual
            handle = append_row(
                working, residual, escape=inequality, equality=not inequality
            )
            if handle is not None:
                self._handles[index] = handle
        for working, rhs in bound_rows:
            append_row(working, rhs, escape=False, equality=False)

        self._tableau = _RevisedTableau(
            tableau_rows, basis, len(spans), stats, spans=spans
        )
        # The slack-identity root is feasible exactly when every slack sits
        # inside its span (rhs >= 0, equality rows at 0).  Then every probe
        # can restart from this snapshot with an O(columns) reset instead of
        # a dual repair; otherwise one zero-objective dual simplex settles
        # feasibility (no phase 1 — the zero objective is dual feasible) and
        # probes repair between themselves.
        self._root: tuple[list[int], list[int]] | None = None
        self._dropped: set[int] = set()
        self._dirty = False
        if all(
            rhs >= 0 and not (spans[slack] == 0 and rhs != 0)
            for (_, rhs), slack in zip(tableau_rows, basis)
        ):
            # Copy: the tableau pivots mutate its basis list in place.
            self._root = (list(basis), [rhs for _, rhs in tableau_rows])
            self.feasible = True
        else:
            self.feasible = self._tableau.dual_simplex() is LpStatus.OPTIMAL

    def probe(self, index: int) -> bool:
        """Whether inequality row *index* is implied by the other active rows.

        In the LE-normalised encoding the row reads ``c.w + s - e = r`` with
        ``s - e = scale * (lhs - rhs)`` for a ``>=`` row (and ``scale * (rhs
        - lhs)`` for ``<=``), so the implication LP collapses to *minimise*
        ``s - e`` over the others — two unit integer costs on the row's own
        slack and relaxed escape, no repricing of the working columns — and
        the verdict to the sign of the optimum: implied exactly when it is
        ``>= 0``.  A "keep" verdict only needs *some* point below zero, so
        the primal walk stops at the first basis whose value goes negative
        (``cutoff=0``) instead of walking to the true minimum.
        """
        tableau = self._tableau
        if self._root is not None:
            # Feasible-root mode: restart every probe from the snapshot.
            if self._dirty:
                tableau.reset_root(*self._root)
                spans = tableau.spans
                for row_index, (_, escape_column) in self._handles.items():
                    spans[escape_column] = None if row_index in self._dropped else 0
            self._dirty = True
        else:
            if self._needs_zero_objective:
                # The previous probe stopped mid-walk (cutoff or unbounded),
                # so its reduced costs are not dual feasible; reprice to the
                # always dual-feasible zero objective before the dual repair.
                tableau.set_objective([])
                self._needs_zero_objective = False
            if self._pending is not None:
                tableau.pin_column(self._handles[self._pending][1])
                self._pending = None
                if tableau.dual_simplex() is not LpStatus.OPTIMAL:
                    raise EngineError(
                        "irredundancy context lost feasibility on re-pin"
                    )
        slack, escape = self._handles[index]
        tableau.relax_column(escape)
        vector = [0] * (escape + 1)
        vector[slack] = 1
        vector[escape] = -1
        tableau.set_objective(vector)
        status = tableau.primal_simplex(cutoff=0)
        if status is LpStatus.UNBOUNDED or tableau.objective[-1] > 0:
            # min(s - e) < 0: the others admit a point beyond the row.
            if self._root is None:
                self._needs_zero_objective = True
                self._pending = index
            return False
        self._dropped.add(index)
        return True


class RedundancyProber:
    """LP-based irredundancy for cached scheduler row blocks.

    ``prune(rows, boxes)`` returns the subset of *rows* (``(coefficients,
    sense, rhs)`` triples over named variables) whose inequality rows are not
    already implied by the remaining rows over the variable *boxes*: a
    ``>=`` row is dropped exactly when the LP minimum of its left-hand side
    over the rest of the block (and the boxes) already reaches the
    right-hand side, and symmetrically for ``<=``.  Equality rows are never
    dropped.  The variables are relaxed to continuous — each probe is one
    pure LP over a tiny block — and implication over the full boxes stays
    valid for every later tightening (a pinned statement shrinks its box),
    which is what lets the pruned block live in the run-wide cache.

    Verdicts are cached by the block's canonical signature in a
    **process-shared store** (implication is a pure function of rows +
    boxes), so replaying the same dependence block — under another
    dimension, another run, or a later compilation served by the same
    daemon — costs a dictionary lookup.  An infeasible block is returned
    untouched: emptiness is the scheduler's verdict to reach, not the
    prober's.

    The probes of one block **amortise** through one :class:`_BlockContext`:
    consecutive probes differ by one objective and one relaxed row, so each
    probe after the first re-uses the previous probe's factored basis (two
    span edits, a short dual repair and a short primal walk) instead of
    paying encoder + phase 1 + solver construction.  The context never
    crosses block boundaries, and the verdicts are bit-identical to the
    one-problem-per-probe path.
    """

    #: Process-shared verdict store: the kept-index tuple per canonical block
    #: signature.  Implication is a pure function of the signature (rows +
    #: boxes), so verdicts are valid across runs, schedulers and threads —
    #: a long-lived process (the repro.service daemon, a benchmark loop)
    #: pays each distinct block's probes once and answers every replay with
    #: a dictionary lookup.  Concurrent writers can only race to store the
    #: same value; GIL-atomic dict operations make that benign.
    _SHARED_VERDICTS: dict[tuple, tuple[int, ...]] = {}

    @classmethod
    def clear_shared_store(cls) -> None:
        """Drop all shared verdicts (tests and cold-cost measurements)."""
        cls._SHARED_VERDICTS.clear()

    def __init__(self, options: SolverOptions | None = None, tracer=None) -> None:
        # The run's options are accepted for signature stability, but probes
        # no longer route through an IlpSolver: every block gets one factored
        # revised-simplex context, and the prober-local statistics object
        # keeps the probe pivot counters out of the engine's.
        self.options = options if options is not None else SolverOptions.from_env()
        self.stats = EngineStatistics()
        self._verdicts = RedundancyProber._SHARED_VERDICTS
        self.probes = 0
        self.reuse_hits = 0
        self.rows_dropped = 0
        self.context_builds = 0
        self.warm_probes = 0
        self.tracer = tracer if tracer is not None else active_tracer()

    @staticmethod
    def _row_key(row) -> tuple:
        coefficients, sense, rhs = row
        return (
            tuple(
                sorted(
                    (name, Fraction(value))
                    for name, value in coefficients.items()
                    if Fraction(value) != 0
                )
            ),
            str(sense),
            Fraction(rhs),
        )

    def prune(self, rows, boxes: Mapping[str, tuple]) -> list:
        """The irredundant subset of *rows* over the variable *boxes*."""
        rows = list(rows)
        if len(rows) < 2:
            return rows
        row_keys = [self._row_key(row) for row in rows]
        names = sorted({name for key in row_keys for name, _ in key[0]})
        signature = (
            tuple(row_keys),
            tuple((name, boxes.get(name)) for name in names),
        )
        cached = self._verdicts.get(signature)
        if cached is not None:
            self.reuse_hits += 1
            # Keep the per-run drop counter meaningful whether this run or
            # an earlier one in the process paid the probes.
            self.rows_dropped += len(rows) - len(cached)
            return [rows[index] for index in cached]

        # One context per block, built lazily at the first real probe; every
        # later probe of the block rides the same factored basis.  A block
        # that pays real probes records one span with its probe/drop/pivot
        # counters (cache hits above stay span-free: they cost a lookup).
        with self.tracer.span(
            "emptiness.irredundancy", category="emptiness", rows=len(rows)
        ) as span:
            probes_before = self.probes
            pivots_before = self.stats.pivots
            context: _BlockContext | None = None
            kept = list(range(len(rows)))
            for index in range(len(rows)):
                _, sense, _ = row_keys[index]
                if sense not in ("<=", ">=") or index not in kept:
                    continue
                others = [position for position in kept if position != index]
                if not others:
                    break
                if context is None:
                    context = _BlockContext(row_keys, names, boxes, self.stats)
                    self.context_builds += 1
                    if not context.feasible:
                        # Infeasible block: leave it whole for the scheduler.
                        kept = list(range(len(rows)))
                        break
                else:
                    self.warm_probes += 1
                self.probes += 1
                try:
                    implied = context.probe(index)
                except EngineError:
                    # A wedged context cannot answer further probes; keep
                    # every undecided row (pruning is an optimisation, never
                    # required).
                    break
                if implied:
                    kept = others
                    self.rows_dropped += 1
            span.set("probes", self.probes - probes_before)
            span.set("pivots", self.stats.pivots - pivots_before)
            span.set("rows_dropped", len(rows) - len(kept))
        self._verdicts[signature] = tuple(kept)
        return [rows[index] for index in kept]

    def statistics(self) -> dict[str, int]:
        """Prober counters (run totals, cheap to read at any point).

        The amortisation shows up as ``warm_probes`` (probes answered on an
        already-built block context) versus ``contexts`` (block encodings
        paid); ``pivots`` is the total simplex work of all probes, kept out
        of the engine's counters by the prober-local statistics object.
        """
        return {
            "irredundancy_probes": self.probes,
            "irredundancy_reuse_hits": self.reuse_hits,
            "irredundant_rows_dropped": self.rows_dropped,
            "irredundancy_contexts": self.context_builds,
            "irredundancy_warm_probes": self.warm_probes,
            "irredundancy_pivots": self.stats.pivots,
        }


def is_integer_empty(polyhedron: Polyhedron) -> bool:
    """True when the polyhedron contains no integer point."""
    return find_integer_point(polyhedron) is None


def find_integer_point(polyhedron: Polyhedron) -> dict[str, int] | None:
    """Some integer point of the polyhedron, or ``None`` when it is empty."""
    if polyhedron.has_trivial_contradiction():
        return None
    problem = _to_problem(polyhedron)
    # A fresh solver per probe: construction is a handful of counters, and it
    # keeps concurrent dependence-analysis workers from racing on shared
    # statistics (and honours REPRO_ILP_ENGINE at call time, not import time).
    # workers=1 pins the probe to the sequential path: these feasibility
    # trees are tiny, and a throwaway solver must not spin up a worker pool
    # per probe under a REPRO_ILP_WORKERS default.
    solution = IlpSolver(options=SolverOptions.resolve(workers=1)).solve(problem)
    if solution is None:
        return None
    return {name: int(value) for name, value in solution.assignment.items()}


def enumerate_integer_points(polyhedron: Polyhedron) -> list[dict[str, int]]:
    """All integer points of a bounded polyhedron with no remaining parameters.

    The points are produced in lexicographic order of the space's iterator
    names.  A :class:`ValueError` is raised when a dimension is unbounded or
    when the point count exceeds a safety limit.
    """
    if polyhedron.space.parameters:
        raise ValueError("enumeration requires all parameters to be fixed first")
    names = list(polyhedron.space.iterators)
    points: list[dict[str, int]] = []
    _enumerate_rec(polyhedron, names, 0, {}, points)
    return points


def count_integer_points(
    polyhedron: Polyhedron, parameter_values: Mapping[str, int] | None = None
) -> int:
    """Number of integer points after fixing the parameters."""
    fixed = polyhedron.fix_dimensions(parameter_values or {})
    return len(enumerate_integer_points(fixed))


def _enumerate_rec(
    polyhedron: Polyhedron,
    names: list[str],
    depth: int,
    partial: dict[str, int],
    points: list[dict[str, int]],
) -> None:
    if depth == len(names):
        if polyhedron.contains(partial):
            points.append(dict(partial))
        return
    name = names[depth]
    # Project away the deeper dimensions to obtain bounds for `name` in terms of
    # the already fixed outer dimensions.
    projected = polyhedron.project_onto(names[: depth + 1])
    substituted = projected.fix_dimensions({k: partial[k] for k in names[:depth]})
    lower, upper = substituted.dimension_bounds(name)
    if not lower or not upper:
        raise ValueError(f"dimension {name!r} is unbounded; cannot enumerate")
    low = max(math.ceil(bound.constant) for bound in lower)
    high = min(math.floor(bound.constant) for bound in upper)
    if len(points) > _ENUMERATION_LIMIT:
        raise ValueError("enumeration limit exceeded")
    for value in range(int(low), int(high) + 1):
        partial[name] = value
        _enumerate_rec(polyhedron, names, depth + 1, partial, points)
    partial.pop(name, None)
