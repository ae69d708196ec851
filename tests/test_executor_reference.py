"""Differential tests of the lowered executor against a Fraction interpreter.

:class:`ReferenceExecutor` walks the scanning AST node by node and evaluates
every bound, guard and iterator as a :class:`~fractions.Fraction`;
:class:`ReferenceTrace` likewise computes every byte address from
``AffineExpr.evaluate``.  On the Fig. 2 quick kernels and the Table I NPU
operators the production path must reproduce them exactly: every
``ExecutionStats`` field (with the insertion order of the dictionaries the
cost model reads), the final array contents, the cache statistics and the
cycles.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import ExecutionStats, Executor
from repro.codegen.ast import BlockNode, CallNode, GuardNode, LoopNode
from repro.codegen.generator import generate_ast
from repro.experiments.fig2 import QUICK_KERNELS
from repro.machine import CostModel, MemoryTraceCollector, machine_by_name
from repro.model import ScopBuilder
from repro.pipeline import EXPERIMENT_STAGES, Session
from repro.polyhedra.affine import AffineExpr
from repro.polyhedra.constraint import AffineConstraint
from repro.scheduler import isl_style, npu_vectorize_style, pluto_style
from repro.suites.custom_ops import build_case
from repro.suites.polybench import build_kernel


# --------------------------------------------------------------------------- #
# The reference: a Fraction tree-walker
# --------------------------------------------------------------------------- #
class ReferenceExecutor:
    """Interpret the AST node by node, with exact rational arithmetic."""

    def __init__(self, scop, parameter_values=None, on_instance=None):
        self.parameter_values = scop.resolved_parameters(parameter_values)
        self.on_instance = on_instance
        self.stats = ExecutionStats()

    def run(self, root, arrays):
        self.stats = ExecutionStats()
        self._execute(root, arrays, dict(self.parameter_values))
        return self.stats

    def _execute(self, node, arrays, values):
        if isinstance(node, BlockNode):
            for child in node.body:
                self._execute(child, arrays, values)
        elif isinstance(node, LoopNode):
            self._execute_loop(node, arrays, values)
        elif isinstance(node, GuardNode):
            self.stats.guard_checks += 1
            if all(constraint.is_satisfied(values) for constraint in node.conditions):
                for child in node.body:
                    self._execute(child, arrays, values)
            else:
                self.stats.guard_failures += 1
        else:
            self._execute_call(node, arrays, values)

    def _execute_loop(self, node, arrays, values):
        lower = _bound(node.lower_bound_groups or [node.lower_bounds], values, math.ceil, max, min)
        upper = _bound(node.upper_bound_groups or [node.upper_bounds], values, math.floor, min, max)
        if lower is None or upper is None:
            return
        if node.is_parallel:
            entry = self.stats.parallel_loops.setdefault(node.variable, [0, 0])
            entry[0] += 1
            entry[1] += max(0, upper - lower + 1)
        for value in range(lower, upper + 1):
            if node.is_statement_loop:
                self.stats.statement_loop_iterations += 1
            else:
                self.stats.loop_iterations += 1
            values[node.variable] = value
            for child in node.body:
                self._execute(child, arrays, values)
        values.pop(node.variable, None)

    def _execute_call(self, node, arrays, values):
        instance_values = dict(self.parameter_values)
        for iterator, expression in node.iterator_values.items():
            value = expression.evaluate(values)
            assert value.denominator == 1, (node.statement.name, iterator, value)
            instance_values[iterator] = int(value)
        statement = node.statement
        self.stats.instances += 1
        self.stats.per_statement[statement.name] = (
            self.stats.per_statement.get(statement.name, 0) + 1
        )
        if self.on_instance is not None:
            self.on_instance(statement, instance_values)
        statement.execute(arrays, instance_values)


def _bound(groups, values, rounding, within, across):
    candidates = [
        within(rounding(expression.evaluate(values)) for expression in group)
        for group in groups
        if group
    ]
    return across(candidates) if candidates else None


class ReferenceTrace(MemoryTraceCollector):
    """The trace collector, with each address computed from Fraction subscripts."""

    def __call__(self, statement, values):
        for access in statement.accesses:
            layout = self.layouts.get(access.array)
            if layout is None:
                continue
            offset = 0
            for index, stride in zip(access.indices, layout.strides):
                value = index.evaluate(values)
                assert value.denominator == 1
                offset += int(value) * stride
            self.hierarchy.access(layout.base + offset * 8)
            self.accesses += 1
            self.statement_accesses[statement.name] = (
                self.statement_accesses.get(statement.name, 0) + 1
            )


# --------------------------------------------------------------------------- #
# The differential corpus
# --------------------------------------------------------------------------- #
def _fig2_case(kernel, size_scale=1.0, tile_sizes=()):
    return build_kernel(kernel, size_scale), pluto_style(), "Intel1", True, tile_sizes


def _table1_case(operator, arguments, strategy):
    return build_case(operator, **arguments), strategy(), "Ascend910", False, ()


CASES = {
    **{f"fig2/{kernel}": partial(_fig2_case, kernel) for kernel in QUICK_KERNELS},
    **{
        f"table1/{operator}/{strategy.__name__}": partial(
            _table1_case, operator, arguments, strategy
        )
        for operator, arguments in (
            ("trsmL_off_diag", {"rows": 16, "blocks": 1, "lanes": 16}),
            ("trsmU_transpose", {"rows": 16, "cols": 16, "lanes": 16}),
        )
        for strategy in (isl_style, npu_vectorize_style)
    },
    # Tile loops divide by the tile size: bounds with a denominator above 1.
    "tiled/gemm": partial(_fig2_case, "gemm", size_scale=0.5, tile_sizes=(4, 4, 4)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lowered_executor_matches_reference(case):
    scop, config, machine_name, skew, tile_sizes = CASES[case]()
    config.tile_sizes = tile_sizes
    machine = machine_by_name(machine_name)
    session = Session(machine, stages=EXPERIMENT_STAGES, apply_wavefront_skewing=skew)
    result = session.compile(scop, config)
    if tile_sizes:
        assert result.tiling is not None
    ast = generate_ast(scop, result.schedule, result.tiling)
    initial = scop.allocate_arrays()

    runs = []
    for executor_class, trace_class in (
        (Executor, MemoryTraceCollector),
        (ReferenceExecutor, ReferenceTrace),
    ):
        arrays = copy.deepcopy(initial)
        trace = trace_class(scop, machine.hierarchy())
        stats = executor_class(scop, on_instance=trace).run(ast, arrays)
        runs.append((stats, arrays, trace))
    (stats, arrays, trace), (expected_stats, expected_arrays, expected_trace) = runs

    assert dataclasses.asdict(stats) == dataclasses.asdict(expected_stats)
    assert list(stats.per_statement) == list(expected_stats.per_statement)
    assert list(stats.parallel_loops) == list(expected_stats.parallel_loops)
    assert stats.instances > 0
    for name, expected in expected_arrays.items():
        assert np.array_equal(arrays[name], expected), name
    assert trace.statistics() == expected_trace.statistics()
    assert list(trace.statement_accesses) == list(expected_trace.statement_accesses)

    model = CostModel(machine)
    report = model.evaluate(scop, result.schedule, result.tiling, ast=ast)
    assert report.cycles == result.cycles
    expected_report = model._report(scop, result.schedule, expected_stats, expected_trace)
    assert report.cycles == expected_report.cycles
    assert report.cache_statistics == expected_trace.statistics()


# --------------------------------------------------------------------------- #
# Exact rounding and loud failures
# --------------------------------------------------------------------------- #
def _one_statement_scop():
    b = ScopBuilder("halves", parameters={"N": 8})
    (N,) = b.parameters("N")
    b.array("A", N)
    with b.loop("i", 0, N) as i:
        b.statement(writes=[("A", [i])], reads=[("A", [i])])
    return b.build()


def test_non_integral_iterator_value_raises():
    scop = _one_statement_scop()
    (statement,) = scop.statements
    half = AffineExpr({"c0": Fraction(1, 2)})
    root = LoopNode(
        "c0", [AffineExpr.const(0)], [AffineExpr.const(3)],
        body=[CallNode(statement, {"i": half})],
    )
    with pytest.raises(ValueError) as raised:
        Executor(scop).run(root, scop.allocate_arrays())
    message = str(raised.value)
    assert statement.name in message and "'i'" in message and "1/2" in message


@pytest.mark.parametrize("n_bound", [100, 0])
def test_guards_with_constant_conditions_match_reference(n_bound):
    # N = 8: "N - 100 >= 0" folds to false, "N - 0 >= 0" to true.
    scop = _one_statement_scop()
    (statement,) = scop.statements
    c0, n = AffineExpr.variable("c0"), AffineExpr.variable("N")
    conditions = [
        AffineConstraint.greater_equal(c0, 2),
        AffineConstraint.greater_equal(n, n_bound),
        AffineConstraint.equals(c0 - 2 * AffineExpr.variable("c1"), 0),
    ]
    root = LoopNode(
        "c0", [AffineExpr.const(0)], [AffineExpr.const(7)],
        body=[LoopNode(
            "c1", [AffineExpr.const(0)], [AffineExpr.const(3)],
            body=[GuardNode(conditions, [CallNode(statement, {"i": c0})])],
        )],
    )
    stats = Executor(scop).run(root, scop.allocate_arrays())
    expected = ReferenceExecutor(scop).run(root, scop.allocate_arrays())
    assert dataclasses.asdict(stats) == dataclasses.asdict(expected)
    assert stats.guard_checks == 32
    assert stats.instances == (0 if n_bound else 3)


def test_unbound_dimension_raises_when_reached():
    scop = _one_statement_scop()
    (statement,) = scop.statements
    unreachable = LoopNode("c0", [AffineExpr.const(1)], [AffineExpr.const(0)],
                           body=[CallNode(statement, {"i": AffineExpr.variable("zz")})])
    assert Executor(scop).run(unreachable, scop.allocate_arrays()).instances == 0
    reached = LoopNode("c0", [AffineExpr.const(0)], [AffineExpr.const(0)],
                       body=[CallNode(statement, {"i": AffineExpr.variable("zz")})])
    with pytest.raises(KeyError, match="zz"):
        Executor(scop).run(reached, scop.allocate_arrays())


_RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=7)
_SPAN = 10_000


@settings(max_examples=200, deadline=None)
@given(
    constant=_RATIONALS,
    outer=_RATIONALS,
    parameter=_RATIONALS,
    outer_value=st.integers(-12, 12),
    n_value=st.integers(-12, 12),
)
def test_integer_rounding_matches_fraction_rounding(
    constant, outer, parameter, outer_value, n_value
):
    """A bound over a loop variable and a parameter rounds like math.ceil/floor."""
    scop = _one_statement_scop()
    expression = AffineExpr({"o": outer, "N": parameter}, constant)
    exact = expression.evaluate({"o": outer_value, "N": n_value})

    def trips(lower, upper):
        inner = LoopNode("x", lower, upper, is_statement_loop=True)
        root = LoopNode("o", [AffineExpr.const(outer_value)], [AffineExpr.const(outer_value)],
                        body=[inner])
        stats = Executor(scop, {"N": n_value}).run(root, {})
        return stats.statement_loop_iterations

    # x in [ceil(e), SPAN] has SPAN - ceil(e) + 1 values; x in [-SPAN, floor(e)]
    # has floor(e) + SPAN + 1.
    assert trips([expression], [AffineExpr.const(_SPAN)]) == _SPAN - math.ceil(exact) + 1
    assert trips([AffineExpr.const(-_SPAN)], [expression]) == math.floor(exact) + _SPAN + 1


@settings(max_examples=200, deadline=None)
@given(
    terms=st.dictionaries(st.sampled_from("abc"), _RATIONALS, max_size=3),
    constant=_RATIONALS,
)
def test_integer_form_is_exact(terms, constant):
    expression = AffineExpr(terms, constant)
    numerator, integer_terms, denominator = expression.integer_form
    assert denominator > 0
    assert all(isinstance(value, int) for _, value in integer_terms)
    rebuilt = AffineExpr(dict(integer_terms), numerator) * Fraction(1, denominator)
    assert rebuilt == expression
