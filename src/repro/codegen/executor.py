"""Execution of generated ASTs on numpy arrays.

The executor runs the scanning AST produced by the code generator, calling
each statement's Python body on concrete arrays.  It is the ground
truth used by the test-suite to validate that transformed schedules preserve
the kernel semantics, and it doubles as the memory-trace source for the cache
simulator (via the ``on_instance`` hook).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from ..model.scop import Scop
from ..polyhedra.affine import AffineExpr
from .ast import BlockNode, CallNode, GuardNode, LoopNode, Node

__all__ = ["ExecutionStats", "Executor", "execute", "run_original", "run_schedule"]

# Hook called for every executed statement instance: (statement, iterator values).
InstanceHook = Callable[[object, dict[str, int]], None]


@dataclass
class ExecutionStats:
    """Counters collected while executing an AST."""

    instances: int = 0
    loop_iterations: int = 0
    statement_loop_iterations: int = 0
    guard_checks: int = 0
    guard_failures: int = 0
    per_statement: dict[str, int] = field(default_factory=dict)
    # For every parallel loop variable: [number of entries, total iterations].
    parallel_loops: dict[str, list[int]] = field(default_factory=dict)


class Executor:
    """Execute a scanning AST over a dictionary of numpy arrays.

    :meth:`run` lowers the AST once into nested Python closures over exact
    integers, then calls the root closure.  Every affine expression becomes
    its numerator over one positive common denominator
    (:attr:`AffineExpr.integer_form`), with the parameter values folded into
    the constant, so loop bounds are integer floor divisions, guards are sign
    tests and iterator recovery is an exact remainder test.  Loop variables
    live in slots of one integer list that the closures index directly; names
    are resolved to slots while lowering, and no source text is generated.
    """

    def __init__(
        self,
        scop: Scop,
        parameter_values: Mapping[str, int] | None = None,
        on_instance: InstanceHook | None = None,
    ):
        self.scop = scop
        self.parameter_values = scop.resolved_parameters(parameter_values)
        self.on_instance = on_instance
        self.stats = ExecutionStats()

    def run(self, root: Node, arrays: dict[str, np.ndarray]) -> ExecutionStats:
        """Execute the AST on *arrays* (modified in place) and return statistics."""
        self.stats = ExecutionStats()
        scope = _Scope.of_parameters(self.parameter_values)
        program = _Lowering(self, arrays).sequence([root], scope)
        if program is not None:
            program()
        return self.stats


# A lowered expression: an int when it folds to a constant, else a closure.
_Value = int | Callable[[], int]
_Action = Callable[[], None]


class _Scope:
    """Name resolution while lowering: each bound name maps to an ``env`` slot.

    Slots ``0..P-1`` hold the parameters and are folded into constants; a
    loop variable gets a fresh slot, visible in the loop body only.
    """

    def __init__(self, env: list[int], n_parameters: int, slots: dict[str, int]):
        self.env = env
        self.n_parameters = n_parameters
        self.slots = slots

    @classmethod
    def of_parameters(cls, parameters: Mapping[str, int]) -> "_Scope":
        slots = {name: slot for slot, name in enumerate(parameters)}
        return cls(list(parameters.values()), len(parameters), slots)

    def bind(self, name: str) -> "_Scope":
        """The scope of a loop body: *name* bound to a fresh slot."""
        self.env.append(0)
        return _Scope(self.env, self.n_parameters, {**self.slots, name: len(self.env) - 1})

    def numerator(self, expression: AffineExpr) -> tuple[_Value, int]:
        """The expression's numerator as a lowered value, and its denominator."""
        constant, terms, denominator = expression.integer_form
        env, slots = self.env, self.slots
        linear = []
        for name, coefficient in terms:
            slot = slots.get(name)
            if slot is None:
                return _unbound(name), denominator
            if slot < self.n_parameters:
                constant += coefficient * env[slot]
            else:
                linear.append((coefficient, slot))
        return _linear(env, constant, linear), denominator


class _Lowering:
    """Builds the closures of one :meth:`Executor.run`."""

    def __init__(self, executor: Executor, arrays: dict[str, np.ndarray]):
        self.stats = executor.stats
        self.arrays = arrays
        self.parameter_values = dict(executor.parameter_values)
        self.on_instance = executor.on_instance

    def sequence(self, nodes: list[Node], scope: _Scope) -> _Action | None:
        """One closure running *nodes* in order (``None`` when there is nothing to run)."""
        actions = [action for action in (self.node(node, scope) for node in nodes) if action]
        if not actions:
            return None
        if len(actions) == 1:
            return actions[0]
        actions = tuple(actions)

        def block() -> None:
            for action in actions:
                action()

        return block

    def node(self, node: Node, scope: _Scope) -> _Action | None:
        if isinstance(node, BlockNode):
            return self.sequence(node.body, scope)
        if isinstance(node, LoopNode):
            return self.loop(node, scope)
        if isinstance(node, GuardNode):
            return self.guard(node, scope)
        if isinstance(node, CallNode):
            return self.call(node, scope)
        raise TypeError(f"unknown AST node {type(node).__name__}")

    def loop(self, node: LoopNode, scope: _Scope) -> _Action | None:
        # Range [min over groups of max(ceil(lb)), max over groups of min(floor(ub))].
        lowers = [
            _fold([_ceil(*scope.numerator(bound)) for bound in group], max)
            for group in node.lower_bound_groups or [node.lower_bounds]
            if group
        ]
        uppers = [
            _fold([_floor(*scope.numerator(bound)) for bound in group], min)
            for group in node.upper_bound_groups or [node.upper_bounds]
            if group
        ]
        if not lowers or not uppers:
            return None
        lower, upper = _closure(_fold(lowers, min)), _closure(_fold(uppers, max))
        inner = scope.bind(node.variable)
        env, slot = inner.env, inner.slots[node.variable]
        body = self.sequence(node.body, inner)
        stats = self.stats
        variable, is_statement_loop = node.variable, node.is_statement_loop
        parallel_loops = stats.parallel_loops if node.is_parallel else None

        def loop() -> None:
            low, high = lower(), upper()
            trips = high - low + 1
            if parallel_loops is not None:
                entry = parallel_loops.get(variable)
                if entry is None:
                    entry = parallel_loops[variable] = [0, 0]
                entry[0] += 1
                entry[1] += max(0, trips)
            if trips <= 0:
                return
            if is_statement_loop:
                stats.statement_loop_iterations += trips
            else:
                stats.loop_iterations += trips
            if body is not None:
                for value in range(low, high + 1):
                    env[slot] = value
                    body()

        return loop

    def guard(self, node: GuardNode, scope: _Scope) -> _Action:
        stats = self.stats
        tests = []
        for constraint in node.conditions:
            numerator, _denominator = scope.numerator(constraint.expression)
            if callable(numerator):
                tests.append((numerator, constraint.is_equality))
            elif numerator < 0 or (constraint.is_equality and numerator):
                # A condition that folds to false: the guard never passes.
                def never() -> None:
                    stats.guard_checks += 1
                    stats.guard_failures += 1

                return never
        tests = tuple(tests)
        body = self.sequence(node.body, scope)

        # The denominator is positive: the numerator's sign decides.
        def guard() -> None:
            stats.guard_checks += 1
            for numerator, is_equality in tests:
                value = numerator()
                if value < 0 or (is_equality and value):
                    stats.guard_failures += 1
                    return
            if body is not None:
                body()

        return guard

    def call(self, node: CallNode, scope: _Scope) -> _Action:
        statement = node.statement
        iterators = tuple(
            (name, _closure(_exact(statement.name, name, *scope.numerator(expression))))
            for name, expression in node.iterator_values.items()
        )
        parameter_values, arrays, hook = self.parameter_values, self.arrays, self.on_instance
        stats = self.stats
        per_statement, statement_name = stats.per_statement, statement.name

        def call() -> None:
            values = parameter_values.copy()
            for name, value in iterators:
                values[name] = value()
            stats.instances += 1
            per_statement[statement_name] = per_statement.get(statement_name, 0) + 1
            if hook is not None:
                hook(statement, values)
            statement.execute(arrays, values)

        return call


def _linear(env: list[int], constant: int, terms: list[tuple[int, int]]) -> _Value:
    """``constant + sum(coefficient * env[slot])``: an int without terms, else a closure."""
    if not terms:
        return constant
    pairs = tuple(terms)

    def linear() -> int:
        total = constant
        for coefficient, slot in pairs:
            total += coefficient * env[slot]
        return total

    return linear


def _unbound(name: str) -> Callable[[], int]:
    def unbound() -> int:
        raise KeyError(f"no value provided for dimension {name!r}")

    return unbound


def _closure(value: _Value) -> Callable[[], int]:
    return value if callable(value) else (lambda: value)


def _ceil(numerator: _Value, denominator: int) -> _Value:
    if denominator == 1:
        return numerator
    if not callable(numerator):
        return -(-numerator // denominator)
    return lambda: -(-numerator() // denominator)


def _floor(numerator: _Value, denominator: int) -> _Value:
    if denominator == 1:
        return numerator
    if not callable(numerator):
        return numerator // denominator
    return lambda: numerator() // denominator


def _exact(statement: str, iterator: str, numerator: _Value, denominator: int) -> _Value:
    """The iterator value ``numerator / denominator``; a non-integral value raises."""
    if denominator == 1:
        return numerator
    numerator = _closure(numerator)

    def exact() -> int:
        value = numerator()
        if value % denominator:
            raise ValueError(
                f"statement {statement}: iterator {iterator!r} takes the non-integral "
                f"value {Fraction(value, denominator)}"
            )
        return value // denominator

    return exact


def _fold(values: list[_Value], pick: Callable[[int, int], int]) -> _Value:
    """``pick`` (``max`` or ``min``) over lowered values, constants folded first."""
    constants = [value for value in values if not callable(value)]
    closures = [value for value in values if callable(value)]
    if constants:
        if not closures:
            return pick(constants)
        closures.append(_closure(pick(constants)))
    if len(closures) == 1:
        return closures[0]
    closures = tuple(closures)
    return lambda: pick([closure() for closure in closures])


# ---------------------------------------------------------------------- #
# Convenience helpers
# ---------------------------------------------------------------------- #
def execute(
    scop: Scop,
    root: Node,
    arrays: dict[str, np.ndarray],
    parameter_values: Mapping[str, int] | None = None,
    on_instance: InstanceHook | None = None,
) -> ExecutionStats:
    """Execute an already generated AST."""
    executor = Executor(scop, parameter_values, on_instance)
    return executor.run(root, arrays)


def run_original(
    scop: Scop,
    arrays: dict[str, np.ndarray],
    parameter_values: Mapping[str, int] | None = None,
    on_instance: InstanceHook | None = None,
) -> ExecutionStats:
    """Execute the SCoP under its original schedule."""
    from .generator import generate_ast

    root = generate_ast(scop, scop.original_schedule())
    return execute(scop, root, arrays, parameter_values, on_instance)


def run_schedule(
    scop: Scop,
    schedule,
    arrays: dict[str, np.ndarray],
    parameter_values: Mapping[str, int] | None = None,
    tiling=None,
    on_instance: InstanceHook | None = None,
) -> ExecutionStats:
    """Generate code for *schedule* and execute it."""
    from .generator import generate_ast

    root = generate_ast(scop, schedule, tiling)
    return execute(scop, root, arrays, parameter_values, on_instance)
