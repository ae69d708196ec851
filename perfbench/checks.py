"""Correctness checks of the program's outputs, all outside the timed region.

* Every operation's outcome (schedule digest, ``legal``, fallback and
  failure flags, and cycles where a machine model ran) must equal the
  expected-outcome file ``expected.json``.
* Every distinct schedule is executed at reduced parameter values on seeded
  arrays and must produce exactly the arrays of the original program order.
  The original order is run by an interpreter of the benchmark's own, which
  enumerates each statement's domain and sorts the instances by their
  original dates, so the reference does not go through the code generator
  under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

EXPECTED_PATH = Path(__file__).with_name("expected.json")
#: Machine model the reduced-size execution check reports cycles on.
CHECK_MACHINE = "Intel1"


@dataclass(frozen=True)
class Outcome:
    """What the gate compares for one operation."""

    digest: str
    legal: bool | None
    fallback: bool
    failed: bool
    cycles: float | None = None


def _row_token(row) -> list:
    names = sorted(row.variables())
    constant = row.evaluate({name: 0 for name in names})
    return [[name, str(row.coefficient(name))] for name in names] + [str(constant)]


def schedule_digest(schedule) -> str:
    """A content hash of a schedule: rows, bands, parallel and vector marks."""
    document = {
        "rows": {name: [_row_token(row) for row in schedule.rows_for(name)]
                 for name in sorted(schedule.statements)},
        "bands": [int(band) for band in schedule.bands],
        "parallel": [bool(flag) for flag in schedule.parallel_dims],
        "vectorized": sorted(schedule.vectorized.items()),
    }
    encoded = json.dumps(document, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:20]


def outcome_of(result) -> Outcome:
    """The gated outcome of a ``CompilationResult``."""
    return Outcome(
        digest=schedule_digest(result.schedule),
        legal=result.legal,
        fallback=result.scheduling is None or bool(result.scheduling.fallback_to_original),
        failed=bool(result.failed),
        cycles=result.cycles,
    )


def load_expected(workload: str) -> dict[str, Outcome]:
    if not EXPECTED_PATH.is_file():
        return {}
    data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return {key: Outcome(**value) for key, value in data.get(workload, {}).items()}


def write_expected(workload: str, outcomes: dict[str, Outcome]) -> None:
    data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8")) if EXPECTED_PATH.is_file() else {}
    data[workload] = {key: asdict(outcomes[key]) for key in sorted(outcomes)}
    EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def mismatch(expected: dict[str, Outcome], key: str, outcome: Outcome) -> str | None:
    """Why *outcome* fails the gate, or ``None`` when it passes."""
    want = expected.get(key)
    if want is None:
        return f"{key}: no expected outcome recorded"
    if want != outcome:
        return f"{key}: expected {want}, got {outcome}"
    return None


# --------------------------------------------------------------------------- #
# Execution check
# --------------------------------------------------------------------------- #
def _integer_rows(statement, parameters: dict[str, int]):
    """Domain constraints as integer rows over the iterators, by nesting level."""
    iterators = statement.iterators
    levels: list[list[tuple[list[int], int, bool]]] = [[] for _ in range(len(iterators))]
    constant_rows = []
    for constraint in statement.domain.constraints:
        names = constraint.variables()
        constant = constraint.expression.evaluate(
            {name: (0 if name in iterators else parameters[name]) for name in names}
        )
        coefficients = [constraint.coefficient(name) for name in iterators]
        scale = math.lcm(*(value.denominator for value in [*coefficients, constant]))
        row = ([int(value * scale) for value in coefficients], int(constant * scale),
               constraint.is_equality)
        level = max((k for k, value in enumerate(coefficients) if value), default=-1)
        (levels[level] if level >= 0 else constant_rows).append(row)
    return levels, constant_rows


def _satisfied(row, point) -> bool:
    coefficients, constant, equality = row
    value = constant + sum(c * v for c, v in zip(coefficients, point))
    return value == 0 if equality else value >= 0


def _domain_points(statement, parameters: dict[str, int]):
    levels, constant_rows = _integer_rows(statement, parameters)
    if not all(_satisfied(row, ()) for row in constant_rows):
        return
    # Every iterator lies within the largest constant bound of the domain.
    extent = max((abs(row[1]) for rows in levels for row in rows), default=0) + 2
    box = range(-2, extent + 1)
    point: list[int] = []

    def extend(level: int):
        if level == len(levels):
            yield tuple(point)
            return
        for value in box:
            point.append(value)
            if all(_satisfied(row, point) for row in levels[level]):
                yield from extend(level + 1)
            point.pop()

    yield from extend(0)


def run_original_order(scop, parameters: dict[str, int], arrays) -> int:
    """Execute *scop* in its original order; returns the instance count."""
    original = scop.original_schedule()
    instances = []
    for statement in scop.statements:
        for point in _domain_points(statement, parameters):
            values = dict(parameters)
            values.update(zip(statement.iterators, point))
            instances.append((original.date(statement.name, values), statement.index, statement, values))
    instances.sort(key=lambda item: (item[0], item[1]))
    for _, _, statement, values in instances:
        statement.execute(arrays, values)
    return len(instances)


def seeded_arrays(scop, parameters: dict[str, int], seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        name: rng.uniform(1.0, 2.0, size=array.shape)
        for name, array in sorted(scop.allocate_arrays(parameters).items())
    }


def execution_check(scop, result, parameters: dict[str, int], seed: int) -> tuple[str | None, float]:
    """Run the scheduled AST against the original order; also simulate it.

    Returns ``(failure or None, cycles at the reduced size on CHECK_MACHINE)``.
    """
    from repro.codegen.executor import Executor
    from repro.codegen.generator import generate_ast
    from repro.machine.cost_model import CostModel
    from repro.machine.machine import machine_by_name

    reference = seeded_arrays(scop, parameters, seed)
    scheduled = {name: array.copy() for name, array in reference.items()}
    expected_instances = run_original_order(scop, parameters, reference)
    ast = generate_ast(scop, result.schedule, result.tiling)
    stats = Executor(scop, parameters).run(ast, scheduled)
    failure = None
    if stats.instances != expected_instances:
        failure = f"executed {stats.instances} instances, the original order has {expected_instances}"
    else:
        differing = [name for name in reference
                     if not np.array_equal(reference[name], scheduled[name], equal_nan=True)]
        if differing:
            failure = f"arrays {differing} differ from the original order"
    report = CostModel(machine_by_name(CHECK_MACHINE)).evaluate(
        scop, result.schedule, result.tiling, parameters
    )
    return failure, report.cycles


def check_output(key: str, scop, result, seed: int) -> tuple[str | None, float | None]:
    """Execution check of one operation's result, seeded by *seed* and *key*.

    Returns ``(failure or None, reduced-size cycles or None)``.
    """
    from inputs import reduced_parameters

    try:
        return execution_check(scop, result, reduced_parameters(scop),
                               seed ^ zlib.crc32(key.encode()))
    except Exception as error:
        return f"execution check raised {type(error).__name__}: {error}", None


def check_outputs(items: dict, seed: int) -> tuple[dict[str, str], dict[str, float]]:
    """Execution check of each distinct ``key: (scop, result)``.

    Returns the failures by key and the reduced-size cycles by key.
    """
    failures: dict[str, str] = {}
    cycles: dict[str, float] = {}
    for key, (scop, result) in sorted(items.items()):
        failure, key_cycles = check_output(key, scop, result, seed)
        if failure:
            failures[key] = failure
        if key_cycles is not None:
            cycles[key] = key_cycles
    return failures, cycles


def geomean(values) -> float:
    values = [float(v) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))

