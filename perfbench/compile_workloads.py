"""The ``cold-compile`` and ``evaluate`` workloads, one pass per process.

A cold compile is a compile in a fresh process: the program keeps
process-wide state (for example shared solver verdicts) that makes a second
compile of the same kernel cheaper.  So ``run.py`` runs every pass in its
own worker process::

    python3 perfbench/compile_workloads.py --workload cold-compile --seed 1 --traced 0 --check 1

One operation is ``Session(...).compile(scop, config)`` in a fresh session:
the user's cold compile.  The traced pass runs the same call, with a stage
observer that closes one layer span per pipeline stage and a codegen stage
that also closes a span between AST construction and C emission.  With
``--check 1`` each result is execution-checked right after its operation,
outside the timed region, in a forked child, and then dropped: the worker
holds one result at a time, and its peak RSS is that of its compiles.  The
worker prints one JSON document: the pass's wall, each operation's seconds,
outcome and check result, and its own peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import Outcome, check_output, outcome_of  # noqa: E402
from inputs import CompileOp, compile_ops  # noqa: E402
from speed import Sampler  # noqa: E402
from tracing import Clock, Trace  # noqa: E402

#: Pipeline stage -> the layer span its observer call closes.
STAGE_SPANS = {
    "dependences": "deps",
    "schedule": "scheduler",
    "postprocess": "transform.postprocess",
    "legality": "transform.legality",
    "codegen": "codegen.emit",
    "evaluate": "machine.evaluate",
}
#: Span of the session's own work around the stages (cache lookup,
#: fingerprinting, assembling the result).
SESSION_SPAN = "pipeline.session"


@dataclass
class OpRecord:
    op_id: str
    seconds: float  # at the reference speed (speed.py)
    raw_seconds: float
    outcome: Outcome | None
    error: str | None = None
    check_failure: str | None = None
    check_cycles: float | None = None


@dataclass
class PassRecord:
    ops: list[OpRecord] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(record.seconds for record in self.ops)

    @property
    def raw_wall(self) -> float:
        return sum(record.raw_seconds for record in self.ops)


@dataclass
class LayerCounters:
    values: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, amount) -> None:
        self.values[name] = self.values.get(name, 0) + amount


class _SessionStart:
    """First stage of the traced pipeline: closes the session span."""

    name = "bench-session-start"

    def __init__(self, clock: Clock):
        self.clock = clock

    def run(self, context) -> None:
        self.clock.lap(SESSION_SPAN)


class _LappedCodegen:
    """The default codegen stage, with a span between its two calls."""

    name = "codegen"

    def __init__(self, clock: Clock):
        self.clock = clock

    def run(self, context) -> None:
        from repro.codegen.c_writer import to_c
        from repro.codegen.generator import generate_ast

        context.ast = generate_ast(context.scop, context.schedule)
        self.clock.lap("codegen.ast")
        context.generated_c = to_c(context.scop, context.ast)


def _traced_session(op: CompileOp, machine, clock: Clock):
    """A session running the default pipeline, one layer span per stage."""
    from repro import Session
    from repro.pipeline.stages import DEFAULT_STAGES

    stages = [_SessionStart(clock)] + [
        _LappedCodegen(clock) if name == "codegen" else name for name in DEFAULT_STAGES
    ]

    def observe(kernel, label, stage, seconds) -> None:
        if stage in STAGE_SPANS:
            clock.lap(STAGE_SPANS[stage])

    return Session(machine, stages=stages, stage_observer=observe,
                   apply_wavefront_skewing=op.skew)


def add_scheduling_counters(counters: LayerCounters, statistics, fallback: bool) -> None:
    """The scheduler, ILP and polyhedra counters of one scheduling run."""
    counters.add("scheduler.dimensions", statistics.get("dimensions", 0))
    counters.add("scheduler.fallbacks", int(fallback))
    for name in ("solve_calls", "pivots", "nodes", "warm_start_hits", "irredundancy_probes"):
        counters.add(f"ilp.{name}", statistics.get(name, 0))
    counters.add("ilp.solve_s", statistics.get("solve_seconds", 0.0))
    for name in ("fm_eliminations", "fm_rows_generated", "fm_rows_emitted"):
        counters.add(f"polyhedra.{name}", statistics.get(name, 0))
    counters.add("polyhedra.fm_s", statistics.get("fm_elimination_seconds", 0.0))


def _count(counters: LayerCounters, session, scop, result) -> None:
    """The layer counters of one traced compile, read from its result."""
    probes = session.dependence_probe_statistics(scop)
    counters.add("deps.dependences", len(result.dependences))
    counters.add("deps.emptiness_probes", probes.get("emptiness_probes", 0))
    counters.add("deps.emptiness_engine_probes", probes.get("emptiness_engine_probes", 0))
    scheduling = result.scheduling
    add_scheduling_counters(counters, scheduling.statistics,
                            bool(scheduling.fallback_to_original))
    counters.add("transform.parallel_dims", sum(bool(flag) for flag in result.schedule.parallel_dims))
    counters.add("codegen.c_bytes", len(result.generated_c.encode("utf-8")))
    if result.report is not None:
        cache = result.report.cache_statistics
        levels = cache.get("levels", {})
        counters.add("machine.accesses", cache.get("accesses", 0))
        counters.add("machine.l1_misses", levels.get("L1", {}).get("misses", 0))
        counters.add("machine.memory_accesses", levels.get("memory", {}).get("accesses", 0))


def _in_child(function, *arguments):
    """``function(*arguments)`` in a forked child; returns its JSON result.

    The child's allocations, and the process-wide state it warms (the
    program caches solver and emptiness verdicts), stay out of this worker:
    the next operation is still a cold compile, and the worker's peak RSS
    is that of its compiles.
    """
    read_end, write_end = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            with os.fdopen(write_end, "w", encoding="utf-8") as pipe:
                json.dump(function(*arguments), pipe)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"{function.__name__} failed in its child process")
    return json.loads(data)


def _split_evaluate(scop, result) -> dict[str, float]:
    """The work ``CostModel.evaluate`` did, by part (run outside the operation).

    Rebuilds the AST evaluate built and runs the bare interpreter on it, so
    ``machine.evaluate`` splits into AST construction, execution and the
    cache simulation.
    """
    from repro.codegen.executor import Executor
    from repro.codegen.generator import generate_ast

    started = time.perf_counter()
    ast = generate_ast(scop, result.schedule, result.tiling)
    ast_s = time.perf_counter() - started
    arrays = scop.allocate_arrays()
    started = time.perf_counter()
    stats = Executor(scop).run(ast, arrays)
    return {
        "machine.ast_s": ast_s,
        "codegen.execute_s": time.perf_counter() - started,
        "codegen.instances": stats.instances,
        "codegen.loop_iterations": stats.loop_iterations,
        "codegen.guard_checks": stats.guard_checks,
    }


def run_pass(ops: list[CompileOp], seed: int, check: bool, trace: Trace | None = None,
             counters: LayerCounters | None = None) -> PassRecord:
    """One pass of cold compiles, each timed by a speed :class:`Sampler`.

    With a *trace*, operation ``i`` of the pass is span op ``i`` and the
    layer counters go to *counters*.
    """
    from repro import Session

    record = PassRecord()
    for index, op in enumerate(ops):
        scop, config, machine = op.build(), op.config(), op.machine_model()
        result = error = None
        with Sampler() as sampler:
            if trace is not None:
                clock = trace.clock(index)
                session = _traced_session(op, machine, clock)
            else:
                session = Session(machine, apply_wavefront_skewing=op.skew)
            try:
                result = session.compile(scop, config)
            except Exception as exception:  # a failed operation counts in error_rate
                error = f"{type(exception).__name__}: {exception}"
            if trace is not None:
                clock.lap(SESSION_SPAN)
                clock.close()
        outcome = outcome_of(result) if result is not None else None
        op_record = OpRecord(op.op_id, sampler.seconds, sampler.raw, outcome, error)
        if result is not None:
            if trace is not None:
                _count(counters, session, scop, result)
                if machine is not None:
                    for name, value in _in_child(_split_evaluate, scop, result).items():
                        counters.add(name, value)
            if check:
                try:
                    op_record.check_failure, op_record.check_cycles = _in_child(
                        check_output, op.op_id, scop, result, seed)
                except RuntimeError as exception:
                    op_record.check_failure = str(exception)
        record.ops.append(op_record)
        del scop, result, session
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description="one pass of a compile workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-stem", default=None, help="where to write the trace files")
    arguments = parser.parse_args()

    ops = compile_ops(arguments.workload, arguments.seed)
    document: dict = {}
    if arguments.traced:
        trace = Trace()
        counters = LayerCounters()
        record = run_pass(ops, arguments.seed, bool(arguments.check), trace, counters)
        document["counters"] = counters.values
        document["layer_seconds"] = trace.layer_seconds()
        if arguments.trace_stem:
            labels = {index: op.op_id for index, op in enumerate(ops)}
            trace.write_chrome_trace(f"{arguments.trace_stem}.trace.json", labels)
            table = trace.self_time_table()
            Path(f"{arguments.trace_stem}.selftime.txt").write_text(table + "\n", encoding="utf-8")
            print(table, file=sys.stderr)
    else:
        record = run_pass(ops, arguments.seed, bool(arguments.check))
    document["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    document["wall"] = record.wall
    document["raw_wall"] = record.raw_wall
    document["ops"] = [asdict(r) for r in record.ops]
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
