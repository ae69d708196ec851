"""Benchmark of the PolyTOPS reproduction: one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 15 --trace 0

Workloads (see ``inputs.py``): ``cold-compile``, ``evaluate``,
``service-mix``.  A run times whole passes of the workload's fixed input,
and starts another pass only while the passes so far plus one more fit in
``--seconds`` (it always runs at least one).  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it runs a traced pass between two
untraced ones and reports the per-layer metrics, plus a Chrome-trace JSON and
a self-time table under ``perfbench/out/``.

Times are scaled to a reference machine speed (``speed.py``).  Every run checks the
program's outputs (``checks.py``) outside the timed region.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything else goes
to standard error and to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.

``--write-expected`` records this commit's outcomes as ``expected.json``
instead of checking against it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Outcome, check_outputs, geomean, load_expected, mismatch, write_expected
from inputs import WORKLOADS, service_stream
from speed import probe_all_cpus, scaled
from tracing import Trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("cycles_geomean", "cycles"),
)

PER_LAYER = (
    ("deps.s", "s"), ("deps.dependences", "count"), ("deps.emptiness_probes", "count"),
    ("deps.emptiness_engine_probes", "count"),
    ("scheduler.s", "s"), ("scheduler.dimensions", "count"), ("scheduler.fallbacks", "count"),
    ("ilp.solve_calls", "count"), ("ilp.pivots", "count"), ("ilp.nodes", "count"),
    ("ilp.warm_start_hits", "count"), ("ilp.irredundancy_probes", "count"), ("ilp.solve_s", "s"),
    ("polyhedra.fm_eliminations", "count"), ("polyhedra.fm_rows_generated", "count"),
    ("polyhedra.fm_rows_emitted", "count"), ("polyhedra.fm_s", "s"),
    ("transform.postprocess_s", "s"), ("transform.legality_s", "s"),
    ("transform.parallel_dims", "count"),
    ("codegen.ast_s", "s"), ("codegen.emit_s", "s"), ("codegen.c_bytes", "bytes"),
    ("codegen.execute_s", "s"), ("codegen.instances", "count"),
    ("codegen.loop_iterations", "count"), ("codegen.guard_checks", "count"),
    ("machine.evaluate_s", "s"), ("machine.sim_s", "s"), ("machine.accesses", "count"),
    ("machine.l1_misses", "count"), ("machine.memory_accesses", "count"),
    ("pipeline.result_hits", "count"), ("pipeline.dependence_hits", "count"),
    ("pipeline.store_puts", "count"),
    ("service.server_s", "s"), ("service.client_encode_s", "s"), ("service.client_decode_s", "s"),
    ("service.transport_s", "s"), ("service.hit_ms_p50", "ms"), ("service.miss_ms_p50", "ms"),
    ("service.response_bytes", "bytes"), ("service.scheduler_runs", "count"),
    ("service.duplicate_compiles", "count"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
)

#: Span name -> per-layer time metric (the spans the benchmark records).
SPAN_METRICS = {
    "deps": "deps.s",
    "scheduler": "scheduler.s",
    "transform.postprocess": "transform.postprocess_s",
    "transform.legality": "transform.legality_s",
    "codegen.ast": "codegen.ast_s",
    "codegen.emit": "codegen.emit_s",
    "machine.evaluate": "machine.evaluate_s",
    "service.client_encode": "service.client_encode_s",
    "service.client_decode": "service.client_decode_s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def environment() -> dict:
    model = ""
    try:
        match = re.search(r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.MULTILINE)
        model = match.group(1).strip() if match else ""
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "cpu_model": model or platform.processor(),
        "loadavg_start": list(os.getloadavg()),
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def time_setup(workload: str) -> list[float]:
    """Seconds from spawning a fresh interpreter until the workload is ready.

    Each sample is scaled to the reference speed by probes around it.
    """
    samples = []
    for _ in range(SETUP_REPS):
        before = probe_all_cpus()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "ready.py"), "--workload", workload, "--workdir", str(OUT)],
            cwd=ROOT, stdout=subprocess.PIPE,
        ) as process:
            try:
                line = process.stdout.readline()
                seconds = time.perf_counter() - start
                process.communicate(timeout=60)
            except BaseException:
                process.terminate()  # ready.py stops its server on SIGTERM
                raise
        if line.strip() != b"ready" or process.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {process.returncode}")
        samples.append(scaled(seconds, before, probe_all_cpus()))
    return samples


class Gate:
    """The operations a run attempted, and which of them failed and why."""

    def __init__(self, workload: str, write_expected: bool):
        self.workload = workload
        self.write_expected = write_expected
        self.expected = {} if write_expected else load_expected(workload)
        self.recorded: dict = {}
        self.keys: list[str] = []  # the key of every attempted operation
        self.failed: set[int] = set()
        self.reasons: list[str] = []

    def fail(self, index: int | None, reason: str) -> None:
        if index is not None:
            self.failed.add(index)
        self.reasons.append(reason)

    def op(self, key: str, outcome, error: str | None) -> int:
        """Record one operation; returns its index."""
        index = len(self.keys)
        self.keys.append(key)
        if error is not None:
            self.fail(index, f"{key}: {error}")
        elif self.write_expected:
            if self.recorded.setdefault(key, outcome) != outcome:
                self.fail(index, f"{key}: outcome differs between operations")
        else:
            reason = mismatch(self.expected, key, outcome)
            if reason:
                self.fail(index, reason)
        return index

    def fail_keys(self, failures: dict[str, str]) -> None:
        """Every operation whose key failed the execution check fails."""
        for index, key in enumerate(self.keys):
            if key in failures:
                self.failed.add(index)
        self.reasons += [f"{key}: {reason}" for key, reason in sorted(failures.items())]

    def finish(self) -> None:
        if self.write_expected and not self.reasons:
            write_expected(self.workload, self.recorded)
            log(f"wrote {len(self.recorded)} expected outcomes for {self.workload}")


# --------------------------------------------------------------------------- #
# Untraced runs: end-to-end metrics
# --------------------------------------------------------------------------- #
def run_worker(workload: str, seed: int, traced: bool, check: bool,
               trace_stem: str | None = None) -> dict:
    """One pass of a compile workload in a fresh worker process."""
    command = [sys.executable, str(HERE / "compile_workloads.py"), "--workload", workload,
               "--seed", str(seed), "--traced", str(int(traced)), "--check", str(int(check))]
    if trace_stem:
        command += ["--trace-stem", trace_stem]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, timeout=170)
    if completed.returncode != 0:
        raise RuntimeError(f"compile worker failed with exit code {completed.returncode}")
    return json.loads(completed.stdout.decode("utf-8").strip().splitlines()[-1])


def _outcome(data):
    return Outcome(**data) if data is not None else None


def _check_failures(one_pass: dict) -> dict[str, str]:
    return {r["op_id"]: r["check_failure"] for r in one_pass["ops"] if r["check_failure"]}


def measure_compile(workload: str, seed: int, seconds: float, gate: Gate) -> dict:
    """Whole passes while the passes so far plus one more fit in *seconds*."""
    passes = []
    while True:
        passes.append(run_worker(workload, seed, traced=False, check=not passes))
        walls = sorted(one["wall"] for one in passes)
        if sum(walls) + walls[len(walls) // 2] > seconds:
            break
    records = [record for one in passes for record in one["ops"]]
    for record in records:
        gate.op(record["op_id"], _outcome(record["outcome"]), record["error"])
    gate.fail_keys(_check_failures(passes[0]))
    if workload == "evaluate":
        cycles = [r["outcome"]["cycles"] for r in passes[0]["ops"]
                  if r["outcome"] and r["outcome"]["cycles"]]
    else:
        cycles = [r["check_cycles"] for r in passes[0]["ops"] if r["check_cycles"] is not None]
    return {
        "walls": [one["wall"] for one in passes],
        "raw_walls": [one["raw_wall"] for one in passes],
        "latencies_ms": [r["seconds"] * 1e3 for r in records],
        "peak_rss_mb": max(one["peak_rss_mb"] for one in passes),
        "cycles_geomean": geomean(cycles) if cycles else 0.0,
    }


def measure_service(seed: int, seconds: float, gate: Gate) -> dict:
    import service_workload

    passes, scops = service_workload.measure(ROOT, OUT, seed, seconds)
    replies = [reply for one in passes for reply in one.replies]
    for reply in replies:
        gate.op(reply.key, reply.outcome, reply.error)
    first = {}
    for reply in replies:
        if reply.result is not None and reply.key not in first:
            first[reply.key] = (scops[reply.key.split("/")[0]], reply.result)
    failures, check_cycles = check_outputs(first, seed)
    gate.fail_keys(failures)
    return {
        "walls": [one.wall for one in passes],
        "raw_walls": [one.raw_wall for one in passes],
        "latencies_ms": [reply.seconds * 1e3 for reply in replies],
        "peak_rss_mb": max(one.peak_rss_mb for one in passes),
        "cycles_geomean": geomean(check_cycles.values()) if check_cycles else 0.0,
        "misses": [sum(r.cache == "miss" for r in one.replies) for one in passes],
    }


# --------------------------------------------------------------------------- #
# Traced runs: per-layer metrics
# --------------------------------------------------------------------------- #
def trace_compile(workload: str, seed: int, gate: Gate, stem: str) -> dict[str, float]:
    """A traced pass between two untraced ones (see ``_trace_summary``)."""
    base = run_worker(workload, seed, traced=False, check=True)
    traced = run_worker(workload, seed, traced=True, check=False, trace_stem=str(OUT / stem))
    after = run_worker(workload, seed, traced=False, check=False)
    for record in base["ops"] + after["ops"]:
        gate.op(record["op_id"], _outcome(record["outcome"]), record["error"])
    for untraced, record in zip(base["ops"], traced["ops"]):
        index = gate.op(record["op_id"], _outcome(record["outcome"]), record["error"])
        if untraced["outcome"] != record["outcome"]:
            gate.fail(index, f"{record['op_id']}: the traced run produced a different outcome")
    gate.fail_keys(_check_failures(base))
    metrics = dict(traced["counters"])
    seconds = traced["layer_seconds"]
    metrics.update({metric: seconds.get(span, 0.0) for span, metric in SPAN_METRICS.items()})
    # CostModel.evaluate builds its own AST, executes it and simulates the
    # cache; the worker timed the first two again outside the operation.
    metrics["machine.sim_s"] = (metrics["machine.evaluate_s"] - metrics.get("machine.ast_s", 0.0)
                                - metrics.get("codegen.execute_s", 0.0))
    metrics.update(_trace_summary(traced["wall"], [base["wall"], after["wall"]]))
    return metrics


def trace_service(seed: int, gate: Gate, stem: str) -> dict[str, float]:
    import compile_workloads
    import service_workload

    scops, configs = service_workload.build_inputs()
    base = service_workload.run_pass(ROOT, OUT, "base", seed, scops, configs)
    trace = Trace()
    traced = service_workload.run_pass(ROOT, OUT, "traced", seed, scops, configs, trace)
    after = service_workload.run_pass(ROOT, OUT, "after", seed, scops, configs)
    for reply in base.replies + traced.replies + after.replies:
        gate.op(reply.key, reply.outcome, reply.error)
    first = {}
    for reply in base.replies:
        if reply.result is not None and reply.key not in first:
            first[reply.key] = (scops[reply.key.split("/")[0]], reply.result)
    failures, _cycles = check_outputs(first, seed)
    gate.fail_keys(failures)

    replies = traced.replies
    counters = compile_workloads.LayerCounters()
    # Server-side layer figures come from the results of the requests that
    # ran the pipeline, once per key: the first reply of a key is always a
    # miss and is the one whose result is kept, so duplicated compiles do
    # not make the counters depend on timing.
    misses = [r for r in replies if r.cache == "miss"]
    distinct = {r.fingerprint for r in misses}
    seen_kernels: set[str] = set()
    for reply in misses:
        result = reply.result
        if result is None:
            continue
        timings = result.stage_timings
        counters.add("deps.s", timings.get("dependences", 0.0))
        counters.add("scheduler.s", timings.get("schedule", 0.0))
        counters.add("transform.postprocess_s", timings.get("postprocess", 0.0))
        counters.add("transform.legality_s", timings.get("legality", 0.0))
        # The server reports one figure for AST construction and C emission.
        counters.add("codegen.ast_s", timings.get("codegen", 0.0))
        counters.add("machine.evaluate_s", timings.get("evaluate", 0.0))
        counters.add("deps.dependences", len(result.dependences))
        if result.scheduling is not None:
            compile_workloads.add_scheduling_counters(
                counters, result.scheduling.statistics, bool(result.scheduling.fallback_to_original))
        counters.add("transform.parallel_dims", sum(bool(f) for f in result.schedule.parallel_dims))
        counters.add("codegen.c_bytes", len((result.generated_c or "").encode("utf-8")))
        kernel = reply.key.split("/")[0]
        if kernel not in seen_kernels:
            seen_kernels.add(kernel)
            match = re.search(r"(\d+) engine solves", " ".join(result.diagnostics))
            counters.add("deps.emptiness_engine_probes", int(match.group(1)) if match else 0)
    session = traced.stats.get("session", {})
    counters.add("deps.emptiness_probes", session.get("emptiness_probes", 0))
    counters.add("pipeline.result_hits", session.get("result_hits", 0))
    counters.add("pipeline.dependence_hits", session.get("dependence_hits", 0))
    counters.add("pipeline.store_puts", session.get("store_puts", 0))

    metrics = dict(counters.values)
    spans = trace.layer_seconds()
    metrics["service.client_encode_s"] = spans.get("service.client_encode", 0.0)
    metrics["service.client_decode_s"] = spans.get("service.client_decode", 0.0)
    server_s = service_workload.server_seconds(traced.metrics_text)
    latency_s = sum(r.raw_seconds for r in replies)
    metrics["service.server_s"] = server_s
    metrics["service.transport_s"] = (latency_s - server_s - metrics["service.client_encode_s"]
                                      - metrics["service.client_decode_s"])
    hits = [r.raw_seconds * 1e3 for r in replies if r.cache is not None and r.cache != "miss"]
    miss_ms = [r.raw_seconds * 1e3 for r in misses]
    metrics["service.hit_ms_p50"] = statistics.median(hits) if hits else 0.0
    metrics["service.miss_ms_p50"] = statistics.median(miss_ms) if miss_ms else 0.0
    metrics["service.response_bytes"] = sum(r.response_bytes for r in replies)
    metrics["service.scheduler_runs"] = len(misses)
    metrics["service.duplicate_compiles"] = len(misses) - len(distinct)
    labels = {i: f"{kernel}/{strategy}" for i, (kernel, strategy) in enumerate(service_stream(seed))}
    trace.write_chrome_trace(str(OUT / f"{stem}.trace.json"), labels)
    table = trace.self_time_table()
    (OUT / f"{stem}.selftime.txt").write_text(table + "\n", encoding="utf-8")
    log(table)
    metrics.update(_trace_summary(traced.wall, [base.wall, after.wall]))
    return metrics


def _trace_summary(traced_wall: float, untraced_walls: list[float]) -> dict[str, float]:
    """Tracing overhead against the mean of the untraced passes around it.

    The traced pass runs between two untraced ones, so a drift of the
    host's speed over the run cancels out of the difference.
    """
    untraced_wall = statistics.fmean(untraced_walls)
    return {
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def terminate(signum, frame) -> None:
    """SIGTERM unwinds like an error, so the servers and workers get stopped."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    arguments = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = arguments.workload
    if workload not in WORKLOADS:
        log(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    stem = f"{workload}-seed{arguments.seed}-trace{arguments.trace}"
    gate = Gate(workload, arguments.write_expected)
    record: dict = {"workload": workload, "seed": arguments.seed, "seconds": arguments.seconds,
                    "trace": arguments.trace, "environment": env}

    if arguments.trace:
        if workload == "service-mix":
            values = trace_service(arguments.seed, gate, stem)
        else:
            values = trace_compile(workload, arguments.seed, gate, stem)
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        setup = time_setup(workload)
        record["setup_samples_s"] = setup
        if workload == "service-mix":
            measured = measure_service(arguments.seed, arguments.seconds, gate)
            record["misses_per_pass"] = measured["misses"]
        else:
            measured = measure_compile(workload, arguments.seed, arguments.seconds, gate)
        latencies = measured["latencies_ms"]
        record["pass_walls_s"] = measured["walls"]
        record["raw_pass_walls_s"] = measured["raw_walls"]
        record["latency_samples"] = len(latencies)
        record["samples_beyond_p95"] = sum(v > percentile(latencies, 95) for v in latencies)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(measured["walls"]),
            "latency_ms_p50": percentile(latencies, 50),
            "latency_ms_p95": percentile(latencies, 95),
            "success_rate": 1 - len(gate.failed) / max(1, len(gate.keys)),
            "peak_rss_mb": measured["peak_rss_mb"],
            "cycles_geomean": measured["cycles_geomean"],
        }
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}

    gate.finish()
    env["loadavg_end"] = list(os.getloadavg())
    record.update(failures=gate.reasons, metrics=metrics)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    log(json.dumps(env))
    for failure in gate.reasons[:20]:
        log(f"FAILED {failure}")
    if record.get("latency_samples"):
        log(f"latency samples: {record['latency_samples']}, "
            f"beyond p95: {record['samples_beyond_p95']}")
    print(json.dumps({
        "correct": not gate.reasons,
        "attempted": len(gate.keys),
        "failed": len(gate.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
