"""The benchmark's workloads and the seeded inputs they run on.

Everything a workload feeds to the program is built here, from the seed
alone, so the program only ever sees the generated inputs:

* ``cold-compile`` — every PolyBench kernel plus the deep-nest suite, each
  compiled once under ``pluto_style()`` in a fresh ``Session`` without a
  machine model.  The seed draws the compile order.
* ``evaluate`` — the paper's two cost scenarios: Intel1 on six PolyBench
  kernels, and the Ascend-910 model on two Table I operators under the isl
  and NPU-vectorise strategies.  The seed draws the compile order.
* ``service-mix`` — a Zipf stream of compile requests over 12 kernels x 3
  strategies, sent to a compilation server.  The seed draws the stream from
  a fixed popularity ranking.

The kernel lists are spelled out rather than read from the suite
registries, so adding a kernel to a suite does not change the workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("cold-compile", "evaluate", "service-mix")

POLYBENCH = (
    "gemm", "gemver", "gesummv", "symm", "syrk", "syr2k", "trmm", "atax", "bicg",
    "mvt", "2mm", "3mm", "doitgen", "cholesky", "lu", "trisolv", "durbin",
    "gramschmidt", "jacobi-1d", "jacobi-2d", "heat-3d", "fdtd-2d", "seidel-2d",
    "correlation", "covariance",
)
DEEPNEST = ("jacobi-4d", "heat-4d", "tc-4d", "tc-5d", "tc-6d", "sumred-4d", "polymage-deep")

#: Intel1 scenario: matrix-vector (atax, bicg, mvt), triangular (syrk, trmm)
#: and a skewed stencil with guards (seidel-2d).
EVALUATE_INTEL = ("atax", "bicg", "mvt", "syrk", "trmm", "seidel-2d")
#: Ascend-910 scenario: the two Table I operators at 16x16x16.
EVALUATE_ASCEND = (
    ("trsmL_off_diag", "16x16x16", {"rows": 16, "blocks": 1, "lanes": 16}),
    ("trsmU_transpose", "16x16x16", {"rows": 16, "cols": 16, "lanes": 16}),
)

SERVICE_KERNELS = (
    "gemm", "gemver", "gesummv", "syrk", "trmm", "atax", "bicg", "mvt", "2mm",
    "trisolv", "jacobi-1d", "seidel-2d",
)
SERVICE_STRATEGIES = ("pluto_style", "feautrier_style", "tensor_scheduler_style")
SERVICE_REQUESTS = 600
SERVICE_CLIENTS = 2
ZIPF_EXPONENT = 1.0
#: Seed of the fixed popularity ranking of the service-mix keys.
RANKING_SEED = 0
CHECK_POINTS = 300


@dataclass(frozen=True)
class CompileOp:
    """One compile of a workload: what to build and how to compile it."""

    op_id: str
    build: Callable[[], object]  # () -> Scop
    strategy: str  # name of a factory in repro.scheduler.strategies
    machine: str | None  # "Intel1", "Ascend910" or None
    skew: bool  # Session(apply_wavefront_skewing=...)

    def config(self):
        from repro.scheduler import strategies

        return getattr(strategies, self.strategy)()

    def machine_model(self):
        from repro.machine.machine import machine_by_name

        return machine_by_name(self.machine) if self.machine is not None else None


def _polybench(name: str) -> Callable[[], object]:
    def build():
        from repro.suites.polybench import build_kernel

        return build_kernel(name)

    return build


def _deepnest(name: str) -> Callable[[], object]:
    def build():
        from repro.suites.deepnest import build_deepnest

        return build_deepnest(name)

    return build


def _custom(operator: str, arguments: dict) -> Callable[[], object]:
    def build():
        from repro.suites.custom_ops import build_case

        return build_case(operator, **arguments)

    return build


def compile_ops(workload: str, seed: int) -> list[CompileOp]:
    """The operations of a compile workload, in the seed's order."""
    if workload == "cold-compile":
        ops = [CompileOp(f"{name}/pluto_style", _polybench(name), "pluto_style", None, True)
               for name in POLYBENCH]
        ops += [CompileOp(f"{name}/pluto_style", _deepnest(name), "pluto_style", None, True)
                for name in DEEPNEST]
    elif workload == "evaluate":
        ops = [CompileOp(f"Intel1/{name}/pluto_style", _polybench(name), "pluto_style", "Intel1", True)
               for name in EVALUATE_INTEL]
        # Table I compiles the NPU operators without wavefront skewing.
        ops += [
            CompileOp(f"Ascend910/{operator}-{size}/{strategy}", _custom(operator, arguments),
                      strategy, "Ascend910", False)
            for operator, size, arguments in EVALUATE_ASCEND
            for strategy in ("isl_style", "npu_vectorize_style")
        ]
    else:
        raise ValueError(f"{workload!r} is not a compile workload")
    random.Random(seed).shuffle(ops)
    return ops


def service_stream(seed: int) -> list[tuple[str, str]]:
    """The seeded request stream of ``service-mix``: (kernel, strategy) pairs.

    Every one of the 36 keys appears at least once, so each run compiles the
    same set of distinct keys.  The remaining requests are Zipf-distributed
    over a fixed popularity ranking of the keys, and the seed draws them and
    the order of the stream.  The ranking is not seeded: a hit's latency
    depends on its kernel (the largest response is about six times the
    smallest), and with a seeded ranking the median latency changed by up to
    half from seed to seed, a change of workload rather than of program.
    """
    rng = random.Random(seed)
    keys = [(kernel, strategy) for kernel in SERVICE_KERNELS for strategy in SERVICE_STRATEGIES]
    ranking = list(keys)
    random.Random(RANKING_SEED).shuffle(ranking)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranking))]
    stream = keys + rng.choices(ranking, weights, k=SERVICE_REQUESTS - len(keys))
    rng.shuffle(stream)
    return stream


def reduced_parameters(scop) -> dict[str, int]:
    """Small parameter values for the execution check.

    The check runs in the interpreter, so each parameter is capped at the
    largest extent (2 to 8) whose power of the nest depth stays within
    ``CHECK_POINTS``: deep nests get small extents.
    """
    cap = min(8, max(2, int(CHECK_POINTS ** (1 / max(1, scop.max_depth())))))
    return {name: min(int(value), cap) for name, value in scop.resolved_parameters().items()}
