"""Set-up probe: a fresh interpreter gets one workload ready to time.

``run.py`` starts this script several times and measures, from the spawn to
the ``ready`` line, what a user pays before the first operation: interpreter
start, importing ``repro`` and building the workload's SCoPs, and for
``service-mix`` also starting the server until it answers ``/v1/healthz``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import terminate  # noqa: E402


def main() -> int:
    signal.signal(signal.SIGTERM, terminate)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    arguments = parser.parse_args()
    workload = arguments.workload
    import repro  # noqa: F401 - the import is part of what is timed

    if workload == "service-mix":
        from service_workload import Server, build_inputs

        build_inputs()
        server = Server(ROOT, Path(arguments.workdir), "setup")
        try:
            print("ready", flush=True)
        finally:
            server.stop()
    else:
        from inputs import compile_ops

        for op in compile_ops(workload, 0):
            op.build(), op.config(), op.machine_model()
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
