"""The ``service-mix`` workload: closed-loop clients against a real server.

Each pass starts ``python -m repro.service serve`` with a fresh SQLite store,
sends the seeded request stream from ``SERVICE_CLIENTS`` closed-loop client
threads (each sends its next request when the previous reply has arrived),
then reads the server's ``/v1/stats`` and ``/v1/metrics`` and stops it.
The server holds its own interpreter lock, so while one request compiles
the other client's requests queue behind it.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from repro.service.wire import decode_result, encode_compile_request

from checks import Outcome, outcome_of
from inputs import SERVICE_CLIENTS, SERVICE_KERNELS, SERVICE_STRATEGIES, service_stream
from speed import probe_all_cpus, scaled
from tracing import NULL_TRACE

REQUEST_TIMEOUT = 120.0
START_TIMEOUT = 60.0
#: Requests between two speed probes.
SEGMENT = 25


class Server:
    """One compilation server subprocess with its own store file."""

    def __init__(self, root: Path, workdir: Path, tag: str):
        self.store = workdir / f"store-{os.getpid()}-{tag}.sqlite"
        self._remove_store()
        self.log_path = workdir / f"server-{os.getpid()}-{tag}.log"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0",
             "--store", str(self.store)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self.url = self._read_url()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _read_url(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if selector.select(timeout=0.5):
                    line = self.process.stdout.readline().decode("utf-8", "replace")
                    if not line:
                        break
                    match = re.search(r"listening on (http://\S+)", line)
                    if match:
                        return match.group(1)
        raise RuntimeError(f"the server did not start; see {self.log_path}")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(f"{self.url}/v1/healthz", timeout=5) as response:
                    if response.status == 200:
                        return
            except (urllib.error.URLError, ConnectionError):
                time.sleep(0.01)
        raise RuntimeError("the server never answered /v1/healthz")

    def get(self, path: str) -> bytes:
        with urllib.request.urlopen(f"{self.url}{path}", timeout=REQUEST_TIMEOUT) as response:
            return response.read()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        self._remove_store()
        self.log_path.unlink(missing_ok=True)

    def _remove_store(self) -> None:
        for suffix in ("", "-wal", "-shm", "-journal"):
            Path(f"{self.store}{suffix}").unlink(missing_ok=True)


def build_inputs():
    """The kernels and strategy configurations the clients send."""
    from repro.scheduler import strategies
    from repro.suites.polybench import build_kernel

    scops = {name: build_kernel(name) for name in SERVICE_KERNELS}
    configs = {name: getattr(strategies, name)() for name in SERVICE_STRATEGIES}
    return scops, configs


@dataclass
class Reply:
    key: str
    raw_seconds: float
    cache: str | None = None
    fingerprint: str | None = None
    response_bytes: int = 0
    outcome: Outcome | None = None
    error: str | None = None
    result: object = None
    seconds: float = 0.0  # at the reference speed, set when its segment ends


def compile_request(url: str, scop, config, clock):
    """One ``POST /v1/compile``: encode, send, decode (one lap each)."""
    payload = encode_compile_request(scop, config)
    clock.lap("service.client_encode")
    request = urllib.request.Request(
        f"{url}/v1/compile", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT) as response:
        raw = response.read()
    document = json.loads(raw)
    clock.lap("service.transport")
    result = decode_result(document)
    clock.lap("service.client_decode")
    return result, document.get("cache"), document.get("fingerprint"), len(raw)


@dataclass
class PassRecord:
    wall: float  # at the reference speed (speed.py)
    raw_wall: float
    replies: list[Reply]
    stats: dict = field(default_factory=dict)
    metrics_text: str = ""
    peak_rss_mb: float = 0.0


def _run_segment(url: str, stream, indices: range, replies: list, scops, configs,
                 trace, kept: set[str]) -> float:
    """Send ``stream[indices]`` from the closed-loop clients; returns the wall."""
    cursor = iter(indices)
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            kernel, strategy = stream[index]
            key = f"{kernel}/{strategy}"
            clock = trace.clock(index)
            began = time.perf_counter()
            try:
                result, cache, fingerprint, size = compile_request(
                    url, scops[kernel], configs[strategy], clock)
            except Exception as error:  # error responses count in error_rate
                replies[index] = Reply(key, time.perf_counter() - began,
                                       error=f"{type(error).__name__}: {error}")
                continue
            seconds = time.perf_counter() - began
            clock.close()
            with lock:
                keep = key not in kept
                kept.add(key)
            replies[index] = Reply(key, seconds, cache, fingerprint, size,
                                   outcome_of(result), result=result if keep else None)

    threads = [threading.Thread(target=client, name=f"client-{n}")
               for n in range(SERVICE_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def run_pass(root: Path, workdir: Path, tag: str, seed: int, scops, configs,
             trace=NULL_TRACE) -> PassRecord:
    """The whole stream against a fresh server, in segments of ``SEGMENT``.

    The work runs in the server and the client process at once, so no one
    thread can sample the speed it runs at.  Instead the clients pause
    between segments while the speed probe runs on every CPU, and each
    segment's wall and latencies are scaled by the probes around it
    (speed.py).
    """
    stream = service_stream(seed)
    replies: list[Reply | None] = [None] * len(stream)
    kept: set[str] = set()  # keys whose decoded result is kept for the checks
    server = Server(root, workdir, tag)
    try:
        wall = raw_wall = 0.0
        before = probe_all_cpus()
        for first in range(0, len(stream), SEGMENT):
            indices = range(first, min(first + SEGMENT, len(stream)))
            seconds = _run_segment(server.url, stream, indices, replies, scops, configs,
                                   trace, kept)
            after = probe_all_cpus()
            for index in indices:
                replies[index].seconds = scaled(replies[index].raw_seconds, before, after)
            wall += scaled(seconds, before, after)
            raw_wall += seconds
            before = after
        stats = json.loads(server.get("/v1/stats"))
        metrics_text = server.get("/v1/metrics").decode("utf-8")
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    return PassRecord(wall, raw_wall, replies, stats, metrics_text, peak)


def measure(root: Path, workdir: Path, seed: int, seconds: float):
    """Whole passes (fresh server each) while the next fits in *seconds*.

    Returns the passes and the SCoPs the clients sent, by kernel name.
    """
    scops, configs = build_inputs()
    passes: list[PassRecord] = []
    while True:
        passes.append(run_pass(root, workdir, str(len(passes)), seed, scops, configs))
        walls = sorted(p.wall for p in passes)
        if sum(walls) + walls[len(walls) // 2] > seconds:
            return passes, scops


def server_seconds(metrics_text: str) -> float:
    """Total server-side seconds of ``/v1/compile`` requests."""
    match = re.search(r'^repro_request_seconds_sum\{route="/v1/compile"\}\s+(\S+)$',
                      metrics_text, re.MULTILINE)
    return float(match.group(1)) if match else 0.0
