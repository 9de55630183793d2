"""A fixed HTTP round trip that gauges how fast the host is right now.

    python3 perfbench/hostspeed.py          # serve; prints the bound port

On a shared virtual machine the host's speed swings by up to 2x within
minutes: the cores slow down under neighbours' load, and the hypervisor takes
CPU time away (``steal`` in ``/proc/stat``). Every workload's raw times move
with it. This module times a fixed program that never changes with groundcap
and does the same kind of work as the builds' client: a stdlib HTTP/1.0
server in its own process, a thread per connection like the mock, and
``requests`` clients posting JSON chat requests from ``workers`` threads, a
fresh connection per request. A burst reports the wall time and this
process's CPU time per round trip. ``run.py`` runs a burst before and after
everything it times and scales the times to a host on which a round trip
takes ``REFERENCE_MS`` of wall time and ``REFERENCE_CPU_MS`` of CPU time.
"""

from __future__ import annotations

import json
import selectors
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

# One round trip on the reference host: medians on the 2-core sandbox the bounds were set on.
REFERENCE_MS = 3.0
REFERENCE_CPU_MS = 2.7
BURST = 160  # round trips per measurement
_REQUEST = {
    "model": "reference",
    "messages": [{"role": "user", "content": "reference request " * 100}],
    "temperature": 0.0,
}
_REPLY = json.dumps({
    "choices": [{"message": {"role": "assistant", "content": "reference answer " * 25}}],
}).encode()


class HostSpeedError(RuntimeError):
    """The gauge could not be started or measured."""


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if not body.get("messages"):
            self.send_error(400)
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(_REPLY)))
        self.end_headers()
        self.wfile.write(_REPLY)

    def log_message(self, *args) -> None:
        pass


def serve() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


class HostSpeed:
    """The gauge's server in its own process, and the clients that time it."""

    def __init__(self, workers: int, env: dict[str, str], cwd: Path):
        self.workers = workers
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     cwd=cwd, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(self.proc.stdout, selectors.EVENT_READ)
                if not sel.select(timeout=60):
                    raise HostSpeedError("host-speed server printed no port within 60 s")
            port = self.proc.stdout.readline().strip()
            if not port.isdigit():
                raise HostSpeedError(f"host-speed server did not start: {port!r}")
            self.url = f"http://127.0.0.1:{int(port)}/v1/chat/completions"
            self.measure()  # warm-up
        except BaseException:
            self.close()
            raise

    def _client(self, calls: int, errors: list) -> None:
        import requests

        try:
            with requests.Session() as session:
                for _ in range(calls):
                    response = session.post(self.url, json=_REQUEST, timeout=30)
                    response.raise_for_status()
                    if not response.json()["choices"]:
                        raise HostSpeedError("host-speed server sent no choices")
        except Exception as exc:  # re-raised by measure
            errors.append(exc)

    def measure(self) -> tuple[float, float]:
        """Wall and client CPU milliseconds per round trip over one burst.

        The CPU time is this whole process's, so nothing else may run in it
        meanwhile.
        """
        calls = BURST // self.workers
        errors: list = []
        threads = [threading.Thread(target=self._client, args=(calls, errors))
                   for _ in range(self.workers)]
        start, start_cpu = time.perf_counter(), time.process_time()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
        if errors:
            raise HostSpeedError(f"host-speed round trip failed: {errors[0]}")
        return 1000 * wall / (calls * self.workers), 1000 * cpu / (calls * self.workers)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
