"""The serve_mixed client side: a ``repro serve`` instance and 2 clients.

Timed runs talk to ``python -m repro serve`` in a subprocess with a
fresh data directory.  The traced run serves from a thread of the
benchmark process instead, so the span recorder sees the service's
calls into the library.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

CLIENTS = 2


class ServerProcess:
    """``python -m repro serve --port 0`` in a subprocess."""

    def __init__(self, root: Path, data_dir: Path) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--data-dir", str(data_dir)],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.process.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kib / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self.process.stdout.close()


class InProcessServer:
    """The same service on a thread of this process (for the traced run)."""

    def __init__(self, data_dir: Path) -> None:
        from repro.service import ReproService, make_server

        self.server = make_server(ReproService(data_dir), host="127.0.0.1", port=0)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=15)


@dataclass
class Reply:
    body: dict[str, Any]
    latency_s: float
    server_s: float
    status: int
    payload: dict[str, Any] | None
    started: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status != 200 or self.payload is None or bool(
            self.payload.get("failed"))


def request(port: int, method: str, path: str,
            body: dict[str, Any] | None = None) -> tuple[int, float, bytes]:
    """One HTTP exchange: ``(status, server elapsed s, response body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        data = None if body is None else json.dumps(body).encode()
        headers = {} if data is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        elapsed_ms = float(response.getheader("X-Repro-Elapsed-Ms") or 0.0)
        return response.status, elapsed_ms / 1000.0, raw
    finally:
        connection.close()


def post_run(port: int, body: dict[str, Any]) -> Reply:
    started = time.perf_counter()
    try:
        status, server_s, raw = request(port, "POST", "/v1/run", body)
        payload = json.loads(raw) if status == 200 else None
    except (OSError, http.client.HTTPException, ValueError):
        status, server_s, payload = 0, 0.0, None
    return Reply(body, time.perf_counter() - started, server_s, status, payload,
                 started)


def run_cycle(port: int, bodies: list[dict[str, Any]]) -> list[Reply]:
    """Send one cycle from ``CLIENTS`` closed-loop clients; wait for all."""
    replies: list[Reply | None] = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            replies[index] = post_run(port, bodies[index])

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # A client that died mid-cycle leaves its slot empty: count it failed.
    return [reply if reply is not None else Reply(body, 0.0, 0.0, 0, None)
            for reply, body in zip(replies, bodies)]


def run_sources(port: int) -> dict[str, int]:
    """``GET /v1/metrics`` run split: executed / cache / coalesced / failed."""
    status, _server_s, raw = request(port, "GET", "/v1/metrics")
    if status != 200:
        raise RuntimeError(f"GET /v1/metrics returned {status}")
    return dict(json.loads(raw)["runs"])
