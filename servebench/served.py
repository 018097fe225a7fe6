"""The server process under test and the one-connection-per-request client.

The server is the public CLI (``python -m repro.server``), or for a traced run the launcher in
:mod:`servebench.tracing`; both print the bound URL on their first output line. Requests are
plain HTTP/1.1 over a fresh connection each, because the server answers ``Connection: close``:
connect time is part of every latency measured here.
"""

from __future__ import annotations

import http.client
import ctypes
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
_URL = re.compile(rb"listening on http://([\d.]+):(\d+)")
START_TIMEOUT_S = 60.0


def die_with_parent() -> None:
    """In a child before exec: have the kernel kill it if the benchmark dies first.

    The benchmark stops its children itself on every way out it controls; this covers being
    killed outright.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class ServerError(RuntimeError):
    """The server process failed to start or to answer."""


class ServerProcess:
    """One ``repro.server`` process serving snb at 100 persons."""

    def __init__(self, seed: int, trace_out: Optional[Path] = None) -> None:
        server_args = ["--dataset", "snb", "--persons", "100", "--seed", str(seed), "--port", "0"]
        if trace_out is None:
            argv = [sys.executable, "-u", "-m", "repro.server", *server_args]
        else:
            argv = [sys.executable, "-u", "-m", "servebench.tracing", str(trace_out), *server_args]
        paths = [str(ROOT / "src"), str(ROOT)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            preexec_fn=die_with_parent,
        )
        try:
            self.host, self.port = self._wait_for_url()
        except BaseException:
            self.stop()
            raise

    def _wait_for_url(self) -> Tuple[str, int]:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                match = _URL.search(line)
                if match:
                    return match.group(1).decode(), int(match.group(2))
                if not line:
                    break
            elif self.proc.poll() is not None:
                break
        raise ServerError(f"server did not start: {self._stderr()}")

    def _stderr(self) -> str:
        if self.proc.poll() is None or self.proc.stderr is None:
            return "(still running)"
        return self.proc.stderr.read().decode(errors="replace")[-2000:]

    def peak_rss_mib(self) -> float:
        """The process's high-water resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match is None:
            raise ServerError("VmHWM missing from /proc status")
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        """Interrupt the server (it exits cleanly on SIGINT) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()

    def call(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, bytes, float]:
        """One request on a fresh connection: (status, body, seconds)."""
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if payload is None else {"Content-Type": "application/json"}
        started = time.perf_counter()
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request(method, path, payload, headers)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        return response.status, data, time.perf_counter() - started

    def json(self, method: str, path: str, body: Optional[Dict[str, Any]] = None) -> Any:
        """An untimed request that must answer 200."""
        status, data, _ = self.call(method, path, body)
        if status != 200:
            raise ServerError(f"{method} {path} -> {status}: {data[:300]!r}")
        return json.loads(data)

    def prepare(self, names: List[str], texts: Dict[str, str]) -> Dict[str, str]:
        """Prepare each named statement; name -> statement_id."""
        return {
            name: self.json("POST", "/prepare", {"query": texts[name]})["statement_id"]
            for name in names
        }
