"""Served-workload benchmark: closed-loop HTTP traffic against ``repro.server``.

    python3 servebench/run.py --workload lookup --seed 1 --seconds 30 --trace 0

Boots the real server with its public CLI (snb, 100 persons, dataset seed
``workloads.DATASET_SEED``), prepares handles and sends one warm-up read of every distinct
statement: that is set-up. Then the workload's clients run for ``--seconds``; each sends its next
request only after the previous reply, on a fresh connection. ``--seed`` drives every parameter
draw, the operation order and the write sequence. After the window, every distinct (statement,
params) answer is checked against the same statement run in-process at ``NAIVE_CONFIG``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` splits its time between an untraced
window and one under the span-recording launcher (:mod:`servebench.tracing`), and prints the
per-layer metrics. The last line of stdout is the result object; the line before it records
the host, the interpreter and the code version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from servebench.reference import reference_answers, served_answer, table_answer  # noqa: E402
from servebench.served import ServerProcess  # noqa: E402
from servebench.tracing import layer_metrics  # noqa: E402
from servebench.workloads import (  # noqa: E402
    CLIENTS,
    DATASET_SEED,
    HANDLES,
    KNOWS_COUNT,
    PERSONS,
    READ_CLASSES,
    WORKLOADS,
    answer_key,
    handles,
    operations,
    warmup,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

Metrics = Dict[str, Tuple[float, str]]


class Window:
    """What one timed window, or the warm-up passes, observed."""

    def __init__(self) -> None:
        #: (class, latency ms, response bytes, server elapsed_ms)
        self.reads: List[Tuple[str, float, int, Optional[float]]] = []
        #: (latency ms, server elapsed_ms)
        self.writes: List[Tuple[float, Optional[float]]] = []
        #: (kind, pair, person a, person b, applied)
        self.write_log: List[Tuple[str, str, str, str, bool]] = []
        #: answer key -> canonical answer -> times served
        self.answers: Dict[str, Counter] = defaultdict(Counter)
        self.attempted = 0
        self.errors = 0
        self.executes = 0
        self.span = (0, 0)  # monotonic ns
        self.seconds = 0.0
        self.knows_served: Optional[int] = None

    def merge(self, other: "Window") -> None:
        self.reads += other.reads
        self.writes += other.writes
        self.write_log += other.write_log
        for key, seen in other.answers.items():
            self.answers[key].update(seen)
        self.attempted += other.attempted
        self.errors += other.errors
        self.executes += other.executes

    @property
    def ops_s(self) -> float:
        return (len(self.reads) + len(self.writes)) / self.seconds


def _request(op: tuple, ids: Dict[str, str]) -> Tuple[str, Dict[str, Any]]:
    if op[0] == "execute":
        return "/execute", {"statement_id": ids[op[2]], "params": op[3]}
    if op[0] == "query":
        body = {"query": op[2], "strict": op[4]}
        if op[3] is not None:
            body["params"] = op[3]
        return "/query", body
    return "/update", {"graph": "snb", "ops": op[6]}


def send(server: ServerProcess, op: tuple, ids: Dict[str, str], seen: Window) -> None:
    """Send one operation and record its outcome in *seen*."""
    path, body = _request(op, ids)
    status, data, seconds = server.call("POST", path, body)
    seen.attempted += 1
    if status != 200:
        seen.errors += 1
        if op[0] == "update":
            seen.write_log.append((op[2], op[3], op[4], op[5], False))
        return
    payload = json.loads(data)
    latency_ms, elapsed = seconds * 1000.0, payload.get("elapsed_ms")
    if op[0] == "update":
        applied = payload.get("applied_ops") == len(op[6])
        seen.errors += not applied
        seen.write_log.append((op[2], op[3], op[4], op[5], applied))
        seen.writes.append((latency_ms, elapsed))
        return
    seen.executes += op[0] == "execute"
    seen.reads.append((op[1], latency_ms, len(data), elapsed))
    seen.answers[answer_key(op)][served_answer(payload)] += 1


def drive(
    server: ServerProcess, ids: Dict[str, str], workload: str, seed: int, seconds: float
) -> Window:
    """The closed loop: each client waits for every reply before it sends again."""
    windows = [Window() for _ in range(CLIENTS[workload])]
    failures: List[BaseException] = []
    barrier = threading.Barrier(len(windows) + 1)
    deadline = [0.0]

    def client(index: int) -> None:
        stream = operations(workload, seed, index)
        barrier.wait()
        try:
            while time.perf_counter() < deadline[0]:
                send(server, next(stream), ids, windows[index])
        except BaseException as error:  # re-raised by the main thread
            failures.append(error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(windows))]
    for thread in threads:
        thread.start()
    start_ns, start = time.monotonic_ns(), time.perf_counter()
    deadline[0] = start + seconds
    barrier.wait()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError("a client did not finish its last request")
    if failures:
        raise failures[0]
    window = Window()
    for each in windows:
        window.merge(each)
    window.seconds = time.perf_counter() - start
    window.span = (start_ns, time.monotonic_ns())
    return window


class Run:
    """One invocation's windows, and the checks on everything they were served."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.warm = Window()
        self.windows: List[Window] = []
        self.problems: List[str] = []

    def set_up(
        self, trace_out: Optional[Path] = None
    ) -> Tuple[ServerProcess, Dict[str, str], float]:
        """Launch a server, prepare handles and warm every statement once.

        Returns the server, its handle ids and the seconds from launch until warm.
        """
        server = ServerProcess(DATASET_SEED, trace_out)
        try:
            ids = server.prepare(list(handles(self.workload)), HANDLES)
            for op in warmup(self.workload):
                send(server, op, ids, self.warm)
        except BaseException:
            server.stop()
            raise
        return server, ids, time.perf_counter() - server.started

    def window(self, server: ServerProcess, ids: Dict[str, str]) -> Tuple[Window, Dict]:
        """Drive one timed window; returns it with /stats from before and after."""
        before = server.json("GET", "/stats")
        window = drive(server, ids, self.workload, self.seed, self.seconds)
        after = server.json("GET", "/stats")
        if after["mvcc"]["active_snapshots"] != 0:
            self.problems.append("snapshots still pinned after the run")
        if self.workload == "read_write":
            rows = server.json("POST", "/query", {"query": KNOWS_COUNT})["rows"]
            window.knows_served = rows[0][0]
        self.windows.append(window)
        return window, {"before": before, "after": after}

    def check(self) -> Tuple[int, int]:
        """(attempted, failed) over every request and every end-of-run check."""
        checked = [self.warm] + self.windows
        count_key = json.dumps([KNOWS_COUNT, None])
        keys = {count_key}.union(*(window.answers for window in checked))
        expected = reference_answers(sorted(keys), DATASET_SEED, PERSONS)
        base_knows = json.loads(expected[count_key][1][0])[0]
        rows = _person_rows() if self.workload == "read_write" else {}
        failed = sum(window.errors for window in checked) + len(self.problems)
        attempted = sum(window.attempted for window in checked) + len(self.windows)
        for window in checked:
            for key, seen in window.answers.items():
                for answer, count in seen.items():
                    if not _right(answer, expected[key], key, window, rows):
                        failed += count
                        self.problems.append(f"wrong answer for {key}")
            if window.knows_served is not None:
                net = sum(1 if kind == "add" else -1 for kind, *_, ok in window.write_log if ok)
                if window.knows_served != base_knows + 2 * net:
                    failed += 1
                    self.problems.append("knows edge count disagrees with the write log")
        return attempted, failed


def _person_rows() -> Dict[str, str]:
    """Person id -> its canonical (firstName, lastName) row, as the hop read returns it."""
    from repro import GCoreEngine, datasets

    engine = GCoreEngine()
    datasets.load("snb", scale=PERSONS, seed=DATASET_SEED).install(engine)
    table = engine.run("SELECT n, n.firstName, n.lastName MATCH (n:Person)")
    return {row[0]: table_answer([row[1:]])[1][0] for row in table.rows}


def _right(answer: Any, reference: Any, key: str, window: Window, rows: Dict[str, str]) -> bool:
    """Is a served answer right? A hop read under concurrent writes gets a bracket check.

    While writers run, a hop read may see any subset of the knows pairs added so far, so it
    must hold every row the base graph gives and, beyond those, only rows that the pairs in the
    write log can contribute.
    """
    if answer is None or (not rows and answer != reference):
        return False
    if answer == reference:
        return True
    name = json.loads(key)[1]["name"]
    extra = Counter(answer[1])
    extra.subtract(Counter(reference[1]))
    allowed: Counter = Counter()
    for kind, _pair, a, b, _ok in window.write_log:
        if kind == "add":
            for src, dst in ((a, b), (b, a)):
                if json.loads(rows[src])[0] == name:
                    allowed[rows[dst]] += 1
    return all(0 <= count <= allowed[row] for row, count in extra.items())


def _percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(window: Window, setups: List[float], rss_mib: float) -> Metrics:
    return {
        "read_p50_ms": (statistics.median(r[1] for r in window.reads), "ms"),
        "ops_s": (window.ops_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "server_rss_mib": (rss_mib, "MiB"),
    }


def untraced_layers(window: Window, stats: Dict) -> Metrics:
    """The per-layer metrics taken from response bodies and ``GET /stats``."""
    before, after = stats["before"], stats["after"]
    hits = after["plan_cache"]["hits"] - before["plan_cache"]["hits"]
    misses = after["plan_cache"]["misses"] - before["plan_cache"]["misses"]
    # /execute runs its prepared handle without a plan-cache lookup: a hit by construction.
    lookups = hits + misses + window.executes
    timed = [(r[1], r[3]) for r in window.reads] + window.writes
    overheads = [latency - elapsed for latency, elapsed in timed if elapsed is not None]
    reads = [r[1] for r in window.reads]
    writes = [latency for latency, _elapsed in window.writes]
    metrics: Metrics = {
        "read_p99_ms": (_percentile(reads, 99), "ms"),
        "write_p50_ms": (statistics.median(writes) if writes else 0.0, "ms"),
        "write_p99_ms": (_percentile(writes, 99), "ms"),
        "server.overhead_ms": (statistics.median(overheads), "ms"),
        "engine.plan_cache_hit_ratio": ((hits + window.executes) / lookups, "ratio"),
        "server.admission.shed": (
            after["admission"]["shed_total"] - before["admission"]["shed_total"],
            "count",
        ),
        "catalog.retained_versions_end": (after["mvcc"]["retained_versions"], "count"),
        "catalog.active_snapshots_end": (after["mvcc"]["active_snapshots"], "count"),
        "eval.parallel_fallbacks": (
            after["parallel_fallbacks"]["total"] - before["parallel_fallbacks"]["total"],
            "count",
        ),
    }
    sizes: Dict[str, List[int]] = defaultdict(list)
    for cls, _latency, size, _elapsed in window.reads:
        sizes[cls].append(size)
    for cls in READ_CLASSES:
        median = statistics.median(sizes[cls]) if sizes[cls] else 0
        metrics[f"server.protocol.response_bytes.{cls}"] = (median, "bytes")
    return metrics


def traced_layers(spans: List[List[Any]], window: Window, untraced_ops_s: float) -> Metrics:
    """The per-layer metrics taken from the traced window's spans."""
    operations = len(window.reads) + len(window.writes)
    metrics: Metrics = {}
    for name, value in layer_metrics(spans, window.span, operations, READ_CLASSES).items():
        if name.startswith("eval.rows_out."):
            unit = "rows/op"
        elif ".calls" in name:
            unit = "calls/op"
        elif name.endswith("_ratio"):
            unit = "ratio"
        else:
            unit = "ms"
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (window.ops_s / untraced_ops_s, "ratio")
    return metrics


def measure(run: Run) -> Metrics:
    """The untraced run: set up SETUPS times, then one window on the last server."""
    setups = []
    for attempt in range(SETUPS):
        server, ids, elapsed = run.set_up()
        setups.append(elapsed)
        if attempt < SETUPS - 1:
            server.stop()
    try:
        window, _stats = run.window(server, ids)
        rss = server.peak_rss_mib()
    finally:
        server.stop()
    return end_to_end(window, setups, rss)


def measure_layers(run: Run) -> Metrics:
    """The traced run: an untraced window, then a traced one on a fresh server."""
    server, ids, _elapsed = run.set_up()
    try:
        plain, stats = run.window(server, ids)
    finally:
        server.stop()
    metrics = untraced_layers(plain, stats)
    trace_dir = ROOT / ".servebench"
    trace_dir.mkdir(exist_ok=True)
    trace_path = trace_dir / f"trace-{os.getpid()}.json"
    try:
        server, ids, _elapsed = run.set_up(trace_path)
        try:
            traced, _stats = run.window(server, ids)
        finally:
            server.stop()
        spans = json.loads(trace_path.read_text())
    finally:
        trace_path.unlink(missing_ok=True)
        trace_dir.rmdir()
    metrics.update(traced_layers(spans, traced, plain.ops_s))
    return metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    # A traced run splits its time between the two windows it compares.
    run = Run(workload, seed, seconds / 2 if trace else seconds)
    metrics = measure_layers(run) if trace else measure(run)
    attempted, failed = run.check()
    if trace:
        metrics["failed_ratio"] = (failed / attempted, "ratio")
    for problem in sorted(set(run.problems)):
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def host() -> Dict[str, Any]:
    """What every result records: usable cores, interpreter and code version."""
    commit: Optional[str] = None  # outside a git checkout the source digest identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _exit_on_signal(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Served-workload benchmark of repro.server.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "server" / "__main__.py").is_file():
        print("servebench: no repro sources under src/ to serve", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A shell that starts us in the background ignores SIGINT and the servers would inherit
    # that, but SIGINT is how they are stopped. SIGTERM unwinds too, so they are stopped then.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    info = host()
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    run_info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    print(json.dumps({"host": info, **run_info, "trace": args.trace}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
