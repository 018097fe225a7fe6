"""Span recording around the server's layers, and the per-layer analysis.

``python -m servebench.tracing OUT.json [server args]`` is the traced server: it wraps the
public entry point of each layer in a span recorder, then runs ``repro.server.__main__.main``
unchanged. Spans (layer, class, start, end, parent, request id) are kept in memory and written
to ``OUT.json`` when the server exits on SIGINT. No file of the program is modified; tracing
inside the program is separate work.

The request span is ``GCoreServer._handle_connection``. ``GCoreServer._run_admitted`` is wrapped
only to carry the request's context onto the query worker thread, because ``run_in_executor``
does not copy context variables. ``PlanCache.lookup`` is counted, not timed: each call leaves a
zero-length span marked ``hit`` or ``miss``.

Not measured, for want of a served workload that reaches them: ``storage`` (the server boots
from a generated dataset, not a snapshot) and ``eval.maintenance`` (no endpoint refreshes views).
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span id, request id, layer) of the innermost span running here.
_current: contextvars.ContextVar = contextvars.ContextVar(
    "servebench_span", default=(None, None, None)
)

#: (module, attribute, layer): each entry point that gets a span. Functions are wrapped in the
#: module that calls them, because that is where the caller looks them up.
LAYERS = (
    ("repro.server.app", "read_request", "server.http.read"),
    ("repro.server.app", "write_response", "server.http.write"),
    ("repro.server.app", "decode_params", "server.protocol.decode"),
    ("repro.server.app", "decode_config", "server.protocol.decode"),
    ("repro.server.app", "delta_from_json", "server.protocol.decode"),
    ("repro.server.app", "serialize_result", "server.protocol.encode"),
    ("repro.server.app", "dumps", "server.protocol.encode"),
    ("repro.server.admission", "AdmissionController.acquire", "server.admission.wait"),
    ("repro.engine", "GCoreEngine.snapshot", "catalog.pin"),
    ("repro.engine", "EngineSnapshot.release", "catalog.pin"),
    ("repro.catalog", "Catalog.commit_update", "catalog.commit"),
    ("repro.engine", "GCoreEngine.prepare", "engine.prepare"),
    ("repro.engine", "GCoreEngine.parse", "lang.parse"),
    ("repro.engine", "EngineSnapshot.analyze", "analysis.analyze"),
    ("repro.eval.match", "order_atoms", "eval.planner.order"),
    ("repro.engine", "EngineSnapshot.execute_prepared", "eval.execute"),
    ("repro.eval.query", "evaluate_match", "eval.match"),
    ("repro.eval.query", "evaluate_construct", "eval.construct"),
    ("repro.eval.query", "evaluate_select", "eval.select"),
    ("repro.paths.product", "PathFinder.shortest_from", "paths.search"),
    ("repro.paths.product", "PathFinder.shortest_multi", "paths.search"),
    ("repro.paths.product", "PathFinder.reachable_from", "paths.search"),
    ("repro.paths.product", "PathFinder.reachable_multi", "paths.search"),
    ("repro.paths.product", "PathFinder.k_shortest", "paths.search"),
    ("repro.paths.product", "PathFinder.all_paths_projection", "paths.search"),
    ("repro.engine", "GCoreEngine.apply_update", "engine.apply_update"),
    ("repro.model.statistics", "GraphStatistics.apply_delta", "model.statistics"),
)
REQUEST = "server.request"
PLAN_LOOKUP = "eval.planner.lookup"
#: Layers whose spans are split by operation class.
CLASSED = ("eval.execute",)
TIMED_LAYERS = tuple(dict.fromkeys(layer for _module, _attribute, layer in LAYERS))


class Recorder:
    """Collects spans and plan-cache lookups in memory for one server."""

    def __init__(self) -> None:
        #: (layer, class, start ns, end ns, parent, request, span, rows)
        self.spans: List[Tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def _enter(self, layer: str) -> Optional[Tuple]:
        parent, request, parent_layer = _current.get()
        if layer == REQUEST:
            request = next(self._requests)
        elif request is None or parent_layer == layer:
            return None  # boot (not traffic), or a layer re-entering itself
        span = next(self._ids)
        return span, parent, request, _current.set((span, request, layer))

    def _exit(
        self, entered: Tuple, layer: str, cls: Optional[str], start: int, rows: Optional[int]
    ) -> None:
        end = time.monotonic_ns()
        span, parent, request, token = entered
        _current.reset(token)
        self.spans.append((layer, cls, start, end, parent, request, span, rows))

    def event(self, layer: str, cls: str) -> None:
        """A zero-length span: a count taken at a layer boundary."""
        parent, request, _layer = _current.get()
        if request is not None:
            now = time.monotonic_ns()
            self.spans.append((layer, cls, now, now, parent, request, None, None))

    def wrap(self, fn: Callable, layer: str, classify: Optional[Callable] = None) -> Callable:
        """*fn* recording a span per call; *classify* names the class and counts rows."""
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                entered = self._enter(layer)
                if entered is None:
                    return await fn(*args, **kwargs)
                start = time.monotonic_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._exit(entered, layer, None, start, None)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            entered = self._enter(layer)
            if entered is None:
                return fn(*args, **kwargs)
            start = time.monotonic_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if classify is None:
                    self._exit(entered, layer, None, start, None)
                else:
                    rows = None if result is None else _rows(result)
                    self._exit(entered, layer, classify(*args), start, rows)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(self.spans, out)


def _rows(result: Any) -> int:
    """Rows a statement produced: table rows, or graph objects."""
    rows = getattr(result, "rows", None)
    if rows is not None:
        return len(rows)
    return len(result.nodes) + len(result.edges) + len(result.paths)


def install(recorder: Recorder) -> None:
    """Wrap every entry point in :data:`LAYERS`, the request span and the plan cache."""
    from repro.eval.planner import PlanCache
    from repro.server.app import GCoreServer

    from servebench.workloads import ADHOC_PREFIX, statement_classes

    known = statement_classes()

    def classify(_snapshot: Any, prepared: Any, *_: Any) -> str:
        if prepared.text in known:
            return known[prepared.text]
        return "adhoc" if prepared.text.startswith(ADHOC_PREFIX) else "other"

    for module, attribute, layer in LAYERS:
        owner_name, _, name = attribute.rpartition(".")
        owner = importlib.import_module(module)
        if owner_name:
            owner = getattr(owner, owner_name)
        traced = recorder.wrap(getattr(owner, name), layer, classify if layer in CLASSED else None)
        setattr(owner, name, traced)
    GCoreServer._handle_connection = recorder.wrap(GCoreServer._handle_connection, REQUEST)

    run_admitted = GCoreServer._run_admitted

    def carry_context(self: Any, work: Callable, timeout_s: float) -> Any:
        in_context = functools.partial(contextvars.copy_context().run, work)
        return run_admitted(self, in_context, timeout_s)

    GCoreServer._run_admitted = carry_context

    lookup = PlanCache.lookup

    def counted_lookup(*args: Any, **kwargs: Any) -> Any:
        found = lookup(*args, **kwargs)
        recorder.event(PLAN_LOOKUP, "miss" if found is None else "hit")
        return found

    PlanCache.lookup = counted_lookup


def main(argv: List[str]) -> int:
    from repro.server.__main__ import main as serve

    out, server_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    try:
        return serve(server_args)
    finally:
        recorder.dump(out)


# ---------------------------------------------------------------------------
# Analysis (runs in the benchmark process)
# ---------------------------------------------------------------------------


def _covered(interval: Tuple[int, int], children: List[Tuple[int, int]]) -> int:
    """Nanoseconds of *interval* covered by the union of *children*."""
    low, high = interval
    covered, reach = 0, low
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, high)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_metrics(
    spans: List[List[Any]], window: Tuple[int, int], operations: int, classes: Tuple[str, ...]
) -> Dict[str, float]:
    """Per-layer self-time p50 (ms) and calls per operation, from a span dump.

    Only requests whose span starts inside *window* (monotonic ns) count. A span's self time is
    its duration minus the part of it its child spans cover; ``trace.unattributed_ms`` is the
    p50 over requests of the request span minus every layer's self time. A layer the workload
    never reaches reports 0 ms and 0 calls.
    """
    requests = {s[5] for s in spans if s[0] == REQUEST and window[0] <= s[2] <= window[1]}
    spans = [s for s in spans if s[5] in requests]
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _layer, _cls, start, end, parent, _request, span, _rows in spans:
        if parent is not None and span is not None:
            children[parent].append((start, end))
    self_ms: Dict[str, List[float]] = defaultdict(list)
    rows: Dict[str, List[int]] = defaultdict(list)
    lookups: Dict[str, int] = defaultdict(int)
    layered_ns: Dict[int, int] = defaultdict(int)
    request_ns: Dict[int, int] = {}
    for layer, cls, start, end, _parent, request, span, count in spans:
        if layer == PLAN_LOOKUP:
            lookups[cls] += 1
            continue
        if layer == REQUEST:
            request_ns[request] = end - start
            continue
        own = end - start - _covered((start, end), children.get(span, []))
        layered_ns[request] += own
        if layer in CLASSED:
            layer = f"{layer}.{cls}"
            if count is not None:
                rows[cls].append(count)
        self_ms[layer].append(own / 1e6)
    metrics: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        for suffix in [f".{cls}" for cls in classes] if layer in CLASSED else [""]:
            samples = self_ms.get(layer + suffix, [])
            metrics[f"{layer}_ms{suffix}"] = statistics.median(samples) if samples else 0.0
            metrics[f"{layer}.calls{suffix}"] = len(samples) / operations
    for cls in classes:
        metrics[f"eval.rows_out.{cls}"] = statistics.mean(rows[cls]) if rows[cls] else 0.0
    total = lookups["hit"] + lookups["miss"]
    metrics["eval.planner.reuse_ratio"] = lookups["hit"] / total if total else 0.0
    unattributed = [
        (duration - layered_ns[request]) / 1e6 for request, duration in request_ns.items()
    ]
    metrics["trace.unattributed_ms"] = statistics.median(unattributed) if unattributed else 0.0
    return metrics


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
