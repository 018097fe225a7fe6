"""Morsel-driven parallel execution: scheduler, worker pools, merge order.

The columnar engine's hot loops are embarrassingly row-partitionable:
atom hash-join probes and compiled WHERE kernels operate row-by-row over
immutable graphs, GROUP BY aggregation operates group-by-group, and the
batched path engine's per-source searches are independent. This module
splits that work into **morsels** (row ranges, group chunks, source
chunks), runs them on a worker pool sized by
:attr:`ExecutionConfig.parallelism <repro.config.ExecutionConfig>`, and
merges results **in morsel order**, which provably reproduces the serial
engine's emission order (every dispatched operator emits per-input-unit
in input order; the only cross-morsel interaction is row deduplication,
which is first-occurrence-wins on both sides). The serial engine stays
the oracle: ``tests/property/test_prop_parallel_oracle.py`` asserts
exact table/graph parity for every lattice point.

Two backends share one dispatch surface:

* ``fork`` (default where available) — a ``ProcessPoolExecutor`` over
  forked workers. Graphs are **not** pickled per task: the parent
  publishes them in the fork-inherited :data:`export registry
  <_EXPORTS>` before the pool forks, so workers read the shared
  copy-on-write adjacency indexes for free (they are immutable between
  epochs). Snapshot-backed graphs
  (:class:`~repro.storage.flatstore.FlatPathPropertyGraph`) export as
  self-describing ``(path, graph)`` references instead, which a worker
  resolves by attaching to the snapshot's shared read-only mapping
  (:func:`repro.storage.attach`). A task naming a token the worker's
  fork snapshot does not know returns a stale marker; the parent then
  recycles the pool (a fresh fork sees the current registry) and
  retries once. Only small per-query state — the morsel's binding
  vectors, the planned atom steps, parameters — crosses the pipe.
* ``thread`` — a ``ThreadPoolExecutor`` running the identical worker
  functions in-process. Pure-Python work gains no wall-clock speedup
  under the GIL, but the backend keeps every worker code path
  exercisable (and deterministic to debug) on any platform; it is also
  the automatic fallback when ``fork`` is unavailable.

Every dispatch site degrades to serial execution — never to an error —
when the work is too small (the ``MIN_PARALLEL_*`` thresholds), the
expressions are not worker-safe (EXISTS subqueries and pattern
predicates need the full evaluation context), or the pool backend fails
(sandboxes without working ``fork``); query-semantics errors raised
inside a worker (:class:`~repro.errors.GCoreError`) propagate to the
caller exactly as the serial engine would raise them.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import pickle
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..algebra.binding import BindingTable
from ..config import ExecutionConfig
from ..errors import GCoreError
from ..lang import ast
from ..paths.automaton import regex_view_names
from ..paths.product import partition_sources

__all__ = [
    "POOL_FALLBACK_EXCEPTIONS",
    "dispatch_always",
    "fallback_counts",
    "morsel_ranges",
    "parallel_block_tail",
    "parallel_filter",
    "parallel_grouped_cells",
    "parallel_reachable_multi",
    "parallel_shortest_multi",
    "record_fallback",
    "reset_fallback_counts",
    "shutdown_pools",
]

#: The exceptions that legitimately mean "this dispatch cannot run on the
#: pool — degrade to the serial path". Everything else (AssertionError
#: from a worker invariant, KeyboardInterrupt, genuine bugs in worker
#: code) propagates to the caller instead of being silently swallowed;
#: the differential fuzzer depends on that to observe worker failures.
POOL_FALLBACK_EXCEPTIONS = (
    OSError,  # fork/pipe/file-descriptor failures (sandboxed fork)
    RuntimeError,  # BrokenExecutor & pool use during interpreter shutdown
    pickle.PicklingError,  # unpicklable task payload
    TypeError,  # pickle's other "cannot serialize" complaint
    EOFError,  # a worker died mid-result and tore the pipe
)

# ---------------------------------------------------------------------------
# Fallback observability (surfaced by the HTTP server's /stats endpoint)
# ---------------------------------------------------------------------------

_FALLBACK_LOCK = threading.Lock()
_FALLBACK_COUNTS: Dict[str, int] = {}


def record_fallback(site: str) -> None:
    """Count one silent degradation to the serial path at *site*."""
    with _FALLBACK_LOCK:
        _FALLBACK_COUNTS[site] = _FALLBACK_COUNTS.get(site, 0) + 1


def fallback_counts() -> Dict[str, int]:
    """A snapshot of the per-site fallback counters (``site -> count``)."""
    with _FALLBACK_LOCK:
        return dict(sorted(_FALLBACK_COUNTS.items()))


def reset_fallback_counts() -> None:
    """Zero the fallback counters (tests)."""
    with _FALLBACK_LOCK:
        _FALLBACK_COUNTS.clear()

# ---------------------------------------------------------------------------
# Tunables (module-level so tests and benchmarks can pin them)
# ---------------------------------------------------------------------------

#: Minimum binding-table rows before the remaining atoms of a block are
#: dispatched to the pool (below this, fan-out overhead dominates).
MIN_PARALLEL_ROWS = 192
#: Minimum GROUP BY groups before partial aggregation is dispatched.
MIN_PARALLEL_GROUPS = 96
#: Minimum distinct path sources before per-source-group dispatch.
MIN_PARALLEL_SOURCES = 24
#: Minimum rows before a residual WHERE conjunction is dispatched.
MIN_PARALLEL_FILTER_ROWS = 4096
#: Morsels per worker: >1 smooths skew, at the price of more task pickles.
MORSELS_PER_WORKER = 2

_FORK_AVAILABLE = False
try:  # pragma: no cover - platform probe
    import multiprocessing

    _FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()
except (ImportError, OSError):  # pragma: no cover - multiprocessing missing
    multiprocessing = None  # type: ignore[assignment]

#: ``"fork"`` (real multi-core scaling, Linux/macOS) or ``"thread"``
#: (GIL-bound, but portable and in-process). Tests pin a backend with
#: :func:`dispatch_always` or a monkeypatch; ``"fork"`` silently
#: degrades to ``"thread"`` when the platform cannot fork.
DEFAULT_BACKEND = "fork" if _FORK_AVAILABLE else "thread"


@contextlib.contextmanager
def dispatch_always() -> Iterator[None]:
    """Make every dispatch site fire, whatever the size of its work.

    Sets the ``MIN_PARALLEL_*`` thresholds to 1 and the backend to
    ``"thread"`` (in-process, fast to start) until the block exits, so
    the small graphs of the parity tests and the differential fuzzer
    really run on the pool. Rebinds module globals: not for concurrent
    use.
    """
    thresholds = ("MIN_PARALLEL_ROWS", "MIN_PARALLEL_GROUPS",
                  "MIN_PARALLEL_SOURCES", "MIN_PARALLEL_FILTER_ROWS")
    saved = {name: globals()[name] for name in (*thresholds, "DEFAULT_BACKEND")}
    globals().update(dict.fromkeys(thresholds, 1), DEFAULT_BACKEND="thread")
    try:
        yield
    finally:
        globals().update(saved)


def morsel_ranges(nrows: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``range(nrows)`` into at most ``workers * MORSELS_PER_WORKER``
    contiguous, near-equal ``(start, stop)`` ranges, in row order."""
    if nrows <= 0:
        return []
    count = min(max(1, workers) * MORSELS_PER_WORKER, nrows)
    base, extra = divmod(nrows, count)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(count):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def chunked(items: Sequence[Any], workers: int) -> List[Sequence[Any]]:
    """Partition *items* into contiguous chunks, preserving order."""
    ranges = morsel_ranges(len(items), workers)
    return [items[start:stop] for start, stop in ranges]


# ---------------------------------------------------------------------------
# Fork-inherited export registry (big immutable state, e.g. graphs)
# ---------------------------------------------------------------------------

_EXPORT_LIMIT = 32
_EXPORTS: "OrderedDict[int, Any]" = OrderedDict()
_EXPORT_TOKENS: Dict[int, int] = {}  # id(obj) -> token
_export_counter = itertools.count(1)
_MISSING = object()
#: Wire marker a worker returns when a token is not in its fork snapshot.
_STALE = "__gcore_stale_export__"
#: First element of a snapshot-attach token: ``(marker, path, stored
#: graph name, catalog name)``. Unlike integer registry tokens these are
#: self-describing — a worker resolves one by attaching to the snapshot
#: file's shared mapping, whatever its fork snapshot holds.
_SNAPSHOT_TOKEN = "__gcore_snapshot_graph__"

#: A worker-resolvable graph reference: an integer registry token, a
#: snapshot-attach tuple, or None.
Token = Any


def export(obj: Any) -> Token:
    """Publish *obj* for worker sharing; returns its token.

    Snapshot-backed graphs (:class:`FlatPathPropertyGraph`) export as
    ``(path, graph)`` attach references — no registry entry, no fork
    dependency, stable across pool recycles. Everything else lands in
    the fork-inherited registry, idempotent per object identity. The
    registry is a small LRU: graphs are long-lived (epoch-immutable),
    so a handful of entries covers a working set; evicting or newly
    publishing makes existing forked pools stale, which the dispatcher
    repairs by re-forking.
    """
    from ..storage.flatstore import FlatPathPropertyGraph  # cycle-free

    if isinstance(obj, FlatPathPropertyGraph):
        store = obj.store
        return (_SNAPSHOT_TOKEN, store.reader.path, store.name, obj.name)
    token = _EXPORT_TOKENS.get(id(obj))
    if token is not None and _EXPORTS.get(token) is obj:
        _EXPORTS.move_to_end(token)
        return token
    token = next(_export_counter)
    _EXPORTS[token] = obj
    _EXPORT_TOKENS[id(obj)] = token
    while len(_EXPORTS) > _EXPORT_LIMIT:
        _evicted, evicted_obj = _EXPORTS.popitem(last=False)
        _EXPORT_TOKENS.pop(id(evicted_obj), None)
    return token


def _resolve(token: Token) -> Any:
    if token is None:
        return None
    if isinstance(token, tuple) and token and token[0] == _SNAPSHOT_TOKEN:
        from ..storage.snapshot import _reopen_graph

        try:
            return _reopen_graph(token[1], token[2], token[3])
        except (OSError, ValueError, GCoreError):
            # Unreadable/removed/corrupt snapshot file: report stale; the
            # dispatcher recycles and ultimately falls back to serial.
            record_fallback("snapshot_reopen")
            return _MISSING
    return _EXPORTS.get(token, _MISSING)


# ---------------------------------------------------------------------------
# Worker-pool lifecycle
# ---------------------------------------------------------------------------

_POOLS: Dict[Tuple[str, int], Any] = {}
_POOL_LOCK = threading.Lock()


def _make_pool(backend: str, workers: int):
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    if backend == "fork" and _FORK_AVAILABLE:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
        )
    return ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="gcore-morsel"
    )


def _get_pool(backend: str, workers: int):
    key = (backend, workers)
    with _POOL_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = _make_pool(backend, workers)
            _POOLS[key] = pool
        return pool


def _recycle_pool(backend: str, workers: int) -> None:
    """Drop (and shut down) the pool so the next dispatch re-forks."""
    key = (backend, workers)
    with _POOL_LOCK:
        pool = _POOLS.pop(key, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every cached worker pool (tests; process exit)."""
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


class _Fallback(Exception):
    """Internal: this dispatch cannot run in parallel — go serial."""

    def __init__(self, reason: str = "pool_error") -> None:
        super().__init__(reason)
        self.reason = reason


def _run_tasks(fn, payloads: List[Any], config: ExecutionConfig) -> List[Any]:
    """Map *fn* over *payloads* on the configured pool, in order.

    Raises :class:`_Fallback` when the pool is unusable (the caller runs
    the serial path); re-raises :class:`~repro.errors.GCoreError` from
    workers (genuine query errors — serial would raise them too). A
    stale export token recycles the pool (re-fork) and retries once.
    Worker exceptions outside :data:`POOL_FALLBACK_EXCEPTIONS` — e.g. an
    ``AssertionError`` tripped inside a kernel — propagate unchanged.
    """
    backend = DEFAULT_BACKEND
    workers = max(1, config.parallelism)
    for attempt in (0, 1):
        pool = _get_pool(backend, workers)
        try:
            results = list(pool.map(fn, payloads))
        except GCoreError:
            # Genuine query-semantics error: serial would raise it too.
            raise
        except POOL_FALLBACK_EXCEPTIONS:
            # Broken pool, unpicklable payload, sandboxed fork — none of
            # these may surface to the query; recycle and (once) retry,
            # then hand control back to the serial path.
            _recycle_pool(backend, workers)
            if attempt:
                raise _Fallback("pool_error") from None
            continue
        if any(result == _STALE for result in results):
            _recycle_pool(backend, workers)
            if attempt:
                raise _Fallback("stale_export")
            continue
        return results
    raise _Fallback  # pragma: no cover - loop always returns or raises


# ---------------------------------------------------------------------------
# Binding-table wire form (explicit vectors; never instance caches)
# ---------------------------------------------------------------------------

def table_payload(table: BindingTable) -> Tuple[Any, ...]:
    """The picklable wire form of a binding table (columns + vectors)."""
    return (
        tuple(table.columns),
        tuple(table.variables),
        {var: table.column_values(var) for var in table.variables},
        len(table),
    )


def table_from_payload(payload: Tuple[Any, ...]) -> BindingTable:
    columns, variables, data, nrows = payload
    return BindingTable.from_columns(
        columns, list(variables), data, nrows, dedup=False
    )


def merge_tables(payloads: List[Tuple[Any, ...]]) -> BindingTable:
    """Concatenate morsel outputs in morsel order, deduplicating rows.

    Morsel-local results are already deduplicated (the columnar
    operators dedup as the serial engine does); the only duplicates left
    are cross-morsel ones, and first-occurrence-wins here matches the
    serial engine's dedup of the concatenated stream exactly.
    """
    # A morsel whose intermediate table empties short-circuits the rest
    # of its atom sequence (run_atom_sequence breaks), so its chunk can
    # carry fewer columns than its siblings — zero rows either way. Take
    # the schema from the fullest payload; every non-empty chunk ran the
    # complete sequence and therefore has exactly that variable set.
    columns, variables, _data, _nrows = max(
        payloads, key=lambda payload: len(payload[1])
    )
    data: Dict[str, List[Any]] = {var: [] for var in variables}
    total = 0
    for payload in payloads:
        _columns, _vars, chunk, nrows = payload
        if nrows == 0:
            continue
        total += nrows
        for var in variables:
            data[var].extend(chunk[var])
    return BindingTable.from_columns(
        columns, list(variables), data, total, dedup=True
    )


# ---------------------------------------------------------------------------
# Worker-safety analysis
# ---------------------------------------------------------------------------

def _node_safe(node: Any) -> bool:
    """Conservatively: can *node* (an AST subtree) evaluate in a worker?

    EXISTS subqueries and pattern predicates re-enter full block
    evaluation (plan caches, ON resolution, view registries) — they stay
    on the serial path. Everything else an atom or WHERE carries
    (literals, params, property/label reads, arithmetic, CASE, builtins)
    only needs the shipped graphs and parameters.
    """
    if isinstance(node, (ast.ExistsQuery, ast.ExistsPattern)):
        return False
    if hasattr(node, "__dataclass_fields__"):
        return all(
            _node_safe(getattr(node, field))
            for field in node.__dataclass_fields__
        )
    if isinstance(node, (tuple, list, frozenset)):
        return all(_node_safe(item) for item in node)
    return True


def _atom_safe(atom: Any) -> bool:
    pattern = atom.pattern
    if getattr(atom, "kind", None) == "path":
        if pattern.stored:
            return _node_safe(pattern)
        # Path views need ctx.segments_for (a parent-side materializer).
        if regex_view_names(pattern.regex):
            return False
    return _node_safe(pattern)


def exprs_safe(*nodes: Any) -> bool:
    """True when every given AST node (or None) is worker-evaluable."""
    return all(node is None or _node_safe(node) for node in nodes)


# ---------------------------------------------------------------------------
# Worker-side evaluation context
# ---------------------------------------------------------------------------

class _WorkerCatalog:
    """The minimal read surface workers need: the default graph."""

    __slots__ = ("_default",)

    def __init__(self, default_graph: Any) -> None:
        self._default = default_graph

    def default_graph(self) -> Any:
        return self._default


def _worker_context(
    config: ExecutionConfig,
    params: Dict[str, Any],
    graphs: List[Any],
    current_graph: Any,
    default_graph: Any,
):
    from .context import EvalContext  # local import: cycle via match

    ctx = EvalContext(
        _WorkerCatalog(default_graph),
        config=config.with_(parallelism=1),  # workers never re-fan-out
    )
    ctx.params = dict(params)
    ctx.active_graphs = list(graphs)
    ctx.current_graph = current_graph
    return ctx


def _resolve_graph_tokens(tokens: Sequence[Token]) -> Optional[list]:
    graphs = []
    for token in tokens:
        graph = _resolve(token)
        if graph is _MISSING:
            return None
        graphs.append(graph)
    return graphs


def _context_tokens(ctx, graph) -> Tuple[Token, Optional[Token], List[Token]]:
    """Export the graphs a worker context needs to answer lookups.

    Ships the probed graph, every active graph of the evaluation (a
    MATCH may bind objects from several graphs), and the catalog default
    (the tail of :meth:`EvalContext._lookup_chain`), so worker-side
    label/property resolution walks the same chain as the parent.
    """
    graph_token = export(graph)
    try:
        default = ctx.catalog.default_graph()
    except GCoreError:
        # No default graph registered (or a snapshot without one):
        # workers simply run with no implicit ON target.
        default = None
    default_token = export(default) if default is not None else None
    active_tokens = [export(g) for g in ctx.active_graphs]
    return graph_token, default_token, active_tokens


# ---------------------------------------------------------------------------
# 1) Block tail: remaining atoms + residual WHERE over row morsels
# ---------------------------------------------------------------------------

def _block_tail_worker(payload):
    (
        graph_token,
        default_token,
        active_tokens,
        table_wire,
        plan,
        params,
        config,
    ) = payload
    graphs = _resolve_graph_tokens([graph_token, default_token, *active_tokens])
    if graphs is None:
        return _STALE
    graph, default_graph, *active = graphs
    from .expressions import ExpressionEvaluator  # local import: cycle
    from .kernels import ExpressionCompiler
    from .match import finish_block_where, run_atom_sequence

    ctx = _worker_context(config, params, active, graph, default_graph)
    ev = ExpressionEvaluator(ctx)
    compiler = (
        ExpressionCompiler(ctx) if ctx.config.expressions == "vectorized"
        else None
    )
    table = table_from_payload(table_wire)
    table = run_atom_sequence(plan.steps, table, graph, ctx, ev, compiler)
    table = finish_block_where(table, plan, ctx, compiler, ev)
    return table_payload(table)


def parallel_block_tail(
    plan,
    start: int,
    table: BindingTable,
    graph: Any,
    ctx,
) -> Optional[BindingTable]:
    """Dispatch ``plan.steps[start:]`` plus the residual WHERE over morsels.

    Returns the merged block-final table, or None when this point is not
    worth (or not safe to) parallelizing — the caller continues serially.
    Every morsel gets the same immutable tail of the
    :class:`~repro.eval.planner.LocationPlan`, with its per-atom pushdown.
    Exactness: each morsel runs the identical operator sequence over a
    contiguous row range; atoms emit per-input-row in input order, so
    concatenating morsel outputs in morsel order *is* the serial
    emission order, and the final first-occurrence dedup matches the
    serial engine's (see :func:`merge_tables`).
    """
    config = ctx.config
    if config.serial or config.executor != "columnar":
        return None
    if len(table) < MIN_PARALLEL_ROWS:
        return None
    tail = plan._replace(steps=plan.steps[start:])
    if not tail.steps:
        return None
    if not all(_atom_safe(step.atom) for step in tail.steps):
        return None
    # Pushed conjuncts are total, hence worker-safe; only the residual
    # can hold EXISTS.
    if not exprs_safe(*tail.residual):
        return None
    graph_token, default_token, active_tokens = _context_tokens(ctx, graph)
    shipped_config = config.with_(parallelism=1)
    payloads = [
        (
            graph_token,
            default_token,
            active_tokens,
            table_payload(table.select_rows(range(start_row, stop_row))),
            tail,
            ctx.params,
            shipped_config,
        )
        for start_row, stop_row in morsel_ranges(
            len(table), config.parallelism
        )
    ]
    try:
        results = _run_tasks(_block_tail_worker, payloads, config)
    except _Fallback as fall:  # pool unusable: serial path re-runs the tail
        record_fallback(f"block_tail.{fall.reason}")
        return None
    return merge_tables(results)


# ---------------------------------------------------------------------------
# 2) Residual WHERE conjunction over row morsels
# ---------------------------------------------------------------------------

def _filter_worker(payload):
    (
        graph_tokens,
        table_wire,
        conjuncts,
        params,
        config,
    ) = payload
    graphs = _resolve_graph_tokens(graph_tokens)
    if graphs is None:
        return _STALE
    current, default_graph, *active = graphs
    from .kernels import compiled_filter_rows  # local import: cycle

    ctx = _worker_context(config, params, active, current, default_graph)
    table = table_from_payload(table_wire)
    return compiled_filter_rows(table, ctx, conjuncts)


def parallel_filter(
    conjuncts: List[ast.Expr], table: BindingTable, ctx
) -> Optional[List[int]]:
    """Evaluate a WHERE conjunction over row morsels; surviving indices.

    Returns the globally-indexed surviving rows (ascending, as the
    serial kernel filter produces), or None to run serially. Conjunct
    short-circuiting is per-row, so partitioning rows cannot change
    which conjuncts any row reaches — error semantics included.
    """
    config = ctx.config
    if config.serial or config.expressions != "vectorized":
        return None
    if len(table) < MIN_PARALLEL_FILTER_ROWS:
        return None
    if not exprs_safe(*conjuncts):
        return None
    current = ctx.current_graph
    graph_token = export(current) if current is not None else None
    try:
        default = ctx.catalog.default_graph()
    except GCoreError:
        # No default graph registered (or a snapshot without one):
        # workers simply run with no implicit ON target.
        default = None
    default_token = export(default) if default is not None else None
    active_tokens = [export(g) for g in ctx.active_graphs]
    shipped_config = config.with_(parallelism=1)
    ranges = morsel_ranges(len(table), config.parallelism)
    payloads = [
        (
            [graph_token, default_token, *active_tokens],
            table_payload(table.select_rows(range(start, stop))),
            conjuncts,
            ctx.params,
            shipped_config,
        )
        for start, stop in ranges
    ]
    try:
        results = _run_tasks(_filter_worker, payloads, config)
    except _Fallback as fall:  # pool unusable: serial path re-filters
        record_fallback(f"filter.{fall.reason}")
        return None
    survivors: List[int] = []
    for (start, _stop), local in zip(ranges, results):
        survivors.extend(start + offset for offset in local)
    return survivors


# ---------------------------------------------------------------------------
# 3) GROUP BY partial aggregation over group chunks
# ---------------------------------------------------------------------------

def _grouped_worker(payload):
    (
        graph_tokens,
        table_wire,
        local_specs,
        item_exprs,
        maximal_domain,
        params,
        config,
    ) = payload
    graphs = _resolve_graph_tokens(graph_tokens)
    if graphs is None:
        return _STALE
    current, default_graph, *active = graphs
    from .kernels import ExpressionCompiler, GroupSpec, KernelContext

    ctx = _worker_context(config, params, active, current, default_graph)
    table = table_from_payload(table_wire)
    kctx = KernelContext(table, ctx, maximal_domain=maximal_domain)
    compiler = ExpressionCompiler(ctx)
    specs = [GroupSpec(rep, list(indices)) for rep, indices in local_specs]
    return [
        compiler.compile_grouped(expr)(kctx, specs) for expr in item_exprs
    ]


def parallel_grouped_cells(
    omega: BindingTable,
    specs: List[Any],
    item_exprs: List[ast.Expr],
    ctx,
    maximal_domain,
) -> Optional[List[List[Any]]]:
    """Aggregate GROUP BY groups on the pool; per-item cell columns.

    Groups are partitioned **whole** (a chunk owns every row of its
    groups), so each group's aggregate is computed exactly as the serial
    kernel computes it; chunk outputs concatenate back in the parent's
    group order, which is the serial merge order. Returns
    ``cell_columns[item][group]`` (un-normalized), or None to go serial.
    """
    from .expressions import expr_variables  # local import: cycle

    config = ctx.config
    if config.serial or config.expressions != "vectorized":
        return None
    if len(specs) < MIN_PARALLEL_GROUPS:
        return None
    if not exprs_safe(*item_exprs):
        return None
    needed: set = set(maximal_domain or ())
    for expr in item_exprs:
        needed |= expr_variables(expr)
    variables = [var for var in omega.variables if var in needed]
    maxdom = tuple(maximal_domain or ())
    current = ctx.current_graph
    graph_token = export(current) if current is not None else None
    try:
        default = ctx.catalog.default_graph()
    except GCoreError:
        # No default graph registered (or a snapshot without one):
        # workers simply run with no implicit ON target.
        default = None
    default_token = export(default) if default is not None else None
    active_tokens = [export(g) for g in ctx.active_graphs]
    shipped_config = config.with_(parallelism=1)

    payloads = []
    for chunk in chunked(specs, config.parallelism):
        # Each chunk ships only its own rows: remap the chunk's specs
        # onto a compact sub-table (group order and member order kept).
        row_indices: List[int] = []
        local_specs: List[Tuple[int, List[int]]] = []
        position: Dict[int, int] = {}
        for spec in chunk:
            local: List[int] = []
            for index in spec.indices:
                local_index = position.get(index)
                if local_index is None:
                    local_index = len(row_indices)
                    position[index] = local_index
                    row_indices.append(index)
                local.append(local_index)
            local_specs.append((position[spec.representative], local))
        sub = omega.select_rows(row_indices)
        wire = (
            tuple(sub.columns),
            tuple(variables),
            {var: sub.column_values(var) for var in variables},
            len(sub),
        )
        payloads.append(
            (
                [graph_token, default_token, *active_tokens],
                wire,
                local_specs,
                tuple(item_exprs),
                maxdom,
                ctx.params,
                shipped_config,
            )
        )
    try:
        results = _run_tasks(_grouped_worker, payloads, config)
    except _Fallback as fall:  # pool unusable: serial path re-aggregates
        record_fallback(f"group_by.{fall.reason}")
        return None
    cell_columns: List[List[Any]] = [[] for _ in item_exprs]
    for chunk_cells in results:
        for item_index, column in enumerate(chunk_cells):
            cell_columns[item_index].extend(column)
    return cell_columns


# ---------------------------------------------------------------------------
# 4) Batched path search over source chunks
# ---------------------------------------------------------------------------

def _paths_worker(payload):
    graph_token, regex, mode, sources, targets_map, config = payload
    graph = _resolve(graph_token)
    if graph is _MISSING:
        return _STALE
    from .match import _nfa_for  # local import: cycle
    from ..paths.product import PathFinder

    finder = PathFinder(graph, _nfa_for(regex), {}, naive=False)
    if mode == "reach":
        return finder.reachable_multi(list(sources))
    return finder.shortest_multi(list(sources), dict(targets_map))


def _parallel_paths(
    ctx, graph, pattern, mode: str, sources: List[Any], targets_map
) -> Optional[Dict[Any, Any]]:
    config = ctx.config
    if config.serial or config.paths != "batched":
        return None
    if len(sources) < MIN_PARALLEL_SOURCES:
        return None
    if pattern.stored or regex_view_names(pattern.regex):
        return None
    graph_token = export(graph)
    payloads = []
    chunks = partition_sources(
        sources, config.parallelism * MORSELS_PER_WORKER
    )
    for chunk in chunks:
        chunk_targets = (
            {source: targets_map[source] for source in chunk}
            if targets_map is not None
            else None
        )
        payloads.append(
            (graph_token, pattern.regex, mode, list(chunk), chunk_targets,
             config.with_(parallelism=1))
        )
    try:
        results = _run_tasks(_paths_worker, payloads, config)
    except _Fallback as fall:  # pool unusable: serial path re-searches
        record_fallback(f"paths.{fall.reason}")
        return None
    merged: Dict[Any, Any] = {}
    for chunk_result in results:
        merged.update(chunk_result)
    return merged


def parallel_shortest_multi(
    ctx, graph, pattern, sources: List[Any], targets_map
) -> Optional[Dict[Any, Any]]:
    """``PathFinder.shortest_multi`` over source chunks (exact: each
    source's search is independent and deterministic, so any partition
    returns the same per-source walks)."""
    return _parallel_paths(ctx, graph, pattern, "shortest", sources,
                           targets_map)


def parallel_reachable_multi(
    ctx, graph, pattern, sources: List[Any]
) -> Optional[Dict[Any, Any]]:
    """``PathFinder.reachable_multi`` over source chunks (exact)."""
    return _parallel_paths(ctx, graph, pattern, "reach", sources, None)
