"""Incremental maintenance of materialized GRAPH VIEWs.

G-CORE's closure property makes views first-class: ``GRAPH VIEW v AS
(CONSTRUCT ... MATCH ...)`` materializes a graph that other queries
reference by name. This module keeps those materializations up to date
under the mutation layer (:mod:`repro.model.delta`) without recomputing
them from scratch on every update.

Strategy
--------

:func:`analyze_view` statically classifies a view query:

* **incremental** — a single conjunctive MATCH block (named node
  patterns, node/edge atoms only, no OPTIONAL, no EXISTS/pattern
  predicates in WHERE) over one base graph, whose CONSTRUCT items are
  pure identity projections of bound variables
  (:func:`~repro.eval.construct.identity_item_spec`). For these the view
  graph is a *support-counted* union of matched objects, and a delta can
  be propagated exactly:

  1. every binding row affected by a delta binds at least one *touched
     node* (delta'd nodes plus endpoints of delta'd edges), so
     :func:`~repro.eval.match.match_rows_touching` computes the removed
     rows (old graph) and added rows (new graph) by seeding the columnar
     hash-join pipeline with the touched nodes — cost proportional to the
     delta, not the graph;
  2. the rows' identity outputs adjust per-object support counts
     (:class:`ViewState`); objects dropping to zero leave the view,
     objects gaining support enter it;
  3. the materialized graph is *patched* through
     :meth:`PathPropertyGraph._assemble_normalized`, refreshing labels
     and properties of touched survivors from the new base graph.

* **full** — everything else (path atoms, aggregates/SET, OPTIONAL, set
  operations, skolemizing constructs, multi-graph patterns, ...) falls
  back to from-scratch recomputation, which stays the reference oracle;
  the property suite proves incremental == full on eligible views.

Runtime guards double-check the static plan: if a dependency was replaced
wholesale (``register_graph``), the changelog lost continuity, or support
counts would go inconsistent, the refresh silently falls back to the full
recompute. ``EXPLAIN`` prints the chosen strategy via
:func:`describe_strategy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..algebra.binding import ABSENT, BindingTable
from ..errors import SemanticError, UnknownGraphError
from ..lang import ast
from ..model.graph import ObjectId, PathPropertyGraph
from .construct import identity_item_spec
from .context import EvalContext
from .match import evaluate_match, match_rows_touching

__all__ = [
    "ViewPlan",
    "ViewState",
    "analyze_view",
    "view_dependencies",
    "query_uses_default",
    "build_state",
    "describe_strategy",
    "materialize_view",
    "refresh_view",
]

#: One construct item's identity projection: (node variables, edge variables).
ItemSpec = Tuple[Tuple[str, ...], Tuple[str, ...]]


@dataclass(frozen=True)
class ViewPlan:
    """The static maintenance analysis of one view query."""

    strategy: str  # "incremental" | "full"
    reason: str
    deps: Tuple[str, ...]
    base: Optional[str] = None
    node_vars: Tuple[str, ...] = ()
    items: Tuple[ItemSpec, ...] = ()
    #: True when some pattern omits ON — the base was resolved through
    #: the default-graph pointer, so a later set_default_graph changes
    #: the view's meaning (incremental refresh must then fall back).
    uses_default: bool = False


class ViewState:
    """Per-object support counts of an incrementally-maintained view.

    ``support[obj]`` is the number of (construct item, binding row) pairs
    whose identity projection emits *obj*; an object belongs to the view
    iff its support is positive. Kept on the catalog's view metadata and
    adjusted in place by every incremental refresh.
    """

    __slots__ = ("support",)

    def __init__(self) -> None:
        self.support: Dict[ObjectId, int] = {}

    def __repr__(self) -> str:
        return f"<ViewState {len(self.support)} supported objects>"


# ---------------------------------------------------------------------------
# Dependency analysis
# ---------------------------------------------------------------------------

def _collect_refs(node: Any, refs: Set[str], flags: Dict[str, bool]) -> None:
    if isinstance(node, ast.PatternLocation):
        if node.on is None:
            flags["default"] = True
        elif isinstance(node.on, str):
            refs.add(node.on)
        else:
            _collect_refs(node.on, refs, flags)
        _collect_refs(node.chain, refs, flags)
        return
    if isinstance(node, (ast.GraphRefQuery, ast.GraphRefItem)):
        refs.add(node.name)
        return
    if isinstance(node, ast.BasicQuery) and node.from_table is not None:
        refs.add(node.from_table)
    if hasattr(node, "__dataclass_fields__"):
        for name in node.__dataclass_fields__:
            _collect_refs(getattr(node, name), refs, flags)
    elif isinstance(node, (tuple, list, frozenset)):
        for item in node:
            _collect_refs(item, refs, flags)


def view_dependencies(query: ast.Query, catalog) -> FrozenSet[str]:
    """The catalog names a view's materialization depends on.

    Conservative over-approximation: every graph/table name referenced
    anywhere in the query (pattern locations, set operations, construct
    unions, FROM imports, EXISTS subqueries), plus the default graph when
    any pattern omits ``ON``. Names that do not resolve in the catalog
    (query-local GRAPH bindings, typos that would fail evaluation) are
    dropped. Over-approximation only costs spurious refreshes, never
    stale reads.
    """
    refs: Set[str] = set()
    flags = {"default": False}
    _collect_refs(query, refs, flags)
    if flags["default"] and catalog.default_graph_name is not None:
        refs.add(catalog.default_graph_name)
    return frozenset(name for name in refs if catalog.has_graph(name))


def query_uses_default(query: ast.Query) -> bool:
    """True when any pattern of *query* resolves through the default graph.

    Such a view's meaning moves with ``set_default_graph``; the catalog
    records the default name at materialization time and reports the view
    stale when the pointer later changes.
    """
    refs: Set[str] = set()
    flags = {"default": False}
    _collect_refs(query, refs, flags)
    return flags["default"]


def _contains_subquery(expr: Any) -> bool:
    if isinstance(expr, (ast.ExistsQuery, ast.ExistsPattern)):
        return True
    if hasattr(expr, "__dataclass_fields__"):
        return any(
            _contains_subquery(getattr(expr, name))
            for name in expr.__dataclass_fields__
        )
    if isinstance(expr, (tuple, list, frozenset)):
        return any(_contains_subquery(item) for item in expr)
    return False


# ---------------------------------------------------------------------------
# Eligibility analysis
# ---------------------------------------------------------------------------

def analyze_view(query: ast.Query, catalog) -> ViewPlan:
    """Classify a view query as incrementally maintainable or not."""
    deps = tuple(sorted(view_dependencies(query, catalog)))
    plan = _incremental_plan(query, catalog, deps)
    if isinstance(plan, ViewPlan):
        return plan
    return ViewPlan("full", plan, deps)


def _incremental_plan(query, catalog, deps):
    """A :class:`ViewPlan` when eligible, else the ineligibility reason."""
    if query.heads:
        return "query-local GRAPH/PATH head clauses"
    body = query.body
    if not isinstance(body, ast.BasicQuery):
        return "set operation or graph reference body"
    if body.from_table is not None:
        return "FROM table import"
    if not isinstance(body.head, ast.ConstructClause):
        return "SELECT head (tables are not materialized views)"
    if body.match is None:
        return "no MATCH clause"
    if body.match.optionals:
        return "OPTIONAL blocks (left outer join is not monotone)"
    block = body.match.block
    base: Optional[str] = None
    uses_default = False
    for location in block.patterns:
        if location.on is None:
            name = catalog.default_graph_name
            uses_default = True
        elif isinstance(location.on, str):
            name = location.on
        else:
            return "ON (subquery) pattern location"
        if name is None:
            return "no default graph to resolve an ON-less pattern"
        if base is None:
            base = name
        elif base != name:
            return "patterns over multiple graphs"
    if base is None or not catalog.is_base_graph(base):
        return f"target {base!r} is not a mutable base graph"
    node_vars: List[str] = []
    edge_orientations: Dict[str, Tuple[str, str]] = {}
    for location in block.patterns:
        chain = location.chain
        chain_nodes: List[str] = []
        for element in chain.nodes():
            if element.var is None:
                return "anonymous node pattern (cannot be delta-seeded)"
            chain_nodes.append(element.var)
            node_vars.append(element.var)
        for index, connector in enumerate(chain.connectors()):
            if isinstance(connector, ast.PathPatternElem):
                return "path pattern atom (non-local reachability)"
            if connector.direction == ast.UNDIRECTED:
                return "undirected edge pattern"
            if connector.var:
                if connector.direction == ast.OUT:
                    effective = (chain_nodes[index], chain_nodes[index + 1])
                else:
                    effective = (chain_nodes[index + 1], chain_nodes[index])
                previous = edge_orientations.get(connector.var)
                if previous is not None and previous != effective:
                    return "edge variable reused between different endpoints"
                edge_orientations[connector.var] = effective
    if block.where is not None and _contains_subquery(block.where):
        return "EXISTS / pattern predicate in WHERE (non-local)"
    match_node_vars = frozenset(node_vars)
    items: List[ItemSpec] = []
    for item in body.head.items:
        if isinstance(item, ast.GraphRefItem):
            return "graph union item in CONSTRUCT"
        spec = identity_item_spec(item, match_node_vars, edge_orientations)
        if spec is None:
            return (
                "non-identity construct item (aggregates, SET/REMOVE, "
                "WHEN, labels, copies or unbound variables)"
            )
        items.append(spec)
    return ViewPlan(
        "incremental",
        "join-delta over touched bindings",
        deps,
        base=base,
        node_vars=tuple(dict.fromkeys(node_vars)),
        items=tuple(items),
        uses_default=uses_default,
    )


def describe_strategy(plan: ViewPlan) -> str:
    """The one-line strategy report EXPLAIN and the REPL print."""
    if plan.strategy == "incremental":
        return "incremental (join-delta over touched bindings)"
    return f"full recompute ({plan.reason})"


# ---------------------------------------------------------------------------
# Support counting
# ---------------------------------------------------------------------------

def _tally(
    plan: ViewPlan,
    table: BindingTable,
    sign: int,
    counts: Dict[ObjectId, int],
) -> None:
    """Accumulate per-object support changes of *table*'s identity rows."""
    nrows = len(table)
    if not nrows:
        return
    for item_nodes, item_edges in plan.items:
        vectors = [
            table.column_values(var) for var in (*item_nodes, *item_edges)
        ]
        if any(vector is None for vector in vectors):
            continue  # a variable the table never stored: no productions
        for index in range(nrows):
            objects = {vector[index] for vector in vectors}
            objects.discard(ABSENT)  # eligible blocks bind totally; guard
            for obj in objects:
                counts[obj] = counts.get(obj, 0) + sign


def build_state(plan: ViewPlan, omega: BindingTable) -> ViewState:
    """Support counts of an eligible view from its full binding table."""
    state = ViewState()
    _tally(plan, omega, +1, state.support)
    return state


# ---------------------------------------------------------------------------
# Refresh
# ---------------------------------------------------------------------------

def refresh_view(
    name: str, ctx: EvalContext
) -> Tuple[PathPropertyGraph, str]:
    """Bring view *name* up to date; returns (graph, strategy used).

    The strategy is ``"unchanged"`` (no dependency moved — the cached
    materialization is returned as-is), ``"incremental"`` (the
    materialization was patched from the dependency changelog) or
    ``"full"`` (from-scratch recomputation). ``ctx.config.view_refresh
    == "full"`` always recomputes: that is the reference oracle.
    """
    incremental = ctx.config.view_refresh == "incremental"
    catalog = ctx.catalog
    query = catalog.view_query(name)
    if query is None:
        raise UnknownGraphError(name)
    meta = catalog.view_meta(name)
    plan = meta.plan if meta is not None and meta.plan is not None else None
    if plan is None:
        plan = analyze_view(query, catalog)
    if incremental and meta is not None and not catalog.is_view_stale(name):
        return catalog.graph(name), "unchanged"
    if incremental and plan.strategy == "incremental" and meta is not None:
        patched = _incremental_refresh(name, query, plan, meta, ctx)
        if patched is not None:
            return patched, "incremental"
    return _full_refresh(name, query, plan, ctx), "full"


def materialize_view(
    name: str,
    query: ast.Query,
    ctx: EvalContext,
    plan: Optional[ViewPlan] = None,
    error: Optional[str] = None,
) -> PathPropertyGraph:
    """Evaluate *query*, register it as view *name*, and return the graph.

    The single registration path shared by GRAPH VIEW statements and
    full refreshes: incrementally-maintainable queries capture their
    MATCH binding table through ``ctx.omega_sink`` (exactly one
    top-level table) and store the support counts alongside the
    materialization.
    """
    from .query import evaluate_query  # local import: cycle

    if plan is None:
        plan = analyze_view(query, ctx.catalog)
    sink: Optional[List[BindingTable]] = (
        [] if plan.strategy == "incremental" else None
    )
    ctx.omega_sink = sink
    try:
        result = evaluate_query(query, ctx)
    finally:
        ctx.omega_sink = None
    if not isinstance(result, PathPropertyGraph):
        raise SemanticError(error or f"view {name!r} did not produce a graph")
    state = (
        build_state(plan, sink[0]) if sink is not None and len(sink) == 1
        else None
    )
    ctx.catalog.register_view(name, query, result, plan=plan, state=state)
    return result


def _full_refresh(name, query, plan, ctx) -> PathPropertyGraph:
    return materialize_view(name, query, ctx, plan=plan)


def _ctx_over(
    ctx: EvalContext, name: str, graph: PathPropertyGraph
) -> EvalContext:
    """A fresh context that resolves *name* (and ON-less patterns) to
    *graph* — used to evaluate against dependency snapshots."""
    scoped = EvalContext(ctx.catalog, ctx.ids)
    scoped.local_graphs[name] = graph
    scoped.current_graph = graph
    return scoped


def _incremental_refresh(
    name, query, plan: ViewPlan, meta, ctx: EvalContext
) -> Optional[PathPropertyGraph]:
    """Patch the materialization from the changelog; None = fall back."""
    catalog = ctx.catalog
    dep = plan.base
    if plan.uses_default and catalog.default_graph_name != dep:
        return None  # ON-less patterns now mean a different graph
    for other, epoch in meta.deps.items():
        if other != dep and catalog.epoch(other) != epoch:
            return None  # a non-base dependency moved: recompute
    records = [
        record
        for record in catalog.changelog(dep)
        if record.epoch > meta.deps.get(dep, 0)
    ]
    if not records or any(record.kind != "delta" for record in records):
        return None  # replaced wholesale (or nothing to see): recompute
    old_graph = meta.snapshots.get(dep)
    if old_graph is None or records[0].before is not old_graph:
        return None  # changelog does not start at our snapshot
    for previous, following in zip(records, records[1:]):
        if following.before is not previous.after:
            return None  # discontinuous history
    new_graph = catalog.base_graph(dep)
    if records[-1].after is not new_graph:
        return None

    state = meta.state
    if state is None:
        # The view predates support tracking (or was registered through a
        # path that could not capture its binding table): build the
        # counts once from the snapshot, then patch as usual.
        omega_old = evaluate_match(
            query.body.match, _ctx_over(ctx, dep, old_graph)
        )
        state = build_state(plan, omega_old)

    touched: Set[ObjectId] = set()
    touched_nodes: Set[ObjectId] = set()
    for record in records:
        touched |= record.effects.touched
        touched_nodes |= record.effects.touched_nodes

    block = query.body.match.block
    removed_rows = match_rows_touching(
        block, _ctx_over(ctx, dep, old_graph), plan.node_vars, touched_nodes
    )
    added_rows = match_rows_touching(
        block, _ctx_over(ctx, dep, new_graph), plan.node_vars, touched_nodes
    )

    changes: Dict[ObjectId, int] = {}
    _tally(plan, removed_rows, -1, changes)
    _tally(plan, added_rows, +1, changes)
    support = state.support
    dropped: Set[ObjectId] = set()
    entered: Set[ObjectId] = set()
    for obj, change in changes.items():
        before = support.get(obj, 0)
        after = before + change
        if after < 0:
            return None  # inconsistent counts: rebuild via full recompute
        if before > 0 and after == 0:
            dropped.add(obj)
        elif before == 0 and after > 0:
            entered.add(obj)
    for obj, change in changes.items():
        updated = support.get(obj, 0) + change
        if updated > 0:
            support[obj] = updated
        else:
            support.pop(obj, None)

    old_view = catalog.graph(name)
    nodes = set(old_view.nodes)
    edges = dict(old_view.rho)
    paths = dict(old_view.delta)
    labels = old_view.label_map()
    props = old_view.property_map()

    def refresh_annotations(obj: ObjectId) -> None:
        current_labels = new_graph.labels(obj)
        if current_labels:
            labels[obj] = current_labels
        else:
            labels.pop(obj, None)
        current_props = new_graph.properties(obj)
        if current_props:
            props[obj] = current_props
        else:
            props.pop(obj, None)

    for obj in dropped:
        nodes.discard(obj)
        edges.pop(obj, None)
        labels.pop(obj, None)
        props.pop(obj, None)
    for obj in entered:
        if obj in new_graph.edges:
            edges[obj] = new_graph.endpoints(obj)
        else:
            nodes.add(obj)
        refresh_annotations(obj)
    for obj in touched:
        if obj in entered or obj in dropped:
            continue
        if obj in nodes or obj in edges:
            refresh_annotations(obj)

    result = PathPropertyGraph._assemble_normalized(
        frozenset(nodes), edges, paths, labels, props, name=name
    )
    catalog.register_view(name, query, result, plan=plan, state=state)
    return result
