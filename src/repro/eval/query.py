"""Top-level query evaluation: head clauses, set operations, basic queries.

This module stitches the pieces together, following the grammar of
Section 4: a query is a sequence of PATH / GRAPH head clauses followed by
a *full graph query* — a tree of UNION / INTERSECT / MINUS over basic
queries (CONSTRUCT/SELECT over MATCH/FROM) and graph references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Union

from ..algebra.binding import Binding, BindingTable
from ..analysis import check_match
from ..errors import SemanticError
from ..lang import ast
from ..model.graph import PathPropertyGraph
from ..model.setops import graph_difference, graph_intersect, graph_union
from ..table import Table
from .construct import evaluate_construct
from .context import EvalContext
from .match import evaluate_match
from .select import evaluate_select

__all__ = ["QueryResult", "ViewResult", "evaluate_statement", "evaluate_query"]


@dataclass(frozen=True)
class ViewResult:
    """The result of executing a GRAPH VIEW statement."""

    name: str
    graph: PathPropertyGraph


QueryResult = Union[PathPropertyGraph, Table, ViewResult]


def evaluate_statement(statement: ast.Statement, ctx: EvalContext) -> QueryResult:
    """Evaluate a statement: a query, or a GRAPH VIEW registration.

    View registration runs the maintenance analysis
    (:func:`repro.eval.maintenance.analyze_view`): incrementally
    maintainable views capture their MATCH binding table through
    ``ctx.omega_sink`` and store support counts alongside the
    materialization, so later deltas on the base graph refresh the view
    by patching instead of recomputing.
    """
    if isinstance(statement, ast.GraphViewStmt):
        from .maintenance import materialize_view  # cycle guard

        result = materialize_view(
            statement.name,
            statement.query,
            ctx,
            error="a GRAPH VIEW must be defined by a graph query",
        )
        return ViewResult(statement.name, result.with_name(statement.name))
    return evaluate_query(statement, ctx)


def evaluate_query(
    query: ast.Query,
    ctx: EvalContext,
    seed: Optional[Binding] = None,
) -> Union[PathPropertyGraph, Table]:
    """Evaluate a query; *seed* carries correlated outer bindings (A.2)."""
    for head in query.heads:
        if isinstance(head, ast.PathClause):
            ctx.local_path_views[head.name] = head
        elif isinstance(head, ast.GraphClause):
            result = evaluate_query(head.query, ctx.child())
            if not isinstance(result, PathPropertyGraph):
                raise SemanticError(
                    f"GRAPH {head.name} AS (...) must produce a graph"
                )
            ctx.local_graphs[head.name] = result.with_name(head.name)
        else:  # pragma: no cover - parser guarantees
            raise SemanticError(f"unknown head clause: {head!r}")
    return _evaluate_body(query.body, ctx, seed)


def _evaluate_body(
    body: ast.QueryBody, ctx: EvalContext, seed: Optional[Binding]
) -> Union[PathPropertyGraph, Table]:
    if isinstance(body, ast.GraphRefQuery):
        return ctx.resolve_graph(body.name)
    if isinstance(body, ast.SetOpQuery):
        left = _evaluate_body(body.left, ctx, seed)
        right = _evaluate_body(body.right, ctx, seed)
        if not isinstance(left, PathPropertyGraph) or not isinstance(
            right, PathPropertyGraph
        ):
            raise SemanticError(
                "set operations (UNION/INTERSECT/MINUS) apply to graphs only"
            )
        if body.op == "union":
            return graph_union(left, right)
        if body.op == "intersect":
            return graph_intersect(left, right)
        if body.op == "minus":
            return graph_difference(left, right)
        raise SemanticError(f"unknown set operation: {body.op}")
    if isinstance(body, ast.BasicQuery):
        return _evaluate_basic(body, ctx, seed)
    raise SemanticError(f"unknown query body: {body!r}")


def _evaluate_basic(
    basic: ast.BasicQuery, ctx: EvalContext, seed: Optional[Binding]
) -> Union[PathPropertyGraph, Table]:
    # EXISTS subqueries in this query's WHERE and head check their MATCH
    # against its scope: child contexts inherit ctx.scope.
    saved = scope = ctx.scope
    if basic.from_table is None and basic.match is not None:
        ctx.scope = scope = check_match(basic.match, saved)
    try:
        declared: FrozenSet[str]
        if basic.from_table is not None:
            table = ctx.catalog.table(basic.from_table)
            rows = [
                Binding(dict(zip(table.columns, row_values)))
                for row_values in table.rows
            ]
            omega = BindingTable(table.columns, rows)
            declared = frozenset(table.columns)
            if seed is not None:
                shared = [v for v in seed.domain if v in omega.columns]
                if shared:
                    seed_row = seed.project(shared)
                    omega = omega.filter(lambda r: r.compatible(seed_row))
        elif basic.match is not None:
            declared = frozenset(scope.sorts)
            seed_table: Optional[BindingTable] = None
            if seed is not None:
                # Outer variables act as parameters of the correlated subquery
                # (A.2): seed the whole outer binding — shared pattern
                # variables join on identity, and WHERE conditions may read
                # any outer variable.
                seed_table = BindingTable(tuple(sorted(seed.domain)), [seed])
                declared = declared | seed.domain
            omega = evaluate_match(basic.match, ctx, seed=seed_table)
        else:
            declared = frozenset()
            omega = BindingTable.unit()

        if ctx.omega_sink is not None:
            # View registration captures the top-level MATCH table for the
            # incremental-maintenance support counts (subqueries run in child
            # contexts, whose sink is always None).
            ctx.omega_sink.append(omega)

        if isinstance(basic.head, ast.SelectClause):
            return evaluate_select(basic.head, omega, ctx)
        if isinstance(basic.head, ast.ConstructClause):
            return evaluate_construct(basic.head, omega, ctx, declared)
        raise SemanticError(f"unknown basic query head: {basic.head!r}")
    finally:
        ctx.scope = saved
