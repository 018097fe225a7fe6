"""SELECT evaluation — the tabular projection extension of Section 5.

``SELECT e1 AS a1, ... MATCH ...`` projects the binding set into a
:class:`~repro.table.Table`. Following the paper's sketch ("slicing,
sorting, and aggregation, similar to Cypher's RETURN clause"), we support
DISTINCT, GROUP BY, ORDER BY (ASC/DESC), LIMIT and OFFSET, and aggregate
items (with an implicit single group when no GROUP BY is given).

Projection and GROUP BY aggregation run vectorized by default: item
expressions compile to columnar kernels (:mod:`repro.eval.kernels`) that
evaluate whole column batches — grouping keys come from one kernel pass,
aggregates consume per-group column slices, plain-variable items read
their vector directly. The row-at-a-time path (per-row
:class:`~repro.eval.expressions.ExpressionEvaluator` calls) is retained
as the reference oracle at ``expressions="interpreted"`` and produces
bit-identical tables — rows, order and columns (property-tested).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..algebra.binding import ABSENT, Binding, BindingTable
from ..lang import ast
from ..lang.pretty import pretty_expr
from ..table import Table
from .context import EvalContext
from .expressions import ExpressionEvaluator, expr_has_aggregate
from .kernels import ExpressionCompiler, GroupSpec, KernelContext

__all__ = ["evaluate_select"]


def _column_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    return pretty_expr(item.expr)


def _normalize(value: Any) -> Any:
    """Flatten evaluation results into table cells."""
    if isinstance(value, frozenset):
        if not value:
            return None
        if len(value) == 1:
            return next(iter(value))
        return value
    return value


def _sort_token(value: Any) -> Tuple[str, str]:
    return (type(value).__name__, str(value))


def evaluate_select(
    select: ast.SelectClause,
    omega: BindingTable,
    ctx: EvalContext,
) -> Table:
    """Evaluate a SELECT head over the binding set *omega*."""
    ev = ExpressionEvaluator(ctx)
    columns = [_column_name(item, i) for i, item in enumerate(select.items)]
    maxdom = omega.maximal_domain()
    aggregated = bool(select.group_by) or any(
        expr_has_aggregate(item.expr) for item in select.items
    )
    vectorized = ctx.config.expressions == "vectorized"
    compiler = ExpressionCompiler(ctx) if vectorized else None

    # GROUP BY / ORDER BY may reference SELECT aliases; resolve them to
    # the underlying expressions before evaluation.
    aliases = {item.alias: item.expr for item in select.items if item.alias}
    group_exprs = tuple(
        aliases.get(expr.name, expr) if isinstance(expr, ast.Var) else expr
        for expr in select.group_by
    )

    # raw_rows pairs each output row with the omega row index backing it
    # (a group's representative when aggregated; None for the implicit
    # single group over an empty table) — ORDER BY re-reads it lazily.
    raw_rows: List[Tuple[Optional[int], Tuple[Any, ...]]] = []
    if aggregated:
        if vectorized and len(omega):
            kctx = KernelContext(omega, ctx, maximal_domain=maxdom)
            specs = [
                GroupSpec(indices[0], indices)
                for indices in _group_indices(omega, group_exprs, kctx, compiler)
            ]
            # Partial aggregation on the worker pool: groups partition
            # whole across morsels, chunk outputs concatenate back in
            # this group order (None = run serially below).
            from .parallel import parallel_grouped_cells

            cell_columns = parallel_grouped_cells(
                omega, specs, [item.expr for item in select.items], ctx,
                maxdom,
            )
            if cell_columns is not None:
                cell_columns = [
                    [_normalize(value) for value in column]
                    for column in cell_columns
                ]
            else:
                cell_columns = [
                    [
                        _normalize(value)
                        for value in compiler.compile_grouped(item.expr)(
                            kctx, specs
                        )
                    ]
                    for item in select.items
                ]
            raw_rows = [
                (spec.representative, tuple(column[j] for column in cell_columns))
                for j, spec in enumerate(specs)
            ]
        else:
            for rep_index, group in _group(omega, group_exprs, ev):
                representative = (
                    omega.row_at(rep_index) if rep_index is not None else Binding()
                )
                cells = tuple(
                    _normalize(
                        ev.evaluate(
                            item.expr, representative, group=group,
                            maximal_domain=maxdom,
                        )
                    )
                    for item in select.items
                )
                raw_rows.append((rep_index, cells))
    else:
        # Batch projection: plain-variable items read their column
        # vector directly; other expressions run one compiled kernel
        # per item (or evaluate per row on the oracle path).
        nrows = len(omega)
        all_rows = list(range(nrows))
        kctx = KernelContext(omega, ctx) if vectorized else None
        cell_columns = []
        for item in select.items:
            vector = _column_fast_path(omega, item.expr)
            if vector is None:
                if vectorized:
                    vector = [
                        _normalize(value)
                        for value in compiler.compile(item.expr)(kctx, all_rows)
                    ]
                else:
                    vector = [
                        _normalize(ev.evaluate(item.expr, row))
                        for row in omega.rows
                    ]
            cell_columns.append(vector)
        raw_rows = [
            (i, tuple(column[i] for column in cell_columns)) for i in range(nrows)
        ]

    if select.distinct:
        seen = set()
        unique: List[Tuple[Optional[int], Tuple[Any, ...]]] = []
        for row, cells in raw_rows:
            key = tuple(_sort_token(c) for c in cells)
            if key not in seen:
                seen.add(key)
                unique.append((row, cells))
        raw_rows = unique

    if select.order_by:
        # Stable multi-key sort: apply keys right-to-left.
        for expr, ascending in reversed(select.order_by):
            raw_rows.sort(
                key=lambda entry: _sort_token(
                    _order_value(expr, entry[0], entry[1], columns, ev, omega)
                ),
                reverse=not ascending,
            )

    rows = [cells for _, cells in raw_rows]
    if select.offset:
        rows = rows[select.offset:]
    if select.limit is not None:
        rows = rows[: select.limit]
    return Table(columns, rows)


def _order_value(
    expr: ast.Expr,
    row_index: Optional[int],
    cells: Tuple[Any, ...],
    columns: List[str],
    ev: ExpressionEvaluator,
    omega: BindingTable,
) -> Any:
    """An ORDER BY key: an output column by alias, or any expression."""
    if isinstance(expr, ast.Var) and expr.name in columns:
        return cells[columns.index(expr.name)]
    row = omega.row_at(row_index) if row_index is not None else Binding()
    return _normalize(ev.evaluate(expr, row))


def _column_fast_path(omega: BindingTable, expr: ast.Expr) -> Optional[List[Any]]:
    """The normalized value vector of a plain, fully-bound variable.

    Returns None when *expr* is not a variable or the variable is absent
    in some row — those cases keep the expression-evaluation path (and
    its error behaviour for unbound variables).
    """
    if not isinstance(expr, ast.Var):
        return None
    vector = omega.column_values(expr.name)
    if vector is None or any(value is ABSENT for value in vector):
        return None
    return [_normalize(value) for value in vector]


def _group_keys(
    omega: BindingTable,
    group_by: Tuple[ast.Expr, ...],
    evaluate_column,
) -> List[List[int]]:
    """Partition row indices by GROUP BY key columns (shared core).

    ``evaluate_column(expr)`` supplies the value vector of one grouping
    expression; groups come back sorted by their tokenized keys so both
    evaluation modes produce the identical group order.
    """
    key_columns: List[List[Tuple[str, str]]] = []
    for expr in group_by:
        vector = _column_fast_path(omega, expr)
        if vector is not None:
            key_columns.append([_sort_token(value) for value in vector])
        else:
            key_columns.append(
                [_sort_token(_normalize(value)) for value in evaluate_column(expr)]
            )
    groups: dict = {}
    order: List[Tuple[Any, ...]] = []
    for index in range(len(omega)):
        key = tuple(column[index] for column in key_columns)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(index)
    return [groups[key] for key in sorted(order)]


def _group_indices(
    omega: BindingTable,
    group_by: Tuple[ast.Expr, ...],
    kctx: KernelContext,
    compiler: ExpressionCompiler,
) -> List[List[int]]:
    """Vectorized grouping: key columns from one kernel pass each."""
    if not group_by:
        return [list(range(len(omega)))]
    all_rows = list(range(len(omega)))
    return _group_keys(
        omega, group_by, lambda expr: compiler.compile(expr)(kctx, all_rows)
    )


def _group(
    omega: BindingTable,
    group_by: Tuple[ast.Expr, ...],
    ev: ExpressionEvaluator,
) -> List[Tuple[Optional[int], BindingTable]]:
    """Partition *omega* by GROUP BY keys (single group when absent).

    Returns ``(representative row index, group sub-table)`` pairs; the
    representative index is None only for the implicit single group over
    an empty table.
    """
    if not group_by:
        return [(0 if len(omega) else None, omega)]
    partitions = _group_keys(
        omega,
        group_by,
        lambda expr: [ev.evaluate(expr, row) for row in omega.rows],
    )
    return [(indices[0], omega.select_rows(indices)) for indices in partitions]
