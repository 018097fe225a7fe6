"""MATCH evaluation — Appendix A.2.

A match block is decomposed into *atoms* — node, edge and path patterns —
that are evaluated incrementally against a growing binding table. A
cost-based planner (see :mod:`repro.eval.planner`) orders atoms by
estimated output cardinality over the graph's statistics so that
selective, already-connected atoms run first; path atoms run once their
source endpoint is bound, grouping the binding column by source id and
expanding via batched product-graph searches (one shared search
structure per group, :mod:`repro.paths.product`). Prepared queries
memoize the chosen orderings per pattern site and graph
(:class:`~repro.eval.planner.PlanCache`).

Semantics notes:

* homomorphism semantics — no injectivity constraints (Section 6);
* anonymous pattern elements are existential: they do not contribute
  binding columns (internally they get hidden names, projected away);
* ``OPTIONAL`` blocks left-outer-join in syntactic order (A.2);
* ``WHERE`` filters; implicit existential patterns inside WHERE evaluate
  the pattern seeded with the current row (A.2's `J.K_{Omega,G}`).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set,
    Tuple,
)

from ..algebra.binding import ABSENT, Binding, BindingTable, EMPTY_BINDING
from ..algebra.ops import table_left_join
from ..errors import EvaluationError, SemanticError
from ..lang import ast
from ..model.graph import ObjectId, PathPropertyGraph
from ..model.values import gcore_equals
from ..paths.automaton import NFA, compile_regex, regex_view_names
from ..paths.product import PathFinder
from ..paths.walk import AllPathsHandle, Walk
from .context import EvalContext
from .expressions import ExpressionEvaluator
from .kernels import ExpressionCompiler, compiled_filter_rows
from .planner import LocationPlan, PlanStep, order_atoms, plan_location

__all__ = [
    "evaluate_match",
    "order_atoms",  # servebench/tracing.py wraps it here by name
    "evaluate_block",
    "chain_matches",
    "decompose_chain",
    "match_rows_touching",
    "run_atom_sequence",
    "finish_block_where",
    "NodeAtom",
    "EdgeAtom",
    "PathAtom",
]

ANON_PREFIX = "#anon"

_NFA_CACHE: Dict[ast.RegexExpr, NFA] = {}


def _nfa_for(regex: Optional[ast.RegexExpr]) -> NFA:
    key = regex if regex is not None else ast.RStar(ast.RAnyEdge())
    if key not in _NFA_CACHE:
        _NFA_CACHE[key] = compile_regex(key)
    return _NFA_CACHE[key]


def _sorted_ids(ids: Iterable[ObjectId]) -> List[ObjectId]:
    return sorted(ids, key=str)


def _label_candidates(
    universe: FrozenSet[ObjectId],
    labels: Tuple[Tuple[str, ...], ...],
    index,
) -> List[ObjectId]:
    """Candidates satisfying a conjunction of label-disjunction groups."""
    if not labels:
        return _sorted_ids(universe)
    current: Optional[Set[ObjectId]] = None
    for group in labels:
        group_set: Set[ObjectId] = set()
        for label in group:
            group_set |= index(label)
        current = group_set if current is None else current & group_set
        if not current:
            return []
    return _sorted_ids(current or set())


def _satisfies_labels(
    graph_labels: FrozenSet[str], labels: Tuple[Tuple[str, ...], ...]
) -> bool:
    return all(any(l in graph_labels for l in group) for group in labels)


# ---------------------------------------------------------------------------
# Columnar expansion helpers
# ---------------------------------------------------------------------------

def _row_independent(expr: ast.Expr) -> bool:
    """Conservatively: does *expr* evaluate the same for every row?

    Only shapes that provably reference no binding are admitted (the
    common ``{name='Wagner'}`` and ``{since=$year}`` property tests);
    anything else stays on the per-row evaluation path.
    """
    if isinstance(expr, (ast.Literal, ast.Param)):
        return True
    if isinstance(expr, ast.Unary):
        return _row_independent(expr.operand)
    if isinstance(expr, ast.Binary):
        return _row_independent(expr.left) and _row_independent(expr.right)
    if isinstance(expr, ast.ListLiteral):
        return all(_row_independent(item) for item in expr.items)
    return False


def _split_prop_tests(
    tests: Tuple[Tuple[str, ast.Expr], ...], ev: ExpressionEvaluator
) -> Tuple[List[Tuple[str, Any]], List[Tuple[str, ast.Expr]]]:
    """Partition property tests into (key, pre-evaluated value) constants
    and (key, expr) row-dependent tests.

    A constant test that *raises* (e.g. a missing ``$param``) is kept on
    the dynamic path instead: the reference executor only evaluates
    tests once a candidate reaches them, so eager evaluation must never
    introduce an error the row-at-a-time executor would not produce.
    """
    const: List[Tuple[str, Any]] = []
    dynamic: List[Tuple[str, ast.Expr]] = []
    for key, expr in tests:
        if _row_independent(expr):
            try:
                const.append((key, ev.evaluate(expr, EMPTY_BINDING)))
            except Exception:
                dynamic.append((key, expr))
        else:
            dynamic.append((key, expr))
    return const, dynamic


def _property_value_ok(actual, expected) -> bool:
    """One property test against an already-evaluated expected value."""
    return gcore_equals(actual, expected) or (
        not isinstance(expected, frozenset) and expected in actual
    )


def _const_tests_pass(
    graph: PathPropertyGraph, obj: ObjectId, const: List[Tuple[str, Any]]
) -> bool:
    for key, expected in const:
        if not _property_value_ok(graph.property(obj, key), expected):
            return False
    return True


def _assemble(
    table: BindingTable,
    columns: Tuple[str, ...],
    names: List[str],
    out_index: List[int],
    out_cols: Dict[str, List[Any]],
) -> BindingTable:
    """Build an extension result: gather the input columns through the
    emitted row indices and splice in the freshly assigned vectors."""
    in_vars = table.variables
    name_set = set(names)
    variables = list(in_vars)
    data: Dict[str, List[Any]] = {}
    for var in in_vars:
        if var in name_set:
            data[var] = out_cols[var]
        else:
            vector = table.column_values(var)
            data[var] = [vector[i] for i in out_index]
    for name in names:
        if name not in data:
            variables.append(name)
            data[name] = out_cols[name]
    return BindingTable.from_columns(
        columns, variables, data, len(out_index), dedup=True
    )


class _BindUnroller:
    """Columnar counterpart of :func:`_unroll_property_binds`.

    Produces, for one graph object and one partial assignment dict, the
    list of final assignment dicts after unrolling every multi-valued
    property bind — memoizing the per-object sorted value lists.
    """

    def __init__(
        self, graph: PathPropertyGraph, binds: Tuple[Tuple[str, str], ...]
    ) -> None:
        self._graph = graph
        self._binds = binds
        self._values: Dict[Tuple[ObjectId, str], List[Any]] = {}

    def _sorted_values(self, obj: ObjectId, key: str) -> List[Any]:
        memo_key = (obj, key)
        values = self._values.get(memo_key)
        if values is None:
            values = sorted(
                self._graph.property(obj, key),
                key=lambda v: (str(type(v)), str(v)),
            )
            self._values[memo_key] = values
        return values

    def unroll(self, obj: ObjectId, assignment: Dict[str, Any]) -> List[Dict[str, Any]]:
        if not self._binds:
            return [assignment]
        combos = [assignment]
        for key, bind_var in self._binds:
            values = self._sorted_values(obj, key)
            next_combos: List[Dict[str, Any]] = []
            for current in combos:
                existing = current.get(bind_var, ABSENT)
                if existing is not ABSENT:
                    if existing in values:
                        next_combos.append(current)
                else:
                    for value in values:
                        extended = dict(current)
                        extended[bind_var] = value
                        next_combos.append(extended)
            combos = next_combos
            if not combos:
                break
        return combos


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

class NodeAtom:
    """A node pattern bound to a variable (named or hidden)."""

    kind = "node"

    def __init__(self, pattern: ast.NodePattern, var: str) -> None:
        if pattern.copy_of is not None:
            raise SemanticError("copy patterns (=x) are CONSTRUCT-only")
        self.pattern = pattern
        self.var = var

    def binds(self) -> FrozenSet[str]:
        return frozenset(
            {self.var, *(v for _, v in self.pattern.prop_binds)}
        )

    def requires(self) -> FrozenSet[str]:
        return frozenset()

    def extend(
        self,
        table: BindingTable,
        graph: PathPropertyGraph,
        ev: ExpressionEvaluator,
    ) -> BindingTable:
        pattern = self.pattern
        out_rows: List[Binding] = []
        candidate_cache: Optional[List[ObjectId]] = None
        for row in table:
            if self.var in row:
                candidates = [row[self.var]]
            else:
                if candidate_cache is None:
                    candidate_cache = _label_candidates(
                        graph.nodes, pattern.labels, graph.nodes_with_label
                    )
                candidates = candidate_cache
            for node in candidates:
                if node not in graph.nodes:
                    continue
                if not _satisfies_labels(graph.labels(node), pattern.labels):
                    continue
                if not _property_tests_pass(graph, node, pattern.prop_tests, ev, row):
                    continue
                base = row if self.var in row else row.extend(self.var, node)
                out_rows.extend(
                    _unroll_property_binds(graph, node, pattern.prop_binds, base)
                )
        columns = tuple(table.columns) + tuple(self.binds())
        return BindingTable(columns, out_rows)

    def extend_columnar(
        self,
        table: BindingTable,
        graph: PathPropertyGraph,
        ev: ExpressionEvaluator,
        probe_filters=None,
    ) -> BindingTable:
        """Columnar expansion: candidates resolved once, output built as
        vectors. Emission order matches :meth:`extend` exactly.

        ``probe_filters`` (var -> batch filter, see
        :func:`run_atom_sequence`) carries WHERE conjuncts pushed down to
        this atom: the label-scan candidates and the distinct bound
        values that pass the pattern's own tests go through the filter
        in one batch, and candidates it rejects are dropped before any
        row materializes.
        """
        pattern = self.pattern
        var = self.var
        admit = (probe_filters or {}).get(var)
        const_tests, dyn_tests = _split_prop_tests(pattern.prop_tests, ev)
        unroller = _BindUnroller(graph, pattern.prop_binds)
        names = list(
            dict.fromkeys([var, *(v for _, v in pattern.prop_binds)])
        )
        nrows = len(table)
        name_vectors = {
            name: table.column_values(name) for name in names
        }
        var_vector = name_vectors[var]
        dyn_rows = table.rows if dyn_tests else None

        scan: List[ObjectId] = []
        if nrows and (
            var_vector is None or any(v is ABSENT for v in var_vector)
        ):
            scan = [
                node
                for node in _label_candidates(
                    graph.nodes, pattern.labels, graph.nodes_with_label
                )
                if _const_tests_pass(graph, node, const_tests)
            ]
        bound_ok: Dict[ObjectId, bool] = {}
        for bound in var_vector or ():
            if bound is not ABSENT and bound not in bound_ok:
                bound_ok[bound] = (
                    bound in graph.nodes
                    and _satisfies_labels(graph.labels(bound), pattern.labels)
                    and _const_tests_pass(graph, bound, const_tests)
                )
        if admit is not None:
            admitted = admit(
                list(
                    dict.fromkeys(
                        [*scan, *(v for v, ok in bound_ok.items() if ok)]
                    )
                )
            )
            scan = [node for node in scan if node in admitted]
            bound_ok = {v: ok and v in admitted for v, ok in bound_ok.items()}

        out_index: List[int] = []
        out_cols: Dict[str, List[Any]] = {name: [] for name in names}

        for i in range(nrows):
            bound = var_vector[i] if var_vector is not None else ABSENT
            if bound is not ABSENT:
                candidates: Iterable[ObjectId] = (
                    (bound,) if bound_ok[bound] else ()
                )
            else:
                candidates = scan
            for node in candidates:
                if dyn_tests and not _property_tests_pass(
                    graph, node, tuple(dyn_tests), ev, dyn_rows[i]
                ):
                    continue
                base = {name: ABSENT for name in names}
                for name in names:
                    vector = name_vectors[name]
                    if vector is not None:
                        base[name] = vector[i]
                if base[var] is ABSENT:
                    base[var] = node
                for combo in unroller.unroll(node, base):
                    out_index.append(i)
                    for name in names:
                        out_cols[name].append(combo[name])
        columns = tuple(table.columns) + tuple(self.binds())
        return _assemble(table, columns, names, out_index, out_cols)


class EdgeAtom:
    """An edge pattern between two node variables."""

    kind = "edge"

    def __init__(
        self, pattern: ast.EdgePattern, src_var: str, dst_var: str, var: Optional[str]
    ) -> None:
        if pattern.copy_of is not None:
            raise SemanticError("copy patterns -[=y]- are CONSTRUCT-only")
        self.pattern = pattern
        self.src_var = src_var
        self.dst_var = dst_var
        self.var = var  # None = anonymous (existential, not bound)

    def binds(self) -> FrozenSet[str]:
        names = {self.src_var, self.dst_var}
        if self.var:
            names.add(self.var)
        names.update(v for _, v in self.pattern.prop_binds)
        return frozenset(names)

    def requires(self) -> FrozenSet[str]:
        return frozenset()

    def _orientations(self) -> List[Tuple[str, str]]:
        if self.pattern.direction == ast.OUT:
            return [(self.src_var, self.dst_var)]
        if self.pattern.direction == ast.IN:
            return [(self.dst_var, self.src_var)]
        return [(self.src_var, self.dst_var), (self.dst_var, self.src_var)]

    def extend(
        self,
        table: BindingTable,
        graph: PathPropertyGraph,
        ev: ExpressionEvaluator,
    ) -> BindingTable:
        pattern = self.pattern
        out_rows: List[Binding] = []
        scan_cache: Optional[List[ObjectId]] = None
        for row in table:
            for from_var, to_var in self._orientations():
                if self.var and self.var in row:
                    candidates: Iterable[ObjectId] = [row[self.var]]
                elif from_var in row:
                    source = row[from_var]
                    candidates = graph.out_edges(source) if source in graph.nodes else ()
                elif to_var in row:
                    target = row[to_var]
                    candidates = graph.in_edges(target) if target in graph.nodes else ()
                else:
                    if scan_cache is None:
                        scan_cache = _label_candidates(
                            graph.edges, pattern.labels, graph.edges_with_label
                        )
                    candidates = scan_cache
                for edge in _sorted_ids(candidates):
                    if edge not in graph.edges:
                        continue
                    if not _satisfies_labels(graph.labels(edge), pattern.labels):
                        continue
                    src, dst = graph.endpoints(edge)
                    # A self-loop pattern (n)-[e]->(n) collapses both
                    # endpoint variables into one name; when that name is
                    # unbound, binding the source would silently satisfy
                    # the target too, so the equality must be explicit.
                    if from_var == to_var and src != dst:
                        continue
                    if from_var in row and row[from_var] != src:
                        continue
                    if to_var in row and row[to_var] != dst:
                        continue
                    if not _property_tests_pass(
                        graph, edge, pattern.prop_tests, ev, row
                    ):
                        continue
                    extended = row
                    if from_var not in extended:
                        extended = extended.extend(from_var, src)
                    if to_var not in extended:
                        extended = extended.extend(to_var, dst)
                    if self.var and self.var not in extended:
                        extended = extended.extend(self.var, edge)
                    out_rows.extend(
                        _unroll_property_binds(
                            graph, edge, pattern.prop_binds, extended
                        )
                    )
        columns = tuple(table.columns) + tuple(self.binds())
        return BindingTable(columns, out_rows)

    def extend_columnar(
        self,
        table: BindingTable,
        graph: PathPropertyGraph,
        ev: ExpressionEvaluator,
        probe_filters=None,
    ) -> BindingTable:
        """Hash-join expansion against label-bucketed adjacency lists.

        Bound endpoints probe the graph's per-label adjacency indexes
        (build side) instead of re-sorting and re-filtering the raw edge
        lists per row; per-edge admissibility (labels + constant property
        tests) is memoized across rows. Emission order matches
        :meth:`extend` exactly, so both executors produce identical
        tables — rows included, order included.

        ``probe_filters`` (var -> batch filter, see
        :func:`run_atom_sequence`) carries pushed-down WHERE conjuncts.
        Candidate edges are gathered first; each filter then runs once
        over the distinct gathered edges (edge variable) or their
        distinct opposite endpoints (endpoint variable), and rejected
        candidates are dropped before any row materializes.
        """
        pattern = self.pattern
        var = self.var
        const_tests, dyn_tests = _split_prop_tests(pattern.prop_tests, ev)
        unroller = _BindUnroller(graph, pattern.prop_binds)
        names = list(
            dict.fromkeys(
                [
                    self.src_var,
                    self.dst_var,
                    *((var,) if var else ()),
                    *(v for _, v in pattern.prop_binds),
                ]
            )
        )
        nrows = len(table)
        name_vectors = {name: table.column_values(name) for name in names}
        var_vector = name_vectors.get(var) if var else None
        dyn_rows = table.rows if dyn_tests else None

        # Adjacency build side: bucket by the first single-label group if
        # there is one (the common case); residual label groups and
        # constant property tests are folded into the memoized per-edge
        # admissibility check.
        labels = pattern.labels
        bucket = labels[0][0] if labels and len(labels[0]) == 1 else None
        out_adj = graph.out_adjacency(bucket)
        in_adj = graph.in_adjacency(bucket)
        edge_ok: Dict[ObjectId, bool] = {}
        rho = graph.endpoints
        scan_cache: Optional[List[ObjectId]] = None
        orientations = self._orientations()

        def gather() -> Iterator[Tuple[int, int, ObjectId, ObjectId, ObjectId]]:
            """(row, orientation, edge, src, dst) per admissible candidate."""
            nonlocal scan_cache
            for i in range(nrows):
                bound_edge = var_vector[i] if var_vector is not None else ABSENT
                for o, (from_var, to_var) in enumerate(orientations):
                    from_vec = name_vectors[from_var]
                    to_vec = name_vectors[to_var]
                    fv = from_vec[i] if from_vec is not None else ABSENT
                    tv = to_vec[i] if to_vec is not None else ABSENT
                    if bound_edge is not ABSENT:
                        candidates: Iterable[ObjectId] = (bound_edge,)
                    elif fv is not ABSENT:
                        candidates = out_adj.get(fv, ())
                    elif tv is not ABSENT:
                        candidates = in_adj.get(tv, ())
                    else:
                        if scan_cache is None:
                            scan_cache = _label_candidates(
                                graph.edges, labels, graph.edges_with_label
                            )
                        candidates = scan_cache
                    for edge in candidates:
                        ok = edge_ok.get(edge)
                        if ok is None:
                            ok = (
                                edge in graph.edges
                                and _satisfies_labels(graph.labels(edge), labels)
                                and _const_tests_pass(graph, edge, const_tests)
                            )
                            edge_ok[edge] = ok
                        if not ok:
                            continue
                        src, dst = rho(edge)
                        if from_var == to_var and src != dst:
                            continue  # self-loop pattern: endpoints must agree
                        if fv is not ABSENT and fv != src:
                            continue
                        if tv is not ABSENT and tv != dst:
                            continue
                        yield i, o, edge, src, dst

        matches: Iterable[Tuple[int, int, ObjectId, ObjectId, ObjectId]] = gather()
        if probe_filters:
            gathered = list(matches)
            for probed, admit in probe_filters.items():
                # The match slot holding *probed* under each orientation:
                # the edge itself, its source or its target.
                slots = [
                    2 if probed == var else 3 if probed == from_var else 4
                    for from_var, _ in orientations
                ]
                admitted = admit(
                    list(dict.fromkeys(m[slots[m[1]]] for m in gathered))
                )
                gathered = [m for m in gathered if m[slots[m[1]]] in admitted]
            matches = gathered

        out_index: List[int] = []
        out_cols: Dict[str, List[Any]] = {name: [] for name in names}
        for i, o, edge, src, dst in matches:
            from_var, to_var = orientations[o]
            if dyn_tests and not _property_tests_pass(
                graph, edge, tuple(dyn_tests), ev, dyn_rows[i]
            ):
                continue
            base = {}
            for name in names:
                vector = name_vectors[name]
                base[name] = vector[i] if vector is not None else ABSENT
            # Mirror the reference's sequential extends (guarded
            # so an already-assigned name, e.g. a self-loop's
            # shared endpoint variable, is never overwritten).
            if base[from_var] is ABSENT:
                base[from_var] = src
            if base[to_var] is ABSENT:
                base[to_var] = dst
            if var and base[var] is ABSENT:
                base[var] = edge
            for combo in unroller.unroll(edge, base):
                out_index.append(i)
                for name in names:
                    out_cols[name].append(combo[name])
        columns = tuple(table.columns) + tuple(self.binds())
        return _assemble(table, columns, names, out_index, out_cols)


class PathAtom:
    """A path pattern between two node variables (Appendix A.2)."""

    kind = "path"

    def __init__(
        self, pattern: ast.PathPatternElem, src_var: str, dst_var: str
    ) -> None:
        self.pattern = pattern
        self.src_var = src_var
        self.dst_var = dst_var

    @property
    def from_var(self) -> str:
        return self.dst_var if self.pattern.direction == ast.IN else self.src_var

    @property
    def to_var(self) -> str:
        return self.src_var if self.pattern.direction == ast.IN else self.dst_var

    def binds(self) -> FrozenSet[str]:
        names = {self.src_var, self.dst_var}
        if self.pattern.var:
            names.add(self.pattern.var)
        if self.pattern.cost_var:
            names.add(self.pattern.cost_var)
        return frozenset(names)

    def requires(self) -> FrozenSet[str]:
        return frozenset()

    # ------------------------------------------------------------------
    def extend(
        self,
        table: BindingTable,
        graph: PathPropertyGraph,
        ev: ExpressionEvaluator,
        ctx: EvalContext,
    ) -> BindingTable:
        if self.pattern.direction == ast.UNDIRECTED:
            raise SemanticError("path patterns must be directed (-/ /-> or <-/ /-)")
        if self.pattern.stored:
            return self._extend_stored(table, graph, ev)
        return self._extend_computed(table, graph, ev, ctx)

    # -- stored paths ------------------------------------------------------
    def _extend_stored(
        self,
        table: BindingTable,
        graph: PathPropertyGraph,
        ev: ExpressionEvaluator,
    ) -> BindingTable:
        pattern = self.pattern
        candidates = _label_candidates(
            graph.paths, pattern.labels, graph.paths_with_label
        )
        out_rows: List[Binding] = []
        for row in table:
            for pid in candidates:
                sequence = graph.path_sequence(pid)
                start, end = sequence[0], sequence[-1]
                if self.from_var == self.to_var and start != end:
                    continue  # self-loop pattern: endpoints must agree
                if self.from_var in row and row[self.from_var] != start:
                    continue
                if self.to_var in row and row[self.to_var] != end:
                    continue
                if pattern.var and pattern.var in row and row[pattern.var] != pid:
                    continue
                extended = row
                if self.from_var not in extended:
                    extended = extended.extend(self.from_var, start)
                if self.to_var not in extended:
                    extended = extended.extend(self.to_var, end)
                if pattern.var and pattern.var not in extended:
                    extended = extended.extend(pattern.var, pid)
                if pattern.cost_var:
                    extended = extended.extend(
                        pattern.cost_var, len(sequence) // 2
                    )
                out_rows.append(extended)
        columns = tuple(table.columns) + tuple(self.binds())
        return BindingTable(columns, out_rows)

    # -- computed paths ------------------------------------------------------
    def _finder(
        self, graph: PathPropertyGraph, ctx: EvalContext, naive: bool = False
    ) -> PathFinder:
        nfa = _nfa_for(self.pattern.regex)
        views = {
            name: ctx.segments_for(name, graph)
            for name in regex_view_names(self.pattern.regex)
        }
        return PathFinder(graph, nfa, views, naive=naive)

    def explain_strategy(self) -> str:
        """The search strategy EXPLAIN reports for this atom."""
        if self.pattern.stored:
            return "stored"
        return "bfs" if _nfa_for(self.pattern.regex).unit_cost else "dijkstra"

    def _extend_computed(
        self,
        table: BindingTable,
        graph: PathPropertyGraph,
        ev: ExpressionEvaluator,
        ctx: EvalContext,
    ) -> BindingTable:
        pattern = self.pattern
        finder = self._finder(graph, ctx, naive=True)
        from_var, to_var = self.from_var, self.to_var
        out_rows: List[Binding] = []

        # Group rows by the source endpoint so each distinct source runs a
        # single single-source search.
        rows_by_source: Dict[Any, List[Binding]] = defaultdict(list)
        unbound_rows: List[Binding] = []
        for row in table:
            if from_var in row:
                rows_by_source[row[from_var]].append(row)
            else:
                unbound_rows.append(row)
        if unbound_rows:
            # Source endpoint entirely unconstrained: try every node.
            for row in unbound_rows:
                for node in _sorted_ids(graph.nodes):
                    rows_by_source[node].append(row.extend(from_var, node))

        for source in sorted(rows_by_source, key=str):
            rows = rows_by_source[source]
            if source not in graph.nodes:
                continue
            if pattern.mode == "reach":
                reachable = finder.reachable_from(source)
                for row in rows:
                    if to_var in row:
                        if row[to_var] in reachable:
                            out_rows.append(row)
                    else:
                        for target in _sorted_ids(reachable):
                            out_rows.append(row.extend(to_var, target))
            elif pattern.mode == "all":
                for row in rows:
                    targets = (
                        [row[to_var]]
                        if to_var in row
                        else _sorted_ids(graph.nodes)
                    )
                    for target in targets:
                        nodes, edges = finder.all_paths_projection(source, target)
                        if not nodes:
                            continue
                        handle = AllPathsHandle(
                            source, target, tuple(_sorted_ids(nodes)),
                            tuple(_sorted_ids(edges)),
                        )
                        extended = row
                        if to_var not in extended:
                            extended = extended.extend(to_var, target)
                        if pattern.var:
                            extended = extended.extend(pattern.var, handle)
                        out_rows.append(extended)
            elif pattern.count == 1:
                bound_targets = {
                    row[to_var] for row in rows if to_var in row
                }
                all_targets_bound = all(to_var in row for row in rows)
                walks = finder.shortest_from(
                    source, set(bound_targets) if all_targets_bound else None
                )
                for row in rows:
                    if to_var in row:
                        walk = walks.get(row[to_var])
                        if walk is not None:
                            out_rows.append(self._bind_walk(row, walk))
                    else:
                        for target in sorted(walks, key=str):
                            extended = row.extend(to_var, target)
                            out_rows.append(
                                self._bind_walk(extended, walks[target])
                            )
            else:
                for row in rows:
                    if to_var in row:
                        targets = [row[to_var]]
                    else:
                        targets = sorted(
                            finder.shortest_from(source), key=str
                        )
                    for target in targets:
                        for walk in finder.k_shortest(
                            source, target, pattern.count
                        ):
                            extended = row
                            if to_var not in extended:
                                extended = extended.extend(to_var, target)
                            out_rows.append(self._bind_walk(extended, walk))
        columns = tuple(table.columns) + tuple(self.binds())
        return BindingTable(columns, out_rows)

    def _bind_walk(self, row: Binding, walk: Walk) -> Binding:
        pattern = self.pattern
        if pattern.var and pattern.var not in row:
            row = row.extend(pattern.var, walk)
        if pattern.cost_var and pattern.cost_var not in row:
            row = row.extend(pattern.cost_var, _coerce_cost(walk.cost))
        return row

    # -- columnar expansion --------------------------------------------------
    def extend_columnar(
        self,
        table: BindingTable,
        graph: PathPropertyGraph,
        ev: ExpressionEvaluator,
        ctx: EvalContext,
    ) -> BindingTable:
        """Batched columnar path expansion (mirrors :meth:`extend` exactly).

        The incoming binding vectors are grouped by source id; each group
        runs one batched product-graph search
        (:meth:`~repro.paths.product.PathFinder.shortest_multi` and
        friends share a memoized expansion structure across all groups),
        and result vectors — target, walk handle, cost — are emitted
        directly. Emission order matches the row-at-a-time reference
        executor row for row, so both executors produce identical tables.
        Stored-path patterns delegate to the shared scan.
        """
        if self.pattern.direction == ast.UNDIRECTED:
            raise SemanticError("path patterns must be directed (-/ /-> or <-/ /-)")
        if self.pattern.stored:
            return self._extend_stored(table, graph, ev)
        pattern = self.pattern
        finder = self._finder(graph, ctx)
        from_var, to_var = self.from_var, self.to_var
        names = list(
            dict.fromkeys(
                [
                    self.src_var,
                    self.dst_var,
                    *((pattern.var,) if pattern.var else ()),
                    *((pattern.cost_var,) if pattern.cost_var else ()),
                ]
            )
        )
        nrows = len(table)
        name_vectors = {name: table.column_values(name) for name in names}

        def value_at(name: str, index: int):
            vector = name_vectors.get(name)
            if vector is None:
                vector = table.column_values(name)
            return vector[index] if vector is not None else ABSENT

        # Group row indices by the source endpoint; rows with an unbound
        # source try every node (mirroring the reference's two phases:
        # bound rows first, then unbound rows, per bucket).
        groups: Dict[Any, List[int]] = defaultdict(list)
        from_vec = name_vectors.get(from_var)
        unbound_rows: List[int] = []
        for i in range(nrows):
            value = from_vec[i] if from_vec is not None else ABSENT
            if value is not ABSENT:
                groups[value].append(i)
            else:
                unbound_rows.append(i)
        if unbound_rows:
            all_nodes = _sorted_ids(graph.nodes)
            for i in unbound_rows:
                for node in all_nodes:
                    groups[node].append(i)

        out_index: List[int] = []
        out_cols: Dict[str, List[Any]] = {name: [] for name in names}

        def emit(index: int, assigned: Dict[str, Any]) -> None:
            out_index.append(index)
            for name in names:
                if name in assigned:
                    out_cols[name].append(assigned[name])
                else:
                    vector = name_vectors[name]
                    out_cols[name].append(vector[index] if vector is not None else ABSENT)

        def base_assignment(index: int, source: Any) -> Dict[str, Any]:
            if value_at(from_var, index) is ABSENT:
                return {from_var: source}
            return {}

        def target_at(index: int, assigned: Dict[str, Any]) -> Any:
            # A self-loop pattern shares one variable between endpoints;
            # once base_assignment pins it to the source, the target is
            # pinned too (the reference executor gets this for free from
            # row.extend, so the table vector alone is not the truth).
            if to_var in assigned:
                return assigned[to_var]
            return value_at(to_var, index)

        sources = [s for s in sorted(groups, key=str) if s in graph.nodes]

        if pattern.mode == "reach":
            from .parallel import parallel_reachable_multi

            reachable_by_source = parallel_reachable_multi(
                ctx, graph, pattern, sources
            )
            if reachable_by_source is None:
                reachable_by_source = finder.reachable_multi(sources)
            for source in sources:
                reachable = reachable_by_source[source]
                for i in groups[source]:
                    assigned = base_assignment(i, source)
                    bound_target = target_at(i, assigned)
                    if bound_target is not ABSENT:
                        if bound_target in reachable:
                            emit(i, assigned)
                    else:
                        for target in _sorted_ids(reachable):
                            emit(i, {**assigned, to_var: target})
        elif pattern.mode == "all":
            for source in sources:
                for i in groups[source]:
                    assigned = base_assignment(i, source)
                    bound_target = target_at(i, assigned)
                    targets = (
                        [bound_target]
                        if bound_target is not ABSENT
                        else _sorted_ids(graph.nodes)
                    )
                    for target in targets:
                        nodes, edges = finder.all_paths_projection(source, target)
                        if not nodes:
                            continue
                        handle = AllPathsHandle(
                            source,
                            target,
                            tuple(_sorted_ids(nodes)),
                            tuple(_sorted_ids(edges)),
                        )
                        extended = dict(assigned)
                        if bound_target is ABSENT:
                            extended[to_var] = target
                        if pattern.var:
                            extended[pattern.var] = handle
                        emit(i, extended)
        elif pattern.count == 1:
            # One batched multi-source search: per-source target sets when
            # every row of the group pins the target, the full reachable
            # set otherwise.
            targets_map: Dict[Any, Optional[Set[Any]]] = {}
            for source in sources:
                bound: Set[Any] = set()
                all_bound = True
                for i in groups[source]:
                    value = value_at(to_var, i)
                    if value is ABSENT:
                        all_bound = False
                        break
                    bound.add(value)
                targets_map[source] = bound if all_bound else None
            from .parallel import parallel_shortest_multi

            walks_by_source = parallel_shortest_multi(
                ctx, graph, pattern, sources, targets_map
            )
            if walks_by_source is None:
                walks_by_source = finder.shortest_multi(sources, targets_map)
            for source in sources:
                walks = walks_by_source[source]
                for i in groups[source]:
                    assigned = base_assignment(i, source)
                    bound_target = target_at(i, assigned)
                    if bound_target is not ABSENT:
                        walk = walks.get(bound_target)
                        if walk is not None:
                            emit(i, self._walk_assignment(i, assigned, walk, value_at))
                    else:
                        for target in sorted(walks, key=str):
                            extended = {**assigned, to_var: target}
                            emit(i, self._walk_assignment(i, extended, walks[target], value_at))
        else:
            # k SHORTEST: hoist the target enumeration and the per-target
            # k-walk scans out of the row loop — every row of a source
            # group sees the same walks, so each search runs once per
            # (source, target) instead of once per row.
            for source in sources:
                shared_targets: Optional[List[Any]] = None
                walks_cache: Dict[Any, List[Walk]] = {}
                for i in groups[source]:
                    assigned = base_assignment(i, source)
                    bound_target = target_at(i, assigned)
                    if bound_target is not ABSENT:
                        targets = [bound_target]
                    elif shared_targets is not None:
                        targets = shared_targets
                    else:
                        shared_targets = sorted(finder.conforming_targets(source), key=str)
                        targets = shared_targets
                    for target in targets:
                        walks = walks_cache.get(target)
                        if walks is None:
                            walks = finder.k_shortest(source, target, pattern.count)
                            walks_cache[target] = walks
                        for walk in walks:
                            extended = dict(assigned)
                            if bound_target is ABSENT:
                                extended[to_var] = target
                            emit(i, self._walk_assignment(i, extended, walk, value_at))
        columns = tuple(table.columns) + tuple(self.binds())
        return _assemble(table, columns, names, out_index, out_cols)

    def _walk_assignment(
        self, index: int, assigned: Dict[str, Any], walk: Walk, value_at
    ) -> Dict[str, Any]:
        """Columnar mirror of :meth:`_bind_walk`'s bind-if-absent rules."""
        pattern = self.pattern
        if pattern.var and pattern.var not in assigned:
            if value_at(pattern.var, index) is ABSENT:
                assigned[pattern.var] = walk
        if pattern.cost_var and pattern.cost_var not in assigned:
            if value_at(pattern.cost_var, index) is ABSENT:
                assigned[pattern.cost_var] = _coerce_cost(walk.cost)
        return assigned


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _coerce_cost(cost: float) -> Any:
    """Integral walk costs bind as ints (hop counts print as 2, not 2.0)."""
    if isinstance(cost, float) and cost.is_integer():
        return int(cost)
    return cost


def _property_tests_pass(
    graph: PathPropertyGraph,
    obj: ObjectId,
    tests: Tuple[Tuple[str, ast.Expr], ...],
    ev: ExpressionEvaluator,
    row: Binding,
) -> bool:
    for key, expr in tests:
        expected = ev.evaluate(expr, row)
        actual = graph.property(obj, key)
        if not (gcore_equals(actual, expected) or
                (not isinstance(expected, frozenset) and expected in actual)):
            return False
    return True


def _unroll_property_binds(
    graph: PathPropertyGraph,
    obj: ObjectId,
    binds: Tuple[Tuple[str, str], ...],
    row: Binding,
) -> List[Binding]:
    """Unroll multi-valued properties into per-value bindings (Section 3)."""
    rows = [row]
    for key, bind_var in binds:
        values = graph.property(obj, key)
        next_rows: List[Binding] = []
        for current in rows:
            if bind_var in current:
                if current[bind_var] in values:
                    next_rows.append(current)
            else:
                for value in sorted(values, key=lambda v: (str(type(v)), str(v))):
                    next_rows.append(current.extend(bind_var, value))
        rows = next_rows
        if not rows:
            break
    return rows


# ---------------------------------------------------------------------------
# Chain decomposition
# ---------------------------------------------------------------------------

class _AnonNamer:
    def __init__(self) -> None:
        self._counter = itertools.count()

    def fresh(self) -> str:
        return f"{ANON_PREFIX}{next(self._counter)}"


def decompose_chain(
    chain: ast.Chain,
    namer: _AnonNamer,
    name_anonymous_edges: bool = False,
) -> List[object]:
    """Split a chain into Node/Edge/Path atoms with resolved endpoints."""
    atoms: List[object] = []
    node_vars: List[str] = []
    for element in chain.nodes():
        var = element.var or namer.fresh()
        node_vars.append(var)
        atoms.append(NodeAtom(element, var))
    for index, connector in enumerate(chain.connectors()):
        src_var = node_vars[index]
        dst_var = node_vars[index + 1]
        if isinstance(connector, ast.EdgePattern):
            var = connector.var
            if var is None and name_anonymous_edges:
                var = namer.fresh()
            atoms.append(EdgeAtom(connector, src_var, dst_var, var))
        elif isinstance(connector, ast.PathPatternElem):
            atoms.append(PathAtom(connector, src_var, dst_var))
        else:  # pragma: no cover - parser guarantees the alternation
            raise SemanticError(f"unexpected chain element: {connector!r}")
    return atoms


# ---------------------------------------------------------------------------
# Block and clause evaluation
# ---------------------------------------------------------------------------

def _resolve_location(
    location: ast.PatternLocation,
    ctx: EvalContext,
    block_default: Optional[PathPropertyGraph] = None,
) -> PathPropertyGraph:
    if location.on is None:
        if block_default is not None:
            return block_default
        if ctx.current_graph is not None:
            return ctx.current_graph
        return ctx.default_graph()
    if isinstance(location.on, str):
        return ctx.resolve_graph(location.on)
    from .query import evaluate_query  # local import: cycle

    sub_ctx = ctx.child()
    sub_ctx.scope = None  # ON subqueries are not correlated
    result = evaluate_query(location.on, sub_ctx)
    if not isinstance(result, PathPropertyGraph):
        raise EvaluationError("ON (subquery) must produce a graph")
    return result


def _block_default_graph(
    block: ast.MatchBlock, ctx: EvalContext
) -> Optional[PathPropertyGraph]:
    """The graph ON-less patterns of *block* fall back to.

    The paper writes ``MATCH p1, p2 ON g`` with the trailing ON scoping
    the whole pattern list (final query of Section 3), so patterns
    without their own ON inherit the block's first specified location.
    """
    for location in block.patterns:
        if location.on is not None:
            return _resolve_location(location, ctx)
    return None


def _location_plan(
    atoms: List[object],
    location: ast.PatternLocation,
    where: Optional[ast.Expr],
    table: BindingTable,
    bound_by_atoms: FrozenSet[str],
    graph: PathPropertyGraph,
    ctx: EvalContext,
) -> LocationPlan:
    """Plan a pattern location, consulting the prepared-query plan cache.

    Plans are memoized per (pattern site, bound columns, graph): the
    site fixes the block, its WHERE and its earlier locations, so a
    cached plan (atoms included: anonymous names are numbered in block
    order) is the plan this execution would make.
    """
    columns = tuple(table.columns)
    cache = ctx.plan_cache
    if cache is not None:
        plan = cache.lookup(location, columns, graph)
        if plan is not None:
            return plan
    plan = plan_location(
        atoms, where, ctx.params, columns, bound_by_atoms, graph, ctx.config
    )
    if cache is not None:
        cache.store(location, columns, graph, plan)
    return plan


def _apply_conjuncts(
    conjuncts: Sequence[ast.Expr],
    table: BindingTable,
    ctx: EvalContext,
    compiler: Optional[ExpressionCompiler],
    ev: ExpressionEvaluator,
) -> BindingTable:
    """Filter *table* by a conjunction of WHERE conjuncts.

    Conjuncts apply in order over a narrowing row-index set (the batched
    mirror of the oracle's short-circuiting AND). With a *compiler* each
    conjunct runs as one compiled kernel sharing a
    :class:`~repro.eval.kernels.KernelContext` (property/label lookups
    memoize across the whole conjunction); without one (the
    interpreted-expressions ablation) each row goes through the oracle,
    conjunct by conjunct, exactly as it evaluates their AND.
    """
    if not conjuncts or not table:
        return table
    if compiler is not None:
        from .parallel import parallel_filter

        rows = parallel_filter(conjuncts, table, ctx)
        if rows is None:
            rows = compiled_filter_rows(table, ctx, conjuncts, compiler)
    else:
        views = table.rows
        rows = [
            i
            for i in range(len(table))
            if all(ev.evaluate_predicate(c, views[i]) for c in conjuncts)
        ]
    if len(rows) == len(table):
        return table
    return table.select_rows(rows)


def _probe_filter(
    var: str,
    conjuncts: Sequence[ast.Expr],
    ctx: EvalContext,
    compiler: Optional[ExpressionCompiler],
    ev: ExpressionEvaluator,
) -> Callable[[List[Any]], Set[Any]]:
    """The batch filter of a probe's pushed conjuncts over *var*.

    Takes an atom's distinct candidate objects for *var* and returns
    the admitted ones: the candidates become a one-column table that
    goes through :func:`_apply_conjuncts` — the block's own WHERE
    filter, compiled or interpreted — in one call.
    """

    def admit(candidates: List[Any]) -> Set[Any]:
        if not candidates:
            return set()
        table = BindingTable.from_columns(
            (var,), (var,), {var: candidates}, len(candidates), dedup=False
        )
        kept = _apply_conjuncts(conjuncts, table, ctx, compiler, ev)
        return set(kept.column_values(var) or ())

    return admit


def run_atom_sequence(
    steps: Sequence[PlanStep],
    table: BindingTable,
    graph: PathPropertyGraph,
    ctx: EvalContext,
    ev: ExpressionEvaluator,
    compiler: Optional[ExpressionCompiler],
) -> BindingTable:
    """Run planned steps of one block location against *table*.

    The shared inner loop of block evaluation: each step's probe
    conjuncts filter its atom's candidates in one batch per variable
    (:func:`_probe_filter`), the atom expands on the configured
    executor, then the step's post conjuncts filter the table. The
    steps are read, never changed: morsel workers
    (:mod:`repro.eval.parallel`) run exactly this function over their
    row ranges with the same steps, which is what makes parallel block
    tails bit-identical to serial evaluation.
    """
    columnar = ctx.config.executor == "columnar"
    for step in steps:
        atom = step.atom
        if isinstance(atom, PathAtom):
            # The path engine is its own config axis.
            if ctx.config.paths == "batched":
                table = atom.extend_columnar(table, graph, ev, ctx)
            else:
                table = atom.extend(table, graph, ev, ctx)
        elif columnar:
            probe = {
                var: _probe_filter(var, exprs, ctx, compiler, ev)
                for var, exprs in step.probe
            }
            table = atom.extend_columnar(
                table, graph, ev, probe_filters=probe or None
            )
        else:
            table = atom.extend(table, graph, ev)
        if step.post and table:
            table = _apply_conjuncts(step.post, table, ctx, compiler, ev)
        if not table:
            break
    return table


def finish_block_where(
    table: BindingTable,
    plan: LocationPlan,
    ctx: EvalContext,
    compiler: Optional[ExpressionCompiler],
    ev: ExpressionEvaluator,
) -> BindingTable:
    """Apply the block-end residual WHERE of the block's last location."""
    return _apply_conjuncts(plan.residual, table, ctx, compiler, ev)


def evaluate_block(
    block: ast.MatchBlock,
    ctx: EvalContext,
    seed: Optional[BindingTable] = None,
    keep_anonymous: bool = False,
    name_anonymous_edges: bool = False,
) -> BindingTable:
    """Evaluate one pattern block (the MATCH body or an OPTIONAL block).

    Each location is planned when execution reaches it, against the
    columns the table really has; an empty table ends the block before
    later locations (and their ``ON (subquery)`` graphs) are evaluated.
    """
    from .parallel import MIN_PARALLEL_ROWS, parallel_block_tail

    table = seed if seed is not None else BindingTable.unit()
    namer = _AnonNamer()
    ev = ExpressionEvaluator(ctx)
    primary_graph: Optional[PathPropertyGraph] = None
    block_default = _block_default_graph(block, ctx)
    vectorized = ctx.config.expressions == "vectorized"
    compiler = ExpressionCompiler(ctx) if vectorized else None
    # Name resolution is eager for the whole block. Whether a given atom
    # (or a whole later pattern) ever executes depends on the data and
    # the planner's atom order — an empty binding table short-circuits
    # the rest of the block — but an unknown ON graph or path view must
    # raise at every ExecutionConfig lattice point, matching the static
    # analyzer's GC101/GC105 verdicts.
    for location in block.patterns:
        if isinstance(location.on, str):
            ctx.resolve_graph(location.on)
        for element in location.chain.elements:
            if (
                isinstance(element, ast.PathPatternElem)
                and element.regex is not None
            ):
                for view_name in sorted(regex_view_names(element.regex)):
                    ctx.require_path_view(view_name)
    # Morsel dispatch rides on single-location columnar blocks: atoms run
    # serially until the binding table is wide enough to split, then the
    # remaining steps and the residual WHERE move to the worker pool.
    try_parallel = (
        not ctx.config.serial
        and ctx.config.executor == "columnar"
        and len(block.patterns) == 1
    )
    bound_by_atoms: FrozenSet[str] = frozenset()
    plan: Optional[LocationPlan] = None
    where_done = False
    for location in block.patterns:
        graph = _resolve_location(location, ctx, block_default)
        if primary_graph is None:
            primary_graph = graph
            ctx.current_graph = graph
        ctx.touch_graph(graph)
        atoms = decompose_chain(location.chain, namer, name_anonymous_edges)
        plan = _location_plan(
            atoms, location, block.where, table, bound_by_atoms, graph, ctx
        )
        if try_parallel:
            for index in range(len(plan.steps)):
                if len(table) >= MIN_PARALLEL_ROWS:
                    dispatched = parallel_block_tail(
                        plan, index, table, graph, ctx
                    )
                    if dispatched is not None:
                        table = dispatched
                        where_done = True
                        break
                table = run_atom_sequence(
                    plan.steps[index : index + 1], table, graph, ctx, ev,
                    compiler,
                )
                if not table:
                    break
        else:
            table = run_atom_sequence(
                plan.steps, table, graph, ctx, ev, compiler
            )
        if not table:
            break
        bound_by_atoms = bound_by_atoms.union(
            *(step.atom.binds() for step in plan.steps)
        )
    if plan is not None and not where_done:
        table = finish_block_where(table, plan, ctx, compiler, ev)
    if not keep_anonymous:
        hidden = [c for c in table.columns if c.startswith(ANON_PREFIX)]
        if hidden:
            table = table.drop(hidden)
    return table


def evaluate_match(
    match: Optional[ast.MatchClause],
    ctx: EvalContext,
    seed: Optional[BindingTable] = None,
) -> BindingTable:
    """Evaluate a full MATCH clause: main block then OPTIONAL blocks (A.2).

    The caller has already enforced the Section 3 restrictions with
    :func:`repro.analysis.check_match` (once per clause).
    """
    if match is None:
        return seed if seed is not None else BindingTable.unit()
    table = evaluate_block(match.block, ctx, seed)
    for optional in match.optionals:
        extended = evaluate_block(optional, ctx, seed=table)
        table = table_left_join(table, extended)
    return table


def match_rows_touching(
    block: ast.MatchBlock,
    ctx: EvalContext,
    node_vars: Iterable[str],
    touched_nodes: Iterable[ObjectId],
) -> BindingTable:
    """The binding rows of *block* that bind a touched node — the
    join-delta primitive of incremental view maintenance.

    For each node variable the block is re-evaluated *seeded* with that
    variable pre-bound to every touched node: the planner sees the
    variable as bound, so the evaluation hash-joins outward from the
    touched objects instead of scanning the graph, and the result is
    exactly the selection sigma_{var in touched}(Omega). The union over
    all node variables (deduplicated — binding tables are sets) is every
    row of the full binding table that binds at least one touched node.
    For delta-eligible blocks (every chain node named, no path atoms;
    see :mod:`repro.eval.maintenance`) this is precisely the set of rows
    a graph delta with the given touched-node closure can have added or
    removed, at a cost proportional to the delta instead of the graph.
    """
    from ..algebra.ops import table_union  # local import: cycle via ops

    seeds = _sorted_ids(touched_nodes)
    result: Optional[BindingTable] = None
    for var in dict.fromkeys(node_vars):
        seed = BindingTable((var,), [Binding({var: node}) for node in seeds])
        table = evaluate_block(block, ctx, seed=seed)
        result = table if result is None else table_union(result, table)
    return result if result is not None else BindingTable.unit()


def chain_matches(chain: ast.Chain, ctx: EvalContext, row: Binding) -> bool:
    """Does *chain* match, given the bindings of *row*? (WHERE predicates.)"""
    variables = set()
    for element in chain.elements:
        var = getattr(element, "var", None)
        if var:
            variables.add(var)
    seed_row = row.project([v for v in variables if v in row])
    seed = BindingTable(tuple(seed_row.domain), [seed_row])
    block = ast.MatchBlock((ast.PatternLocation(chain, None),), None)
    # The block above is rebuilt per row; don't churn the prepared-query
    # plan cache with throwaway pattern sites.
    saved_cache, ctx.plan_cache = ctx.plan_cache, None
    try:
        return bool(evaluate_block(block, ctx, seed=seed))
    finally:
        ctx.plan_cache = saved_cache
