"""The semantic analyzer: one AST walk orchestrating all passes.

:func:`analyze` accepts query text or an already-parsed statement plus
an optional catalog (a :class:`~repro.catalog.Catalog` or a
:class:`~repro.catalog.CatalogSnapshot`) and returns an
:class:`~repro.analysis.diagnostics.AnalysisResult`. Analysis never
raises on a bad query — even unparseable text comes back as a ``GC001``
diagnostic — and never executes anything: it is a pure function of the
statement, the catalog metadata and the statistics of registered
graphs. In particular it is **config-independent**: the same statement
yields the same diagnostics under every
:class:`~repro.config.ExecutionConfig`.

:func:`check_match` is the runtime's gate: the same scope passes over
one MATCH clause, raising on the first GC201–GC203 finding.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..errors import GCoreError, LexerError, ParseError, SemanticError
from ..lang import ast
from ..lang.lexer import tokenize
from ..lang.parser import Parser
from ..model.values import Date, Scalar
from .cost import check_cartesian, check_unbounded_paths
from .diagnostics import CODES, AnalysisResult, Diagnostic
from .satisfiability import check_satisfiability
from .schema_checks import GraphFacts, check_chain_names, facts_for_graph
from .scopes import (
    Scope,
    check_all_paths_uses,
    collect_chain_sorts,
    collect_construct_sorts,
    collect_match_scope,
)
from .spans import SpanIndex
from .types import check_condition, infer_type

__all__ = ["Analyzer", "analyze", "check_match"]

#: A pattern's resolution target when ``ON (subquery)`` makes the graph
#: statically unknown — suppresses schema checks for its variables.
_UNKNOWN = object()


class Analyzer:
    """One analysis run: diagnostic accumulator plus resolution state."""

    def __init__(
        self, catalog: Any = None, spans: Optional[SpanIndex] = None
    ) -> None:
        self.catalog = catalog
        self.spans = spans or SpanIndex()
        self.diagnostics: List[Diagnostic] = []
        #: graph names bound by query-local ``GRAPH g AS (...)`` heads
        self.local_graphs: Set[str] = set()
        #: path-view names bound by query-local ``PATH p = ...`` heads
        self.local_path_views: Set[str] = set()
        #: graph name (None = default) -> GraphFacts or None
        self.graph_facts_cache: Dict[Optional[str], Optional[GraphFacts]] = {}
        #: stack of var -> GraphFacts | None | _UNKNOWN frames
        self._frames: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Diagnostic emission
    # ------------------------------------------------------------------
    def emit(
        self,
        code: str,
        message: str,
        anchor: Optional[str] = None,
        hint: Optional[str] = None,
        severity: Optional[str] = None,
    ) -> None:
        """Record one finding, anchored at *anchor*'s first occurrence."""
        span = self.spans.first(anchor)
        self.diagnostics.append(
            Diagnostic(
                code=code,
                severity=severity or CODES[code].severity,
                message=message,
                line=span[0] if span else None,
                column=span[1] if span else None,
                hint=hint,
            )
        )

    def result(self) -> AnalysisResult:
        return AnalysisResult(self.diagnostics)

    # ------------------------------------------------------------------
    # Resolution hooks used by the pass modules
    # ------------------------------------------------------------------
    def _facts_of_var(self, name: str) -> Optional[GraphFacts]:
        for frame in reversed(self._frames):
            if name in frame:
                facts = frame[name]
                return facts if isinstance(facts, GraphFacts) else None
        return None

    def note_property(self, scope: Scope, expr: ast.Prop) -> None:
        """GC104 for ``var.key`` reads against the variable's graph."""
        if not isinstance(expr.base, ast.Var):
            return
        facts = self._facts_of_var(expr.base.name)
        if facts is not None and expr.key not in facts.known_keys:
            self.emit(
                "GC104",
                f"no object of the target graph carries property "
                f"{expr.key!r}",
                anchor=expr.key,
                hint="check the key against the graph's property map",
            )

    def note_label_test(self, scope: Scope, expr: ast.LabelTest) -> None:
        """GC103/GC302 for ``var:A|B`` tests against the variable's graph."""
        facts = self._facts_of_var(expr.var)
        if facts is None:
            return
        for label in expr.labels:
            if label not in facts.known_labels:
                self.emit(
                    "GC103",
                    f"label {label!r} does not occur in the target graph "
                    f"(or its schema)",
                    anchor=label,
                    hint="check the spelling against the graph's labels",
                )
            elif label not in facts.data_labels:
                self.emit(
                    "GC302",
                    f"label {label!r} is declared by the schema but "
                    f"matches zero objects",
                    anchor=label,
                )

    def note_chain(self, scope: Scope, chain: ast.Chain) -> None:
        """Name checks for an inline EXISTS pattern (default graph)."""
        facts = facts_for_graph(self, None)
        check_chain_names(self, facts, chain)

    def property_domain(
        self, scope: Scope, var: str, key: str
    ) -> Optional[frozenset]:
        """The known value domain of ``var.key``, or None when unknown.

        Unknown *keys* return None too: GC104 already covers them, and a
        domain-based GC301 on top would be double-reporting.
        """
        facts = self._facts_of_var(var)
        if facts is None or key not in facts.known_keys:
            return None
        return facts.domain(key)

    def check_path_view(self, name: str) -> None:
        """GC105 unless *name* is a registered or query-local PATH view."""
        if name in self.local_path_views or self.catalog is None:
            return
        try:
            known = self.catalog.path_view(name) is not None
        except GCoreError:
            known = True  # resolution failure is not the query's fault
        if not known:
            self.emit(
                "GC105",
                f"path view {name!r} is not defined",
                anchor=name,
                hint="define it with a PATH clause or register it as a "
                "PATH view",
            )

    def check_graph_name(self, name: str) -> None:
        """GC101 unless *name* is a registered or query-local graph."""
        if name in self.local_graphs or self.catalog is None:
            return
        if not self.catalog.has_graph(name):
            self.emit(
                "GC101",
                f"graph {name!r} is not in the catalog",
                anchor=name,
                hint="register the graph or check the spelling",
            )

    # ------------------------------------------------------------------
    # Statement walk
    # ------------------------------------------------------------------
    def analyze_statement(self, statement: ast.Statement) -> None:
        if isinstance(statement, ast.GraphViewStmt):
            self.analyze_query(statement.query, None)
        else:
            self.analyze_query(statement, None)

    def analyze_query(self, query: ast.Query, outer: Optional[Scope]) -> None:
        # Heads bind names progressively: a PATH clause may reference
        # earlier PATH views, the body sees all of them.
        saved_graphs = set(self.local_graphs)
        saved_views = set(self.local_path_views)
        for head in query.heads:
            if isinstance(head, ast.PathClause):
                self._analyze_path_clause(head, outer)
                self.local_path_views.add(head.name)
            else:  # GraphClause
                self.analyze_query(head.query, outer)
                self.local_graphs.add(head.name)
        self._analyze_body(query.body, outer)
        self.local_graphs = saved_graphs
        self.local_path_views = saved_views

    def analyze_subquery(self, query: ast.Query, scope: Scope) -> None:
        """Hook for EXISTS (subquery) — correlated against *scope*."""
        self.analyze_query(query, scope)

    def _analyze_body(
        self, body: ast.QueryBody, outer: Optional[Scope]
    ) -> None:
        if isinstance(body, ast.GraphRefQuery):
            self.check_graph_name(body.name)
        elif isinstance(body, ast.SetOpQuery):
            self._analyze_body(body.left, outer)
            self._analyze_body(body.right, outer)
        else:
            self._analyze_basic(body, outer)

    def _analyze_path_clause(
        self, clause: ast.PathClause, outer: Optional[Scope]
    ) -> None:
        scope = Scope(outer)
        frame: Dict[str, object] = {}
        self._frames.append(frame)
        try:
            facts = facts_for_graph(self, None)
            for chain in clause.chains:
                collect_chain_sorts(self, scope, chain)
                check_chain_names(self, facts, chain)
                self._register_chain_vars(frame, chain, facts)
            check_condition(self, scope, clause.where, clause="WHERE")
            check_satisfiability(
                self, scope, clause.where,
                self._pattern_facts(clause.chains),
            )
            if clause.cost is not None:
                cost_type = infer_type(self, scope, clause.cost)
                if cost_type is not None and cost_type != "num":
                    self.emit(
                        "GC205",
                        f"COST expression has type {cost_type}, "
                        f"not numeric",
                    )
        finally:
            self._frames.pop()

    def _analyze_basic(
        self, basic: ast.BasicQuery, outer: Optional[Scope]
    ) -> None:
        frame: Dict[str, object] = {}
        self._frames.append(frame)
        try:
            scope = self._scope_for_basic(basic, outer, frame)
            if isinstance(basic.head, ast.ConstructClause):
                self._analyze_construct(basic.head, scope)
            else:
                self._analyze_select(basic.head, scope)
        finally:
            self._frames.pop()

    def _scope_for_basic(
        self,
        basic: ast.BasicQuery,
        outer: Optional[Scope],
        frame: Dict[str, object],
    ) -> Scope:
        if basic.from_table is not None:
            scope = Scope(outer)
            self._bind_table_columns(scope, basic.from_table)
            return scope

        scope = collect_match_scope(self, basic.match, outer)
        if basic.match is None:
            return scope
        blocks = (basic.match.block, *basic.match.optionals)
        for block in blocks:
            for location in block.patterns:
                facts = self._resolve_location(location, frame)
                check_chain_names(
                    self,
                    facts if isinstance(facts, GraphFacts) else None,
                    location.chain,
                )
                check_unbounded_paths(self, scope, location.chain)
            check_cartesian(self, block)
        for block in blocks:
            check_condition(self, scope, block.where, clause="WHERE")
            check_satisfiability(
                self,
                scope,
                block.where,
                self._pattern_facts(
                    location.chain for location in block.patterns
                ),
            )
        return scope

    def _resolve_location(
        self, location: ast.PatternLocation, frame: Dict[str, object]
    ) -> object:
        """The GraphFacts (or _UNKNOWN) a pattern's variables live in."""
        if isinstance(location.on, ast.Query):
            self.analyze_query(location.on, None)
            facts: object = _UNKNOWN
        elif isinstance(location.on, str):
            self.check_graph_name(location.on)
            facts = facts_for_graph(self, location.on)
        else:
            facts = facts_for_graph(self, None)
        self._register_chain_vars(frame, location.chain, facts)
        return facts

    def _register_chain_vars(
        self, frame: Dict[str, object], chain: ast.Chain, facts: object
    ) -> None:
        for element in chain.elements:
            var = getattr(element, "var", None)
            if var and var not in frame:
                frame[var] = facts

    def _bind_table_columns(self, scope: Scope, table_name: str) -> None:
        """FROM import: bind column names when the catalog knows them."""
        if self.catalog is None:
            scope.open = True
            return
        try:
            table = self.catalog.table(table_name)
        except GCoreError:
            self.emit(
                "GC102",
                f"table {table_name!r} is not in the catalog",
                anchor=table_name,
                hint="register the table or check the spelling",
            )
            scope.open = True
            return
        for column in table.columns:
            scope.sorts.setdefault(column, "value")

    @staticmethod
    def _pattern_facts(
        chains: Iterable[ast.Chain],
    ) -> List[Tuple[str, str, Scalar]]:
        """``(var, key, literal)`` equalities implied by property tests."""
        facts: List[Tuple[str, str, Scalar]] = []
        for chain in chains:
            for element in chain.elements:
                var = getattr(element, "var", None)
                if not var:
                    continue
                for key, expr in getattr(element, "prop_tests", ()):
                    if isinstance(expr, ast.Literal) and isinstance(
                        expr.value, (bool, int, float, str, Date)
                    ):
                        facts.append((var, key, expr.value))
        return facts

    # ------------------------------------------------------------------
    # Heads
    # ------------------------------------------------------------------
    def _analyze_construct(
        self, construct: ast.ConstructClause, scope: Scope
    ) -> None:
        collect_construct_sorts(self, scope, construct)
        facts = facts_for_graph(self, None)
        for item in construct.items:
            if isinstance(item, ast.GraphRefItem):
                self.check_graph_name(item.name)
                continue
            check_chain_names(self, facts, item.chain, construct=True)
            check_condition(self, scope, item.when, clause="WHEN")
            for assign in item.sets:
                if assign.expr is not None:
                    infer_type(
                        self, scope, assign.expr, allow_aggregates=True
                    )
            for element in item.chain.elements:
                for _key, expr in getattr(element, "assignments", ()):
                    infer_type(self, scope, expr, allow_aggregates=True)
                group = getattr(element, "group", None)
                for expr in group or ():
                    infer_type(self, scope, expr)

    def _analyze_select(self, select: ast.SelectClause, scope: Scope) -> None:
        for item in select.items:
            infer_type(self, scope, item.expr, allow_aggregates=True)
        for expr in select.group_by:
            infer_type(self, scope, expr)
        for expr, _ascending in select.order_by:
            infer_type(self, scope, expr, allow_aggregates=True)


def analyze(
    statement: Union[str, ast.Statement],
    catalog: Any = None,
) -> AnalysisResult:
    """Statically analyze *statement*, returning every diagnostic found.

    *statement* may be query text (diagnostics then carry source spans,
    and unparseable text yields a single ``GC001``) or a parsed
    :data:`~repro.lang.ast.Statement` (span-less diagnostics).
    *catalog* may be a :class:`~repro.catalog.Catalog`, a
    :class:`~repro.catalog.CatalogSnapshot`, or None to skip the
    catalog/schema/statistics checks.
    """
    spans: Optional[SpanIndex] = None
    if isinstance(statement, str):
        try:
            tokens = tokenize(statement)
            spans = SpanIndex(tokens)
            parser = Parser(tokens)
            parsed: ast.Statement = parser.statement()
            parser.expect_eof()
        except (LexerError, ParseError) as exc:
            line = getattr(exc, "line", 0) or None
            column = getattr(exc, "column", 0) or None
            return AnalysisResult(
                [
                    Diagnostic(
                        code="GC001",
                        severity="error",
                        message=str(exc),
                        line=line,
                        column=column,
                    )
                ]
            )
        statement = parsed
    analyzer = Analyzer(catalog=catalog, spans=spans)
    analyzer.analyze_statement(statement)
    return analyzer.result()


def check_match(
    match: ast.MatchClause, outer: Optional[Scope] = None
) -> Scope:
    """Enforce the Section 3 MATCH restrictions before evaluation.

    Runs the analyzer's sort inference and OPTIONAL rule
    (:func:`~repro.analysis.scopes.collect_match_scope`, GC201/GC203)
    and its ALL-paths rule over each block's WHERE (GC202), and raises
    :class:`~repro.errors.SemanticError` with the first finding's
    message. *outer* is the scope of the enclosing query of a
    correlated subquery: a variable reused there at another sort
    clashes just as it does in :func:`analyze`. Returns the clause's
    scope (its ``sorts`` are the variables the clause declares).
    """
    analyzer = Analyzer()
    scope = collect_match_scope(analyzer, match, outer)
    for block in (match.block, *match.optionals):
        check_all_paths_uses(analyzer, scope, block.where)
    if analyzer.diagnostics:
        raise SemanticError(analyzer.diagnostics[0].message)
    return scope
