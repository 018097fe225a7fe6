"""Pass 1 — variable scopes and sorts over full queries.

Infers variable sorts at every variable-binding position of a
statement — MATCH blocks (including OPTIONAL), CONSTRUCT bodies, EXISTS
patterns, PATH-clause chains and FROM table imports — and reports
violations of the paper's static restrictions as
:class:`~repro.analysis.diagnostics.Diagnostic` values:

* ``GC201 sort-clash`` — a variable occupies positions of two sorts
  ("it would be illegal to use n (a node) in the place of y (an edge)",
  Section 3);
* ``GC202 all-paths-projection`` — an ``ALL``-paths variable escapes
  graph projection into a WHERE/WHEN condition (Section 3);
* ``GC203 optional-shared-variable`` — OPTIONAL blocks share a variable
  absent from the enclosing pattern (Section 3, citing Pérez et al.).

These are the only implementation of the Section 3 MATCH restrictions:
the runtime raises from the same passes
(:func:`repro.analysis.analyzer.check_match`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, TYPE_CHECKING

from ..lang import ast

if TYPE_CHECKING:  # pragma: no cover
    from .analyzer import Analyzer

__all__ = [
    "Scope",
    "collect_chain_sorts",
    "collect_match_scope",
    "collect_construct_sorts",
    "check_all_paths_uses",
    "check_optional_restriction",
]

#: variable name -> 'node' | 'edge' | 'path' | 'value'
Sorts = Dict[str, str]


class Scope:
    """The variables visible inside one basic query.

    ``sorts`` covers every declared variable; ``all_path_vars`` are the
    ALL-mode path variables (legal only in graph-projection positions);
    ``outer`` names variables inherited from an enclosing query
    (correlated EXISTS subqueries see their parent's bindings).
    """

    def __init__(self, outer: Optional["Scope"] = None) -> None:
        self.sorts: Sorts = {}
        self.all_path_vars: Set[str] = set()
        self.outer = outer
        #: True when the scope may bind names the analyzer cannot see
        #: (e.g. a FROM import of a table whose columns are unknown);
        #: suppresses GC204 unbound-variable findings.
        self.open = False

    # ------------------------------------------------------------------
    def sort_of(self, name: str) -> Optional[str]:
        """The sort of *name*, searching enclosing scopes."""
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.sorts:
                return scope.sorts[name]
            scope = scope.outer
        return None

    def is_bound(self, name: str) -> bool:
        return self.sort_of(name) is not None

    def is_open(self) -> bool:
        scope: Optional[Scope] = self
        while scope is not None:
            if scope.open:
                return True
            scope = scope.outer
        return False

    def all_paths_names(self) -> FrozenSet[str]:
        """The ALL-paths variables visible here, enclosing scopes included."""
        names: Set[str] = set()
        scope: Optional[Scope] = self
        while scope is not None:
            names |= scope.all_path_vars
            scope = scope.outer
        return frozenset(names)

    def bound_names(self) -> FrozenSet[str]:
        names: Set[str] = set()
        scope: Optional[Scope] = self
        while scope is not None:
            names |= set(scope.sorts)
            scope = scope.outer
        return frozenset(names)


def _assign(ctx: "Analyzer", scope: Scope, name: Optional[str], sort: str) -> None:
    """Record *name* at *sort*, emitting GC201 on a clash.

    Clashes against an *enclosing* scope count too: a correlated
    subquery reusing an outer node variable as an edge is exactly the
    Section 3 illegality.
    """
    if not name:
        return
    existing = scope.sort_of(name)
    if existing is not None and existing != sort:
        ctx.emit(
            "GC201",
            f"variable {name!r} is used both as {existing} and as {sort}",
            anchor=name,
            hint=f"rename one of the {name!r} occurrences",
        )
        return
    scope.sorts[name] = sort


def collect_chain_sorts(ctx: "Analyzer", scope: Scope, chain: ast.Chain) -> None:
    """Fold one pattern chain's declarations into *scope*."""
    for element in chain.elements:
        if isinstance(element, ast.NodePattern):
            _assign(ctx, scope, element.var, "node")
            for _key, bind_var in element.prop_binds:
                _assign(ctx, scope, bind_var, "value")
        elif isinstance(element, ast.EdgePattern):
            _assign(ctx, scope, element.var, "edge")
            for _key, bind_var in element.prop_binds:
                _assign(ctx, scope, bind_var, "value")
        elif isinstance(element, ast.PathPatternElem):
            _assign(ctx, scope, element.var, "path")
            _assign(ctx, scope, element.cost_var, "value")
            if element.var and element.mode == "all":
                scope.all_path_vars.add(element.var)


def collect_match_scope(
    ctx: "Analyzer", match: Optional[ast.MatchClause], outer: Optional[Scope] = None
) -> Scope:
    """The scope declared by a MATCH clause (all blocks), with checks."""
    scope = Scope(outer)
    if match is None:
        return scope
    for block in (match.block, *match.optionals):
        for location in block.patterns:
            collect_chain_sorts(ctx, scope, location.chain)
    check_optional_restriction(ctx, match)
    return scope


def collect_construct_sorts(
    ctx: "Analyzer", scope: Scope, construct: ast.ConstructClause
) -> None:
    """Fold CONSTRUCT pattern declarations into *scope*.

    Construct variables unbound by the MATCH introduce fresh objects
    (one per group) — legal; what this pass catches is a *bound*
    variable re-used at a different sort (``MATCH (n)-[e]->(m)
    CONSTRUCT (e)`` uses an edge as a node).
    """
    for item in construct.items:
        if isinstance(item, ast.GraphRefItem):
            continue
        collect_chain_sorts(ctx, scope, item.chain)


def _condition_variables(expr: Optional[ast.Expr], out: List[str]) -> None:
    """Variable uses in *expr*, in evaluation order, into *out*.

    A pattern predicate's variables are uses: it is correlated with the
    enclosing bindings. EXISTS subqueries are skipped; their conditions
    are checked against their own scope.
    """
    if expr is None:
        return
    if isinstance(expr, ast.Var):
        out.append(expr.name)
    elif isinstance(expr, ast.LabelTest):
        out.append(expr.var)
    elif isinstance(expr, ast.Prop):
        _condition_variables(expr.base, out)
    elif isinstance(expr, ast.Unary):
        _condition_variables(expr.operand, out)
    elif isinstance(expr, ast.Binary):
        _condition_variables(expr.left, out)
        _condition_variables(expr.right, out)
    elif isinstance(expr, ast.FuncCall):
        for arg in expr.args:
            _condition_variables(arg, out)
    elif isinstance(expr, ast.ListLiteral):
        for item in expr.items:
            _condition_variables(item, out)
    elif isinstance(expr, ast.CaseExpr):
        for condition, value in expr.whens:
            _condition_variables(condition, out)
            _condition_variables(value, out)
        _condition_variables(expr.default, out)
    elif isinstance(expr, ast.Index):
        _condition_variables(expr.base, out)
        _condition_variables(expr.index, out)
    elif isinstance(expr, ast.ExistsPattern):
        out.extend(e.var for e in expr.chain.elements if getattr(e, "var", None))


def check_all_paths_uses(
    ctx: "Analyzer", scope: Scope, expr: Optional[ast.Expr]
) -> None:
    """GC202: each use of an ALL-paths variable in a condition."""
    all_paths = scope.all_paths_names()
    if not all_paths:
        return
    uses: List[str] = []
    _condition_variables(expr, uses)
    for name in uses:
        if name in all_paths:
            ctx.emit(
                "GC202",
                f"ALL-paths variable {name!r} may only be used for "
                f"graph projection",
                anchor=name,
                hint="use a SHORTEST path or move the use into CONSTRUCT",
            )


def _chain_variables(chain: ast.Chain) -> FrozenSet[str]:
    names: Set[str] = set()
    for element in chain.elements:
        var = getattr(element, "var", None)
        if var:
            names.add(var)
        for _key, bind_var in getattr(element, "prop_binds", ()):
            names.add(bind_var)
        cost_var = getattr(element, "cost_var", None)
        if cost_var:
            names.add(cost_var)
    return frozenset(names)


def check_optional_restriction(ctx: "Analyzer", match: ast.MatchClause) -> None:
    """GC203: OPTIONAL-shared variables must occur in the main pattern."""
    main_vars: Set[str] = set()
    for location in match.block.patterns:
        main_vars |= _chain_variables(location.chain)
    optional_vars: List[FrozenSet[str]] = [
        frozenset().union(
            *(_chain_variables(loc.chain) for loc in block.patterns)
        )
        if block.patterns
        else frozenset()
        for block in match.optionals
    ]
    for i in range(len(optional_vars)):
        for j in range(i + 1, len(optional_vars)):
            rogue = (optional_vars[i] & optional_vars[j]) - main_vars
            for name in sorted(rogue):
                ctx.emit(
                    "GC203",
                    f"variable {name!r} is shared by OPTIONAL blocks but "
                    f"does not appear in the enclosing pattern",
                    anchor=name,
                    hint="bind the variable in the main MATCH pattern so "
                    "OPTIONAL evaluation order cannot matter",
                )
