"""WHERE predicate pushdown for the columnar MATCH pipeline.

The formal semantics applies a block's WHERE condition to the joined
binding table *after* every pattern atom has run (Appendix A.2). Because
the condition is a conjunction of truthy-coerced conjuncts, any conjunct
can be applied as soon as all of its variables are bound — and a
conjunct over a *single* variable can filter candidate objects inside
``extend_columnar``'s hash-join probe, before rows materialize at all
(the trick the const/dynamic split of pattern ``{k=v}`` tests plays).
A probe filters in one batch per atom execution: its conjuncts run
through the block's WHERE filter (compiled kernels or the interpreter,
per the ``expressions`` setting) over a one-column table of the atom's
distinct candidate objects, and each candidate then looks up its
verdict.

Pushing is only sound when it cannot change observable behaviour, so a
conjunct qualifies only when it is *total* (provably never raises: no
arithmetic, no raising builtins, no missing parameters) **and** every
conjunct to its left is total too — otherwise early filtering could
suppress an error the oracle's left-to-right short-circuit evaluation
would have reached. Conjuncts that do not qualify (or whose variables
are never bound by this block's atoms) stay in the *residual* and are
applied at block end in their original order.

:class:`PushdownPlan` is the immutable conjunct analysis; the planner
reads :meth:`~PushdownPlan.pushed_property_keys` to sharpen cardinality
estimates and :meth:`~PushdownPlan.assign` to attach conjuncts to the
atoms of a planned location (:func:`repro.eval.planner.plan_location`),
which execution and EXPLAIN then share.
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from ..algebra.aggregates import is_aggregate_name
from ..lang import ast
from .expressions import expr_variables

__all__ = ["PushdownPlan", "atom_label", "split_conjuncts"]

#: Builtins that cannot raise when applied to arbitrary values (their
#: error cases coerce to the absent value instead). Everything else —
#: ``nodes``/``edges``/``length``/``cost`` and unknown names — raises on
#: the wrong input and keeps its conjunct on the residual path.
_TOTAL_UNARY_BUILTINS = frozenset(
    {"size", "labels", "id", "tostring", "tointeger", "tofloat", "abs"}
)


def split_conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    """Flatten a WHERE condition into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def _is_total(expr: Optional[ast.Expr], params: Collection[str]) -> bool:
    """Can evaluating *expr* ever raise? (Conservative syntactic check.)"""
    if expr is None:
        return True
    if isinstance(expr, (ast.Literal, ast.Var, ast.LabelTest)):
        return True
    if isinstance(expr, ast.Param):
        return expr.name in params
    if isinstance(expr, ast.Prop):
        return _is_total(expr.base, params)
    if isinstance(expr, ast.Unary):
        return expr.op == "not" and _is_total(expr.operand, params)
    if isinstance(expr, ast.Binary):
        if expr.op in (
            "and", "or", "xor",
            "=", "<>", "<", "<=", ">", ">=",
            "in", "subset",
        ):
            return _is_total(expr.left, params) and _is_total(expr.right, params)
        return False  # arithmetic raises on non-numbers / zero divisors
    if isinstance(expr, ast.CaseExpr):
        return all(
            _is_total(cond, params) and _is_total(value, params)
            for cond, value in expr.whens
        ) and _is_total(expr.default, params)
    if isinstance(expr, ast.ListLiteral):
        return all(_is_total(item, params) for item in expr.items)
    if isinstance(expr, ast.Index):
        # Raises unless the index is a literal non-bool integer.
        return (
            _is_total(expr.base, params)
            and isinstance(expr.index, ast.Literal)
            and isinstance(expr.index.value, int)
            and not isinstance(expr.index.value, bool)
        )
    if isinstance(expr, ast.FuncCall):
        if expr.star or is_aggregate_name(expr.name):
            return False
        name = expr.name.lower()
        if name == "coalesce":
            return all(_is_total(arg, params) for arg in expr.args)
        if name in _TOTAL_UNARY_BUILTINS and len(expr.args) == 1:
            return _is_total(expr.args[0], params)
        return False
    return False  # EXISTS subqueries/patterns: evaluate where the oracle does


class _Conjunct(NamedTuple):
    """One WHERE conjunct: its expression, variables and source position."""

    expr: ast.Expr
    variables: FrozenSet[str]
    index: int


#: An atom's probe assignment: ``(variable, conjuncts)`` groups, each
#: filtering that variable's candidates in one batch, in source order.
ProbeGroups = Tuple[Tuple[str, Tuple[ast.Expr, ...]], ...]


def atom_label(atom) -> str:
    """A short human-readable tag for EXPLAIN's pushdown lines."""
    kind = atom.kind
    if kind == "node":
        return f"node({atom.var})"
    if kind == "edge":
        edge = atom.var or "_"
        return f"edge({edge}:{atom.src_var}->{atom.dst_var})"
    return f"path({atom.src_var}->{atom.dst_var})"


def _probe_supported(atom, var: str) -> bool:
    """Can *atom* filter candidates for *var* at its probe?"""
    kind = getattr(atom, "kind", None)
    if kind == "node":
        return var == atom.var
    if kind == "edge":
        return var in (atom.src_var, atom.dst_var) or (
            atom.var is not None and var == atom.var
        )
    return False


class PushdownPlan:
    """The pushdown analysis of one block's WHERE condition (immutable).

    *params* are the bound ``$param`` names: a conjunct reading a missing
    parameter raises, so it is not total.
    """

    def __init__(self, where: Optional[ast.Expr], params: Collection[str]):
        pushable: List[_Conjunct] = []
        blocked: List[_Conjunct] = []
        for index, conjunct in enumerate(split_conjuncts(where)):
            entry = _Conjunct(conjunct, expr_variables(conjunct), index)
            if blocked or not _is_total(conjunct, params):
                # Everything from the first non-total conjunct on stays
                # in source order: pushing a later conjunct could hide
                # an error this one raises under short-circuiting.
                blocked.append(entry)
            else:
                pushable.append(entry)
        self.pushable: Tuple[_Conjunct, ...] = tuple(pushable)
        self.blocked: Tuple[_Conjunct, ...] = tuple(blocked)

    # ------------------------------------------------------------------
    def pushed_property_keys(self) -> Dict[str, Tuple[str, ...]]:
        """Property keys each variable's pushed conjuncts test.

        Feeds the planner's cardinality estimates: a pushed
        ``x.key = const``-style conjunct shrinks the atom binding ``x``
        just like a pattern property test would.
        """
        keys: Dict[str, List[str]] = {}

        def visit(node, var: str) -> None:
            if isinstance(node, ast.Prop):
                if isinstance(node.base, ast.Var):
                    keys.setdefault(var, []).append(node.key)
                visit(node.base, var)
            elif isinstance(node, ast.Unary):
                visit(node.operand, var)
            elif isinstance(node, ast.Binary):
                visit(node.left, var)
                visit(node.right, var)
            elif isinstance(node, ast.FuncCall):
                for arg in node.args:
                    visit(arg, var)
            elif isinstance(node, ast.CaseExpr):
                for cond, value in node.whens:
                    visit(cond, var)
                    visit(value, var)
                visit(node.default, var)
            elif isinstance(node, ast.Index):
                visit(node.base, var)
            elif isinstance(node, ast.ListLiteral):
                for item in node.items:
                    visit(item, var)

        for conjunct in self.pushable:
            if len(conjunct.variables) != 1:
                continue
            (var,) = tuple(conjunct.variables)
            visit(conjunct.expr, var)
        return {var: tuple(found) for var, found in keys.items()}

    # ------------------------------------------------------------------
    def assign(
        self, ordered_atoms, bound_by_atoms: FrozenSet[str]
    ) -> Tuple[List[Tuple[ProbeGroups, Tuple[ast.Expr, ...]]], Tuple[ast.Expr, ...]]:
        """Attach conjuncts to one location's planned atoms.

        *bound_by_atoms* are the variables bound by atoms of the block's
        earlier locations: a conjunct over those alone was applied there
        (a variable-free conjunct filters after the block's first atom).
        Of the rest, each atom takes at its probe the single-variable
        conjuncts over a variable it newly binds and can filter, then,
        as a post-filter, every conjunct whose variables it completes.
        Returns one ``(probe groups, post conjuncts)`` pair per atom and
        the block-end residual once this location ran: the conjuncts
        still unassigned plus the blocked ones, in source order.
        """
        bound = set(bound_by_atoms)
        open_ = [
            c for c in self.pushable
            if not (bound and c.variables <= bound)
        ]
        assignments: List[Tuple[ProbeGroups, Tuple[ast.Expr, ...]]] = []
        for atom in ordered_atoms:
            groups: Dict[str, List[ast.Expr]] = {}
            probed = set()
            for conjunct in open_:
                if len(conjunct.variables) != 1:
                    continue
                (var,) = tuple(conjunct.variables)
                if var not in bound and _probe_supported(atom, var):
                    groups.setdefault(var, []).append(conjunct.expr)
                    probed.add(conjunct.index)
            bound |= atom.binds()
            post = [
                c for c in open_
                if c.index not in probed and c.variables <= bound
            ]
            done = probed | {c.index for c in post}
            open_ = [c for c in open_ if c.index not in done]
            assignments.append(
                (
                    tuple((var, tuple(exprs)) for var, exprs in groups.items()),
                    tuple(c.expr for c in post),
                )
            )
        leftovers = sorted(open_ + list(self.blocked), key=lambda c: c.index)
        return assignments, tuple(c.expr for c in leftovers)
