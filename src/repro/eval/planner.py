"""A cost-based atom-ordering planner for MATCH evaluation.

The formal semantics joins every pattern's binding set; the order of
evaluation only affects performance. When graph statistics are available
(:meth:`PathPropertyGraph.statistics`), the planner runs a cardinality
estimator: each atom gets an estimated output-rows-per-input-row factor
given the currently bound variables, and the greedy loop always picks the
atom that keeps the intermediate binding table smallest. Without
statistics it falls back to the original hand-tuned heuristic
(:func:`atom_score`), which encodes the same intuitions with constants:

* atoms over already-bound variables run first (they only filter),
* selective atoms (labels, property tests) run before unconstrained ones,
* edges run once an endpoint is bound (index lookups instead of scans),
* path atoms run once their source endpoint is bound (one single-source
  product-graph search per distinct source).

Every step re-scores every remaining atom under the current bound set
and takes the best. Priorities move in both directions as variables
bind: an edge's estimate *drops* once an endpoint is bound, so a cached
priority from an earlier step is never trusted (a chain has a handful of
atoms, so the quadratic re-scoring is cheap). ``planner="naive"``
disables reordering entirely (pure syntax order); the ablation
benchmark EXP-B1 measures the difference.

:func:`plan_atoms` returns the full trace — the score/estimate each atom
actually had at selection time. :func:`plan_location` adds the WHERE
pushdown assignment and returns the immutable :class:`LocationPlan`
that block evaluation, morsel workers and EXPLAIN all use;
:class:`PlanCache` memoizes location plans per (pattern site, bound
columns, graph) for the engine's prepared queries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Collection, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..config import ExecutionConfig
from ..lang import ast
from ..lang.pretty import pretty_expr
from ..paths.automaton import regex_edge_labels
from .pushdown import ProbeGroups, PushdownPlan, atom_label, split_conjuncts

__all__ = [
    "atom_score",
    "estimate_cardinality",
    "order_atoms",
    "plan_atoms",
    "plan_location",
    "explain_order",
    "explain_pushdown",
    "LocationPlan",
    "PlanStep",
    "PlanCache",
]


# ---------------------------------------------------------------------------
# Heuristic scores (statistics-free fallback; also the EXP-B1 baseline)
# ---------------------------------------------------------------------------

def atom_score(atom, bound: Set[str]) -> int:
    """The greedy priority of *atom* given already-bound variables."""
    kind = atom.kind
    if kind == "node":
        pattern = atom.pattern
        if atom.var in bound:
            return 100
        selective = bool(pattern.labels) + bool(pattern.prop_tests)
        if selective:
            return 55 + 5 * selective
        return 5
    if kind == "edge":
        pattern = atom.pattern
        if atom.var and atom.var in bound:
            return 95
        endpoints_bound = (atom.src_var in bound) + (atom.dst_var in bound)
        if endpoints_bound == 2:
            return 90
        if endpoints_bound == 1:
            return 70
        if pattern.labels or pattern.prop_tests:
            return 40
        return 15
    if kind == "path":
        if atom.pattern.stored:
            if atom.pattern.var and atom.pattern.var in bound:
                return 85
            if atom.from_var in bound:
                return 65
            return 30
        if atom.from_var in bound:
            return 50
        return 2
    return 0


# ---------------------------------------------------------------------------
# Cardinality estimation (statistics-driven cost model)
# ---------------------------------------------------------------------------

def _node_estimate(atom, bound: Set[str], stats, pushed=None) -> float:
    pattern = atom.pattern
    selectivity = stats.label_selectivity("node", pattern.labels)
    selectivity *= stats.property_tests_selectivity(
        "node", (key for key, _ in pattern.prop_tests)
    )
    if pushed:
        # WHERE conjuncts pushed into this atom filter its candidates
        # exactly like pattern property tests do.
        selectivity *= stats.property_tests_selectivity(
            "node", pushed.get(atom.var, ())
        )
    if atom.var in bound:
        return min(selectivity, 1.0)
    return stats.node_count * selectivity


def _edge_estimate(atom, bound: Set[str], stats, pushed=None) -> float:
    pattern = atom.pattern
    matching = stats.edge_count * stats.label_selectivity("edge", pattern.labels)
    matching *= stats.property_tests_selectivity(
        "edge", (key for key, _ in pattern.prop_tests)
    )
    if pushed and atom.var:
        matching *= stats.property_tests_selectivity(
            "edge", pushed.get(atom.var, ())
        )
    nodes = max(stats.node_count, 1)
    undirected = 2.0 if pattern.direction == "undirected" else 1.0
    if atom.var and atom.var in bound:
        # The edge object itself is fixed: a pure filter.
        return min(matching / max(stats.edge_count, 1), 1.0)
    endpoints_bound = (atom.src_var in bound) + (atom.dst_var in bound)
    if endpoints_bound == 2:
        # Expected parallel edges between two specific endpoints.
        return undirected * matching / (nodes * nodes)
    if endpoints_bound == 1:
        # Expected fan from a uniformly chosen bound endpoint.
        return undirected * matching / nodes
    return undirected * matching


def _path_estimate(atom, bound: Set[str], stats) -> float:
    pattern = atom.pattern
    nodes = max(stats.node_count, 1)
    if pattern.stored:
        matching = stats.path_count * stats.label_selectivity(
            "path", pattern.labels
        )
        if pattern.var and pattern.var in bound:
            return min(matching / max(stats.path_count, 1), 1.0)
        if atom.from_var in bound:
            matching /= nodes
        if atom.to_var in bound:
            matching /= nodes
        return matching
    # Computed path: bound the reachable-target fan by the statically
    # known edge labels of the regex (None = unbounded wildcard/view).
    fanout = stats.reachability_estimate(regex_edge_labels(pattern.regex))
    if pattern.mode not in ("reach", "all"):
        fanout *= max(pattern.count, 1)
    if atom.from_var in bound:
        if atom.to_var in bound:
            return 1.0
        return fanout
    # Unbound source: one product-graph search per node — schedule last.
    return nodes * fanout


def estimate_cardinality(
    atom, bound: Iterable[str], stats, pushed_props=None
) -> float:
    """Estimated output rows per input row for *atom* under *bound*.

    Values below 1.0 mean the atom is expected to shrink the binding
    table (a filter); values above 1.0 mean expansion. The estimate is
    relative — the greedy planner only compares atoms against each other
    at the same step — but on simple scans it equals the true output
    cardinality (tested against the paper's instances).
    ``pushed_props`` maps a variable to the property keys of WHERE
    conjuncts pushed down into the atom binding it (see
    :mod:`repro.eval.pushdown`), sharpening the estimate with the same
    per-key selectivities pattern property tests use.
    """
    bound_set = set(bound)
    kind = atom.kind
    if kind == "node":
        return _node_estimate(atom, bound_set, stats, pushed_props)
    if kind == "edge":
        return _edge_estimate(atom, bound_set, stats, pushed_props)
    if kind == "path":
        return _path_estimate(atom, bound_set, stats)
    return float(stats.node_count)


# ---------------------------------------------------------------------------
# Greedy ordering
# ---------------------------------------------------------------------------

class PlanStep(NamedTuple):
    """One planning decision: the atom, its selection-time priority and
    the WHERE conjuncts pushed into it — ``probe`` filters its
    candidates, ``post`` the table right after it."""

    atom: object
    score: int
    estimate: Optional[float]
    probe: ProbeGroups = ()
    post: Tuple[ast.Expr, ...] = ()


def plan_atoms(
    atoms: Sequence[object],
    bound: Iterable[str],
    naive: bool = False,
    stats=None,
    pushed_props=None,
) -> List[PlanStep]:
    """Order *atoms* and record the priority each had when selected.

    With *stats* the priority is the estimated cardinality (lower runs
    first); without, the heuristic :func:`atom_score` (higher runs
    first). Ties break on syntax order. The returned steps carry the
    selection-time score/estimate so EXPLAIN reports what the planner
    actually compared, not a post-hoc recomputation.
    """
    bound_set: Set[str] = set(bound)

    def priority(atom) -> Tuple[float, int]:
        score = atom_score(atom, bound_set)
        if stats is None:
            return (-score, 0)
        # Estimate first, heuristic score as a tie-breaker between atoms
        # with identical estimates (e.g. two unlabeled scans).
        return (
            estimate_cardinality(atom, bound_set, stats, pushed_props),
            -score,
        )

    remaining = list(range(len(atoms)))
    steps: List[PlanStep] = []
    while remaining:
        # Naive: syntax order. Otherwise the best priority; min() keeps
        # the first of equal priorities, so ties go to syntax order.
        candidates = remaining[:1] if naive else remaining
        current, index = min((priority(atoms[i]), i) for i in candidates)
        remaining.remove(index)
        atom = atoms[index]
        estimate = current[0] if stats is not None else None
        steps.append(PlanStep(atom, atom_score(atom, bound_set), estimate))
        bound_set |= atom.binds()
    return steps


def order_atoms(
    atoms: Sequence[object],
    bound: Iterable[str],
    naive: bool = False,
    stats=None,
    pushed_props=None,
) -> List[object]:
    """Order *atoms* for evaluation, starting from *bound* variables."""
    return [
        step.atom for step in plan_atoms(atoms, bound, naive, stats, pushed_props)
    ]


class LocationPlan(NamedTuple):
    """The immutable plan of one pattern location: ``steps`` run in
    order, ``residual`` is what of the block's WHERE remains for block
    end once the location ran, ``paths`` names the path engine."""

    steps: Tuple[PlanStep, ...]
    residual: Tuple[ast.Expr, ...]
    paths: str


def plan_location(
    atoms: Sequence[object],
    where: Optional[ast.Expr],
    params: Collection[str],
    bound: Iterable[str],
    bound_by_atoms: Iterable[str],
    graph,
    config: ExecutionConfig,
) -> LocationPlan:
    """Plan one pattern location of a block whose WHERE is *where*.

    *bound* are the columns the table has when execution reaches the
    location: the block's seed columns plus *bound_by_atoms*, the binds
    of its earlier locations. *params* are the bound ``$param`` names.
    *graph* gives the cost planner its statistics (None: unresolved).
    ``planner="naive"`` keeps syntax order; ``executor="reference"``
    pushes nothing, leaving the whole WHERE residual.
    """
    pushdown = PushdownPlan(where, params) if config.executor == "columnar" else None
    stats = graph.statistics() if graph is not None and config.planner == "cost" else None
    pushed_props = pushdown.pushed_property_keys() or None if pushdown else None
    steps = plan_atoms(atoms, bound, config.planner == "naive", stats, pushed_props)
    if pushdown is None:
        return LocationPlan(tuple(steps), tuple(split_conjuncts(where)), config.paths)
    assignments, residual = pushdown.assign(
        [step.atom for step in steps], frozenset(bound_by_atoms)
    )
    steps = [
        step._replace(probe=probe, post=post)
        for step, (probe, post) in zip(steps, assignments)
    ]
    return LocationPlan(tuple(steps), residual, config.paths)


def explain_order(plan: LocationPlan) -> str:
    """A location's atoms in execution order (EXPLAIN), each with the
    score (and, with statistics, the estimated output cardinality) it
    had when the planner selected it."""
    lines: List[str] = []
    for step in plan.steps:
        detail = f"score={step.score:<3}"
        if step.estimate is not None:
            detail += f" est~{_format_estimate(step.estimate):<8}"
        line = f"  {step.atom.kind:<5} {detail} binds={sorted(step.atom.binds())}"
        strategy = getattr(step.atom, "explain_strategy", None)
        if strategy is not None:
            # Path atoms report their search strategy (bfs vs dijkstra)
            # and which path engine runs them (batched vs naive).
            line += f" strategy={strategy()},{plan.paths}"
        lines.append(line)
    return "\n".join(lines)


def explain_pushdown(plan: LocationPlan) -> List[str]:
    """The location's pushed conjuncts, one line each, in step order."""
    lines: List[str] = []
    for step in plan.steps:
        label = atom_label(step.atom)
        for _var, exprs in step.probe:
            lines.extend(f"pushed {pretty_expr(e)} -> {label} [probe]" for e in exprs)
        lines.extend(f"pushed {pretty_expr(e)} -> {label} [filter]" for e in step.post)
    return lines


def _format_estimate(estimate: float) -> str:
    if estimate >= 100 or estimate == int(estimate):
        return f"{estimate:.0f}"
    return f"{estimate:.2f}"


# ---------------------------------------------------------------------------
# Plan memoization (prepared queries)
# ---------------------------------------------------------------------------

class PlanCache:
    """An LRU memo of location plans, keyed by pattern site and graph.

    A :class:`~repro.engine.PreparedQuery` owns one of these; the match
    evaluator consults it before planning so repeated executions of the
    same statement skip ordering and pushdown analysis entirely. Entries
    pin the pattern location and graph objects and are validated by
    identity — a graph re-registered under the same name is a different
    object and simply misses, so stale plans can never be replayed.

    Thread-safe: the query server executes one prepared statement from
    many snapshot readers concurrently while ``apply_update`` purges
    superseded-graph entries, so every structural operation on the LRU
    (lookup's move-to-end included) runs under a lock. Keying by graph
    *object* doubles as per-epoch cache keying — readers pinned to
    different catalog versions never share (or clobber) a plan.
    """

    def __init__(self, maxsize: int = 128) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._mutex = threading.Lock()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def lookup(self, site, columns: Tuple[str, ...], graph) -> Optional[LocationPlan]:
        """The memoized plan, or None."""
        key = (id(site), columns, id(graph))
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            entry_site, entry_graph, plan = entry
            if entry_site is not site or entry_graph is not graph:
                # id() reuse after garbage collection; drop the stale entry.
                del self._entries[key]
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def store(
        self, site, columns: Tuple[str, ...], graph, plan: LocationPlan
    ) -> None:
        key = (id(site), columns, id(graph))
        with self._mutex:
            self._entries[key] = (site, graph, plan)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def purge_graph(self, graph) -> int:
        """Drop every plan memoized against *graph* (by identity).

        Called when a graph delta replaces a catalog entry: the prepared
        queries themselves stay hot (parse and AST survive — names
        re-resolve to the new graph at execution), only the plans made
        against the superseded graph object are evicted. A snapshot
        reader still pinned to *graph* simply re-plans on its next
        execution (a cache miss, never an error) and re-stores the plan
        under the same identity key. Returns the number of
        dropped entries.
        """
        with self._mutex:
            doomed = [
                key
                for key, (_, entry_graph, _) in self._entries.items()
                if entry_graph is graph
            ]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
