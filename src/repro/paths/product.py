"""Product-graph path search: the Dijkstra half of Appendix A.1.

Evaluating a path pattern means searching the product of the data graph
with the regular expression's NFA. Two engines share one
:class:`PathFinder` facade:

* the **batched engine** (default) keeps the frontier as *parent-pointer
  entries*: a heap entry carries only ``(cost, key, node, state, id)``
  and back-links into flat ``parents``/``extensions`` arrays, so walks
  are reconstructed lazily — only for entries that actually survive into
  results — instead of copying a growing sequence tuple on every heap
  push. Expansion runs over per-state *programs* compiled against the
  graph's label-bucketed adjacency indexes and is memoized per
  ``(node, state)``, so all sources of a batch
  (:meth:`PathFinder.shortest_multi`) share one search structure. When
  every automaton arc costs 0 or 1 (no PATH-view arcs,
  :attr:`NFA.unit_cost`) the search automatically drops from Dijkstra to
  a level-synchronous BFS that preserves the exact lexicographic
  tie-break by ranking each level's entries;

* the **row-at-a-time engine** (the ``paths="naive"`` axis of
  :class:`~repro.config.ExecutionConfig`) is the original
  tuple-in-the-heap implementation, kept verbatim as the reference
  oracle the batched engine is property-tested against.

Public searches (identical results under either engine):

* :meth:`PathFinder.shortest_from` — single-source cheapest conforming
  walks to every reachable target (ties broken by the fixed
  lexicographic order on identifier sequences, per Appendix A
  footnote 4),
* :meth:`PathFinder.shortest_multi` — the batched multi-source entry
  point: one shared search structure across all distinct sources of a
  binding column,
* :meth:`PathFinder.k_shortest` — the ``k SHORTEST`` semantics of
  Section 3 (k cheapest *distinct* conforming walks; exact even when
  duplicate graph walks arise from distinct automaton runs),
* :meth:`PathFinder.reachable_from` — the reachability-test semantics of
  bare ``-/<r>/->`` patterns (BFS, no cost bookkeeping),
* :meth:`PathFinder.all_paths_projection` — the tractable ALL-paths
  graph projection (reachable ∩ co-reachable product states, method [10]).

Edge arcs cost 1 (hop count — the paper's default path cost), node-test
arcs cost 0, and view arcs carry the PATH-clause cost of their segment
(validated > 0 at materialization, so Dijkstra's invariants hold).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..model.graph import ObjectId, PathPropertyGraph
from .automaton import NFA
from .walk import Walk, walk_key

__all__ = ["ViewSegment", "PathFinder", "partition_sources"]


def partition_sources(
    sources: Sequence[ObjectId], parts: int
) -> List[Sequence[ObjectId]]:
    """Split a source batch into at most *parts* contiguous sub-batches.

    The multi-source entry points (:meth:`PathFinder.shortest_multi`,
    :meth:`PathFinder.reachable_multi`) are *partition-invariant*: each
    distinct source runs one independent deterministic search, and the
    shared ``(node, state)`` move memo is a cache, never a result
    dependency — so running the sub-batches on separate finders (even in
    separate worker processes, :mod:`repro.eval.parallel`) and merging
    the per-source dictionaries yields bit-identical walks to one
    finder over the whole batch. Order within each sub-batch is
    preserved; callers merge in sub-batch order (the per-source keys are
    disjoint because callers deduplicate sources first).
    """
    total = len(sources)
    if total == 0 or parts <= 1:
        return [sources] if total else []
    parts = min(parts, total)
    base, extra = divmod(total, parts)
    out: List[Sequence[ObjectId]] = []
    start = 0
    for index in range(parts):
        stop = start + base + (1 if index < extra else 0)
        out.append(sources[start:stop])
        start = stop
    return out


@dataclass(frozen=True)
class ViewSegment:
    """One materialized segment of a PATH-clause view.

    ``sequence`` is the witness walk (alternating nodes/edges) from the
    segment's source to ``target``; ``cost`` is the evaluated COST
    expression (> 0).
    """

    target: ObjectId
    cost: float
    sequence: Tuple[ObjectId, ...]


ViewIndex = Mapping[str, Mapping[ObjectId, Tuple[ViewSegment, ...]]]

_seq_key = walk_key  # historical private alias

#: Entry sentinel: the root of a parent-pointer chain has no parent.
_NO_PARENT = -1


def _make_walk(sequence: Tuple[ObjectId, ...], cost: float) -> Walk:
    """Build a :class:`Walk` without re-validating the sequence.

    Parent-pointer reconstruction only ever produces well-formed
    alternating sequences, so the dataclass ``__init__``/``__post_init__``
    round-trip is skipped — measurable on searches that materialize
    thousands of surviving walks.
    """
    walk = Walk.__new__(Walk)
    object.__setattr__(walk, "sequence", sequence)
    object.__setattr__(walk, "cost", cost)
    return walk


class PathFinder:
    """Shared product-graph search over one graph/NFA/view combination.

    The ``naive`` flag — set by executors running at
    ``ExecutionConfig(paths="naive")`` — selects the row-at-a-time
    reference engine (the original tuple-copying implementation); the
    default is the batched parent-pointer engine. ``bfs=False`` forces
    the batched engine onto
    the Dijkstra path even for unit-cost automata — used by determinism
    tests to check that both strategies realize the same lexicographic
    tie-break.
    """

    def __init__(
        self,
        graph: PathPropertyGraph,
        nfa: NFA,
        views: Optional[ViewIndex] = None,
        naive: bool = False,
        bfs: Optional[bool] = None,
    ) -> None:
        self._graph = graph
        self._nfa = nfa
        self._views: ViewIndex = views or {}
        self._naive = naive
        self._bfs = nfa.unit_cost if bfs is None else (bfs and nfa.unit_cost)
        # Per-state expansion programs against label-bucketed adjacency,
        # and the (node, state) -> moves memo shared by every search this
        # finder runs (the "one search structure" of shortest_multi).
        self._programs: Optional[List[Tuple[tuple, ...]]] = None
        self._moves_cache: Dict[Tuple[ObjectId, int], tuple] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def strategy(self) -> str:
        """The search strategy this finder uses: ``bfs`` or ``dijkstra``."""
        return "bfs" if (not self._naive and self._bfs) else "dijkstra"

    @property
    def batched(self) -> bool:
        """True for the parent-pointer engine, False for the reference."""
        return not self._naive

    # ------------------------------------------------------------------
    # Expansion — reference generator and memoized batched programs
    # ------------------------------------------------------------------
    def _expand(
        self, node: ObjectId, state: int
    ) -> Iterator[Tuple[float, Tuple[ObjectId, ...], ObjectId, int]]:
        """Yield (cost, sequence-extension, next-node, next-state) moves.

        The sequence extension excludes the current node, so appending it
        to a walk ending at *node* yields a valid alternating sequence.
        This is the row-at-a-time reference expansion; the batched engine
        uses the memoized :meth:`_moves_for`.
        """
        graph = self._graph
        for arc, next_state in self._nfa.moves(state):
            if arc.kind == "edge":
                if not arc.inverse:
                    for edge in graph.out_edges(node):
                        if arc.label is None or graph.has_label(edge, arc.label):
                            target = graph.endpoints(edge)[1]
                            yield 1.0, (edge, target), target, next_state
                else:
                    for edge in graph.in_edges(node):
                        if arc.label is None or graph.has_label(edge, arc.label):
                            source = graph.endpoints(edge)[0]
                            yield 1.0, (edge, source), source, next_state
            elif arc.kind == "node":
                if graph.has_label(node, arc.label):
                    yield 0.0, (), node, next_state
            elif arc.kind == "view":
                segments = self._views.get(arc.label, {}).get(node, ())
                for segment in segments:
                    yield (
                        segment.cost,
                        segment.sequence[1:],
                        segment.target,
                        next_state,
                    )

    def _build_programs(self) -> List[Tuple[tuple, ...]]:
        """Compile each NFA state into ops over bucketed adjacency.

        An ``edge`` op carries the label's adjacency dict directly, so
        expanding a node is one dict probe returning pre-filtered,
        pre-sorted edges — no per-edge label test. Built once per finder;
        the graph's adjacency buckets themselves are cached on the graph.
        """
        graph = self._graph
        programs: List[Tuple[tuple, ...]] = []
        for state in range(self._nfa.state_count):
            ops: List[tuple] = []
            for arc, next_state in self._nfa.moves(state):
                if arc.kind == "edge":
                    adjacency = (
                        graph.in_adjacency(arc.label)
                        if arc.inverse
                        else graph.out_adjacency(arc.label)
                    )
                    endpoint = 0 if arc.inverse else 1
                    ops.append(("edge", adjacency, endpoint, next_state))
                elif arc.kind == "node":
                    ops.append(("node", arc.label, next_state))
                else:
                    segments = self._views.get(arc.label, {})
                    ops.append(("view", segments, next_state))
            programs.append(tuple(ops))
        self._programs = programs
        return programs

    def _moves_for(
        self, node: ObjectId, state: int
    ) -> Tuple[Tuple[float, Tuple[ObjectId, ...], Tuple[str, ...], ObjectId, int], ...]:
        """Memoized product-graph moves from ``(node, state)``.

        Each move is ``(cost, extension, extension-key, node, state)``;
        the lexicographic key part is stringified once here and reused by
        every heap push of every search this finder runs — the searches
        themselves never call ``str``.
        """
        memo_key = (node, state)
        moves = self._moves_cache.get(memo_key)
        if moves is not None:
            return moves
        programs = self._programs
        if programs is None:
            programs = self._build_programs()
        graph = self._graph
        rho = graph.endpoints
        out: List[tuple] = []
        for op in programs[state]:
            kind = op[0]
            if kind == "edge":
                _, adjacency, endpoint, next_state = op
                for edge in adjacency.get(node, ()):
                    other = rho(edge)[endpoint]
                    extension = (edge, other)
                    out.append(
                        (1.0, extension, walk_key(extension), other, next_state)
                    )
            elif kind == "node":
                _, label, next_state = op
                if graph.has_label(node, label):
                    out.append((0.0, (), (), node, next_state))
            else:
                _, segments, next_state = op
                for segment in segments.get(node, ()):
                    extension = segment.sequence[1:]
                    out.append(
                        (
                            segment.cost,
                            extension,
                            walk_key(extension),
                            segment.target,
                            next_state,
                        )
                    )
        moves = tuple(out)
        self._moves_cache[memo_key] = moves
        return moves

    def _moves(self):
        """The expansion function of the active engine."""
        return self._expand if self._naive else self._moves_for

    # ------------------------------------------------------------------
    # Parent-pointer plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _reconstruct(
        entry: int, parents: List[int], extensions: List[tuple]
    ) -> Tuple[ObjectId, ...]:
        """Rebuild a walk sequence by following parent pointers."""
        parts: List[tuple] = []
        while entry != _NO_PARENT:
            parts.append(extensions[entry])
            entry = parents[entry]
        parts.reverse()
        return tuple(chain.from_iterable(parts))

    # ------------------------------------------------------------------
    # Single-source shortest walks
    # ------------------------------------------------------------------
    def shortest_from(
        self,
        source: ObjectId,
        targets: Optional[Set[ObjectId]] = None,
    ) -> Dict[ObjectId, Walk]:
        """Cheapest conforming walk from *source* to each reachable node.

        When *targets* is given, the search stops once every requested
        target has been settled. Ties are broken by the lexicographic
        order of the walk's identifier sequence, making results fully
        deterministic (and identical across the batched and reference
        engines, and across the BFS and Dijkstra strategies).
        """
        if self._naive:
            return self._shortest_from_naive(source, targets)
        if source not in self._graph.nodes:
            return {}
        results, parents, extensions = self._search_shortest(source, targets)
        return {
            node: _make_walk(self._reconstruct(entry, parents, extensions), cost)
            for node, (entry, cost) in results.items()
        }

    def shortest(self, source: ObjectId, target: ObjectId) -> Optional[Walk]:
        """The single cheapest conforming walk from *source* to *target*."""
        return self.shortest_from(source, {target}).get(target)

    def conforming_targets(self, source: ObjectId) -> Tuple[ObjectId, ...]:
        """Nodes admitting a conforming walk from *source*, in settle order.

        Like ``shortest_from(source).keys()`` but without reconstructing
        any walk — the k-shortest evaluator uses it to enumerate target
        candidates lazily.
        """
        if source not in self._graph.nodes:
            return ()
        if self._naive:
            return tuple(self._shortest_from_naive(source, None))
        results, _, _ = self._search_shortest(source, None)
        return tuple(results)

    def shortest_multi(
        self,
        sources: Sequence[ObjectId],
        targets: Optional[object] = None,
    ) -> Dict[ObjectId, Dict[ObjectId, Walk]]:
        """Batched multi-source shortest walks sharing one search structure.

        Runs one single-source search per *distinct* source, all against
        the same memoized product-graph expansion — the batching the
        columnar ``PathAtom`` applies to a grouped binding column.
        *targets* is either None (all reachable targets per source), a
        set applied to every source, or a mapping ``{source: set-or-None}``
        with per-source target sets. When targets are given, results are
        restricted to them and only surviving walks are reconstructed.
        """
        out: Dict[ObjectId, Dict[ObjectId, Walk]] = {}
        per_source = isinstance(targets, Mapping)
        for source in sources:
            if source in out:
                continue
            wanted = targets.get(source) if per_source else targets
            if source not in self._graph.nodes:
                out[source] = {}
                continue
            if self._naive:
                walks = self._shortest_from_naive(
                    source, set(wanted) if wanted is not None else None
                )
                if wanted is not None:
                    walks = {n: w for n, w in walks.items() if n in wanted}
                out[source] = walks
                continue
            results, parents, extensions = self._search_shortest(source, wanted)
            out[source] = {
                node: _make_walk(
                    self._reconstruct(entry, parents, extensions), cost
                )
                for node, (entry, cost) in results.items()
                if wanted is None or node in wanted
            }
        return out

    def _search_shortest(
        self, source: ObjectId, targets: Optional[Iterable[ObjectId]]
    ) -> Tuple[Dict[ObjectId, Tuple[int, float]], List[int], List[tuple]]:
        if self._bfs:
            return self._search_bfs(source, targets)
        return self._search_dijkstra(source, targets)

    def _search_dijkstra(
        self, source: ObjectId, targets: Optional[Iterable[ObjectId]]
    ) -> Tuple[Dict[ObjectId, Tuple[int, float]], List[int], List[tuple]]:
        """Parent-pointer Dijkstra with incremental lexicographic keys.

        Only one entry per ``(node, state)`` can ever be settled, so a
        push is skipped outright when a previously pushed entry for the
        same product state already compares ``<=`` under the heap's
        ``(cost, key)`` order — pruning dead heap traffic without
        affecting which entry settles.
        """
        nfa = self._nfa
        moves_for = self._moves_for
        results: Dict[ObjectId, Tuple[int, float]] = {}
        parents: List[int] = [_NO_PARENT]
        extensions: List[tuple] = [(source,)]
        settled: Set[Tuple[ObjectId, int]] = set()
        best: Dict[Tuple[ObjectId, int], Tuple[float, Tuple[str, ...]]] = {
            (source, nfa.start): (0.0, (str(source),))
        }
        remaining = set(targets) if targets is not None else None
        counter = 0
        heap = [(0.0, (str(source),), 0, source, nfa.start, 0)]
        while heap:
            cost, key, _, node, state, entry = heapq.heappop(heap)
            if (node, state) in settled:
                continue
            settled.add((node, state))
            if nfa.is_accepting(state) and node not in results:
                results[node] = (entry, cost)
                if remaining is not None:
                    remaining.discard(node)
                    if not remaining:
                        return results, parents, extensions
            for delta, extension, ext_key, next_node, next_state in moves_for(
                node, state
            ):
                next_pair = (next_node, next_state)
                if next_pair in settled:
                    continue
                candidate = (cost + delta, key + ext_key)
                known = best.get(next_pair)
                if known is not None and known <= candidate:
                    continue
                best[next_pair] = candidate
                parents.append(entry)
                extensions.append(extension)
                counter += 1
                heapq.heappush(
                    heap,
                    (
                        candidate[0],
                        candidate[1],
                        counter,
                        next_node,
                        next_state,
                        len(parents) - 1,
                    ),
                )
        return results, parents, extensions

    def _search_bfs(
        self, source: ObjectId, targets: Optional[Iterable[ObjectId]]
    ) -> Tuple[Dict[ObjectId, Tuple[int, float]], List[int], List[tuple]]:
        """Level-synchronous unit-cost BFS with rank-based tie-breaking.

        All walks settled at depth ``d`` have sequences of length
        ``2d + 1`` (edge arcs append two identifiers, node-test arcs
        none), so the lexicographic order within a level is exactly the
        order by ``(parent rank, extension key)``: a parent's rank is its
        sequence's rank among the level's distinct sequences, and equal
        ``(rank, extension)`` pairs denote equal sequences and share a
        rank. This realizes Dijkstra's full-key tie-break with O(1)-size
        per-entry keys.
        """
        nfa = self._nfa
        moves_for = self._moves_for
        results: Dict[ObjectId, Tuple[int, float]] = {}
        parents: List[int] = [_NO_PARENT]
        extensions: List[tuple] = [(source,)]
        settled: Set[Tuple[ObjectId, int]] = set()
        remaining = set(targets) if targets is not None else None
        depth = 0
        counter = 0
        # Heap of (rank, counter, node, state, entry); zero-cost node-test
        # arcs re-enter the current level under their parent's rank.
        level = [(0, 0, source, nfa.start, 0)]
        while level:
            frontier: List[tuple] = []
            while level:
                rank, _, node, state, entry = heapq.heappop(level)
                if (node, state) in settled:
                    continue
                settled.add((node, state))
                if nfa.is_accepting(state) and node not in results:
                    results[node] = (entry, float(depth))
                    if remaining is not None:
                        remaining.discard(node)
                        if not remaining:
                            return results, parents, extensions
                for delta, extension, ext_key, next_node, next_state in moves_for(
                    node, state
                ):
                    if (next_node, next_state) in settled:
                        continue
                    if delta == 0.0:
                        # Same sequence, same level, same rank.
                        parents.append(entry)
                        extensions.append(())
                        counter += 1
                        heapq.heappush(
                            level,
                            (rank, counter, next_node, next_state, len(parents) - 1),
                        )
                    else:
                        frontier.append(
                            (rank, ext_key, next_node, next_state, entry, extension)
                        )
            if not frontier:
                break
            frontier.sort(key=lambda item: (item[0], item[1]))
            depth += 1
            counter = 0
            previous = None
            next_rank = -1
            entries: List[tuple] = []
            queued: Set[Tuple[ObjectId, int]] = set()
            for parent_rank, ext_key, node, state, parent, extension in frontier:
                pair = (node, state)
                if pair in settled:
                    continue
                if (parent_rank, ext_key) != previous:
                    next_rank += 1
                    previous = (parent_rank, ext_key)
                # Only the first (lowest-ranked) candidate per product
                # state can ever settle; later ones are dead weight —
                # unless they carry the same sequence, whose zero-cost
                # closure is already covered by the kept entry.
                if pair in queued:
                    continue
                queued.add(pair)
                parents.append(parent)
                extensions.append(extension)
                counter += 1
                entries.append((next_rank, counter, node, state, len(parents) - 1))
            level = entries  # already heap-ordered: ranks are ascending
        return results, parents, extensions

    def _shortest_from_naive(
        self,
        source: ObjectId,
        targets: Optional[Set[ObjectId]] = None,
    ) -> Dict[ObjectId, Walk]:
        """The original tuple-in-the-heap Dijkstra (reference engine)."""
        if source not in self._graph.nodes:
            return {}
        results: Dict[ObjectId, Walk] = {}
        start_sequence = (source,)
        counter = 0
        heap = [
            (0.0, walk_key(start_sequence), counter, source, self._nfa.start, start_sequence)
        ]
        settled: Set[Tuple[ObjectId, int]] = set()
        remaining = set(targets) if targets is not None else None
        while heap:
            cost, _, _, node, state, sequence = heapq.heappop(heap)
            if (node, state) in settled:
                continue
            settled.add((node, state))
            if self._nfa.is_accepting(state) and node not in results:
                results[node] = Walk(sequence, cost)
                if remaining is not None:
                    remaining.discard(node)
                    if not remaining:
                        return results
            for delta, extension, next_node, next_state in self._expand(node, state):
                if (next_node, next_state) in settled:
                    continue
                next_sequence = sequence + extension
                counter += 1
                heapq.heappush(
                    heap,
                    (
                        cost + delta,
                        walk_key(next_sequence),
                        counter,
                        next_node,
                        next_state,
                        next_sequence,
                    ),
                )
        return results

    # ------------------------------------------------------------------
    # k shortest walks
    # ------------------------------------------------------------------
    def k_shortest(
        self, source: ObjectId, target: ObjectId, k: int
    ) -> List[Walk]:
        """The k cheapest *distinct* conforming walks from source to target.

        Under the paper's arbitrary-walk semantics this is the classic
        "count-bounded Dijkstra": each product state may be expanded a
        bounded number of times, enumerating walks in (cost, key) order.
        Distinct automaton runs can project to the *same* graph walk, so
        a fixed pop bound per state can silently starve the enumeration;
        the exact scans below therefore count only *distinct* walk
        prefixes against the per-state bound (k of them always suffice:
        the j-th cheapest walk to any state extends an i-th cheapest walk
        to a predecessor with i <= j) and skip duplicate prefixes outright.

        The reference engine runs the exhaustive duplicate-aware scan.
        """
        if k <= 0 or source not in self._graph.nodes:
            return []
        if target not in self._graph.nodes:
            return []
        if self._naive:
            return self._k_shortest_exhaustive(source, target, k)
        return self._k_shortest_batched(source, target, k)

    def _k_shortest_batched(
        self, source: ObjectId, target: ObjectId, k: int
    ) -> List[Walk]:
        """Parent-pointer exact scan: k distinct-prefix pops per state."""
        nfa = self._nfa
        moves_for = self._moves_for
        results: List[Walk] = []
        seen_walks: Set[Tuple[str, ...]] = set()
        popped: Dict[Tuple[ObjectId, int], Set[Tuple[str, ...]]] = {}
        parents: List[int] = [_NO_PARENT]
        extensions: List[tuple] = [(source,)]
        counter = 0
        heap = [(0.0, (str(source),), 0, source, nfa.start, 0)]
        while heap and len(results) < k:
            cost, key, _, node, state, entry = heapq.heappop(heap)
            state_key = (node, state)
            keys = popped.get(state_key)
            if keys is None:
                keys = set()
                popped[state_key] = keys
            if key in keys:
                continue  # duplicate run of an already-expanded walk
            if len(keys) >= k:
                continue  # k distinct walks already expanded here
            keys.add(key)
            if (
                node == target
                and nfa.is_accepting(state)
                and key not in seen_walks
            ):
                seen_walks.add(key)
                results.append(
                    _make_walk(self._reconstruct(entry, parents, extensions), cost)
                )
                if len(results) >= k:
                    break
            for delta, extension, ext_key, next_node, next_state in moves_for(
                node, state
            ):
                next_keys = popped.get((next_node, next_state))
                if next_keys is not None and len(next_keys) >= k:
                    continue
                parents.append(entry)
                extensions.append(extension)
                counter += 1
                heapq.heappush(
                    heap,
                    (
                        cost + delta,
                        key + ext_key,
                        counter,
                        next_node,
                        next_state,
                        len(parents) - 1,
                    ),
                )
        return results

    def _k_shortest_exhaustive(
        self, source: ObjectId, target: ObjectId, k: int
    ) -> List[Walk]:
        """Row-at-a-time duplicate-aware exact scan (the reference).

        Independent of the batched scan: carries whole sequences in the
        heap, but applies the same distinct-prefix accounting — duplicate
        (state, sequence) pops are skipped without touching the budget,
        and each state expands at most its k cheapest distinct prefixes.
        """
        results: List[Walk] = []
        seen_walks: Set[Tuple[ObjectId, ...]] = set()
        popped: Dict[Tuple[ObjectId, int], Set[Tuple[ObjectId, ...]]] = {}
        counter = 0
        heap = [(0.0, walk_key((source,)), counter, source, self._nfa.start, (source,))]
        while heap and len(results) < k:
            cost, _, _, node, state, sequence = heapq.heappop(heap)
            state_key = (node, state)
            sequences = popped.setdefault(state_key, set())
            if sequence in sequences:
                continue
            if len(sequences) >= k:
                continue
            sequences.add(sequence)
            if (
                node == target
                and self._nfa.is_accepting(state)
                and sequence not in seen_walks
            ):
                seen_walks.add(sequence)
                results.append(Walk(sequence, cost))
                if len(results) >= k:
                    break
            for delta, extension, next_node, next_state in self._expand(node, state):
                known = popped.get((next_node, next_state))
                if known is not None and len(known) >= k:
                    continue
                next_sequence = sequence + extension
                counter += 1
                heapq.heappush(
                    heap,
                    (
                        cost + delta,
                        walk_key(next_sequence),
                        counter,
                        next_node,
                        next_state,
                        next_sequence,
                    ),
                )
        return results

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def reachable_from(self, source: ObjectId) -> FrozenSet[ObjectId]:
        """All nodes reachable from *source* via a conforming walk."""
        if source not in self._graph.nodes:
            return frozenset()
        moves = self._moves()
        seen: Set[Tuple[ObjectId, int]] = {(source, self._nfa.start)}
        stack = [(source, self._nfa.start)]
        reachable: Set[ObjectId] = set()
        if self._nfa.is_accepting(self._nfa.start):
            reachable.add(source)
        while stack:
            node, state = stack.pop()
            # Moves are 4-tuples from the reference generator, 5-tuples
            # (with a key part) from the batched memo; unpack from the end.
            for move in moves(node, state):
                pair = (move[-2], move[-1])
                if pair in seen:
                    continue
                seen.add(pair)
                stack.append(pair)
                if self._nfa.is_accepting(pair[1]):
                    reachable.add(pair[0])
        return frozenset(reachable)

    def reachable_multi(
        self, sources: Sequence[ObjectId]
    ) -> Dict[ObjectId, FrozenSet[ObjectId]]:
        """Reachability from every distinct source, sharing the move memo."""
        out: Dict[ObjectId, FrozenSet[ObjectId]] = {}
        for source in sources:
            if source not in out:
                out[source] = self.reachable_from(source)
        return out

    # ------------------------------------------------------------------
    # ALL-paths projection
    # ------------------------------------------------------------------
    def all_paths_projection(
        self, source: ObjectId, target: ObjectId
    ) -> Tuple[FrozenSet[ObjectId], FrozenSet[ObjectId]]:
        """Nodes and edges lying on *some* conforming walk source -> target.

        Computes forward-reachable product states, then walks the recorded
        transition relation backwards from accepting target states; a
        transition survives iff both ends are in the intersection. This is
        the paper's tractable ALL-paths projection ([10]): no walk is ever
        materialized.
        """
        if source not in self._graph.nodes or target not in self._graph.nodes:
            return frozenset(), frozenset()
        moves = self._moves()
        start = (source, self._nfa.start)
        forward: Set[Tuple[ObjectId, int]] = {start}
        # transition list: (from_state, to_state, nodes_used, edges_used)
        transitions: List[
            Tuple[
                Tuple[ObjectId, int],
                Tuple[ObjectId, int],
                Tuple[ObjectId, ...],
                Tuple[ObjectId, ...],
            ]
        ] = []
        stack = [start]
        while stack:
            node, state = stack.pop()
            # 4-tuples (reference) or 5-tuples (batched memo); the
            # extension sits at index 1 either way.
            for move in moves(node, state):
                extension = move[1]
                pair = (move[-2], move[-1])
                nodes_used = tuple(extension[1::2])
                edges_used = tuple(extension[0::2])
                transitions.append(((node, state), pair, nodes_used, edges_used))
                if pair not in forward:
                    forward.add(pair)
                    stack.append(pair)
        accepting = {
            pair
            for pair in forward
            if pair[0] == target and self._nfa.is_accepting(pair[1])
        }
        if not accepting:
            return frozenset(), frozenset()
        # Backward reachability over the recorded transitions.
        incoming: Dict[Tuple[ObjectId, int], List[int]] = {}
        for index, (src_pair, dst_pair, _, _) in enumerate(transitions):
            incoming.setdefault(dst_pair, []).append(index)
        co_reachable: Set[Tuple[ObjectId, int]] = set(accepting)
        stack2 = list(accepting)
        while stack2:
            pair = stack2.pop()
            for index in incoming.get(pair, ()):
                src_pair = transitions[index][0]
                if src_pair not in co_reachable:
                    co_reachable.add(src_pair)
                    stack2.append(src_pair)
        core = forward & co_reachable
        nodes: Set[ObjectId] = set()
        edges: Set[ObjectId] = set()
        if start in core:
            nodes.add(source)
        for src_pair, dst_pair, nodes_used, edges_used in transitions:
            if src_pair in core and dst_pair in core:
                nodes.add(src_pair[0])
                nodes.add(dst_pair[0])
                nodes.update(nodes_used)
                edges.update(edges_used)
        return frozenset(nodes), frozenset(edges)
