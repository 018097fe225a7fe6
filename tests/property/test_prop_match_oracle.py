"""Property test: the MATCH evaluator vs. a brute-force oracle.

Appendix A.2 defines pattern evaluation extensionally: the set of all
bindings of pattern variables to graph objects satisfying every atom.
For small random graphs and random edge-chain patterns we enumerate that
set directly (all |N|^k x |E|^m assignments) and compare it with the
planner-driven incremental evaluator — catching any divergence between
the optimized implementation and the formal definition.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.algebra.binding import Binding
from repro.catalog import Catalog
from repro.config import DEFAULT_CONFIG, NAIVE_CONFIG
from repro.eval.context import EvalContext
from repro.eval.match import evaluate_block
from repro.lang import ast
from repro.model.builder import GraphBuilder

NODES = ["a", "b", "c", "d"]
LABELS = ["X", "Y"]
EDGE_LABELS = ["k", "l"]


@st.composite
def graphs(draw):
    builder = GraphBuilder()
    for node in NODES:
        builder.add_node(node, labels=draw(st.sets(st.sampled_from(LABELS))))
    count = draw(st.integers(0, 6))
    for index in range(count):
        builder.add_edge(
            draw(st.sampled_from(NODES)),
            draw(st.sampled_from(NODES)),
            edge_id=f"e{index}",
            labels=[draw(st.sampled_from(EDGE_LABELS))],
        )
    return builder.build()


@st.composite
def chains(draw):
    """Random chains of 1-3 node patterns joined by labeled edges."""
    length = draw(st.integers(0, 2))
    node_vars = ["n0", "n1", "n2"][: length + 1]
    elements = []
    for index, var in enumerate(node_vars):
        node_labels = draw(
            st.lists(
                st.lists(st.sampled_from(LABELS), min_size=1, max_size=1)
                .map(tuple),
                max_size=1,
            ).map(tuple)
        )
        elements.append(ast.NodePattern(var=var, labels=node_labels))
        if index < length:
            direction = draw(st.sampled_from([ast.OUT, ast.IN, ast.UNDIRECTED]))
            edge_labels = draw(
                st.lists(
                    st.lists(st.sampled_from(EDGE_LABELS), min_size=1,
                             max_size=1).map(tuple),
                    max_size=1,
                ).map(tuple)
            )
            elements.append(
                ast.EdgePattern(
                    var=f"e{index}", direction=direction, labels=edge_labels
                )
            )
    return ast.Chain(tuple(elements))


def _edge_atom_satisfied(graph, pattern, src, dst, edge):
    if edge not in graph.edges:
        return False
    if not all(
        any(l in graph.labels(edge) for l in group) for group in pattern.labels
    ):
        return False
    endpoints = graph.endpoints(edge)
    if pattern.direction == ast.OUT:
        return endpoints == (src, dst)
    if pattern.direction == ast.IN:
        return endpoints == (dst, src)
    return endpoints in ((src, dst), (dst, src))


def brute_force(graph, chain):
    """Enumerate all satisfying assignments per the formal definition."""
    node_patterns = chain.nodes()
    edge_patterns = chain.connectors()
    node_vars = [p.var for p in node_patterns]
    edge_vars = [p.var for p in edge_patterns]
    results = set()
    for node_choice in itertools.product(sorted(graph.nodes, key=str),
                                         repeat=len(node_vars)):
        ok = True
        for pattern, node in zip(node_patterns, node_choice):
            if not all(
                any(l in graph.labels(node) for l in group)
                for group in pattern.labels
            ):
                ok = False
                break
        if not ok:
            continue
        edge_universe = sorted(graph.edges, key=str) or [None]
        for edge_choice in itertools.product(edge_universe,
                                             repeat=len(edge_vars)):
            if len(edge_vars) and None in edge_choice:
                continue
            good = True
            for index, pattern in enumerate(edge_patterns):
                if not _edge_atom_satisfied(
                    graph, pattern,
                    node_choice[index], node_choice[index + 1],
                    edge_choice[index],
                ):
                    good = False
                    break
            if good:
                binding = dict(zip(node_vars, node_choice))
                binding.update(zip(edge_vars, edge_choice))
                results.add(Binding(binding))
    return results


@given(graphs(), chains())
@settings(max_examples=120, deadline=None)
def test_match_agrees_with_brute_force(graph, chain):
    catalog = Catalog()
    catalog.register_graph("g", graph, default=True)
    ctx = EvalContext(catalog)
    block = ast.MatchBlock((ast.PatternLocation(chain, "g"),), None)
    table = evaluate_block(block, ctx)
    assert set(table) == brute_force(graph, chain)


@given(graphs(), chains())
@settings(max_examples=60, deadline=None)
def test_naive_planner_agrees_with_greedy(graph, chain):
    catalog = Catalog()
    catalog.register_graph("g", graph, default=True)
    block = ast.MatchBlock((ast.PatternLocation(chain, "g"),), None)
    greedy_ctx = EvalContext(catalog)
    naive_ctx = EvalContext(catalog, config=NAIVE_CONFIG)
    assert set(evaluate_block(block, greedy_ctx)) == set(
        evaluate_block(block, naive_ctx)
    )


@given(graphs(), chains())
@settings(max_examples=80, deadline=None)
def test_columnar_executor_matches_reference_exactly(graph, chain):
    """The columnar pipeline vs. the row-at-a-time reference executor.

    Under the same planner the two executors must produce the *identical*
    table — same binding set, same row order, same columns — so the
    columnar rewrite is transparent to everything downstream (pretty
    printing, group representatives, skolem generation).
    """
    catalog = Catalog()
    catalog.register_graph("g", graph, default=True)
    block = ast.MatchBlock((ast.PatternLocation(chain, "g"),), None)
    columnar_ctx = EvalContext(catalog)
    reference_ctx = EvalContext(
        catalog,
        config=DEFAULT_CONFIG.with_(
            executor="reference", expressions="interpreted", paths="naive"
        ),
    )
    columnar = evaluate_block(block, columnar_ctx)
    reference = evaluate_block(block, reference_ctx)
    assert columnar.columns == reference.columns
    assert list(columnar.rows) == list(reference.rows)
