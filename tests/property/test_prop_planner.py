"""Property tests for the cost-based planner.

Pattern semantics is a join: the atom evaluation order can never change
the binding table, only its cost. For random small graphs and random
chains we check that all three planner modes — cost-based (statistics),
heuristic (constant weights) and naive (syntax order) — agree, and that
planning is a permutation (every atom scheduled exactly once), and that
every greedy step picks the best atom under the bound set of that step.
"""

from hypothesis import given, settings, strategies as st

from repro.catalog import Catalog
from repro.config import DEFAULT_CONFIG, NAIVE_CONFIG
from repro.eval.context import EvalContext
from repro.eval.match import _AnonNamer, decompose_chain, evaluate_block
from repro.eval.planner import (
    atom_score,
    estimate_cardinality,
    order_atoms,
    plan_atoms,
)
from repro.lang import ast
from repro.model.builder import GraphBuilder

NODES = ["a", "b", "c", "d", "e"]
LABELS = ["X", "Y", "Z"]
EDGE_LABELS = ["k", "l"]
PROPS = {"p": ["1", "2"], "q": ["1"]}


@st.composite
def graphs(draw):
    builder = GraphBuilder()
    for node in NODES:
        props = {}
        for key, values in PROPS.items():
            if draw(st.booleans()):
                props[key] = draw(st.sampled_from(values))
        builder.add_node(
            node,
            labels=draw(st.sets(st.sampled_from(LABELS))),
            properties=props,
        )
    for index in range(draw(st.integers(0, 8))):
        builder.add_edge(
            draw(st.sampled_from(NODES)),
            draw(st.sampled_from(NODES)),
            edge_id=f"e{index}",
            labels=[draw(st.sampled_from(EDGE_LABELS))],
        )
    return builder.build()


@st.composite
def chains(draw):
    """Random chains of 1-4 node patterns joined by labeled edges."""
    length = draw(st.integers(0, 3))
    node_vars = ["n0", "n1", "n2", "n3"][: length + 1]
    elements = []
    for index, var in enumerate(node_vars):
        labels = ()
        if draw(st.booleans()):
            labels = ((draw(st.sampled_from(LABELS)),),)
        prop_tests = ()
        if draw(st.booleans()):
            key = draw(st.sampled_from(sorted(PROPS)))
            prop_tests = ((key, ast.Literal(draw(st.sampled_from(PROPS[key])))),)
        elements.append(
            ast.NodePattern(var=var, labels=labels, prop_tests=prop_tests)
        )
        if index < length:
            edge_labels = ()
            if draw(st.booleans()):
                edge_labels = ((draw(st.sampled_from(EDGE_LABELS)),),)
            elements.append(
                ast.EdgePattern(
                    var=f"e{index}",
                    direction=draw(
                        st.sampled_from([ast.OUT, ast.IN, ast.UNDIRECTED])
                    ),
                    labels=edge_labels,
                )
            )
    return ast.Chain(tuple(elements))


_REFERENCE = DEFAULT_CONFIG.with_(
    executor="reference", expressions="interpreted", paths="naive"
)

#: Each planner order on each executor: cost and greedy on both, the
#: syntax order on the columnar pipeline (NAIVE_CONFIG covers it on the
#: reference executor in the other oracle suites).
PLANNER_POINTS = (
    DEFAULT_CONFIG,
    DEFAULT_CONFIG.with_(planner="greedy"),
    NAIVE_CONFIG.with_(
        executor="columnar", expressions="vectorized", paths="batched"
    ),
    _REFERENCE,
    _REFERENCE.with_(planner="greedy"),
)


def _evaluate(graph, chain, config):
    catalog = Catalog()
    catalog.register_graph("g", graph, default=True)
    ctx = EvalContext(catalog, config=config)
    block = ast.MatchBlock((ast.PatternLocation(chain, "g"),), None)
    return set(evaluate_block(block, ctx))


@given(graphs(), chains())
@settings(max_examples=80, deadline=None)
def test_all_planner_modes_agree(graph, chain):
    """Every planner mode *and* both executors produce the same table.

    This is the oracle of the columnar rewrite: the binding set must not
    depend on the atom order or on the executor.
    """
    first, *rest = [
        _evaluate(graph, chain, config) for config in PLANNER_POINTS
    ]
    assert all(table == first for table in rest)


@given(graphs(), chains(), st.sets(st.sampled_from(["n0", "n1", "n2"])))
@settings(max_examples=80, deadline=None)
def test_ordering_is_a_permutation(graph, chain, bound):
    atoms = decompose_chain(chain, _AnonNamer())
    ordered = order_atoms(atoms, bound, stats=graph.statistics())
    assert sorted(map(id, ordered)) == sorted(map(id, atoms))
    steps = plan_atoms(atoms, bound, stats=graph.statistics())
    assert [id(s.atom) for s in steps] == [id(a) for a in ordered]
    assert all(s.estimate is not None and s.estimate >= 0.0 for s in steps)


@given(
    graphs(),
    chains(),
    st.sets(st.sampled_from(["n0", "n1", "n2"])),
    st.booleans(),
    st.dictionaries(
        st.sampled_from(["n0", "n1", "n2", "n3", "e0", "e1"]),
        st.just(("p",)),
    ),
)
@settings(max_examples=120, deadline=None)
def test_each_step_takes_the_best_remaining_atom(
    graph, chain, bound, with_stats, pushed
):
    """Priorities move both ways as variables bind (an edge's estimate
    drops once an endpoint is bound), so each selection must be the
    minimum over every remaining atom re-scored under that step's
    bound set — not under the set in force when it was last scored."""
    atoms = decompose_chain(chain, _AnonNamer())
    stats = graph.statistics() if with_stats else None
    pushed = pushed or None

    def priority(atom, bound_now):
        score = atom_score(atom, bound_now)
        if stats is None:
            return (-score,)
        return (estimate_cardinality(atom, bound_now, stats, pushed), -score)

    steps = plan_atoms(atoms, bound, stats=stats, pushed_props=pushed)
    bound_now = set(bound)
    remaining = list(atoms)
    for step in steps:
        chosen = priority(step.atom, bound_now)
        for atom in remaining:
            assert chosen <= priority(atom, bound_now)
        remaining = [atom for atom in remaining if atom is not step.atom]
        bound_now |= step.atom.binds()
