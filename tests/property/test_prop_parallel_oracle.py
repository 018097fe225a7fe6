"""Property test: parallel execution vs. the serial oracle.

ISSUE 7's exactness bar: a worker pool is an implementation detail, so a
query run at ``parallelism=N`` must produce the *identical* result — the
same rows in the same order with the same columns, the same group merge
order under GROUP BY, the same ABSENT masks under OPTIONAL, and the same
skolem identities under CONSTRUCT — as the serial engine, at every point
of the mode lattice (planner x executor x expressions x paths crossed
with the parallelism axis).

The dispatch thresholds are forced to 1 so every example actually rides
the pool (no vacuous parity through the size guards), on the thread
backend for speed; one test pins the fork backend end to end and a spy
asserts morsels were genuinely dispatched.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro import GCoreEngine
from repro.config import ExecutionConfig
from repro.eval import parallel
from repro.model.builder import GraphBuilder
from repro.model.io import graph_to_dict

PARALLEL = ExecutionConfig(parallelism=3)


@pytest.fixture(scope="module", autouse=True)
def force_dispatch():
    """Thresholds -> 1 (everything dispatches), thread backend (fast)."""
    try:
        with parallel.dispatch_always():
            yield
    finally:
        parallel.shutdown_pools()


EMPLOYERS = ("Acme", "HAL", "CWI")


@st.composite
def social_graphs(draw):
    """Small random Person/knows graphs with filterable properties."""
    builder = GraphBuilder(name="g")
    count = draw(st.integers(3, 7))
    for index in range(count):
        builder.add_node(
            f"p{index}",
            labels=["Person"],
            properties={
                "name": f"p{index}",
                "age": draw(st.integers(20, 45)),
                "employer": draw(st.sampled_from(EMPLOYERS)),
            },
        )
    for index in range(draw(st.integers(0, 10))):
        source = draw(st.integers(0, count - 1))
        target = draw(st.integers(0, count - 1))
        builder.add_edge(
            f"p{source}", f"p{target}", edge_id=f"k{index}", labels=["knows"]
        )
    return builder.build()


def make_engine(graph):
    engine = GCoreEngine()
    engine.register_graph("g", graph, default=True)
    return engine


#: An OPTIONAL block seeded with every Person: its tail splits over
#: several morsels, and its WHERE conjunct is pushed to an atom's probe.
OPTIONAL_PUSHED = (
    "SELECT n.name AS name, m.name AS friend MATCH (n:Person) "
    "OPTIONAL (n)-[:knows]->(m:Person) WHERE m.employer = 'Acme'"
)

# Each query leans on a different parallel surface: compiled WHERE
# kernels, GROUP BY partial aggregation (merge order = group
# first-occurrence order — no ORDER BY on purpose), OPTIONAL ABSENT
# masks flowing through morsels, and plain projection.
SELECT_QUERIES = [
    "SELECT n.name AS a, m.name AS b "
    "MATCH (n:Person)-[:knows]->(m:Person) "
    "WHERE n.age >= m.age AND n.employer = 'Acme'",
    "SELECT n.employer AS emp, COUNT(*) AS c, MIN(n.age) AS lo, "
    "COUNT(DISTINCT n.name) AS dn "
    "MATCH (n:Person) GROUP BY n.employer",
    "SELECT n.name AS name, m.name AS friend "
    "MATCH (n:Person) OPTIONAL (n)-[:knows]->(m:Person)",
    "SELECT n.name AS name, n.age + 1 AS next "
    "MATCH (n:Person) WHERE n.age >= 21 ORDER BY name",
    OPTIONAL_PUSHED,
]


def assert_same_table(serial, parallel_result):
    assert parallel_result.columns == serial.columns
    assert list(parallel_result.rows) == list(serial.rows)


@given(social_graphs())
@settings(max_examples=40, deadline=None)
def test_select_queries_match_serial_exactly(graph):
    engine = make_engine(graph)
    for query in SELECT_QUERIES:
        serial = engine.run(query)
        assert_same_table(serial, engine.run(query, config=PARALLEL))


@given(social_graphs())
@settings(max_examples=30, deadline=None)
def test_path_bindings_match_serial_exactly(graph):
    """Per-source-group batched path search partitions transparently."""
    query = "MATCH (n:Person)-/<:knows*>/->(m:Person)"
    engine = make_engine(graph)
    serial = engine.bindings(query)
    parallel_table = engine.bindings(query, config=PARALLEL)
    assert parallel_table.variables == serial.variables
    assert list(parallel_table.rows) == list(serial.rows)


@given(social_graphs())
@settings(max_examples=30, deadline=None)
def test_construct_skolem_identities_match_serial(graph):
    """CONSTRUCT with an unbound variable mints one skolem node per
    binding — morsel execution must preserve the binding order those
    identities are derived from, so the result graphs are bit-identical.
    """
    query = (
        "CONSTRUCT (n)-[:flagged]->(x) "
        "MATCH (n:Person)-[:knows]->(m:Person) WHERE n.age >= m.age"
    )
    engine = make_engine(graph)
    serial = engine.run(query)
    parallel_graph = engine.run(query, config=PARALLEL)
    assert graph_to_dict(parallel_graph) == graph_to_dict(serial)


LATTICE = st.builds(
    ExecutionConfig,
    planner=st.sampled_from(("cost", "greedy", "naive")),
    executor=st.sampled_from(("columnar", "reference")),
    expressions=st.sampled_from(("vectorized", "interpreted")),
    paths=st.sampled_from(("batched", "naive")),
)


@given(social_graphs(), LATTICE, st.sampled_from(SELECT_QUERIES))
@settings(max_examples=60, deadline=None)
def test_parallelism_axis_is_transparent_across_lattice(graph, config, query):
    """parallelism=N vs. serial at the *same* lattice point, for every
    combination of the other axes (fallback points included: e.g. the
    reference executor never dispatches, and must say so by producing
    the serial answer, not by diverging)."""
    engine = make_engine(graph)
    serial = engine.run(query, config=config)
    assert_same_table(
        serial, engine.run(query, config=config.with_(parallelism=3))
    )


def _fixed_graph():
    builder = GraphBuilder(name="g")
    for index in range(8):
        builder.add_node(
            f"p{index}",
            labels=["Person"],
            properties={
                "name": f"p{index}",
                "age": 20 + index,
                "employer": EMPLOYERS[index % len(EMPLOYERS)],
            },
        )
    for index in range(8):
        builder.add_edge(
            f"p{index}",
            f"p{(index * 3 + 1) % 8}",
            edge_id=f"k{index}",
            labels=["knows"],
        )
    return builder.build()


def _spy_on_dispatch(monkeypatch):
    calls = []
    original = parallel._run_tasks

    def spy(fn, payloads, config):
        calls.append(fn.__name__)
        return original(fn, payloads, config)

    monkeypatch.setattr(parallel, "_run_tasks", spy)
    return calls


def test_thread_backend_actually_dispatches(monkeypatch):
    """Guard against vacuous parity: the suite must ride the pool."""
    calls = _spy_on_dispatch(monkeypatch)
    engine = make_engine(_fixed_graph())
    for query in SELECT_QUERIES:
        assert_same_table(
            engine.run(query), engine.run(query, config=PARALLEL)
        )
    assert calls, "no query dispatched to the worker pool"


def test_optional_tail_morsels_all_apply_the_pushed_conjunct(monkeypatch):
    """Morsel workers share one immutable block plan: the first worker
    thread must not use up the pushed conjunct for the others."""
    morsels = []
    original = parallel._run_tasks

    def spy(fn, payloads, config):
        if fn.__name__ == "_block_tail_worker":
            morsels.append(len(payloads))
        return original(fn, payloads, config)

    monkeypatch.setattr(parallel, "_run_tasks", spy)
    engine = make_engine(_fixed_graph())
    assert "[probe]" in engine.explain(OPTIONAL_PUSHED, config=PARALLEL)
    serial = engine.run(OPTIONAL_PUSHED)
    assert_same_table(serial, engine.run(OPTIONAL_PUSHED, config=PARALLEL))
    assert morsels and max(morsels) >= 2


@pytest.mark.skipif(
    not parallel._FORK_AVAILABLE, reason="fork start method unavailable"
)
def test_fork_backend_matches_serial(monkeypatch):
    """At least one end-to-end run on the production (fork) backend."""
    monkeypatch.setattr(parallel, "DEFAULT_BACKEND", "fork")
    calls = _spy_on_dispatch(monkeypatch)
    engine = make_engine(_fixed_graph())
    try:
        for query in SELECT_QUERIES:
            assert_same_table(
                engine.run(query),
                engine.run(query, config=ExecutionConfig(parallelism=2)),
            )
        query = "MATCH (n:Person)-/<:knows*>/->(m:Person)"
        serial = engine.bindings(query)
        forked = engine.bindings(query, config=ExecutionConfig(parallelism=2))
        assert list(forked.rows) == list(serial.rows)
    finally:
        parallel.shutdown_pools()
    assert calls, "no query dispatched to the fork pool"
