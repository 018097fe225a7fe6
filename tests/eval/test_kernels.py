"""Vectorized expression kernels vs. the interpreted oracle.

Every test runs the same query through the compiled-kernel engine (the
default), the interpreted-expression arm (columnar executor, row-at-a-time
``ExpressionEvaluator``), and the full ``NAIVE_CONFIG`` reference, asserting
exact agreement — including the comparison/aggregate semantics fixes of
this PR (bool/number separation, DISTINCT normalization, Date extrema)
and the WHERE predicate pushdown machinery.
"""

import pytest

from repro import GCoreEngine, GraphBuilder
from repro.config import DEFAULT_CONFIG, NAIVE_CONFIG
from repro.eval.context import EvalContext
from repro.eval.query import evaluate_statement
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.model.values import Date
from repro.eval.pushdown import PushdownPlan, split_conjuncts
from repro.table import Table


def typed_rows(table: Table):
    """Rows with type tags, so True vs 1 cannot hide behind Python ==."""
    return [
        tuple((type(cell).__name__, cell) for cell in row)
        for row in table.rows
    ]


def run_modes(engine, text, params=None):
    """(vectorized, interpreted-expressions, naive-reference) results."""
    vectorized = engine.run(text, params=params)
    ctx = EvalContext(
        engine.catalog, config=DEFAULT_CONFIG.with_(expressions="interpreted")
    )
    if params:
        ctx.params = dict(params)
    interpreted = evaluate_statement(engine.parse(text), ctx)
    naive = engine.run(text, params=params, config=NAIVE_CONFIG)
    return vectorized, interpreted, naive


def assert_modes_agree(engine, text, params=None):
    vectorized, interpreted, naive = run_modes(engine, text, params)
    if isinstance(vectorized, Table):
        assert vectorized.columns == interpreted.columns == naive.columns
        assert (
            typed_rows(vectorized)
            == typed_rows(interpreted)
            == typed_rows(naive)
        )
    else:  # graph results
        assert sorted(vectorized.nodes, key=str) == \
            sorted(naive.nodes, key=str)
        assert sorted(vectorized.edges, key=str) == \
            sorted(naive.edges, key=str)
    return vectorized


@pytest.fixture()
def typed_engine():
    """A graph whose properties span bool/int/float/str/Date/multi-set."""
    b = GraphBuilder(name="typed")
    b.add_node("a", labels=["Thing"], properties={
        "flag": True, "rank": 1, "score": 1.5, "name": "alpha",
        "since": Date(2014, 12, 1), "tags": {"x", "y"},
    })
    b.add_node("b", labels=["Thing"], properties={
        "flag": False, "rank": 2, "score": 2.0, "name": "beta",
        "since": Date(2015, 6, 30), "tags": {"y"},
    })
    b.add_node("c", labels=["Thing", "Odd"], properties={
        "rank": 1.0, "name": "gamma", "since": Date(2013, 1, 15),
        "mixed": 1,
    })
    b.add_node("d", labels=["Thing"], properties={
        "flag": True, "rank": 7, "name": "delta", "mixed": True,
    })
    b.add_edge("a", "b", edge_id="e1", labels=["rel"],
               properties={"w": 2})
    b.add_edge("b", "c", edge_id="e2", labels=["rel"],
               properties={"w": 5})
    b.add_edge("c", "d", edge_id="e3", labels=["other"])
    eng = GCoreEngine()
    eng.register_graph("typed", b.build(), default=True)
    return eng


class TestWhereParity:
    QUERIES = [
        "SELECT n.name AS n MATCH (n:Thing) WHERE n.rank > 1",
        "SELECT n.name AS n MATCH (n:Thing) WHERE n.rank = 1",
        "SELECT n.name AS n MATCH (n) WHERE n.flag = TRUE AND n.rank < 5",
        "SELECT n.name AS n MATCH (n) WHERE n.flag = TRUE OR n:Odd",
        "SELECT n.name AS n MATCH (n) WHERE NOT (n.flag = FALSE) XOR n.rank > 1",
        "SELECT n.name AS n MATCH (n) WHERE 'x' IN n.tags",
        "SELECT n.name AS n MATCH (n) WHERE n.tags SUBSET OF ['x', 'y', 'z']",
        "SELECT n.name AS n MATCH (n) WHERE n.rank + 1 > 2",
        "SELECT n.name AS n MATCH (n) WHERE CASE WHEN n.rank > 1 "
        "THEN n.flag ELSE TRUE END",
        "SELECT n.name AS n MATCH (n) WHERE SIZE(n.tags) >= 1",
        "SELECT n.name AS n, m.name AS m MATCH (n)-[e:rel]->(m) "
        "WHERE e.w > 2 AND n.rank <= 2",
        "SELECT n.name AS n MATCH (n) WHERE n.since < $cutoff",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_three_mode_agreement(self, typed_engine, query):
        assert_modes_agree(
            typed_engine, query, params={"cutoff": Date(2015, 1, 1)}
        )

    def test_where_filters_rows(self, typed_engine):
        t = typed_engine.run(
            "SELECT n.name AS n MATCH (n:Thing) WHERE n.rank > 1 ORDER BY n"
        )
        assert list(t.column("n")) == ["beta", "delta"]


class TestComparisonSemanticsFixes:
    def test_true_less_than_two_is_false_everywhere(self, typed_engine):
        # d.mixed = TRUE: a bool never compares against a number.
        t = assert_modes_agree(
            typed_engine,
            "SELECT n.name AS n MATCH (n) WHERE n.mixed < 2",
        )
        assert list(t.column("n")) == ["gamma"]  # c.mixed = 1 (a number)

    def test_bool_prop_comparisons(self, typed_engine):
        t = assert_modes_agree(
            typed_engine,
            "SELECT n.name AS n MATCH (n) WHERE n.flag >= 0",
        )
        assert len(t) == 0

    def test_count_distinct_keeps_bool_and_one_apart(self, typed_engine):
        t = assert_modes_agree(
            typed_engine,
            "SELECT COUNT(DISTINCT n.mixed) AS c MATCH (n:Thing)",
        )
        assert t.rows == ((2,),)  # {1, TRUE}, not conflated to 1

    def test_min_max_over_dates(self, typed_engine):
        t = assert_modes_agree(
            typed_engine,
            "SELECT MIN(n.since) AS lo, MAX(n.since) AS hi MATCH (n:Thing)",
        )
        assert t.rows == ((Date(2013, 1, 15), Date(2015, 6, 30)),)


class TestAggregationParity:
    QUERIES = [
        "SELECT COUNT(*) AS c MATCH (n:Thing)",
        "SELECT n.flag AS f, COUNT(*) AS c MATCH (n:Thing) "
        "GROUP BY n.flag ORDER BY c DESC",
        "SELECT SUM(n.rank) AS s, AVG(n.rank) AS a MATCH (n:Thing)",
        "SELECT COLLECT(n.name) AS names MATCH (n:Thing)",
        "SELECT n.rank AS r, MIN(n.name) AS lo MATCH (n:Thing) "
        "GROUP BY n.rank ORDER BY lo",
        "SELECT COUNT(m) AS c, n.name AS nm "
        "MATCH (n:Thing) OPTIONAL (n)-[:rel]->(m) GROUP BY n.name ORDER BY nm",
        "SELECT COUNT(*) + 1 AS c1, CASE WHEN COUNT(*) > 3 THEN 'big' "
        "ELSE 'small' END AS size MATCH (n:Thing)",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_three_mode_agreement(self, typed_engine, query):
        assert_modes_agree(typed_engine, query)

    def test_star_is_count_only(self, typed_engine):
        # SUM(*) / FOO(*) parse; both evaluators must reject them with
        # the oracle's messages, never silently return the group count.
        from repro.errors import EvaluationError

        for query, fragment in (
            ("SELECT SUM(*) AS s MATCH (n:Thing)", "requires an argument"),
            ("SELECT FOO(*) AS s MATCH (n:Thing)", "unknown aggregate"),
        ):
            for config in (None, NAIVE_CONFIG):
                with pytest.raises(EvaluationError, match=fragment):
                    typed_engine.run(query, config=config)

    def test_count_star_maximality_over_presence_masks(self, typed_engine):
        # OPTIONAL misses leave m ABSENT; COUNT(*) counts only maximal rows.
        t = assert_modes_agree(
            typed_engine,
            "SELECT n.name AS nm, COUNT(*) AS c "
            "MATCH (n:Thing) OPTIONAL (n)-[:rel]->(m) "
            "GROUP BY n.name ORDER BY nm",
        )
        # c's only out-edge is labeled "other", d has none: both OPTIONAL
        # misses count 0 under the maximality rule.
        assert dict(t.rows) == {"alpha": 1, "beta": 1, "gamma": 0, "delta": 0}


class TestErrorParity:
    def test_arithmetic_error_raises_in_both_modes(self, typed_engine):
        from repro.errors import EvaluationError

        query = "SELECT n.name + 1 AS x MATCH (n:Thing)"
        with pytest.raises(EvaluationError):
            typed_engine.run(query)
        with pytest.raises(EvaluationError):
            typed_engine.run(query, config=NAIVE_CONFIG)

    def test_short_circuit_avoids_error_in_both_modes(self, typed_engine):
        # n.name + 1 would raise, but AND never reaches it when the
        # left conjunct is false — under either evaluator.
        query = (
            "SELECT n.name AS n MATCH (n:Thing) "
            "WHERE n.rank > 99 AND n.name + 1 > 0"
        )
        assert typed_engine.run(query).rows == ()
        assert typed_engine.run(query, config=NAIVE_CONFIG).rows == ()

    def test_division_by_zero_raises_in_both_modes(self, typed_engine):
        from repro.errors import EvaluationError

        query = "SELECT n.rank / 0 AS x MATCH (n:Thing)"
        with pytest.raises(EvaluationError):
            typed_engine.run(query)
        with pytest.raises(EvaluationError):
            typed_engine.run(query, config=NAIVE_CONFIG)


class TestPushdown:
    def test_split_conjuncts_flattens_nested_ands(self):
        parser = Parser(tokenize(
            "MATCH (n) WHERE n.a = 1 AND (n.b = 2 AND n.c = 3)"
        ))
        clause = parser._match_clause()
        conjuncts = split_conjuncts(clause.block.where)
        assert len(conjuncts) == 3

    def test_non_total_conjuncts_stay_residual(self):
        parser = Parser(tokenize(
            "MATCH (n) WHERE n.a + 1 > 2 AND n.b = 2"
        ))
        clause = parser._match_clause()
        plan = PushdownPlan(clause.block.where, {})
        # The arithmetic conjunct blocks itself AND everything to its
        # right (error-order preservation).
        assert len(plan.pushable) == 0
        assert len(plan.blocked) == 2

    def test_total_prefix_is_pushable(self):
        parser = Parser(tokenize(
            "MATCH (n) WHERE n.b = 2 AND n.a + 1 > 2"
        ))
        clause = parser._match_clause()
        plan = PushdownPlan(clause.block.where, {})
        assert len(plan.pushable) == 1
        assert len(plan.blocked) == 1

    def test_pushed_property_keys_feed_the_planner(self):
        parser = Parser(tokenize(
            "MATCH (n)-[e:rel]->(m) WHERE n.rank = 1 AND e.w > 2"
        ))
        clause = parser._match_clause()
        plan = PushdownPlan(clause.block.where, {})
        keys = plan.pushed_property_keys()
        assert keys == {"n": ("rank",), "e": ("w",)}

    def test_missing_param_is_not_pushable(self):
        parser = Parser(tokenize("MATCH (n) WHERE n.a = $v"))
        clause = parser._match_clause()
        assert len(PushdownPlan(clause.block.where, {}).pushable) == 0
        assert len(PushdownPlan(clause.block.where, {"v": 1}).pushable) == 1

    def test_pushdown_results_match_reference(self, typed_engine):
        # Conjuncts over n and e push into different atoms; result must
        # equal the naive reference exactly (rows and order).
        t1 = typed_engine.bindings(
            "MATCH (n)-[e:rel]->(m) WHERE n.rank <= 2 AND e.w > 2 "
            "AND m.name = 'gamma'"
        )
        t2 = typed_engine.bindings(
            "MATCH (n)-[e:rel]->(m) WHERE n.rank <= 2 AND e.w > 2 "
            "AND m.name = 'gamma'",
            config=NAIVE_CONFIG,
        )
        assert t1 == t2
        assert list(t1.rows) == list(t2.rows)
        assert len(t1) == 1

    def test_label_test_conjunct_pushes(self, typed_engine):
        t1 = typed_engine.bindings("MATCH (n)-[:rel]->(m) WHERE (m:Odd)")
        t2 = typed_engine.bindings(
            "MATCH (n)-[:rel]->(m) WHERE (m:Odd)", config=NAIVE_CONFIG
        )
        assert t1 == t2 and len(t1) == 1


class TestExplainPushdown:
    def test_explain_reports_probe_assignment(self, typed_engine):
        text = typed_engine.explain(
            "CONSTRUCT (n) MATCH (n:Thing)-[e:rel]->(m) "
            "WHERE n.rank = 1 AND m.name = 'gamma'"
        )
        # Which atom probes a conjunct is the planner's choice; both
        # conjuncts must land at some atom's probe, never a filter.
        pushed = [line.strip() for line in text.splitlines() if "pushed" in line]
        for conjunct in ("n.rank = 1", "m.name = 'gamma'"):
            (line,) = [p for p in pushed if p.startswith(f"pushed {conjunct} ->")]
            assert line.endswith("[probe]")

    def test_explain_reports_residual(self, typed_engine):
        text = typed_engine.explain(
            "CONSTRUCT (n) MATCH (n:Thing) WHERE n.rank + 1 > 2"
        )
        assert "residual n.rank + 1 > 2" in text

    def test_explain_assumes_params_bound(self, typed_engine):
        # Execution always has every $param bound, so EXPLAIN must show
        # the conjunct pushed — not residual.
        text = typed_engine.explain(
            "CONSTRUCT (n) MATCH (n:Thing) WHERE n.rank = $r"
        )
        assert "pushed n.rank = $r -> node(n) [probe]" in text
        assert "residual" not in text

    def test_explain_reports_join_conjunct_as_filter(self, typed_engine):
        text = typed_engine.explain(
            "CONSTRUCT (n) MATCH (n:Thing), (m:Thing) WHERE n.rank = m.rank"
        )
        assert "[filter]" in text


class TestVectorizedFlagPlumbing:
    def test_projection_of_expressions(self, typed_engine):
        assert_modes_agree(
            typed_engine,
            "SELECT n.name AS nm, n.rank * 2 AS dbl, "
            "CASE WHEN n.flag THEN 'y' ELSE 'n' END AS f "
            "MATCH (n:Thing) ORDER BY nm",
        )

    def test_list_and_index_kernels(self, typed_engine):
        assert_modes_agree(
            typed_engine,
            "SELECT [n.rank, n.name][0] AS head MATCH (n:Thing) ORDER BY head",
        )

    def test_exists_pattern_falls_back(self, typed_engine):
        assert_modes_agree(
            typed_engine,
            "SELECT n.name AS nm MATCH (n:Thing) "
            "WHERE (n)-[:rel]->() ORDER BY nm",
        )


def _match_clause(text):
    parser = Parser(tokenize(text))
    clause = parser._match_clause()
    parser.expect_eof()
    return clause


class TestBindingParity:
    """Binding-table-level parity on the toy data.

    Vectorized vs interpreted expressions under the *same* planner must
    agree exactly (rows, order, columns); against the naive reference
    (different atom order) the tables must be set-equal.
    """

    QUERIES = [
        "MATCH (n:Person) WHERE n.employer = 'Acme'",
        "MATCH (n:Person)-[:knows]->(m) WHERE m.lastName = 'Doe'",
        "MATCH (n:Person {employer=e}) WHERE e = 'CWI' OR e = 'MIT'",
        "MATCH (n:Person)-[:knows]->(m:Person) "
        "WHERE n.firstName < m.firstName",
    ]

    def evaluate(self, engine, query, vectorized):
        from repro.eval.match import evaluate_match

        expressions = "vectorized" if vectorized else "interpreted"
        ctx = EvalContext(
            engine.catalog, config=DEFAULT_CONFIG.with_(expressions=expressions)
        )
        return evaluate_match(_match_clause(query), ctx)

    @pytest.mark.parametrize("query", QUERIES)
    def test_exact_table_parity(self, engine, query):
        fast = self.evaluate(engine, query, vectorized=True)
        slow = self.evaluate(engine, query, vectorized=False)
        assert fast.columns == slow.columns
        assert list(fast.rows) == list(slow.rows)
        assert fast == engine.bindings(query, config=NAIVE_CONFIG)


#: Every literal type, multi-valued and empty sets, and the
#: bool/number and int/float pairs whose Python equality would conflate.
EQUALITY_VALUES = [
    True, False, 0, 1, 1.0, 2, 2.5, "1", "a", "",
    Date(2014, 12, 1), Date(2015, 6, 30),
    frozenset(), frozenset({1}), frozenset({True}), frozenset({1.0, "a"}),
    frozenset({"a"}), frozenset({1, 2}), frozenset({2 ** 53, 2 ** 53 + 1}),
    float(2 ** 53),
]


class TestEqualsConstantKernel:
    """The ``=``-against-a-constant kernel vs. ``gcore_equals``."""

    @pytest.mark.parametrize("constant", EQUALITY_VALUES)
    def test_elementwise_matches_gcore_equals(self, constant):
        from repro.eval.kernels import equals_constant
        from repro.model.values import gcore_equals

        assert equals_constant(EQUALITY_VALUES, constant) == [
            gcore_equals(value, constant) for value in EQUALITY_VALUES
        ]
        assert equals_constant(EQUALITY_VALUES, constant, True) == [
            gcore_equals(constant, value) for value in EQUALITY_VALUES
        ]

    def test_non_literal_values_raise_like_gcore_equals(self):
        from repro.eval.kernels import equals_constant
        from repro.model.values import gcore_equals

        bad = [object(), frozenset({object()}), frozenset({1, object()})]
        for value in bad:
            for constant in (1, frozenset({1, 2}), frozenset()):
                with pytest.raises(TypeError) as expected:
                    gcore_equals(value, constant)
                with pytest.raises(TypeError) as actual:
                    equals_constant([value], constant)
                assert str(actual.value) == str(expected.value)
        # An invalid constant raises with gcore_equals's argument order.
        for constant_left in (False, True):
            pair = (object(), object())
            with pytest.raises(TypeError) as expected:
                gcore_equals(*pair)
            with pytest.raises(TypeError) as actual:
                equals_constant(
                    [pair[constant_left]], pair[1 - constant_left], constant_left
                )
            assert str(actual.value) == str(expected.value)

    @pytest.mark.parametrize(
        "param", [1, True, 1.0, "a", Date(2014, 12, 1), [1, "a"], {2, 2.5}, []]
    )
    def test_param_constant_in_compiled_kernel(self, param):
        from repro.algebra.binding import BindingTable
        from repro.catalog import Catalog
        from repro.eval.kernels import ExpressionCompiler, KernelContext
        from repro.lang import ast
        from repro.model.values import gcore_equals

        ctx = EvalContext(Catalog())
        ctx.params = {"p": param}
        table = BindingTable.from_columns(
            ("x",), ("x",), {"x": list(EQUALITY_VALUES)},
            len(EQUALITY_VALUES), dedup=False,
        )
        rows = list(range(len(table)))
        constant = frozenset(param) if isinstance(param, (list, set)) else param
        compiler = ExpressionCompiler(ctx)
        x, p = ast.Var("x"), ast.Param("p")
        for expr, expected in (
            (ast.Binary("=", x, p), [gcore_equals(v, constant) for v in EQUALITY_VALUES]),
            (ast.Binary("=", p, x), [gcore_equals(constant, v) for v in EQUALITY_VALUES]),
        ):
            kernel = compiler.compile(expr)
            assert kernel(KernelContext(table, ctx), rows) == expected

    def test_missing_param_raises_only_for_rows(self):
        from repro.algebra.binding import BindingTable
        from repro.catalog import Catalog
        from repro.errors import EvaluationError
        from repro.eval.kernels import ExpressionCompiler, KernelContext
        from repro.lang import ast

        ctx = EvalContext(Catalog())
        table = BindingTable.from_columns(("x",), ("x",), {"x": [1]}, 1)
        kernel = ExpressionCompiler(ctx).compile(
            ast.Binary("=", ast.Var("x"), ast.Param("missing"))
        )
        assert kernel(KernelContext(table, ctx), []) == []
        with pytest.raises(EvaluationError, match=r"\$missing"):
            kernel(KernelContext(table, ctx), [0])


@pytest.fixture()
def snb_engine():
    from repro import datasets

    eng = GCoreEngine()
    datasets.load("snb", scale=30, seed=1).install(eng)
    return eng


class TestProbeBatching:
    """A probe filters its candidates in one batch per atom execution."""

    @staticmethod
    def count_filter_calls(monkeypatch, module):
        from repro.eval import kernels

        calls = []

        def counting(table, ctx, conjuncts, compiler=None):
            calls.append(len(table))
            return kernels.compiled_filter_rows(table, ctx, conjuncts, compiler)

        monkeypatch.setattr(module, "compiled_filter_rows", counting)
        return calls

    @pytest.mark.parametrize(
        "query, probes",
        [
            # n probes a node scan; e and m probe the edge atom.
            (
                "MATCH (n:Person)-[e:knows]->(m:Person) "
                "WHERE n.firstName = 'John' AND (e:knows) "
                "AND m.lastName <> 'Doe'",
                3,
            ),
            # The OPTIONAL block is seeded with every Person row; its
            # m conjunct still filters in one batch.
            (
                "MATCH (n:Person) OPTIONAL (n)-[e:knows]->(m) "
                "WHERE m.firstName = 'Alice'",
                1,
            ),
            # Both endpoints of an undirected edge, probed at once.
            (
                "MATCH (n:Person)-[e:knows]-(m) WHERE n.firstName = 'Mark' "
                "AND m.firstName = 'John'",
                2,
            ),
        ],
    )
    def test_one_filter_call_per_probe(self, snb_engine, monkeypatch, query, probes):
        from repro.config import NAIVE_CONFIG
        from repro.eval import match

        expected = snb_engine.bindings(query, config=NAIVE_CONFIG)
        calls = self.count_filter_calls(monkeypatch, match)
        table = snb_engine.bindings(query)
        assert len(calls) == probes
        assert table == expected


class TestWhenCompiled:
    """CONSTRUCT ... WHEN through the compiled filter, overlay included."""

    QUERIES = [
        # WHEN reads the property the same CONSTRUCT just assigned.
        "CONSTRUCT (n)-[e:f {w := m.name}]->(m) WHEN e.w = 'd' "
        "MATCH (n)-[x]->(m)",
        "CONSTRUCT (n {tag := n.name})-[e:g]->(m) WHEN n.tag <> 'a' "
        "MATCH (n)-[x]->(m)",
        "CONSTRUCT (n)-[e:agg {c := COUNT(*)}]->(m) WHEN e.c > 1 "
        "MATCH (n:Start)-[x]->(mid)-[y]->(m)",
    ]

    @staticmethod
    def snapshot(graph):
        return (
            sorted(graph.nodes, key=str),
            sorted((str(e), graph.endpoints(e)) for e in graph.edges),
            sorted(
                (str(obj), key, sorted(map(str, graph.property(obj, key))))
                for obj in [*graph.nodes, *graph.edges]
                for key in graph.properties(obj)
            ),
        )

    @pytest.mark.parametrize("query", QUERIES)
    def test_when_parity(self, tiny_engine, monkeypatch, query):
        from repro.config import DEFAULT_CONFIG, NAIVE_CONFIG
        from repro.eval import construct

        naive = tiny_engine.run(query, config=NAIVE_CONFIG)
        interpreted = tiny_engine.run(
            query, config=DEFAULT_CONFIG.with_(expressions="interpreted")
        )
        calls = TestProbeBatching.count_filter_calls(monkeypatch, construct)
        fast = tiny_engine.run(query)
        assert len(calls) == 1
        assert self.snapshot(fast) == self.snapshot(naive)
        assert self.snapshot(fast) == self.snapshot(interpreted)
        assert fast.edges
