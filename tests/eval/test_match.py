"""Unit tests for MATCH evaluation on small targeted graphs."""

import pytest

from repro.config import NAIVE_CONFIG
from repro.errors import SemanticError


def rows(engine, text):
    return {tuple(sorted(row.items(), key=lambda kv: kv[0]))
            for row in engine.bindings(text)}


class TestNodePatterns:
    def test_all_nodes(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (n)")
        assert len(table) == 4

    def test_label_filter(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (n:Mid)")
        assert {row["n"] for row in table} == {"b", "c"}

    def test_label_conjunction(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (n:Mid:Alt)")
        assert {row["n"] for row in table} == {"c"}

    def test_label_disjunction(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (n:Start|End)")
        assert {row["n"] for row in table} == {"a", "d"}

    def test_property_test(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (n {name='a'})")
        assert {row["n"] for row in table} == {"a"}

    def test_property_bind(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (n:Start {name=v})")
        assert table.rows[0]["v"] == "a"

    def test_anonymous_node_not_bound(self, tiny_engine):
        table = tiny_engine.bindings("MATCH ()")
        assert table.columns == ()
        assert len(table) == 1  # one empty binding: pure existence

    def test_no_match_empty(self, tiny_engine):
        assert len(tiny_engine.bindings("MATCH (n:Ghost)")) == 0


class TestEdgePatterns:
    def test_directed_edge(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (a:Start)-[e]->(b)")
        assert {(r["a"], r["e"], r["b"]) for r in table} == {
            ("a", "ab", "b"), ("a", "ac", "c"),
        }

    def test_reversed_edge(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (b)<-[e:x]-(a)")
        assert {r["b"] for r in table} == {"b", "c"}

    def test_undirected_edge(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (m:Mid)-[e]-(x)")
        # b: ab in, bd out; c: ac in, cd out — both orientations found
        assert len(table) == 4

    def test_edge_label_filter(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (a)-[e:y]->(b)")
        assert {r["e"] for r in table} == {"bd", "cd"}

    def test_edge_property_test(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (a)-[e {w=1}]->(b)")
        assert {r["e"] for r in table} == {"ab"}

    def test_edge_property_bind(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (a:Start)-[e:x {w=v}]->(b)")
        assert {(r["e"], r["v"]) for r in table} == {("ab", 1), ("ac", 2)}

    def test_chain(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (a:Start)-[:x]->(m)-[:y]->(d:End)")
        assert {r["m"] for r in table} == {"b", "c"}

    def test_homomorphism_allows_repeats(self, tiny_engine):
        # (x)-[e1]->(y), (x)-[e2]->(z): e1 and e2 may bind the same edge.
        table = tiny_engine.bindings("MATCH (x:Start)-[e1]->(y), (x)-[e2]->(z)")
        same = [r for r in table if r["e1"] == r["e2"]]
        assert same  # no injectivity constraint (Section 6)

    def test_self_loop(self):
        from repro import GCoreEngine, GraphBuilder

        b = GraphBuilder()
        b.add_node("n")
        b.add_edge("n", "n", edge_id="loop", labels=["self"])
        eng = GCoreEngine()
        eng.register_graph("g", b.build(), default=True)
        table = eng.bindings("MATCH (x)-[e:self]->(x)")
        assert len(table) == 1 and table.rows[0]["x"] == "n"


class TestPropertyTestErrors:
    def test_missing_param_with_no_candidates_matches_reference(self, tiny_engine):
        # The reference executor never evaluates a property test when no
        # candidate reaches it; the columnar executor's constant-test
        # prefetch must not raise earlier than that (regression).
        from repro.errors import EvaluationError

        query = "MATCH (n:NoSuchLabel {k=$missing})"
        assert len(tiny_engine.bindings(query)) == 0
        assert len(tiny_engine.bindings(query, config=NAIVE_CONFIG)) == 0
        # With candidates present, both executors raise identically.
        with pytest.raises(EvaluationError):
            tiny_engine.bindings("MATCH (n {k=$missing})")
        with pytest.raises(EvaluationError):
            tiny_engine.bindings("MATCH (n {k=$missing})", config=NAIVE_CONFIG)


class TestWhere:
    def test_filter_by_property(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (n) WHERE n.name = 'b'")
        assert {r["n"] for r in table} == {"b"}

    def test_filter_with_arithmetic(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (a)-[e]->(b) WHERE e.w + 1 > 4")
        assert {r["e"] for r in table} == {"cd"}

    def test_label_test_in_where(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (n) WHERE (n:Mid)")
        assert len(table) == 2

    def test_pattern_predicate(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (n) WHERE (n)-[:y]->()")
        assert {r["n"] for r in table} == {"b", "c"}

    def test_negated_pattern_predicate(self, tiny_engine):
        table = tiny_engine.bindings("MATCH (n) WHERE NOT (n)-[:y]->()")
        assert {r["n"] for r in table} == {"a", "d"}


class TestMultiGraph:
    def test_join_across_graphs(self, engine):
        table = engine.bindings(
            "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
            "WHERE c.name = n.employer"
        )
        assert {(r["c"], r["n"]) for r in table} == {
            ("acme", "alice"), ("acme", "john"), ("hal", "celine"),
        }

    def test_cartesian_product_size(self, engine):
        table = engine.bindings(
            "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph"
        )
        assert len(table) == 20  # the paper's 20-row table

    def test_trailing_on_covers_earlier_patterns(self, engine):
        engine.run("GRAPH VIEW only_tags AS (CONSTRUCT (t) MATCH (t:Tag))")
        table = engine.bindings("MATCH (a), (b) ON only_tags")
        assert {r["a"] for r in table} == {"wagner"}

    def test_sort_clash_rejected(self, engine):
        with pytest.raises(SemanticError):
            engine.bindings("MATCH (n)-[n]->(m)")
