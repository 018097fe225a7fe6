"""Coverage for error paths, the planner, the catalog and the id factory."""

import pytest

from repro import GCoreEngine, GraphBuilder
from repro.catalog import Catalog, table_as_graph
from repro.errors import (
    EvaluationError,
    SemanticError,
    UnknownGraphError,
    UnknownTableError,
)
from repro.eval.context import EvalContext, IdFactory
from repro.eval.match import decompose_chain, _AnonNamer
from repro.config import DEFAULT_CONFIG
from repro.eval.planner import atom_score, explain_order, order_atoms, plan_location
from repro.lang.parser import parse_query
from repro.table import Table


class TestErrors:
    def test_unknown_graph(self, engine):
        with pytest.raises(UnknownGraphError):
            engine.run("CONSTRUCT (n) MATCH (n) ON mystery")

    def test_unknown_table(self, engine):
        with pytest.raises(UnknownTableError):
            engine.run("SELECT a FROM mystery")

    def test_no_default_graph(self):
        eng = GCoreEngine()
        with pytest.raises(UnknownGraphError):
            eng.run("CONSTRUCT (n) MATCH (n)")

    def test_undirected_path_pattern_rejected(self, engine):
        with pytest.raises(SemanticError):
            engine.bindings("MATCH (a)-/p<:knows*>/-(b)")

    def test_undirected_construct_edge_rejected(self, engine):
        with pytest.raises(SemanticError):
            engine.run("CONSTRUCT (a)-[e:x]-(b) MATCH (a)-[:knows]->(b)")

    def test_construct_path_var_must_be_bound(self, engine):
        with pytest.raises(SemanticError):
            engine.run("CONSTRUCT (a)-/@q/->(b) MATCH (a)-[:knows]->(b)")

    def test_node_var_as_edge_in_construct(self, engine):
        with pytest.raises(SemanticError):
            engine.run("CONSTRUCT (x)-[n]->(y) MATCH (n:Person), (x), (y)")

    def test_division_by_zero_at_runtime(self, engine):
        with pytest.raises(EvaluationError):
            engine.run("CONSTRUCT (n {bad := 1 / 0}) MATCH (n:Tag)")


class TestIdFactory:
    def test_fresh_never_repeats(self):
        ids = IdFactory()
        assert len({ids.fresh() for _ in range(100)}) == 100

    def test_skolem_memoizes(self):
        ids = IdFactory()
        a = ids.skolem("n", ("site", 0), ("Acme",))
        b = ids.skolem("n", ("site", 0), ("Acme",))
        c = ids.skolem("n", ("site", 0), ("HAL",))
        assert a == b and a != c

    def test_skolem_distinct_sites(self):
        ids = IdFactory()
        assert ids.skolem("n", 1, ()) != ids.skolem("n", 2, ())


class TestCatalog:
    def test_table_as_graph_properties(self):
        table = Table(("a", "b"), [(1, None), (2, "x")], name="t")
        g = table_as_graph(table)
        assert g.order() == 2
        values = {frozenset(g.properties(n).keys()) for n in g.nodes}
        assert values == {frozenset({"a"}), frozenset({"a", "b"})}

    def test_graph_names_listing(self):
        catalog = Catalog()
        b = GraphBuilder()
        b.add_node("n")
        catalog.register_graph("g1", b.build())
        assert catalog.graph_names() == ["g1"]
        assert catalog.default_graph_name == "g1"

    def test_view_cache_resolution(self, engine):
        engine.run("GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Tag))")
        assert engine.catalog.has_graph("v")
        assert engine.catalog.view_query("v") is not None


class TestPlanner:
    def chain_atoms(self, text):
        query = parse_query(f"CONSTRUCT (x) MATCH {text}")
        chain = query.body.match.block.patterns[0].chain
        return decompose_chain(chain, _AnonNamer())

    def test_labeled_node_scheduled_before_plain(self):
        atoms = self.chain_atoms("(a)-[e]->(b:Person)")
        ordered = order_atoms(atoms, set())
        assert ordered[0].kind == "node" and ordered[0].var == "b"

    def test_path_atom_waits_for_source(self):
        atoms = self.chain_atoms("(a:Person)-/p<:knows*>/->(b)")
        ordered = order_atoms(atoms, set())
        kinds = [atom.kind for atom in ordered]
        assert kinds.index("path") > kinds.index("node")

    def test_naive_preserves_syntax_order(self):
        atoms = self.chain_atoms("(a)-[e]->(b:Person)")
        assert order_atoms(atoms, set(), naive=True) == list(atoms)

    def test_scores_monotone_in_boundness(self):
        atoms = self.chain_atoms("(a)-[e:knows]->(b)")
        edge = next(a for a in atoms if a.kind == "edge")
        assert atom_score(edge, {"a"}) > atom_score(edge, set())
        assert atom_score(edge, {"a", "b"}) > atom_score(edge, {"a"})

    def test_explain_order_mentions_atoms(self):
        atoms = self.chain_atoms("(a:Person)-[e]->(b)")
        greedy = DEFAULT_CONFIG.with_(planner="greedy")
        text = explain_order(plan_location(atoms, None, (), (), (), None, greedy))
        assert "node" in text and "edge" in text

    def test_hop_expands_edge_before_scanning_target(self):
        # Binding n makes the knows edge an index lookup whose estimate
        # drops below the m scan; the planner must notice the drop and
        # expand the edge instead of cross-joining n with every Person.
        from repro import datasets

        eng = GCoreEngine()
        datasets.load("snb", scale=30, seed=1).install(eng)
        text = eng.explain(
            "SELECT m.firstName MATCH (n:Person)-[:knows]->(m:Person) "
            "WHERE n.firstName = $name"
        )
        steps = [
            (line.split()[0], line.split("binds=")[1])
            for line in text.splitlines()
            if "binds=" in line
        ]
        assert steps == [
            ("node", "['n']"),
            ("edge", "['m', 'n']"),
            ("node", "['m']"),
        ]


class TestContext:
    def test_child_depth_guard(self, engine):
        ctx = EvalContext(engine.catalog)
        for _ in range(64):
            ctx = ctx.child()
        with pytest.raises(EvaluationError):
            ctx.child()

    def test_lookup_missing_object(self, engine):
        ctx = EvalContext(engine.catalog)
        assert ctx.lookup_labels("ghost-object") == frozenset()
        assert ctx.lookup_property("ghost-object", "k") == frozenset()
        assert ctx.lookup_properties("ghost-object") == {}
