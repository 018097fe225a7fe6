"""Incremental view maintenance: strategy analysis, staleness, patching."""

import pytest

from repro import GCoreEngine, GraphBuilder, GraphDelta
from repro.config import DEFAULT_CONFIG
from repro.errors import SemanticError, StaleViewError, UnknownGraphError
from repro.eval.maintenance import analyze_view, describe_strategy
from repro.eval.planner import PlanCache


def chain_graph():
    b = GraphBuilder(name="base")
    for i in range(6):
        b.add_node(f"n{i}", labels=["Person"], properties={"score": i})
    for i in range(5):
        b.add_edge(f"n{i}", f"n{i + 1}", edge_id=f"e{i}", labels=["knows"])
    b.add_edge("n0", "n3", edge_id="x0", labels=["likes"])
    return b.build()


@pytest.fixture()
def eng():
    engine = GCoreEngine()
    engine.register_graph("base", chain_graph(), default=True)
    return engine


IDENTITY_VIEW = (
    "GRAPH VIEW v AS (CONSTRUCT (a)-[e]->(b) MATCH (a:Person)-[e:knows]->(b))"
)


def oracle(engine, body):
    fresh = GCoreEngine()
    fresh.register_graph("base", engine.graph("base"), default=True)
    return fresh.run(body)


class TestStrategyAnalysis:
    def analyze(self, eng, text):
        statement = eng.parse(text)
        return analyze_view(statement.query, eng.catalog)

    def test_identity_view_is_incremental(self, eng):
        plan = self.analyze(eng, IDENTITY_VIEW)
        assert plan.strategy == "incremental"
        assert plan.base == "base"
        assert plan.deps == ("base",)
        assert plan.node_vars == ("a", "b")
        assert plan.items == ((("a", "b"), ("e",)),)

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a)-/p<:knows*>/->(b))",
             "path pattern"),
            ("GRAPH VIEW v AS (CONSTRUCT (a)-[e]->(b) SET e.c := COUNT(*) "
             "MATCH (a)-[e:knows]->(b))", "non-identity"),
            ("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person) "
             "OPTIONAL (a)-[e:knows]->(b))", "OPTIONAL"),
            ("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person) "
             "WHERE (a)-[:likes]->(:Person))", "pattern predicate"),
            ("GRAPH VIEW v AS (CONSTRUCT (c) MATCH (a:Person), (c) "
             "ON company_graph)", "multiple graphs"),
            ("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a)-[:knows]->())",
             "anonymous node"),
            ("GRAPH VIEW v AS (CONSTRUCT (a), base MATCH (a:Person))",
             "graph union"),
            ("GRAPH VIEW v AS (CONSTRUCT (x) MATCH (a)-[e:knows]->(b))",
             "non-identity"),
            ("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a)-[e:knows]-(b))",
             "undirected"),
            ("GRAPH VIEW v AS (base UNION base)", "set operation"),
            ("GRAPH VIEW v AS (GRAPH g AS (CONSTRUCT (a) MATCH (a)) "
             "CONSTRUCT (m) MATCH (m) ON g)", "head"),
        ],
    )
    def test_fallback_reasons(self, eng, text, needle):
        eng.register_graph("company_graph", chain_graph())
        plan = self.analyze(eng, text)
        assert plan.strategy == "full"
        assert needle in plan.reason
        assert needle in describe_strategy(plan)

    def test_view_over_view_falls_back(self, eng):
        eng.run(IDENTITY_VIEW)
        plan = self.analyze(
            eng, "GRAPH VIEW w AS (CONSTRUCT (a) MATCH (a) ON v)"
        )
        assert plan.strategy == "full"
        assert "mutable base graph" in plan.reason

    def test_explain_reports_strategy(self, eng):
        sketch = eng.explain(IDENTITY_VIEW)
        assert "view maintenance: incremental" in sketch
        sketch = eng.explain(
            "GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person) "
            "OPTIONAL (a)-[e:knows]->(b))"
        )
        assert "view maintenance: full recompute" in sketch


class TestIncrementalRefresh:
    BODY = "CONSTRUCT (a)-[e]->(b) MATCH (a:Person)-[e:knows]->(b)"

    def refresh_and_check(self, eng):
        got = eng.refresh_view("v")
        expected = oracle(eng, self.BODY)
        assert got == expected
        assert eng.graph("v") == expected
        return got

    def test_insertions(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.apply_update(
            "base",
            GraphDelta()
            .add_node("n9", labels=["Person"])
            .add_edge("k9", "n9", "n0", labels=["knows"]),
        )
        got = self.refresh_and_check(eng)
        assert "n9" in got.nodes

    def test_removals_with_shared_support(self, eng):
        eng.run(IDENTITY_VIEW)
        # n1 participates in e0 (as target) and e1 (as source): removing
        # e0 must keep n1 alive through e1's support.
        eng.apply_update("base", GraphDelta().remove_edge("e0"))
        got = self.refresh_and_check(eng)
        assert "n1" in got.nodes and "e0" not in got.edges

    def test_property_and_label_changes_propagate(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.apply_update(
            "base",
            GraphDelta()
            .set_property("n2", "score", 99)
            .add_label("e1", "strong"),
        )
        got = self.refresh_and_check(eng)
        assert got.property("n2", "score") == frozenset({99})
        assert got.has_label("e1", "strong")

    def test_where_filter_gains_and_loses_rows(self):
        engine = GCoreEngine()
        engine.register_graph("base", chain_graph(), default=True)
        engine.run(
            "GRAPH VIEW v AS (CONSTRUCT (a)-[e]->(b) "
            "MATCH (a)-[e:knows]->(b) WHERE a.score = 0)"
        )
        assert engine.graph("v").edges == frozenset({"e0"})
        engine.apply_update(
            "base",
            GraphDelta()
            .set_property("n0", "score", 1)
            .set_property("n3", "score", 0),
        )
        got = engine.refresh_view("v")
        expected = oracle(
            engine,
            "CONSTRUCT (a)-[e]->(b) MATCH (a)-[e:knows]->(b) "
            "WHERE a.score = 0",
        )
        assert got == expected
        assert got.edges == frozenset({"e3"})

    def test_multi_delta_changelog_in_one_refresh(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.apply_update("base", GraphDelta().add_node("m1", labels=["Person"]))
        eng.apply_update(
            "base", GraphDelta().add_edge("me", "m1", "n4", labels=["knows"])
        )
        eng.apply_update("base", GraphDelta().remove_node("n0"))
        got = self.refresh_and_check(eng)
        assert "me" in got.edges and "n0" not in got.nodes

    def test_node_removal_drops_cascaded_edges(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.apply_update("base", GraphDelta().remove_node("n2"))
        got = self.refresh_and_check(eng)
        assert "n2" not in got.nodes
        assert "e1" not in got.edges and "e2" not in got.edges

    def test_refresh_without_changes_is_noop(self, eng):
        eng.run(IDENTITY_VIEW)
        before = eng.graph("v")
        assert eng.refresh_view("v") == before

    def test_forced_full_recompute_matches(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.apply_update("base", GraphDelta().remove_edge("e1"))
        got = eng.refresh_view(
            "v", config=DEFAULT_CONFIG.with_(view_refresh="full")
        )
        assert got == oracle(eng, self.BODY)

    def test_base_replacement_falls_back_to_full(self, eng):
        eng.run(IDENTITY_VIEW)
        b = GraphBuilder()
        b.add_node("z1", labels=["Person"])
        b.add_node("z2", labels=["Person"])
        b.add_edge("z1", "z2", edge_id="ez", labels=["knows"])
        eng.register_graph("base", b.build(), default=True)
        got = eng.refresh_view("v")
        assert got.nodes == {"z1", "z2"} and got.edges == {"ez"}

    def test_incremental_after_full_rebuild_keeps_working(self, eng):
        eng.run(IDENTITY_VIEW)
        b = GraphBuilder()
        for n in ("z1", "z2", "z3"):
            b.add_node(n, labels=["Person"])
        b.add_edge("z1", "z2", edge_id="ez", labels=["knows"])
        eng.register_graph("base", b.build(), default=True)
        eng.refresh_view("v")  # full rebuild, re-snapshots + new state
        eng.apply_update(
            "base", GraphDelta().add_edge("ez2", "z2", "z3", labels=["knows"])
        )
        got = self.refresh_and_check(eng)
        assert "ez2" in got.edges


class TestStaleness:
    def test_reregistered_base_marks_dependents_stale(self, eng):
        """Regression: re-registering a base graph used to leave dependent
        views stale with no invalidation signal at all."""
        eng.run(IDENTITY_VIEW)
        assert not eng.catalog.is_view_stale("v")
        assert eng.stale_views() == []
        eng.register_graph("base", chain_graph(), default=True)
        assert eng.catalog.is_view_stale("v")
        assert eng.stale_views() == ["v"]
        with pytest.raises(StaleViewError) as err:
            eng.get_graph("v")
        assert "refresh_view" in str(err.value)
        # lenient accessors still serve the old materialization
        assert eng.get_graph("v", allow_stale=True) is not None
        assert eng.graph("v") is not None
        eng.refresh_view("v")
        assert eng.stale_views() == []
        assert eng.get_graph("v") == eng.graph("v")

    def test_apply_update_marks_dependents_stale(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.apply_update("base", GraphDelta().add_node("q", labels=["Person"]))
        assert eng.catalog.is_view_stale("v")
        eng.refresh_view("v")
        assert not eng.catalog.is_view_stale("v")

    def test_transitive_staleness_through_view_on_view(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.run("GRAPH VIEW w AS (CONSTRUCT (x) MATCH (x) ON v)")
        assert eng.stale_views() == []
        eng.apply_update("base", GraphDelta().add_node("q", labels=["Person"]))
        assert eng.catalog.is_view_stale("w")  # via v
        eng.refresh_view("v")
        # v fresh again, but w still points at v's old materialization
        assert eng.catalog.is_view_stale("w")
        eng.refresh_view("w")
        assert eng.stale_views() == []

    def test_default_pointer_move_marks_onless_views_stale(self, eng):
        """Regression: an ON-less view resolves through the default-graph
        pointer; after set_default_graph its incremental refresh used to
        keep patching against the definition-time default while the full
        oracle re-resolved the new one."""
        eng.register_graph("other", GraphBuilder(name="other").build())
        eng.run("GRAPH VIEW dv AS (CONSTRUCT (a)-[e]->(b) "
                "MATCH (a)-[e:knows]->(b))")
        assert not eng.catalog.is_view_stale("dv")
        eng.set_default_graph("other")
        assert eng.catalog.is_view_stale("dv")
        refreshed = eng.refresh_view("dv")  # must recompute over 'other'
        assert refreshed.is_empty()
        assert not eng.catalog.is_view_stale("dv")
        # ON-qualified views are immune to the pointer move
        eng.set_default_graph("base")
        eng.run("GRAPH VIEW qv AS (CONSTRUCT (a)-[e]->(b) "
                "MATCH (a)-[e:knows]->(b) ON base)")
        eng.set_default_graph("other")
        assert not eng.catalog.is_view_stale("qv")

    def test_non_views_are_never_stale(self, eng):
        assert not eng.catalog.is_view_stale("base")
        assert not eng.catalog.is_view_stale("nonsense")
        assert eng.get_graph("base") is not None


class TestCatalogEdgeCases:
    def test_view_query_unknown_name(self, eng):
        assert eng.catalog.view_query("mystery") is None
        assert eng.catalog.view_meta("mystery") is None

    def test_refresh_unknown_view(self, eng):
        with pytest.raises(UnknownGraphError):
            eng.refresh_view("mystery")

    def test_view_reregistration_replaces(self, eng):
        eng.run("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person))")
        assert len(eng.graph("v").nodes) == 6
        eng.run(
            "GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person) "
            "WHERE a.score = 0)"
        )
        assert eng.graph("v").nodes == {"n0"}

    def test_view_name_colliding_with_graph_rejected(self, eng):
        with pytest.raises(SemanticError):
            eng.run("GRAPH VIEW base AS (CONSTRUCT (a) MATCH (a:Person))")

    def test_view_name_colliding_with_table_rejected(self, eng):
        from repro.table import Table

        eng.register_table("t", Table(("a",), [(1,)]))
        with pytest.raises(SemanticError):
            eng.run("GRAPH VIEW t AS (CONSTRUCT (a) MATCH (a:Person))")

    def test_graph_name_colliding_with_view_rejected(self, eng):
        eng.run(IDENTITY_VIEW)
        with pytest.raises(SemanticError):
            eng.register_graph("v", chain_graph())

    def test_table_name_colliding_with_view_rejected(self, eng):
        from repro.table import Table

        eng.run(IDENTITY_VIEW)
        with pytest.raises(SemanticError):
            eng.register_table("v", Table(("a",), [(1,)]))

    def test_base_graph_accessor_rejects_views(self, eng):
        eng.run(IDENTITY_VIEW)
        with pytest.raises(UnknownGraphError):
            eng.catalog.base_graph("v")
        with pytest.raises(UnknownGraphError):
            eng.apply_update("v", GraphDelta().add_node("x"))

    def test_plain_register_view_still_maintains_incrementally(self, eng):
        """catalog.register_view without plan/state (the raw API): the
        first incremental refresh rebuilds support counts from the
        dependency snapshot and patches from there on."""
        body = "CONSTRUCT (a)-[e]->(b) MATCH (a)-[e:knows]->(b)"
        statement = eng.parse(f"GRAPH VIEW v AS ({body})")
        materialized = eng.run(body)
        eng.catalog.register_view("v", statement.query, materialized)
        meta = eng.catalog.view_meta("v")
        assert meta.plan is None and meta.state is None
        eng.apply_update("base", GraphDelta().remove_edge("e2"))
        got = eng.refresh_view("v")
        assert got == oracle(eng, body)
        # and the rebuilt state keeps later refreshes incremental
        assert eng.catalog.view_meta("v").state is not None

    def test_changelog_overflow_degrades_to_full_recompute(self, eng):
        eng.catalog.CHANGELOG_LIMIT = 4
        eng.run(IDENTITY_VIEW)
        for i in range(8):
            eng.apply_update(
                "base",
                GraphDelta().add_node(f"w{i}", labels=["Person"]),
            )
        assert len(eng.catalog.changelog("base")) == 4
        got = eng.refresh_view("v")
        assert got == oracle(
            eng, "CONSTRUCT (a)-[e]->(b) MATCH (a:Person)-[e:knows]->(b)"
        )

    def test_epochs_and_changelog(self, eng):
        eng.run(IDENTITY_VIEW)  # a dependent pins the history
        assert eng.catalog.epoch("base") == 1
        eng.apply_update("base", GraphDelta().add_node("q"))
        assert eng.catalog.epoch("base") == 2
        log = eng.catalog.changelog("base")
        assert [record.kind for record in log] == ["delta"]
        assert log[-1].effects.added_nodes == {"q"}
        assert eng.catalog.changelog("unknown") == []

    def test_changelog_pruned_to_view_snapshots(self, eng):
        # no dependents: only the newest record is retained
        eng.apply_update("base", GraphDelta().add_node("q1"))
        eng.apply_update("base", GraphDelta().add_node("q2"))
        assert len(eng.catalog.changelog("base")) == 1
        # a view pins records newer than its snapshot; refresh frees them
        eng.run(IDENTITY_VIEW)
        eng.apply_update("base", GraphDelta().add_node("q3"))
        eng.apply_update("base", GraphDelta().add_node("q4"))
        assert len(eng.catalog.changelog("base")) == 2
        eng.refresh_view("v")
        assert len(eng.catalog.changelog("base")) <= 1


class TestPlanCachePurge:
    def test_purge_graph_drops_only_that_graph(self, eng):
        cache = PlanCache()
        site, other_site = object(), object()
        g1, g2 = chain_graph(), chain_graph()
        cache.store(site, ("a",), g1, [0])
        cache.store(other_site, ("a",), g2, [0])
        assert cache.purge_graph(g1) == 1
        assert len(cache) == 1
        assert cache.lookup(other_site, ("a",), g2) == [0]
        assert cache.lookup(site, ("a",), g1) is None

    def test_apply_update_keeps_prepared_queries_hot(self, eng):
        text = "SELECT a.score MATCH (a:Person) WHERE a.score = 0"
        eng.run(text)
        assert eng.is_plan_cached(text)
        eng.apply_update("base", GraphDelta().add_node("q", labels=["Person"]))
        # prepared statements survive deltas (only per-graph plans purge)
        assert eng.is_plan_cached(text)
        assert eng.run(text).rows == ((0,),)


class TestReplViews:
    def test_views_command_lists_freshness(self, eng, capsys):
        from repro.__main__ import handle_command

        handle_command(eng, ".views")
        assert "no materialized views" in capsys.readouterr().out
        eng.run(IDENTITY_VIEW)
        handle_command(eng, ".views")
        out = capsys.readouterr().out
        assert "v:" in out and "[fresh]" in out and "incremental" in out
        eng.apply_update("base", GraphDelta().add_node("q"))
        handle_command(eng, ".views")
        assert "[STALE]" in capsys.readouterr().out
