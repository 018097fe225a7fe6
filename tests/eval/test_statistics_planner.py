"""Coverage for the statistics layer, the cost-based planner and the
prepared-query plan cache."""

import pytest

from repro.config import DEFAULT_CONFIG, NAIVE_CONFIG
from repro.engine import PreparedQuery
from repro.errors import EvaluationError
from repro.eval.match import _AnonNamer, decompose_chain
from repro.eval.planner import (
    PlanCache,
    estimate_cardinality,
    explain_order,
    order_atoms,
    plan_atoms,
    plan_location,
)
from repro.lang.parser import parse_query
from repro.model.statistics import DEFAULT_SELECTIVITY


def chain_atoms(text):
    query = parse_query(f"CONSTRUCT (x) MATCH {text}")
    chain = query.body.match.block.patterns[0].chain
    return decompose_chain(chain, _AnonNamer())


def explain_atoms(atoms, graph=None, config=DEFAULT_CONFIG):
    """EXPLAIN's atom lines for a WHERE-less location with nothing bound."""
    return explain_order(plan_location(atoms, None, (), (), (), graph, config))


class TestGraphStatistics:
    def test_totals_match_graph(self, social):
        stats = social.statistics()
        assert stats.node_count == len(social.nodes)
        assert stats.edge_count == len(social.edges)
        assert stats.path_count == len(social.paths)

    def test_label_counts_match_indexes(self, social):
        stats = social.statistics()
        for label in ("Person", "Tag", "City"):
            assert stats.node_label_count(label) == len(
                social.nodes_with_label(label)
            )
        for label in ("knows", "hasInterest"):
            assert stats.edge_label_count(label) == len(
                social.edges_with_label(label)
            )

    def test_statistics_cached_on_graph(self, social):
        assert social.statistics() is social.statistics()

    def test_avg_degree(self, social):
        stats = social.statistics()
        knows = len(social.edges_with_label("knows"))
        assert stats.avg_out_degree("knows") == pytest.approx(
            knows / len(social.nodes)
        )

    def test_property_selectivity_bounds(self, social):
        stats = social.statistics()
        sel = stats.property_selectivity("node", "firstName")
        assert 0.0 < sel <= 1.0
        assert (
            stats.property_selectivity("node", "no-such-key")
            == DEFAULT_SELECTIVITY
        )

    def test_label_selectivity_disjunction(self, social):
        stats = social.statistics()
        persons = stats.node_label_count("Person")
        tags = stats.node_label_count("Tag")
        sel = stats.label_selectivity("node", (("Person", "Tag"),))
        assert sel == pytest.approx((persons + tags) / stats.node_count)

    def test_empty_graph_statistics(self):
        from repro.model.setops import empty_graph

        stats = empty_graph().statistics()
        assert stats.node_count == 0
        assert stats.label_selectivity("node", (("X",),)) == 0.0
        assert stats.avg_out_degree() == 0.0

    def test_describe_mentions_labels(self, social):
        text = social.statistics().describe()
        assert "Person" in text and "knows" in text

    def test_label_reach_fraction(self, social):
        stats = social.statistics()
        fraction = stats.label_reach_fraction("knows")
        targets = {social.endpoints(e)[1] for e in social.edges_with_label("knows")}
        assert fraction == pytest.approx(len(targets) / stats.node_count)
        assert stats.label_reach_fraction("no-such-label") == 0.0

    def test_reachability_estimate_modes(self, social):
        stats = social.statistics()
        # Unknown label set: the default fraction of the graph.
        assert stats.reachability_estimate(None) == pytest.approx(
            max(stats.node_count * 0.5, 1.0)
        )
        # No edge traversal at all: only the source itself.
        assert stats.reachability_estimate(frozenset()) == 1.0
        # Labeled: bounded by the label's entered-node set.
        labeled = stats.reachability_estimate(frozenset({"knows"}))
        assert labeled == pytest.approx(
            max(
                stats.node_count * stats.label_reach_fraction("knows"), 1.0
            )
        )
        assert labeled <= stats.node_count

    def test_path_estimate_uses_regex_labels(self, social):
        # A labeled path pattern must get a tighter (or equal) fan
        # estimate than an unconstrained -/p/-> pattern.
        stats = social.statistics()
        labeled_atom = chain_atoms("(x)-/p <:knows*>/->(y)")[2]
        bare_atom = chain_atoms("(x)-/q/->(y)")[2]
        labeled = estimate_cardinality(labeled_atom, {"x"}, stats)
        bare = estimate_cardinality(bare_atom, {"x"}, stats)
        assert labeled <= bare

    def test_explain_reports_path_strategy(self, social):
        atoms = chain_atoms("(x)-/p <:knows*>/->(y)")
        text = explain_atoms(atoms, social)
        assert "strategy=bfs,batched" in text
        naive_text = explain_atoms(
            atoms, social, DEFAULT_CONFIG.with_(paths="naive")
        )
        assert "strategy=bfs,naive" in naive_text


class TestCardinalityEstimates:
    """Estimates vs. actual cardinalities on the paper's instances."""

    def test_label_scan_estimate_is_exact(self, social):
        stats = social.statistics()
        (atom,) = chain_atoms("(n:Person)")
        estimate = estimate_cardinality(atom, set(), stats)
        actual = len(social.nodes_with_label("Person"))
        assert estimate == pytest.approx(actual)

    def test_unconstrained_scan_estimate_is_exact(self, social):
        stats = social.statistics()
        (atom,) = chain_atoms("(n)")
        assert estimate_cardinality(atom, set(), stats) == pytest.approx(
            len(social.nodes)
        )

    def test_edge_scan_estimate_is_exact(self, social):
        stats = social.statistics()
        atoms = chain_atoms("(a)-[e:knows]->(b)")
        edge = next(a for a in atoms if a.kind == "edge")
        # No endpoint bound: the estimate is the matching-edge count.
        assert estimate_cardinality(edge, set(), stats) == pytest.approx(
            len(social.edges_with_label("knows"))
        )

    def test_bound_endpoint_shrinks_estimate(self, social):
        stats = social.statistics()
        atoms = chain_atoms("(a)-[e:knows]->(b)")
        edge = next(a for a in atoms if a.kind == "edge")
        unbound = estimate_cardinality(edge, set(), stats)
        one_bound = estimate_cardinality(edge, {"a"}, stats)
        both_bound = estimate_cardinality(edge, {"a", "b"}, stats)
        assert unbound > one_bound > both_bound

    def test_property_test_shrinks_estimate(self, social):
        stats = social.statistics()
        (plain,) = chain_atoms("(n:Person)")
        (tested,) = chain_atoms("(n:Person {employer='Acme'})")
        assert estimate_cardinality(
            tested, set(), stats
        ) < estimate_cardinality(plain, set(), stats)

    def test_unbound_path_source_is_penalized(self, social):
        stats = social.statistics()
        atoms = chain_atoms("(a)-/p<:knows*>/->(b)")
        path = next(a for a in atoms if a.kind == "path")
        assert estimate_cardinality(path, set(), stats) > estimate_cardinality(
            path, {"a"}, stats
        )


class TestCostBasedOrdering:
    def test_selective_tag_runs_first(self, social):
        stats = social.statistics()
        atoms = chain_atoms(
            "(n:Person)-[:hasInterest]->(t:Tag {name='Wagner'})"
        )
        ordered = order_atoms(atoms, set(), stats=stats)
        assert ordered[0].kind == "node" and ordered[0].var == "t"

    def test_naive_keeps_syntax_order(self, social):
        atoms = chain_atoms("(a)-[e]->(b:Person)")
        assert order_atoms(
            atoms, set(), naive=True, stats=social.statistics()
        ) == list(atoms)

    def test_plan_steps_record_selection_time_estimates(self, social):
        stats = social.statistics()
        atoms = chain_atoms("(a:Person)-[e:knows]->(b)")
        steps = plan_atoms(atoms, set(), stats=stats)
        assert [s.atom for s in steps] == order_atoms(
            atoms, set(), stats=stats
        )
        bound = set()
        for step in steps:
            assert step.estimate == pytest.approx(
                estimate_cardinality(step.atom, bound, stats)
            )
            bound |= step.atom.binds()

    def test_explain_order_shows_estimates(self, social):
        atoms = chain_atoms("(a:Person)-[e]->(b)")
        text = explain_atoms(atoms, social)
        assert "est~" in text and "node" in text and "edge" in text

    def test_explain_order_without_stats_shows_scores(self, social):
        atoms = chain_atoms("(a:Person)-[e]->(b)")
        greedy = DEFAULT_CONFIG.with_(planner="greedy")
        for text in (explain_atoms(atoms), explain_atoms(atoms, social, greedy)):
            assert "score=" in text and "est~" not in text

    def test_same_bindings_as_heuristic_and_naive(self, engine):
        from repro.eval.context import EvalContext
        from repro.eval.match import evaluate_match
        from repro.lang.lexer import tokenize
        from repro.lang.parser import Parser

        parser = Parser(tokenize(
            "MATCH (n:Person)-[:hasInterest]->(t:Tag), (n)-[e:knows]->(m) "
            "WHERE (m:Person)"
        ))
        clause = parser._match_clause()
        parser.expect_eof()
        tables = []
        for config in (
            DEFAULT_CONFIG, DEFAULT_CONFIG.with_(planner="greedy"), NAIVE_CONFIG
        ):
            ctx = EvalContext(engine.catalog, config=config)
            tables.append(evaluate_match(clause, ctx))
        assert set(tables[0]) == set(tables[1]) == set(tables[2])


class TestPlanCache:
    def test_run_twice_hits(self, engine):
        query = "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'"
        engine.run(query)
        before = engine.plan_cache_info()
        engine.run(query)
        after = engine.plan_cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_cached_result_identical(self, engine):
        query = "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'"
        first = engine.run(query)
        second = engine.run(query)
        assert first == second

    def test_is_plan_cached(self, engine):
        query = "CONSTRUCT (n) MATCH (n:Tag)"
        assert not engine.is_plan_cached(query)
        engine.run(query)
        assert engine.is_plan_cached(query)

    def test_register_graph_invalidates(self, engine, tiny_graph):
        query = "CONSTRUCT (n) MATCH (n:Person)"
        engine.run(query)
        assert engine.is_plan_cached(query)
        engine.register_graph("tiny", tiny_graph)
        assert not engine.is_plan_cached(query)

    def test_set_default_graph_invalidates(self, engine):
        query = "CONSTRUCT (n) MATCH (n:Person)"
        engine.run(query)
        engine.set_default_graph("company_graph")
        assert not engine.is_plan_cached(query)

    def test_invalidation_changes_result(self, engine, tiny_graph):
        """Rebinding the default graph must not replay a stale plan."""
        query = "CONSTRUCT (n) MATCH (n)"
        on_social = engine.run(query)
        engine.register_graph("tiny", tiny_graph, default=True)
        engine.set_default_graph("tiny")
        on_tiny = engine.run(query)
        assert on_tiny.nodes == tiny_graph.nodes
        assert on_social.nodes != on_tiny.nodes

    def test_lru_eviction(self, engine):
        engine.PLAN_CACHE_SIZE = 4
        try:
            for index in range(6):
                engine.run(f"CONSTRUCT (n {{i := {index}}}) MATCH (n:Tag)")
            assert engine.plan_cache_info()["size"] == 4
        finally:
            del engine.PLAN_CACHE_SIZE  # restore the class default

    def test_ast_input_bypasses_cache(self, engine):
        statement = engine.parse("CONSTRUCT (n) MATCH (n:Tag)")
        before = engine.plan_cache_info()
        engine.run(statement)
        after = engine.plan_cache_info()
        assert before["size"] == after["size"]

    def test_plan_cache_identity_guard(self, social):
        cache = PlanCache(maxsize=2)
        site, other = object(), object()
        cache.store(site, ("a",), social, [0, 1])
        assert cache.lookup(site, ("a",), social) == [0, 1]
        assert cache.lookup(other, ("a",), social) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_plan_cache_evicts_oldest(self, social):
        cache = PlanCache(maxsize=2)
        sites = [object() for _ in range(3)]
        for index, site in enumerate(sites):
            cache.store(site, (), social, [index])
        assert len(cache) == 2
        assert cache.lookup(sites[0], (), social) is None


class TestPreparedQuery:
    def test_prepare_returns_same_object(self, engine):
        query = "CONSTRUCT (n) MATCH (n:Person)"
        assert engine.prepare(query) is engine.prepare(query)

    def test_prepared_run_counts_executions(self, engine):
        prepared = engine.prepare("CONSTRUCT (n) MATCH (n:Person)")
        prepared.run()
        prepared.run()
        assert prepared.executions == 2

    def test_param_slots_collected(self, engine):
        prepared = engine.prepare(
            "CONSTRUCT (n) MATCH (n:Person) "
            "WHERE n.employer = $company AND n.firstName = $name"
        )
        assert prepared.param_names == {"company", "name"}

    def test_missing_params_rejected(self, engine):
        prepared = engine.prepare(
            "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = $company"
        )
        with pytest.raises(EvaluationError, match="company"):
            prepared.run()

    def test_params_change_results(self, engine):
        prepared = engine.prepare(
            "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = $company"
        )
        acme = prepared.run(params={"company": "Acme"})
        hal = prepared.run(params={"company": "HAL"})
        assert acme.nodes == {"john", "alice"}
        assert hal.nodes == {"celine"}

    def test_prepared_survives_invalidation(self, engine, tiny_graph):
        """A held PreparedQuery stays runnable after catalog changes."""
        prepared = engine.prepare("CONSTRUCT (n) MATCH (n:Person)")
        before = prepared.run()
        engine.register_graph("tiny", tiny_graph)
        after = prepared.run()
        assert before == after

    def test_explain_mentions_cache_state(self, engine):
        query = "CONSTRUCT (n) MATCH (n:Person)"
        assert "plan: cold" in engine.explain(query)
        engine.run(query)
        assert "plan: cached" in engine.explain(query)

    def test_repr(self, engine):
        prepared = engine.prepare("CONSTRUCT (n) MATCH (n:Person)")
        assert isinstance(prepared, PreparedQuery)
        assert "PreparedQuery" in repr(prepared)
