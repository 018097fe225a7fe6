"""The runtime and the analyzer agree on the Section 3 MATCH restrictions.

``engine.run`` raises :class:`~repro.errors.SemanticError` exactly when
``engine.analyze`` reports a ``GC201`` (sort clash), ``GC202`` (ALL-paths
variable in WHERE) or ``GC203`` (OPTIONAL-shared variable absent from the
main pattern) finding, and with the first such finding's message: both
come from the same scope passes in :mod:`repro.analysis.scopes`.
"""

import pytest

from repro import GCoreEngine
from repro.datasets import social_graph
from repro.errors import SemanticError

SCOPE_CODES = {"GC201", "GC202", "GC203"}

#: name -> (statement, the first scope code the analyzer reports or None)
STATEMENTS = {
    "clash-node-edge": ("CONSTRUCT (x) MATCH (x)-[x]->(m)", "GC201"),
    "clash-node-path": (
        "CONSTRUCT (x) MATCH (x)-/x<:knows*>/->(m)", "GC201"
    ),
    "clash-node-value": (
        "SELECT n.firstName MATCH (n:Person {employer=n})", "GC201"
    ),
    "clash-across-optional": (
        "SELECT n.firstName MATCH (n:Person) "
        "OPTIONAL (n)-[e:knows]->(m) OPTIONAL (e)",
        "GC201",
    ),
    "all-path-in-where": (
        "CONSTRUCT (n) MATCH (n)-/ALL p<:knows*>/->(m) WHERE length(p) > 2",
        "GC202",
    ),
    "all-path-in-optional-where": (
        "SELECT n.firstName MATCH (n:Person) "
        "OPTIONAL (n)-/ALL p<:knows*>/->(m) WHERE length(p) > 1",
        "GC202",
    ),
    "all-path-in-where-pattern": (
        "CONSTRUCT (n) MATCH (n)-/ALL p<:knows*>/->(m) "
        "WHERE (m)-/p<:knows>/->(n)",
        "GC202",
    ),
    "optional-shared": (
        "CONSTRUCT (n) MATCH (n) "
        "OPTIONAL (z)-[:knows]->(a) OPTIONAL (z)-[:knows]->(b)",
        "GC203",
    ),
    "clash-before-all-path": (
        "CONSTRUCT (x) MATCH (x)-[x]->(m)-/ALL p<:knows*>/->(q) "
        "WHERE length(p) > 1",
        "GC201",
    ),
    "clash-with-enclosing-scope": (
        "SELECT n.firstName MATCH (n:Person) "
        "WHERE EXISTS (SELECT m.firstName MATCH (m)-[n]->(k))",
        "GC201",
    ),
    "clash-with-enclosing-scope-construct": (
        "CONSTRUCT (n) MATCH (n:Person)-[e:knows]->(m:Person) "
        "WHERE EXISTS (CONSTRUCT (q) MATCH (e))",
        "GC201",
    ),
    "clean-correlated-exists": (
        "SELECT n.firstName MATCH (n:Person) "
        "WHERE EXISTS (SELECT m.firstName MATCH (n)-[:knows]->(m))",
        None,
    ),
    "clean-on-subquery-reuses-name": (
        "SELECT x.firstName MATCH (x:Person) "
        "ON (CONSTRUCT (y) MATCH (y)-[x]->(z))",
        None,
    ),
    "clean-select": (
        "SELECT n.firstName MATCH (n:Person) WHERE n.employer = 'Acme'",
        None,
    ),
    "clean-path-projection": (
        "CONSTRUCT (n)-/@p/->(m) MATCH (n:Person)-/p<:knows*>/->(m:Person)",
        None,
    ),
    "clean-all-path-unused": (
        "CONSTRUCT (n) MATCH (n)-/ALL p<:knows*>/->(m)", None
    ),
    "clean-shortest-in-where": (
        "SELECT n.firstName MATCH (n:Person)-/p<:knows*>/->(m:Person) "
        "WHERE length(p) > 1",
        None,
    ),
    "clean-optional-shared-in-main": (
        "SELECT n.firstName MATCH (n:Person), (a:Person) "
        "OPTIONAL (n)-[:knows]->(a) OPTIONAL (a)-[:knows]->(n)",
        None,
    ),
}


@pytest.fixture(scope="module")
def engine():
    eng = GCoreEngine()
    eng.register_graph("social_graph", social_graph(), default=True)
    return eng


def scope_findings(engine, text):
    return [d for d in engine.analyze(text) if d.code in SCOPE_CODES]


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_run_raises_iff_analyzer_reports(engine, name):
    text, expected = STATEMENTS[name]
    findings = scope_findings(engine, text)
    assert (findings[0].code if findings else None) == expected
    if not findings:
        engine.run(text)
        return
    with pytest.raises(SemanticError) as raised:
        engine.run(text)
    assert str(raised.value) == findings[0].message


def test_bindings_raises_the_same_message(engine):
    text, _ = STATEMENTS["optional-shared"]
    (finding,) = scope_findings(engine, text)
    with pytest.raises(SemanticError) as raised:
        engine.bindings(text[len("CONSTRUCT (n) "):])
    assert str(raised.value) == finding.message
