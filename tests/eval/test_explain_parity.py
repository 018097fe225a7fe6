"""EXPLAIN prints the block plan that execution runs.

For each MATCH and OPTIONAL block, the atom order, the pushed-conjunct
lines (``[probe]`` / ``[filter]``) and the residual lines EXPLAIN prints
must equal what ``evaluate_block`` actually executes at the same
:class:`~repro.config.ExecutionConfig`. Execution is observed through
spies on the atom expansion methods and on the match evaluator's filter
helpers, so the check does not trust the plan object itself.
"""

import ast as pyast

import pytest

from repro import GCoreEngine
from repro.config import DEFAULT_CONFIG
from repro.datasets import social_graph
from repro.eval import match
from repro.eval.pushdown import atom_label
from repro.fuzz.differential import CONFIG_PRESETS
from repro.lang.pretty import pretty_expr

CONFIGS = {
    name: CONFIG_PRESETS[name]
    for name in ("default", "greedy", "reference", "naive-paths")
}
CONFIGS["planner=naive"] = DEFAULT_CONFIG.with_(planner="naive")

QUERIES = {
    "two-hop": (
        "SELECT n.firstName MATCH (n:Person)-[:knows]->(m), "
        "(m)-[:knows]->(k:Person)"
    ),
    "optional-hop": (
        "SELECT n.firstName MATCH (n:Person) "
        "OPTIONAL (n)-[:knows]->(m:Person)"
    ),
    "multi-pattern": (
        "SELECT n.firstName MATCH (n:Person)-[:knows]->(m), "
        "(m)-[:knows]->(k:Person) "
        "WHERE n.firstName <> m.firstName AND k.firstName <> 'Nobody'"
    ),
    "optional": (
        "SELECT n.firstName, m.firstName MATCH (n:Person) "
        "OPTIONAL (n)-[:knows]->(m:Person) WHERE m.firstName <> 'Nobody'"
    ),
    "optional-residual": (
        "SELECT n.firstName MATCH (n:Person) "
        "WHERE n.firstName <> 'Nobody' OR n.rank + 1 > 0 "
        "OPTIONAL (n)-[:knows]->(m:Person), (m)-[:knows]->(k) "
        "WHERE k.firstName <> 'Nobody'"
    ),
    "path": (
        "SELECT n.firstName MATCH (n:Person)-/p<:knows*>/->(m:Person) "
        "WHERE m.firstName <> 'Nobody'"
    ),
}


@pytest.fixture(scope="module")
def engine():
    eng = GCoreEngine()
    eng.register_graph("social_graph", social_graph(), default=True)
    return eng


def _executed_blocks(monkeypatch, engine, query, config):
    """Run *query*; per evaluated block, the atoms and filter lines."""
    blocks = []
    state = {"depth": 0, "finishing": False}

    def spy_block(original):
        def evaluate_block(*args, **kwargs):
            blocks.append({"atoms": [], "pushed": [], "residual": []})
            return original(*args, **kwargs)

        return evaluate_block

    def spy_extend(original, engine_name):
        def extend(self, *args, **kwargs):
            block = blocks[-1]
            for var, exprs in block.pop("probes", []):
                block["pushed"].extend(
                    f"pushed {expr} -> {atom_label(self)} [probe]" for expr in exprs
                )
            binds = sorted(self.binds())
            label = engine_name if self.kind == "path" else None
            block["atoms"].append((self.kind, binds, label))
            block["last"] = self
            state["depth"] += 1
            try:
                return original(self, *args, **kwargs)
            finally:
                state["depth"] -= 1

        return extend

    def spy_probe(original):
        def probe_filter(var, conjuncts, *args, **kwargs):
            blocks[-1].setdefault("probes", []).append(
                (var, [pretty_expr(expr) for expr in conjuncts])
            )
            return original(var, conjuncts, *args, **kwargs)

        return probe_filter

    def spy_conjuncts(original):
        def apply_conjuncts(conjuncts, *args, **kwargs):
            if state["depth"] == 0 and conjuncts:
                block = blocks[-1]
                texts = [pretty_expr(expr) for expr in conjuncts]
                if state["finishing"]:
                    block["residual"].extend(f"residual {t}" for t in texts)
                else:
                    label = atom_label(block["last"])
                    block["pushed"].extend(
                        f"pushed {t} -> {label} [filter]" for t in texts
                    )
            return original(conjuncts, *args, **kwargs)

        return apply_conjuncts

    def spy_finish(original):
        def finish_block_where(*args, **kwargs):
            state["finishing"] = True
            try:
                return original(*args, **kwargs)
            finally:
                state["finishing"] = False

        return finish_block_where

    monkeypatch.setattr(match, "evaluate_block", spy_block(match.evaluate_block))
    monkeypatch.setattr(match, "_probe_filter", spy_probe(match._probe_filter))
    monkeypatch.setattr(
        match, "_apply_conjuncts", spy_conjuncts(match._apply_conjuncts)
    )
    monkeypatch.setattr(
        match, "finish_block_where", spy_finish(match.finish_block_where)
    )
    for cls in (match.NodeAtom, match.EdgeAtom, match.PathAtom):
        monkeypatch.setattr(
            cls, "extend", spy_extend(cls.extend, "naive")
        )
        monkeypatch.setattr(
            cls, "extend_columnar", spy_extend(cls.extend_columnar, "batched")
        )
    engine.run(query, config=config)
    monkeypatch.undo()
    for block in blocks:
        block.pop("last", None)
        block.pop("probes", None)
    return blocks


def _explained_blocks(text):
    """Per MATCH/OPTIONAL section of EXPLAIN, its atoms and filter lines."""
    blocks = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped in ("MATCH", "OPTIONAL"):
            blocks.append({"atoms": [], "pushed": [], "residual": []})
        elif not blocks:
            continue
        elif stripped.split(" ", 1)[0] in ("node", "edge", "path"):
            kind = stripped.split(" ", 1)[0]
            binds_text = stripped.split("binds=", 1)[1]
            binds = pyast.literal_eval(binds_text.split("]", 1)[0] + "]")
            label = None
            if kind == "path":
                label = stripped.rsplit(",", 1)[1]
            blocks[-1]["atoms"].append((kind, binds, label))
        elif stripped.startswith("pushed "):
            blocks[-1]["pushed"].append(stripped)
        elif stripped.startswith("residual "):
            blocks[-1]["residual"].append(stripped)
        elif stripped.startswith("diagnostics"):
            break
    return blocks


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_explain_prints_the_executed_plan(
    monkeypatch, engine, query_name, config_name
):
    query, config = QUERIES[query_name], CONFIGS[config_name]
    explained = _explained_blocks(engine.explain(query, config=config))
    executed = _executed_blocks(monkeypatch, engine, query, config)
    assert explained == executed


def test_queries_exercise_pushdown_and_residuals(engine):
    """Guard against vacuous parity: the plans really push and leave
    residuals at the default config, and push nothing at the reference
    executor."""
    default = "\n".join(engine.explain(q) for q in QUERIES.values())
    assert "[probe]" in default and "[filter]" in default
    assert "residual" in default
    reference = "\n".join(
        engine.explain(q, config=CONFIGS["reference"]) for q in QUERIES.values()
    )
    assert "pushed" not in reference
