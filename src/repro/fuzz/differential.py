"""Differential execution over the ExecutionConfig lattice.

One statement is executed at every configured lattice point and each
outcome is compared, structurally, against the **oracle**: the
all-reference configuration (:data:`~repro.config.NAIVE_CONFIG`) run in
strict-analysis mode. Anything the oracle and an optimized configuration
disagree about is a counterexample:

* different rows, row order, or column headers of a SELECT table;
* a different constructed graph (node/edge/path sets, labels,
  properties — compared through
  :func:`repro.model.io.graph_to_dict`, valid because skolemized ids
  are deterministic across configs for the same statement text);
* a different error *code*, or an error on one side only;
* any non-:class:`~repro.errors.GCoreError` exception ("crash");
* the **error-parity lane**: when the analyzer reports only
  unknown-name diagnostics (GC101/GC102/GC105), every execution must
  raise the matching structured error — an execution that succeeds, or
  fails with a different code, contradicts the static analyzer.

The engine under test is shared across all runs of a session: the
prepared-query cache, catalog and id generator are part of the surface
being fuzzed (a divergence that only appears on a warm cache is still a
divergence).
"""

from __future__ import annotations

import contextlib
import json
import re
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, List, Optional, Sequence, Tuple

from ..config import DEFAULT_CONFIG, NAIVE_CONFIG, ExecutionConfig
from ..datasets.paper import (
    company_graph,
    figure2_graph,
    orders_table,
    social_graph,
)
from ..engine import GCoreEngine
from ..errors import GCoreError, ValidationError
from ..lang import ast
from ..eval.parallel import dispatch_always
from ..eval.query import ViewResult
from ..model.graph import PathPropertyGraph
from ..model.io import graph_to_dict
from ..table import Table
from .corpus import Counterexample, encode_value
from .generate import GeneratedCase

__all__ = [
    "CONFIG_PRESETS",
    "DEFAULT_LATTICE",
    "DifferentialTester",
    "ORACLE_CONFIG",
    "Outcome",
    "TablePolicy",
    "build_engine",
    "diff_outcomes",
    "rows_sorted",
    "table_policy",
    "parse_configs",
    "replay_counterexample",
    "run_case",
]

#: The named lattice points the CLI accepts (plus ``axis=value`` forms).
CONFIG_PRESETS: Dict[str, ExecutionConfig] = {
    "default": DEFAULT_CONFIG,
    "naive": NAIVE_CONFIG,
    "greedy": DEFAULT_CONFIG.with_(planner="greedy"),
    "reference": DEFAULT_CONFIG.with_(executor="reference"),
    "interpreted": DEFAULT_CONFIG.with_(expressions="interpreted"),
    "naive-paths": DEFAULT_CONFIG.with_(paths="naive"),
    "parallel": DEFAULT_CONFIG.with_(parallelism=4),
}

#: All-reference lattice point used as the differential ground truth.
ORACLE_CONFIG = NAIVE_CONFIG

#: The default set of optimized points compared against the oracle.
DEFAULT_LATTICE: Tuple[str, ...] = (
    "default",
    "greedy",
    "reference",
    "interpreted",
    "naive-paths",
    "parallel",
)

#: Analyzer codes whose runtime twins the error-parity lane checks.
_PARITY_CODES = frozenset({"GC101", "GC102", "GC105"})


def parse_configs(specs: Sequence[str]) -> List[Tuple[str, ExecutionConfig]]:
    """Resolve CLI config specs: preset names or ``axis=value[,...]``."""
    resolved: List[Tuple[str, ExecutionConfig]] = []
    for spec in specs:
        if spec in CONFIG_PRESETS:
            resolved.append((spec, CONFIG_PRESETS[spec]))
            continue
        if "=" not in spec:
            raise ValidationError(
                f"unknown config {spec!r}; expected one of "
                f"{', '.join(sorted(CONFIG_PRESETS))} or axis=value[,...]"
            )
        changes: Dict[str, Any] = {}
        for part in spec.split(","):
            axis, _, value = part.partition("=")
            changes[axis.strip()] = (
                int(value) if value.strip().isdigit() else value.strip()
            )
        resolved.append((spec, ExecutionConfig.from_json(changes)))
    return resolved


def build_engine() -> GCoreEngine:
    """The standard fuzzing catalog: paper graphs, a table, a path view."""
    engine = GCoreEngine()
    engine.register_graph("social_graph", social_graph(), default=True)
    engine.register_graph("figure2", figure2_graph())
    engine.register_graph("company", company_graph())
    engine.register_table("orders", orders_table())
    engine.register_path_view("PATH wKnows = (x)-[e:knows]->(y) COST 1")
    return engine


@dataclass(frozen=True)
class Outcome:
    """The encoded result of one statement at one lattice point."""

    kind: str  # table | graph | view | error | crash
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, **self.payload}


_FRESH_ID = re.compile(r"^_([a-z]+)(\d+)$")


def _canonical_graph(data: Dict[str, Any]) -> Dict[str, Any]:
    """Renumber engine-fresh ids so graphs compare across runs.

    Ungrouped CONSTRUCT variables draw ids from the engine's shared
    atomic counter (``IdFactory.fresh`` → ``_n17``), so the *same*
    statement allocates different raw ids on every execution. Allocation
    order, however, tracks binding-enumeration order, which the row
    oracle already pins across configs — renumbering fresh ids by their
    numeric allocation order (per kind prefix) yields a form that is
    stable across runs yet still distinguishes genuinely different
    graphs. Skolemized (grouped) and base-graph ids are memoized on the
    engine and pass through untouched.
    """
    fresh: Dict[str, List[int]] = {}
    ids: List[str] = []
    for section in ("nodes", "edges", "paths"):
        ids.extend(entry["id"] for entry in data[section])
    for object_id in ids:
        matched = _FRESH_ID.match(str(object_id))
        if matched:
            fresh.setdefault(matched.group(1), []).append(
                int(matched.group(2))
            )
    renames: Dict[str, str] = {}
    for kind, numbers in fresh.items():
        for index, number in enumerate(sorted(numbers)):
            renames[f"_{kind}{number}"] = f"_{kind}#{index}"
    if not renames:
        return data

    def rename(object_id: Any) -> Any:
        return renames.get(object_id, object_id)

    out = dict(data)
    out["nodes"] = sorted(
        (dict(entry, id=rename(entry["id"])) for entry in data["nodes"]),
        key=lambda entry: str(entry["id"]),
    )
    out["edges"] = sorted(
        (
            dict(
                entry,
                id=rename(entry["id"]),
                source=rename(entry["source"]),
                target=rename(entry["target"]),
            )
            for entry in data["edges"]
        ),
        key=lambda entry: str(entry["id"]),
    )
    out["paths"] = sorted(
        (
            dict(
                entry,
                id=rename(entry["id"]),
                sequence=[rename(obj) for obj in entry["sequence"]],
            )
            for entry in data["paths"]
        ),
        key=lambda entry: str(entry["id"]),
    )
    return out


def _encode_result(result: Any) -> Outcome:
    if isinstance(result, Table):
        return Outcome(
            "table",
            {
                "columns": list(result.columns),
                "rows": [
                    [encode_value(cell) for cell in row]
                    for row in result.rows
                ],
            },
        )
    if isinstance(result, ViewResult):
        return Outcome(
            "view",
            {"name": result.name, "graph": _canonical_graph(graph_to_dict(result.graph))},
        )
    if isinstance(result, PathPropertyGraph):
        return Outcome("graph", {"graph": _canonical_graph(graph_to_dict(result))})
    return Outcome("crash", {"error": f"unexpected result {type(result).__name__}"})


def run_case(
    engine: GCoreEngine,
    text: str,
    params: Optional[Dict[str, Any]] = None,
    config: Optional[ExecutionConfig] = None,
    strict: bool = False,
) -> Outcome:
    """Execute one statement at one lattice point; never raises.

    A parallel point runs with every dispatch site forced onto the
    thread pool: the fuzz catalog's graphs are far below the
    ``MIN_PARALLEL_*`` thresholds, which would otherwise leave the
    morsel code unexercised.
    """
    dispatch: ContextManager[None] = (
        contextlib.nullcontext()
        if config is None or config.serial
        else dispatch_always()
    )
    try:
        with dispatch:
            result = engine.run(
                text, params=params, config=config, strict=strict
            )
    except GCoreError as exc:
        diagnostic = None
        to_diag = getattr(exc, "to_diagnostic", None)
        if callable(to_diag):
            diagnostic = to_diag().code
        return Outcome(
            "error", {"code": exc.code, "diagnostic": diagnostic}
        )
    except Exception as exc:  # noqa: BLE001 - crashes are a finding, not a bug here
        return Outcome(
            "crash",
            {"error": type(exc).__name__, "message": str(exc)[:300]},
        )
    return _encode_result(result)


def _row_key(row: List[Any]) -> str:
    return json.dumps(row, sort_keys=True)


@dataclass(frozen=True)
class TablePolicy:
    """How strictly two table outcomes are compared.

    Row *order* without ORDER BY — and row *content* under LIMIT/OFFSET
    without a total ORDER BY — follow the planner's binding-enumeration
    order, which the config lattice deliberately varies. The policy
    encodes what the statement actually pins: full multisets by default,
    only the cardinality when LIMIT/OFFSET may cut an unpinned order,
    and per-side sortedness for ORDER BY keys that are projected
    columns (``order_spec`` maps key → (column index, ascending)).
    """

    count_only: bool = False
    order_spec: Tuple[Tuple[int, bool], ...] = ()


def table_policy(statement: ast.Statement) -> TablePolicy:
    """Derive the comparison policy from the statement's SELECT head."""
    if not isinstance(statement, ast.Query):
        return TablePolicy()
    body = statement.body
    if not isinstance(body, ast.BasicQuery) or not isinstance(
        body.head, ast.SelectClause
    ):
        return TablePolicy()
    head = body.head
    count_only = head.limit is not None or bool(head.offset)
    spec: List[Tuple[int, bool]] = []
    for expr, ascending in head.order_by:
        index = None
        for position, item in enumerate(head.items):
            if item.expr == expr or (
                isinstance(expr, ast.Var) and expr.name == item.alias
            ):
                index = position
                break
        if index is None:
            # A key that is not a projected column: sortedness is not
            # checkable from the encoded rows alone.
            spec = []
            break
        spec.append((index, ascending))
    return TablePolicy(count_only=count_only, order_spec=tuple(spec))


def _cell_token(cell: Any) -> Optional[Tuple[str, str]]:
    """Mirror ``eval.select._sort_token`` on an *encoded* cell.

    Returns None for cells whose engine-side token is not recoverable
    from the encoding (value sets: the engine stringifies the raw
    frozenset, whose member order is unknowable here).
    """
    if isinstance(cell, dict):
        if "$bool" in cell:
            return ("bool", str(bool(cell["$bool"])))
        if "$date" in cell:
            return ("Date", cell["$date"])
        return None
    if cell is None:
        return ("NoneType", "None")
    return (type(cell).__name__, str(cell))


def rows_sorted(
    rows: List[List[Any]], order_spec: Tuple[Tuple[int, bool], ...]
) -> bool:
    """True when *rows* respects the ORDER BY key columns (ties free)."""
    for previous, current in zip(rows, rows[1:]):
        for index, ascending in order_spec:
            left = _cell_token(previous[index])
            right = _cell_token(current[index])
            if left is None or right is None:
                break  # unorderable cell: give this pair up, not the run
            if left == right:
                continue
            if (left < right) != ascending:
                return False
            break
    return True


def diff_outcomes(
    expected: Outcome,
    actual: Outcome,
    policy: Optional[TablePolicy] = None,
) -> Optional[str]:
    """The divergence class between two outcomes, or None if equal."""
    if actual.kind == "crash" or expected.kind == "crash":
        return None if expected.to_json() == actual.to_json() else "crash"
    if expected.kind != actual.kind:
        return "error" if "error" in (expected.kind, actual.kind) else "kind"
    if expected.kind == "error":
        if expected.payload.get("code") != actual.payload.get("code"):
            return "error"
        return None
    if expected.kind == "table":
        policy = policy or TablePolicy()
        if expected.payload["columns"] != actual.payload["columns"]:
            return "columns"
        left = expected.payload["rows"]
        right = actual.payload["rows"]
        if policy.order_spec and not rows_sorted(right, policy.order_spec):
            return "order"
        if policy.count_only:
            return "rows" if len(left) != len(right) else None
        if sorted(map(_row_key, left)) != sorted(map(_row_key, right)):
            return "rows"
        return None
    # graph / view: structural equality of the canonical dict form
    if expected.payload != actual.payload:
        return "graph"
    return None


class DifferentialTester:
    """Runs statements across the lattice and reports divergences."""

    def __init__(
        self,
        engine: Optional[GCoreEngine] = None,
        configs: Optional[Sequence[Tuple[str, ExecutionConfig]]] = None,
        oracle: ExecutionConfig = ORACLE_CONFIG,
    ) -> None:
        self.engine = engine if engine is not None else build_engine()
        if configs is None:
            configs = [(name, CONFIG_PRESETS[name]) for name in DEFAULT_LATTICE]
        self.configs = list(configs)
        self.oracle = oracle
        self.stats: Dict[str, int] = {
            "analyzed": 0,
            "skipped": 0,
            "executed": 0,
            "parity_checked": 0,
            "divergences": 0,
        }

    # ------------------------------------------------------------------
    def check_case(self, case: GeneratedCase) -> Optional[Counterexample]:
        return self.check_text(case.text, case.params, case.seed)

    def check_text(
        self,
        text: str,
        params: Optional[Dict[str, Any]] = None,
        seed: int = -1,
    ) -> Optional[Counterexample]:
        """Differentially execute one statement; None means no divergence."""
        params = params or {}
        self.stats["analyzed"] += 1
        analysis = self.engine.analyze(text)
        error_codes = sorted({d.code for d in analysis.errors})
        if error_codes:
            if not set(error_codes) <= _PARITY_CODES:
                # Outside the fuzzer's surface: the generate-time filter
                # would have discarded this statement.
                self.stats["skipped"] += 1
                return None
            return self._check_error_parity(text, params, seed, error_codes)
        self.stats["executed"] += 1
        try:
            policy = table_policy(self.engine.parse(text))
        except GCoreError:
            policy = TablePolicy()
        expected = run_case(
            self.engine, text, params, self.oracle, strict=True
        )
        if expected.kind == "crash":
            return self._report(
                seed, text, params, "oracle", self.oracle,
                Outcome("no-crash"), expected, "crash",
            )
        if expected.kind == "error" and expected.payload.get("code") == (
            "analysis_error"
        ):
            # The analyzer passed the statement above but strict mode
            # rejected it here: analyzer/executor disagreement.
            return self._report(
                seed, text, params, "oracle", self.oracle,
                Outcome("analyzer-clean"), expected, "error",
            )
        if (
            expected.kind == "table"
            and policy.order_spec
            and not rows_sorted(expected.payload["rows"], policy.order_spec)
        ):
            return self._report(
                seed, text, params, "oracle", self.oracle,
                Outcome("sorted"), expected, "order",
            )
        for name, config in self.configs:
            actual = run_case(self.engine, text, params, config)
            kind = diff_outcomes(expected, actual, policy)
            if kind is not None:
                return self._report(
                    seed, text, params, name, config, expected, actual, kind
                )
        return None

    # ------------------------------------------------------------------
    def _check_error_parity(
        self,
        text: str,
        params: Dict[str, Any],
        seed: int,
        codes: List[str],
    ) -> Optional[Counterexample]:
        """Unknown-name diagnostics must match the runtime error."""
        self.stats["parity_checked"] += 1
        expected = Outcome("error", {"analyzer_codes": codes})
        for name, config in self.configs:
            actual = run_case(self.engine, text, params, config)
            ok = (
                actual.kind == "error"
                and actual.payload.get("diagnostic") in codes
            )
            if not ok:
                return self._report(
                    seed, text, params, name, config, expected, actual,
                    "error-parity",
                )
        return None

    def _report(
        self,
        seed: int,
        text: str,
        params: Dict[str, Any],
        config_name: str,
        config: ExecutionConfig,
        expected: Outcome,
        actual: Outcome,
        kind: str,
    ) -> Counterexample:
        self.stats["divergences"] += 1
        return Counterexample(
            seed=seed,
            query=text,
            params=dict(params),
            configs=[self.oracle.to_json()]
            + [cfg.to_json() for _name, cfg in self.configs],
            expected={
                "config": self.oracle.describe(),
                "outcome": expected.to_json(),
            },
            actual={
                "config": f"{config_name}: {config.describe()}",
                "outcome": actual.to_json(),
            },
            kind=kind,
        )


def replay_counterexample(
    counterexample: Counterexample,
    engine: Optional[GCoreEngine] = None,
) -> Optional[Counterexample]:
    """Re-run a corpus entry on the standard engine.

    Returns None when the divergence no longer reproduces (the committed
    state of the corpus: every entry records a *fixed* bug) and the
    fresh counterexample when it still does.
    """
    configs: List[Tuple[str, ExecutionConfig]] = []
    for index, raw in enumerate(counterexample.configs):
        config = ExecutionConfig.from_json(raw)
        configs.append((f"cfg{index}", config))
    tester = DifferentialTester(
        engine=engine, configs=configs or None
    )
    return tester.check_text(
        counterexample.query,
        counterexample.decoded_params(),
        counterexample.seed,
    )
