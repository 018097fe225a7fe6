"""ExecutionConfig: validation, wire forms, API plumbing.

The mode-lattice value itself (:mod:`repro.config`), the EXPLAIN config
line, prepared-query config overrides, and the REPL ``.config`` command.
"""

import pytest

from repro import (
    DEFAULT_CONFIG,
    NAIVE_CONFIG,
    ExecutionConfig,
    GCoreEngine,
    ValidationError,
)
from repro.__main__ import ShellState, _parse_config_args, handle_command
from repro.datasets import social_graph


def make_engine():
    engine = GCoreEngine()
    engine.register_graph("social_graph", social_graph(), default=True)
    return engine


class TestValidation:
    def test_default_is_fast_serial_lattice_point(self):
        assert DEFAULT_CONFIG == ExecutionConfig(
            planner="cost",
            executor="columnar",
            expressions="vectorized",
            paths="batched",
            view_refresh="incremental",
            parallelism=1,
        )
        assert DEFAULT_CONFIG.serial

    def test_naive_config_is_the_reference_column(self):
        assert NAIVE_CONFIG.planner == "naive"
        assert NAIVE_CONFIG.executor == "reference"
        assert NAIVE_CONFIG.expressions == "interpreted"
        assert NAIVE_CONFIG.paths == "naive"

    @pytest.mark.parametrize(
        "axis,value",
        [
            ("planner", "speedy"),
            ("executor", "rowwise"),
            ("expressions", "jit"),
            ("paths", "dfs"),
            ("view_refresh", "lazy"),
        ],
    )
    def test_invalid_axis_value_raises(self, axis, value):
        with pytest.raises(ValidationError, match=axis):
            ExecutionConfig(**{axis: value})

    @pytest.mark.parametrize("bad", [0, -1, 65, 1.5, True, "many", None])
    def test_invalid_parallelism_raises(self, bad):
        with pytest.raises(ValidationError, match="parallelism"):
            ExecutionConfig(parallelism=bad)

    def test_serial_string_normalizes_to_one(self):
        config = ExecutionConfig(parallelism="serial")
        assert config.parallelism == 1
        assert config.serial
        assert config == DEFAULT_CONFIG

    def test_with_validates_like_the_constructor(self):
        assert DEFAULT_CONFIG.with_(parallelism=4).parallelism == 4
        with pytest.raises(ValidationError):
            DEFAULT_CONFIG.with_(planner="bogus")

    def test_config_is_frozen_and_hashable(self):
        config = ExecutionConfig(parallelism=2)
        with pytest.raises(Exception):
            config.planner = "greedy"
        assert hash(config) == hash(ExecutionConfig(parallelism=2))


class TestWireForm:
    def test_json_roundtrip(self):
        config = ExecutionConfig(planner="greedy", parallelism=4)
        assert ExecutionConfig.from_json(config.to_json()) == config

    def test_none_and_empty_mean_default(self):
        assert ExecutionConfig.from_json(None) == DEFAULT_CONFIG
        assert ExecutionConfig.from_json({}) == DEFAULT_CONFIG

    def test_serial_spelled_out_on_the_wire(self):
        assert DEFAULT_CONFIG.to_json()["parallelism"] == "serial"
        assert ExecutionConfig(parallelism=2).to_json()["parallelism"] == 2

    def test_unknown_keys_raise(self):
        with pytest.raises(ValidationError, match="unknown"):
            ExecutionConfig.from_json({"bogus": 1})

    def test_non_object_raises(self):
        with pytest.raises(ValidationError):
            ExecutionConfig.from_json("cost")

    def test_describe_lists_every_axis(self):
        line = ExecutionConfig(parallelism=3).describe()
        for axis in (
            "planner=cost",
            "executor=columnar",
            "expressions=vectorized",
            "paths=batched",
            "view_refresh=incremental",
            "parallelism=3",
        ):
            assert axis in line
        assert "parallelism=serial" in DEFAULT_CONFIG.describe()


class TestEnginePlumbing:
    def test_explain_prints_the_active_config(self):
        engine = make_engine()
        query = "SELECT n.firstName MATCH (n:Person)"
        assert "config: " + DEFAULT_CONFIG.describe() in engine.explain(query)
        greedy = ExecutionConfig(planner="greedy")
        assert "config: " + greedy.describe() in engine.explain(
            query, config=greedy
        )

    def test_run_accepts_config_at_every_lattice_point(self):
        engine = make_engine()
        query = "SELECT n.firstName MATCH (n:Person) ORDER BY n.firstName"
        reference = engine.run(query)
        for config in (NAIVE_CONFIG, ExecutionConfig(executor="reference"),
                       ExecutionConfig(parallelism=2)):
            assert engine.run(query, config=config).rows == reference.rows

    def test_prepared_query_accepts_config(self):
        engine = make_engine()
        prepared = engine.prepare(
            "SELECT n.firstName MATCH (n:Person) ORDER BY n.firstName"
        )
        reference = prepared.run()
        assert prepared.run(config=NAIVE_CONFIG).rows == reference.rows
        snapshot = engine.snapshot()
        assert snapshot.execute_prepared(
            prepared, config=ExecutionConfig(planner="greedy")
        ).rows == reference.rows

    def test_config_is_the_only_mode_switch(self):
        engine = make_engine()
        with pytest.raises(TypeError):
            engine.run("SELECT 1", naive=True)
        with pytest.raises(TypeError):
            engine.bindings("MATCH (n)", naive=True)
        with pytest.raises(TypeError):
            engine.refresh_view("v", **{"incremental": False})

    def test_refresh_view_full_mode_forces_recompute(self):
        engine = make_engine()
        engine.run(
            "GRAPH VIEW acme AS (CONSTRUCT (n) MATCH (n:Person) "
            "WHERE n.employer = 'Acme')"
        )
        incremental = engine.refresh_view("acme")
        full = engine.refresh_view(
            "acme", config=ExecutionConfig(view_refresh="full")
        )
        assert incremental == full


class TestReplConfigCommand:
    def test_parse_and_reset(self):
        config = _parse_config_args(
            DEFAULT_CONFIG, "parallelism=4 planner=greedy"
        )
        assert config.parallelism == 4
        assert config.planner == "greedy"
        assert _parse_config_args(config, "reset") == DEFAULT_CONFIG
        assert _parse_config_args(config, "parallelism=serial").serial

    @pytest.mark.parametrize("argument", ["bogus=1", "planner", "planner=x"])
    def test_bad_arguments_raise_validation_error(self, argument):
        with pytest.raises(ValidationError):
            _parse_config_args(DEFAULT_CONFIG, argument)

    def test_config_command_mutates_shell_state(self, capsys):
        engine = make_engine()
        state = ShellState()
        handle_command(engine, ".config parallelism=2", state)
        assert state.config.parallelism == 2
        assert "parallelism=2" in capsys.readouterr().out
        handle_command(engine, ".config reset", state)
        assert state.config == DEFAULT_CONFIG
