"""The unified execution-mode configuration: :class:`ExecutionConfig`.

The engine ships every performance-critical layer in (at least) two
implementations — a fast path and a serial reference oracle — plus a
worker-pool parallelism degree. :class:`ExecutionConfig` is the only
switch that selects among them: one frozen, validated value accepted
by :meth:`GCoreEngine.run
<repro.engine.GCoreEngine.run>`, :meth:`~repro.engine.GCoreEngine.prepare`
executions, :meth:`~repro.engine.GCoreEngine.refresh_view`, the HTTP
wire protocol (the ``"config"`` request field) and the REPL ``.config``
command. The full mode lattice:

========== =========================== ==============================
axis       values                      selects
========== =========================== ==============================
planner    ``cost | greedy | naive``   atom ordering strategy
executor   ``columnar | reference``    binding-table pipeline
expressions ``vectorized | interpreted`` WHERE/SELECT/GROUP BY engine
paths      ``batched | naive``         path-search engine
view_refresh ``incremental | full``    GRAPH VIEW maintenance
parallelism ``int >= 1`` (``"serial"`` = 1) morsel worker-pool size
========== =========================== ==============================

``DEFAULT_CONFIG`` is the fast serial lattice point; ``NAIVE_CONFIG``
is the full row-at-a-time reference column. Invalid axis values raise
:class:`~repro.errors.ValidationError` (wire code ``validation_error``),
as do unknown keys in :meth:`ExecutionConfig.from_json`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Union

from .errors import ValidationError

__all__ = ["DEFAULT_CONFIG", "NAIVE_CONFIG", "ExecutionConfig"]

#: Closed value sets of the categorical axes, in declaration order.
AXIS_VALUES: Dict[str, tuple] = {
    "planner": ("cost", "greedy", "naive"),
    "executor": ("columnar", "reference"),
    "expressions": ("vectorized", "interpreted"),
    "paths": ("batched", "naive"),
    "view_refresh": ("incremental", "full"),
}

#: Hard ceiling on the worker-pool size (a fat-finger guard, not a tune).
MAX_PARALLELISM = 64


@dataclasses.dataclass(frozen=True)
class ExecutionConfig:
    """One point of the engine-mode lattice (immutable and hashable)."""

    planner: str = "cost"
    executor: str = "columnar"
    expressions: str = "vectorized"
    paths: str = "batched"
    view_refresh: str = "incremental"
    #: Worker-pool size for morsel-driven execution; 1 = serial. The
    #: string ``"serial"`` is accepted (and normalized to 1) everywhere
    #: a config is built, including the JSON wire format.
    parallelism: int = 1

    def __post_init__(self) -> None:
        for axis, values in AXIS_VALUES.items():
            value = getattr(self, axis)
            if value not in values:
                raise ValidationError(
                    f"invalid ExecutionConfig {axis}={value!r}; "
                    f"expected one of {'|'.join(values)}"
                )
        parallelism = self.parallelism
        if parallelism == "serial":
            object.__setattr__(self, "parallelism", 1)
            return
        if (
            not isinstance(parallelism, int)
            or isinstance(parallelism, bool)
            or not 1 <= parallelism <= MAX_PARALLELISM
        ):
            raise ValidationError(
                "invalid ExecutionConfig parallelism="
                f"{parallelism!r}; expected 'serial' or an integer in "
                f"[1, {MAX_PARALLELISM}]"
            )

    # ------------------------------------------------------------------
    @property
    def serial(self) -> bool:
        """True when no worker pool is involved (``parallelism == 1``)."""
        return self.parallelism <= 1

    def with_(self, **changes: Any) -> "ExecutionConfig":
        """A copy with *changes* applied (validated like the constructor)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    @classmethod
    def from_json(
        cls, raw: Union[None, Mapping[str, Any]]
    ) -> "ExecutionConfig":
        """Decode the wire form; unknown keys are a ``validation_error``.

        ``None`` and ``{}`` both mean "the default lattice point", so
        clients can always send a ``config`` object.
        """
        if raw is None:
            return DEFAULT_CONFIG
        if not isinstance(raw, Mapping):
            raise ValidationError("'config' must be a JSON object")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValidationError(
                f"unknown ExecutionConfig keys: {', '.join(unknown)}; "
                f"expected a subset of {', '.join(sorted(known))}"
            )
        return cls(**dict(raw))

    def to_json(self) -> Dict[str, Any]:
        """The wire form: a plain dict, ``parallelism`` as ``"serial"``/int."""
        payload = dataclasses.asdict(self)
        if self.parallelism <= 1:
            payload["parallelism"] = "serial"
        return payload

    def describe(self) -> str:
        """One EXPLAIN/REPL line: ``planner=cost executor=columnar ...``."""
        parts = [
            f"{axis}={getattr(self, axis)}" for axis in AXIS_VALUES
        ]
        parts.append(
            "parallelism="
            + ("serial" if self.parallelism <= 1 else str(self.parallelism))
        )
        return " ".join(parts)


#: The default fast lattice point (what ``engine.run(text)`` executes).
DEFAULT_CONFIG = ExecutionConfig()

#: The full reference column: every layer at its reference oracle.
NAIVE_CONFIG = ExecutionConfig(
    planner="naive",
    executor="reference",
    expressions="interpreted",
    paths="naive",
)
