"""Static semantic analysis of G-CORE queries (pre-planning).

The analyzer walks the parsed AST — before any planning or execution —
and returns typed :class:`Diagnostic` findings with stable codes. The
runtime raises :class:`~repro.errors.SemanticError` from the same scope
passes (:func:`check_match`). See ``docs/analysis.md`` for the code
registry and the wire format.

Entry points:

* :func:`analyze` — text or AST in, :class:`AnalysisResult` out;
* ``GCoreEngine.analyze`` / ``EngineSnapshot.analyze`` — the same with
  the engine's catalog supplied automatically;
* ``python -m repro.analysis FILE...`` — batch linting of ``.gcore``
  files (exit code = rank of the worst finding);
* ``POST /analyze`` on the HTTP server.
"""

from .analyzer import Analyzer, analyze, check_match
from .diagnostics import (
    CODES,
    SEVERITIES,
    AnalysisResult,
    CodeInfo,
    Diagnostic,
    severity_rank,
)

__all__ = [
    "Analyzer",
    "analyze",
    "check_match",
    "AnalysisResult",
    "Diagnostic",
    "CodeInfo",
    "CODES",
    "SEVERITIES",
    "severity_rank",
]
