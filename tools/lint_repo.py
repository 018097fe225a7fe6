#!/usr/bin/env python3
"""Repo-invariant lint: AST-level checks CI runs blocking.

Three invariants that ordinary linters cannot express:

1. **Error wire contract** — every ``GCoreError`` subclass in
   ``src/repro/errors.py`` and every ``ApiError`` subclass in
   ``src/repro/server/protocol.py`` must assign both ``code`` and
   ``http_status`` in its own class body. The pair is the HTTP error
   envelope's stable contract (``docs/http-api.md``); inheriting one
   silently is how codes drift.
2. **Commented fallbacks** — every ``except Exception`` in
   ``src/repro/eval/parallel.py`` must carry a comment (inline or as
   the handler's first line) saying *why* swallowing is safe; the
   module's whole design is silent degradation to the serial path, so
   an uncommented handler is indistinguishable from a bug.
3. **Fuzz corpus integrity** — every JSON under ``tests/fuzz/corpus/``
   must load as a counterexample, its query must parse as G-CORE, and
   replaying it against the fixed engine must come back clean (corpus
   entries record *fixed* bugs — see ``docs/fuzzing.md``).

Exit status: 0 clean, 1 violations (one per line on stdout).

Usage::

    python tools/lint_repo.py [--root PATH]
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, List, Set

ERROR_HIERARCHIES = {
    Path("src/repro/errors.py"): "GCoreError",
    Path("src/repro/server/protocol.py"): "ApiError",
}

PARALLEL_FALLBACKS = Path("src/repro/eval/parallel.py")

FUZZ_CORPUS = Path("tests/fuzz/corpus")


def check_error_contract(root: Path) -> List[str]:
    """Invariant 1: code + http_status in every error class body."""
    problems: List[str] = []
    for rel_path, base_name in ERROR_HIERARCHIES.items():
        path = root / rel_path
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }

        def in_hierarchy(name: str, seen: Set[str]) -> bool:
            if name == base_name:
                return True
            node = classes.get(name)
            if node is None or name in seen:
                return False
            seen.add(name)
            return any(
                in_hierarchy(b.id, seen)
                for b in node.bases
                if isinstance(b, ast.Name)
            )

        for name, node in sorted(classes.items()):
            if not in_hierarchy(name, set()):
                continue
            assigned = {
                target.id
                for stmt in node.body
                if isinstance(stmt, ast.Assign)
                for target in stmt.targets
                if isinstance(target, ast.Name)
            }
            assigned |= {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            }
            for required in ("code", "http_status"):
                if required not in assigned:
                    problems.append(
                        f"{rel_path}:{node.lineno}: class {name} does not "
                        f"assign {required!r} in its own body (error "
                        f"envelope contract)"
                    )
    return problems


def check_parallel_fallbacks(root: Path) -> List[str]:
    """Invariant 2: parallel.py handlers are narrow and commented.

    Blanket ``except Exception`` / bare ``except:`` fallbacks are
    forbidden outright — they swallow ``AssertionError`` from worker
    invariants, which the differential fuzzer relies on surfacing; every
    remaining (named) handler must still carry a comment (inline or as
    the handler's first line) saying *why* catching is safe.
    """
    problems: List[str] = []
    path = root / PARALLEL_FALLBACKS
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped.startswith("except"):
            continue
        clause = stripped.split("#", 1)[0].strip()
        if clause.rstrip(":") in ("except", "except Exception") or clause.startswith(
            ("except Exception:", "except Exception as", "except BaseException")
        ):
            problems.append(
                f"{PARALLEL_FALLBACKS}:{index + 1}: blanket {clause!r} "
                f"fallback (name the exceptions — see "
                f"POOL_FALLBACK_EXCEPTIONS)"
            )
            continue
        if "#" in line:
            continue  # inline justification
        # Otherwise the handler body must open with a comment block.
        follower = lines[index + 1].strip() if index + 1 < len(lines) else ""
        if not follower.startswith("#"):
            problems.append(
                f"{PARALLEL_FALLBACKS}:{index + 1}: exception fallback "
                f"without a justifying comment"
            )
    return problems


def check_fuzz_corpus(root: Path) -> List[str]:
    """Invariant 3: corpus counterexamples load, parse, and replay clean."""
    corpus = root / FUZZ_CORPUS
    problems: List[str] = []
    if not corpus.is_dir():
        return [f"{FUZZ_CORPUS}: corpus directory missing"]
    entries = sorted(corpus.glob("*.json"))
    if not entries:
        return [f"{FUZZ_CORPUS}: corpus is empty"]
    # Prefer an already-importable repro (the test suite runs with
    # PYTHONPATH=src); fall back to the root being linted, as in the CI
    # lint-repo job, which sets no PYTHONPATH.
    try:
        from repro.fuzz import (
            build_engine,
            load_counterexample,
            replay_counterexample,
        )
    except ImportError:
        sys.path.insert(0, str((root / "src").resolve()))
        from repro.fuzz import (
            build_engine,
            load_counterexample,
            replay_counterexample,
        )

    engine = build_engine()
    for path in entries:
        rel = FUZZ_CORPUS / path.name
        try:
            entry = load_counterexample(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{rel}: not a loadable counterexample: {exc}")
            continue
        try:
            engine.parse(entry.query)
        except Exception as exc:
            problems.append(f"{rel}: query does not parse: {exc}")
            continue
        fresh = replay_counterexample(entry, engine=engine)
        if fresh is not None:
            problems.append(
                f"{rel}: replay diverges again (kind {fresh.kind}) — "
                f"corpus entries must record fixed bugs"
            )
    return problems


def run_lint(root: Path) -> List[str]:
    problems: List[str] = []
    problems += check_error_contract(root)
    problems += check_parallel_fallbacks(root)
    problems += check_fuzz_corpus(root)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=".", help="repository root (default: cwd)"
    )
    args = parser.parse_args(argv)
    problems = run_lint(Path(args.root))
    for problem in problems:
        print(problem)
    if problems:
        print(f"lint_repo: {len(problems)} violation(s)", file=sys.stderr)
        return 1
    print("lint_repo: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
