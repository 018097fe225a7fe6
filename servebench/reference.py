"""The in-process reference answers the served ones are checked against.

Each distinct (statement, params) a run sent is re-run after the timed window, in worker
processes of the benchmark's own, on the same dataset at ``NAIVE_CONFIG``: the reference column
of the execution lattice. Answers are reduced to a canonical, hashable form both sides share: a
table is the sorted multiset of its rows, a graph its node, edge and path counts (CONSTRUCT mints
fresh ids, so graphs are not compared object by object).

A worker is ``python -m servebench.reference SEED PERSONS``: it reads one answer key per stdin
line and writes one ``[key, answer]`` JSON line per key to stdout, until stdin closes.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from servebench.served import die_with_parent

Answer = Tuple

ROOT = Path(__file__).resolve().parent.parent


def _canonical_cell(value: Any) -> Any:
    """A cell as JSON carries it, with set-valued cells sorted."""
    if isinstance(value, (set, frozenset, list, tuple)):
        return sorted((_canonical_cell(v) for v in value), key=json.dumps)
    return value


def table_answer(rows: Iterable[Iterable[Any]]) -> Answer:
    cells = (json.dumps([_canonical_cell(cell) for cell in row]) for row in rows)
    return ("table", tuple(sorted(cells)))


def served_answer(payload: Dict[str, Any]) -> Optional[Answer]:
    """The canonical answer of a 200 response body; None if it is malformed."""
    if payload.get("kind") == "table":
        if payload.get("truncated") or payload["row_count"] != len(payload["rows"]):
            return None
        return table_answer(payload["rows"])
    if payload.get("kind") == "graph":
        graph = payload["graph"]
        counts = (len(graph["nodes"]), len(graph["edges"]), len(graph["paths"]))
        reported = (payload["node_count"], payload["edge_count"], payload["path_count"])
        return ("graph",) + counts if counts == reported else None
    return None


def _from_json(answer: List[Any]) -> Answer:
    """An answer as a worker line carries it, back in its hashable form."""
    if answer[0] == "table":
        return ("table", tuple(answer[1]))
    return tuple(answer)


def reference_answers(
    keys: List[str], seed: int, persons: int, workers: int = 2
) -> Dict[str, Answer]:
    """key -> reference answer, computed on *workers* child processes.

    Keys are dealt one at a time to whichever worker is idle. Every worker is waited for, on
    every way out of here.
    """
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    argv = [sys.executable, "-m", "servebench.reference", str(seed), str(persons)]
    pending = list(reversed(keys))
    answers: Dict[str, Answer] = {}
    procs: List[subprocess.Popen] = []
    try:
        for _ in range(min(workers, len(keys))):
            procs.append(
                subprocess.Popen(
                    argv,
                    cwd=ROOT,
                    env=env,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                    preexec_fn=die_with_parent,
                )
            )
        busy = {}
        for proc in procs:
            _deal(proc, pending, busy)
        while busy:
            ready, _, _ = select.select(list(busy), [], [])
            for stream in ready:
                line = stream.readline()
                if not line:
                    raise RuntimeError("a reference worker exited early")
                key, answer = json.loads(line)
                answers[key] = _from_json(answer)
                _deal(busy.pop(stream), pending, busy)
    finally:
        for proc in procs:
            _close(proc)
    return answers


def _deal(proc: subprocess.Popen, pending: List[str], busy: Dict[Any, subprocess.Popen]) -> None:
    """Give *proc* the next key, or close its input if none is left."""
    assert proc.stdin is not None and proc.stdout is not None
    if pending:
        proc.stdin.write(pending.pop() + "\n")
        proc.stdin.flush()
        busy[proc.stdout] = proc
    else:
        proc.stdin.close()


def _close(proc: subprocess.Popen) -> None:
    """Stop a worker (it ends when its input closes) and reap it."""
    assert proc.stdin is not None and proc.stdout is not None
    if not proc.stdin.closed:
        proc.stdin.close()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _worker(seed: int, persons: int) -> None:
    from repro import GCoreEngine, datasets
    from repro.config import NAIVE_CONFIG
    from repro.model.graph import PathPropertyGraph

    engine = GCoreEngine()
    datasets.load("snb", scale=persons, seed=seed).install(engine)
    for line in sys.stdin:
        key = line.rstrip("\n")
        text, params = json.loads(key)
        result = engine.run(text, params, config=NAIVE_CONFIG)
        if isinstance(result, PathPropertyGraph):
            answer: Answer = ("graph", len(result.nodes), len(result.edges), len(result.paths))
        else:
            answer = table_answer(result.rows)
        sys.stdout.write(json.dumps([key, answer]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _worker(int(sys.argv[1]), int(sys.argv[2]))
