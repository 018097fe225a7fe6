"""The served workloads: statements and seeded operation streams.

Every operation a client sends is drawn here from ``random.Random`` seeded by ``(seed, workload,
client)``, so one ``--seed`` fixes every parameter draw, the operation order and the write
sequence; the server only ever sees the generated requests. An operation is a plain tuple:

* ``("execute", cls, handle, params)``: ``POST /execute`` on a handle prepared during set-up;
* ``("query", cls, text, params, strict)``: ``POST /query``;
* ``("update", "write", kind, pair, a, b, ops)``: ``POST /update`` on graph ``snb``, where
  *kind* is ``"add"`` or ``"remove"`` of the knows *pair* between persons *a* and *b*, and
  *ops* is the delta's JSON array.

*cls* is the operation class the per-layer metrics are split by.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Dict, Iterator, List, Sequence, Tuple

PERSONS = 100
#: Every run serves the ROADMAP baseline's graph: snb, 100 persons, generator seed 42. The
#: generator's seed moves query cost by up to 2x (the coFan pattern grows with the square of
#: tag fan-in), which would swamp the changes the benchmark is meant to resolve.
DATASET_SEED = 42

#: The SNB generator's name pools. At 100 persons, person *i* is named
#: (FIRST_NAMES[i % 24], LAST_NAMES[i // 24]), so only 100 of the 24 x 16 = 384 ad-hoc
#: (firstName, lastName) texts match anybody.
FIRST_NAMES = (
    "John", "Alice", "Celine", "Peter", "Frank", "Clara", "Mark", "Erik", "Dana", "Ivan", "Mia",
    "Noah", "Olga", "Pia", "Quinn", "Rosa", "Sven", "Tara", "Umar", "Vera", "Walt", "Xena",
    "Yuri", "Zoe",
)  # fmt: skip
LAST_NAMES = (
    "Doe", "Hall", "Mayer", "Smith", "Gold", "Stone", "Rivers", "Brook", "Field", "Woods",
    "Hill", "Lake", "March", "North", "South", "West",
)  # fmt: skip

POINT = "SELECT n.firstName, n.lastName, n.employer MATCH (n:Person) WHERE n.firstName = $name"
HOP = (
    "SELECT m.firstName, m.lastName "
    "MATCH (n:Person)-[:knows]->(m:Person) WHERE n.firstName = $name"
)
ADHOC_PREFIX = "SELECT n.firstName, n.lastName, n.employer MATCH (n:Person) WHERE "
KNOWS_COUNT = "SELECT COUNT(*) AS knows MATCH (a:Person)-[e:knows]->(b:Person)"

#: Prepared during set-up; operations name them by key.
HANDLES = {"point": POINT, "hop": HOP}

#: Figure 1's feature classes, their survey counts (the mix weights) and the operation class
#: each is reported under.
FIGURE1_CLASSES = (
    ("graph reachability", 36, "reach"),
    ("graph construction", 34, "construct"),
    ("pattern matching", 32, "pattern"),
    ("shortest path search", 19, "shortest"),
    ("graph clustering", 14, "cluster"),
)
#: The source names figure1_mix draws ``$name`` from. The NAIVE_CONFIG reference costs 0.2-0.5 s
#: per (statement, name), so the pool is kept small enough to check every distinct request; it
#: is the same for every seed because shortest-path cost differs twofold between sources.
FIGURE1_NAMES = FIRST_NAMES[::4]

#: read_write's write policy per client: add while fewer than LIVE_MIN pairs are live, remove
#: at LIVE_MAX, otherwise toss a coin, so the graph's size stays within a fixed band.
LIVE_MIN, LIVE_MAX = 4, 12

WORKLOADS = ("lookup", "figure1_mix", "read_write")
CLIENTS = {"lookup": 1, "figure1_mix": 1, "read_write": 2}
#: Every read class; ad-hoc texts are told apart by ADHOC_PREFIX.
READ_CLASSES = ("point", "hop", "adhoc", "reach", "construct", "pattern", "shortest", "cluster")

Op = Tuple


def adhoc_text(first: str, last: str) -> str:
    return f"{ADHOC_PREFIX}n.firstName = '{first}' AND n.lastName = '{last}'"


def figure1_statements() -> Dict[str, str]:
    """Operation class -> the harness's Figure 1 witness, with ``$name`` for 'John'."""
    from repro.bench.harness import _FEATURE_WITNESSES

    return {
        cls: _FEATURE_WITNESSES[feature].replace("'John'", "$name")
        for feature, _weight, cls in FIGURE1_CLASSES
    }


def statement_classes() -> Dict[str, str]:
    """Statement text -> operation class, for every fixed statement."""
    classes = {text: cls for cls, text in HANDLES.items()}
    classes.update({text: cls for cls, text in figure1_statements().items()})
    return classes


def _rng(seed: int, workload: str, client: int) -> random.Random:
    return random.Random(f"{seed}/{workload}/{client}")


def _deck(rng: random.Random, weights: Dict[str, int]) -> Iterator[str]:
    """Classes in proportion to *weights*, shuffled afresh each round.

    Every round of ``sum(weights)`` operations holds the exact mix, so a run's cost does not
    drift with sampling noise in the proportions.
    """
    cards = [cls for cls, weight in weights.items() for _ in range(weight)]
    while True:
        rng.shuffle(cards)
        yield from cards


def _execute(handle: str, name: str) -> Op:
    return ("execute", handle, handle, {"name": name})


def _lookup(rng: random.Random) -> Iterator[Op]:
    for cls in _deck(rng, {"point": 1, "hop": 1, "adhoc": 2}):
        if cls == "adhoc":
            text = adhoc_text(rng.choice(FIRST_NAMES), rng.choice(LAST_NAMES))
            yield ("query", "adhoc", text, None, True)
        else:
            yield _execute(cls, rng.choice(FIRST_NAMES))


def _figure1_mix(rng: random.Random) -> Iterator[Op]:
    statements = figure1_statements()
    for cls in _deck(rng, {cls: weight for _feature, weight, cls in FIGURE1_CLASSES}):
        text = statements[cls]
        params = {"name": rng.choice(FIGURE1_NAMES)} if "$name" in text else None
        yield ("query", cls, text, params, False)


def _read_write(rng: random.Random, client: int) -> Iterator[Op]:
    live: List[Tuple[str, str, str]] = []
    deck = _deck(rng, {"hop": 3, "write": 1})
    for seq in itertools.count():
        if next(deck) == "hop":
            yield _execute("hop", rng.choice(FIRST_NAMES))
        elif len(live) < LIVE_MIN or (len(live) < LIVE_MAX and rng.random() < 0.5):
            a, b = rng.sample(range(PERSONS), 2)
            name, src, dst = pair = (f"w{client}_{seq}", f"p{a}", f"p{b}")
            live.append(pair)
            ops = [
                {"op": "add_edge", "id": f"{name}_ab", "source": src, "target": dst,
                 "labels": ["knows"]},
                {"op": "add_edge", "id": f"{name}_ba", "source": dst, "target": src,
                 "labels": ["knows"]},
                {"op": "set_property", "id": src, "key": "lastSeen", "value": seq},
            ]  # fmt: skip
            yield ("update", "write", "add", name, src, dst, ops)
        else:
            name, src, dst = live.pop(rng.randrange(len(live)))
            ops = [{"op": "remove_edge", "id": f"{name}_{end}"} for end in ("ab", "ba")]
            yield ("update", "write", "remove", name, src, dst, ops)


def operations(workload: str, seed: int, client: int = 0) -> Iterator[Op]:
    """The endless operation stream of one client of *workload*."""
    rng = _rng(seed, workload, client)
    if workload == "lookup":
        return _lookup(rng)
    if workload == "figure1_mix":
        return _figure1_mix(rng)
    if workload == "read_write":
        return _read_write(rng, client)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str) -> List[Op]:
    """One read of every distinct statement text the workload sends."""
    if workload == "lookup":
        reads = [_execute(handle, FIRST_NAMES[0]) for handle in HANDLES]
        texts = (adhoc_text(first, last) for first in FIRST_NAMES for last in LAST_NAMES)
        return reads + [("query", "adhoc", text, None, True) for text in texts]
    if workload == "figure1_mix":
        params = {"name": FIGURE1_NAMES[0]}
        return [
            ("query", cls, text, params if "$name" in text else None, False)
            for cls, text in figure1_statements().items()
        ]
    return [_execute("hop", FIRST_NAMES[0])]


def handles(workload: str) -> Sequence[str]:
    """The handles a workload prepares during set-up."""
    return {"lookup": ("point", "hop"), "read_write": ("hop",)}.get(workload, ())


def answer_key(op: Op) -> str:
    """Identifies a read's (statement, params) for answer checking."""
    if op[0] == "execute":
        return json.dumps([HANDLES[op[2]], op[3]], sort_keys=True)
    return json.dumps([op[2], op[3]], sort_keys=True)
