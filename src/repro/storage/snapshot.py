"""Saving and opening catalog snapshots: the Storage API entry points.

:func:`save_snapshot` serializes a catalog's **base graphs** and tables
into one binary container (see :mod:`repro.storage.format` for the
layout); :func:`open_snapshot` maps a file back into a :class:`Snapshot`
of :class:`~repro.storage.flatstore.FlatPathPropertyGraph` instances.
Materialized views and path views are *not* serialized — they are
derived state, re-registered by re-running their definitions against
the reopened base graphs.

What one graph serializes to:

* an identifier table (nodes sorted by identifier, then edges in
  ``rho`` insertion order — preserved so the reopened graph's
  ``out_edges``/``in_edges`` lists replay the original order — then
  paths in ``delta`` order),
* ``u32`` source/target arrays and a path-sequence CSR over table
  positions,
* a label dictionary plus one bitset per label over table positions,
* property columns: a key dictionary, a value dictionary (tag-encoded
  scalars, keyed by *type-aware* identity so ``1`` and ``1.0`` survive
  as themselves), and per-key ascending ``(object, values)`` runs,
* one adjacency CSR per (direction, edge label) with buckets pre-sorted
  by edge-identifier string — exactly the index
  :meth:`~repro.model.graph.PathPropertyGraph.out_adjacency` builds,
* the graph's :class:`~repro.model.statistics.GraphStatistics` as JSON.

:func:`attach` keeps one process-level :class:`Snapshot` per path so
that worker processes resolve ``(path, graph)``
references against a single shared mapping; see
:mod:`repro.eval.parallel`.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..errors import SnapshotFormatError, UnknownGraphError, UnknownTableError
from ..model.graph import ObjectId, PathPropertyGraph
from ..model.values import Date
from ..table import Table
from .flatstore import FlatGraphStore, FlatPathPropertyGraph
from .format import (
    SnapshotReader,
    SnapshotWriter,
    encode_entry_table,
    encode_id,
    encode_scalar,
    pack_u32,
)

__all__ = ["Snapshot", "attach", "open_snapshot", "save_snapshot"]


def _id_sort_key(obj: ObjectId) -> Tuple[str, str]:
    return (type(obj).__name__, str(obj))


def _value_key(value: Any) -> Tuple[str, Any]:
    """Dictionary identity of a scalar: type-aware, so ``1`` != ``1.0``.

    Python's ``==``/``hash`` conflate ``1``, ``1.0`` and ``True``; a
    value dictionary keyed on the raw scalar would silently rewrite one
    spelling into another across objects. Tagging with the concrete type
    name keeps every spelling distinct through the round trip.
    """
    return (type(value).__name__, value)


# ---------------------------------------------------------------------------
# Table (de)serialization — JSON cells with the io.py value tagging
# ---------------------------------------------------------------------------

def _cell_to_json(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Date):
        return {"$date": str(value)}
    if isinstance(value, frozenset):
        return {"$set": [_cell_to_json(item) for item in sorted(
            value, key=_value_key
        )]}
    raise SnapshotFormatError(
        f"cannot snapshot table cell {value!r}: not a literal"
    )


def _cell_from_json(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"$date"}:
            return Date.parse(value["$date"])
        if set(value) == {"$set"}:
            return frozenset(_cell_from_json(item) for item in value["$set"])
        raise SnapshotFormatError(f"unknown table cell tag {value!r}")
    return value


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------

def _edge_labels(graph: PathPropertyGraph) -> List[str]:
    labels: set = set()
    for edge in graph.edges:
        labels.update(graph.labels(edge))
    return sorted(labels)


def _encode_csr(
    adjacency: Dict[ObjectId, Tuple[ObjectId, ...]],
    index: Dict[ObjectId, int],
) -> bytes:
    """``u32 node_count | u32 edge_total | nodes | starts | edges``."""
    nodes = sorted(adjacency, key=index.__getitem__)
    starts = [0]
    edge_positions: List[int] = []
    for node in nodes:
        edge_positions.extend(index[edge] for edge in adjacency[node])
        starts.append(len(edge_positions))
    return pack_u32(
        [len(nodes), len(edge_positions)]
        + [index[node] for node in nodes]
        + starts
        + edge_positions
    )


def _serialize_graph(
    writer: SnapshotWriter, prefix: str, name: str, graph: PathPropertyGraph
) -> Dict[str, Any]:
    """Append one graph's sections; returns its manifest entry."""
    nodes = sorted(graph.nodes, key=_id_sort_key)
    rho = dict(graph.rho)
    delta = dict(graph.delta)
    edges = list(rho)
    paths = list(delta)
    ids: List[ObjectId] = [*nodes, *edges, *paths]
    index = {obj: position for position, obj in enumerate(ids)}
    if len(index) != len(ids):
        raise SnapshotFormatError(
            f"graph {name!r} has overlapping identifier sets"
        )
    writer.add(
        prefix + "ids", encode_entry_table([encode_id(obj) for obj in ids])
    )

    src = [index[rho[edge][0]] for edge in edges]
    dst = [index[rho[edge][1]] for edge in edges]
    writer.add(prefix + "rho", pack_u32(src) + pack_u32(dst))

    starts = [0]
    sequence: List[int] = []
    for path in paths:
        sequence.extend(index[obj] for obj in delta[path])
        starts.append(len(sequence))
    writer.add(prefix + "paths", pack_u32(starts) + pack_u32(sequence))

    label_map = graph.label_map()
    label_names = sorted({l for lbls in label_map.values() for l in lbls})
    label_positions = {l: i for i, l in enumerate(label_names)}
    writer.add(
        prefix + "labelnames",
        encode_entry_table([l.encode("utf-8") for l in label_names]),
    )
    stride = (len(ids) + 7) >> 3
    bitsets = bytearray(stride * len(label_names))
    for obj, labels in label_map.items():
        position = index[obj]
        byte_index, bit = position >> 3, 1 << (position & 7)
        for label in labels:
            bitsets[label_positions[label] * stride + byte_index] |= bit
    writer.add(prefix + "labelbits", bytes(bitsets))

    property_map = graph.property_map()
    prop_keys = sorted({k for props in property_map.values() for k in props})
    key_positions = {k: i for i, k in enumerate(prop_keys)}
    writer.add(
        prefix + "propkeys",
        encode_entry_table([k.encode("utf-8") for k in prop_keys]),
    )
    value_slots: Dict[Tuple[str, Any], int] = {}
    values: List[Any] = []
    columns: List[List[Tuple[int, List[int]]]] = [[] for _ in prop_keys]
    for position, obj in enumerate(ids):
        props = property_map.get(obj)
        if not props:
            continue
        for key in sorted(props):
            run: List[int] = []
            for value in sorted(props[key], key=_value_key):
                slot = value_slots.get(_value_key(value))
                if slot is None:
                    slot = len(values)
                    value_slots[_value_key(value)] = slot
                    values.append(value)
                run.append(slot)
            columns[key_positions[key]].append((position, run))
    writer.add(
        prefix + "propvals",
        encode_entry_table([encode_scalar(value) for value in values]),
    )
    column_words: List[List[int]] = []
    for column in columns:
        starts = [0]
        value_refs: List[int] = []
        for _position, run in column:
            value_refs.extend(run)
            starts.append(len(value_refs))
        column_words.append(
            [len(column)]
            + [position for position, _run in column]
            + starts
            + value_refs
        )
    offsets = [len(prop_keys) + 1]
    for words in column_words:
        offsets.append(offsets[-1] + len(words))
    relative = [offset - offsets[0] for offset in offsets]
    writer.add(
        prefix + "propcols",
        pack_u32(relative) + b"".join(pack_u32(w) for w in column_words),
    )

    adj_out: List[str] = []
    adj_in: List[str] = []
    for label in [None, *_edge_labels(graph)]:
        key = "*" if label is None else str(label_positions[label])
        writer.add(
            f"{prefix}adj:out:{key}",
            _encode_csr(graph.out_adjacency(label), index),
        )
        writer.add(
            f"{prefix}adj:in:{key}",
            _encode_csr(graph.in_adjacency(label), index),
        )
        adj_out.append(key)
        adj_in.append(key)

    stats = graph.statistics()
    writer.add(
        prefix + "stats",
        json.dumps(
            {
                "node_count": stats.node_count,
                "edge_count": stats.edge_count,
                "path_count": stats.path_count,
                "node_label_counts": stats.node_label_counts,
                "edge_label_counts": stats.edge_label_counts,
                "path_label_counts": stats.path_label_counts,
                "edge_label_sources": stats.edge_label_sources,
                "edge_label_targets": stats.edge_label_targets,
                "node_prop_sel": stats._node_prop_sel,
                "edge_prop_sel": stats._edge_prop_sel,
                "path_prop_sel": stats._path_prop_sel,
            },
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8"),
    )

    return {
        "name": name,
        "prefix": prefix,
        "nodes": len(nodes),
        "edges": len(edges),
        "paths": len(paths),
        "adj_out": adj_out,
        "adj_in": adj_in,
    }


def save_snapshot(catalog, path: str) -> None:
    """Serialize *catalog*'s base graphs and tables into one file.

    *catalog* is a live :class:`~repro.catalog.Catalog` or a pinned
    :class:`~repro.catalog.CatalogSnapshot` — anything exposing
    ``graph_names``/``graph``/``is_base_graph``/``table_names``/
    ``table``/``default_graph_name``. For a consistent picture under
    concurrent writers, pass a snapshot (:meth:`GCoreEngine.save
    <repro.engine.GCoreEngine.save>` does). Views are not serialized;
    identifiers must be ``str`` or ``int`` and property values PPG
    literals, else :class:`~repro.errors.SnapshotFormatError`.
    """
    writer = SnapshotWriter()
    graphs: List[Dict[str, Any]] = []
    names = [
        name for name in catalog.graph_names() if catalog.is_base_graph(name)
    ]
    for position, name in enumerate(names):
        graphs.append(
            _serialize_graph(
                writer, f"g{position}:", name, catalog.graph(name)
            )
        )
    tables = {}
    for name in catalog.table_names():
        table = catalog.table(name)
        tables[name] = {
            "columns": list(table.columns),
            "rows": [
                [_cell_to_json(cell) for cell in row] for row in table.rows
            ],
        }
    writer.add(
        "tables",
        json.dumps(tables, separators=(",", ":"), sort_keys=True).encode(
            "utf-8"
        ),
    )
    default = catalog.default_graph_name
    manifest = {
        "graphs": graphs,
        "tables": sorted(tables),
        "default": default if default in names else None,
    }
    writer.write(path, manifest)


# ---------------------------------------------------------------------------
# Opening
# ---------------------------------------------------------------------------

class Snapshot:
    """An open snapshot file: named flat graphs, tables, the mapping.

    Graphs decode lazily — :meth:`graph` builds the
    :class:`FlatGraphStore` (identifier table only) on first request and
    caches the :class:`FlatPathPropertyGraph`. Close releases the
    mapping; graphs served from a closed snapshot must not be read
    further. Usable as a context manager.
    """

    def __init__(self, reader: SnapshotReader) -> None:
        self._reader = reader
        manifest = reader.manifest
        try:
            self._entries: Dict[str, Dict[str, Any]] = {
                entry["name"]: entry for entry in manifest["graphs"]
            }
            self._table_names: List[str] = list(manifest["tables"])
            self._default: Optional[str] = manifest["default"]
        except (KeyError, TypeError) as exc:
            reader.close()
            raise SnapshotFormatError(
                f"{reader.path}: malformed snapshot manifest ({exc})"
            ) from None
        self._graphs: Dict[str, FlatPathPropertyGraph] = {}
        self._tables: Optional[Dict[str, Table]] = None

    # -- lifecycle ------------------------------------------------------
    @property
    def path(self) -> str:
        return self._reader.path

    @property
    def mapped(self) -> bool:
        """True when served from an OS memory mapping (``mmap=True``)."""
        return self._reader.mapped

    def close(self) -> None:
        self._reader.close()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def verify(self) -> None:
        """CRC-check every section now instead of on first access."""
        self._reader.verify_all()

    # -- contents -------------------------------------------------------
    def graph_names(self) -> List[str]:
        return sorted(self._entries)

    @property
    def default_graph_name(self) -> Optional[str]:
        return self._default

    def graph(self, name: str) -> FlatPathPropertyGraph:
        graph = self._graphs.get(name)
        if graph is None:
            entry = self._entries.get(name)
            if entry is None:
                raise UnknownGraphError(name, candidates=self._entries)
            store = FlatGraphStore(self._reader, entry)
            graph = FlatPathPropertyGraph._from_store(store, name)
            self._graphs[name] = graph
        return graph

    def table_names(self) -> List[str]:
        return sorted(self._table_names)

    def table(self, name: str) -> Table:
        if self._tables is None:
            try:
                payload = json.loads(bytes(self._reader.section("tables")))
            except ValueError as exc:
                raise SnapshotFormatError(
                    f"{self.path}: undecodable tables section ({exc})"
                ) from None
            self._tables = {
                table_name: Table(
                    spec["columns"],
                    [
                        [_cell_from_json(cell) for cell in row]
                        for row in spec["rows"]
                    ],
                    name=table_name,
                )
                for table_name, spec in payload.items()
            }
        if name not in self._tables:
            raise UnknownTableError(name, candidates=self._tables)
        return self._tables[name]

    def __repr__(self) -> str:
        return (
            f"<Snapshot {self.path!r}: {len(self._entries)} graphs, "
            f"{len(self._table_names)} tables, "
            f"{'mmap' if self.mapped else 'heap'}>"
        )


def open_snapshot(path: str, mmap: bool = True) -> Snapshot:
    """Open (and with ``mmap=True`` map) a snapshot file.

    Header and directory are validated eagerly — bad magic, a truncated
    file or a corrupt directory raise
    :class:`~repro.errors.SnapshotFormatError`, an unsupported format
    version :class:`~repro.errors.SnapshotVersionError` — while section
    payloads are checksum-verified on first access.
    """
    return Snapshot(SnapshotReader(path, use_mmap=mmap))


# ---------------------------------------------------------------------------
# Process-level attach cache (worker pools, pickled graph references)
# ---------------------------------------------------------------------------

_ATTACHED: Dict[str, Snapshot] = {}
_ATTACH_LOCK = threading.Lock()


def attach(path: str) -> Snapshot:
    """The process-wide :class:`Snapshot` for *path* (opened once).

    Worker processes resolve ``(path, graph)`` references through this
    cache, so N workers reading one snapshot share a single read-only
    mapping instead of N deserialized copies.
    """
    key = os.path.abspath(path)
    with _ATTACH_LOCK:
        snapshot = _ATTACHED.get(key)
        if snapshot is None:
            snapshot = open_snapshot(key)
            _ATTACHED[key] = snapshot
        return snapshot


def detach_all() -> None:
    """Close every attached snapshot (tests)."""
    with _ATTACH_LOCK:
        snapshots = list(_ATTACHED.values())
        _ATTACHED.clear()
    for snapshot in snapshots:
        snapshot.close()


def _reopen_graph(path: str, store_name: str, name: str):
    """Unpickle target of :meth:`FlatPathPropertyGraph.__reduce__`."""
    graph = attach(path).graph(store_name)
    return graph if graph.name == name else graph.with_name(name)
