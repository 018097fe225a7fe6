"""Array-backed graph storage decoded from a mapped snapshot.

:class:`FlatGraphStore` is the read surface over one graph's snapshot
sections: identifier tables, ``u32`` endpoint/path arrays, per-label
bitsets, dictionary-encoded property columns, pre-sorted adjacency CSRs
and serialized planner statistics — all served as ``array``/
``memoryview`` reads over the reader's buffer, zero-copy under ``mmap``.

:class:`FlatPathPropertyGraph` plugs that store into the engine's
:class:`~repro.model.graph.PathPropertyGraph` contract. Everything is
lazy: the identifier tuples, the id -> position index and the node/
edge/path frozensets decode on first use (so opening a snapshot costs
the manifest, not the graph); ``rho``/``delta``/``lambda``/``sigma`` are lazy
:class:`~collections.abc.Mapping` implementations that decode per
object on demand and materialize a plain dict only when a consumer
genuinely needs the whole assignment (set operations, equality). The
derived indexes the columnar executor probes — label-bucketed adjacency
and label membership — decode straight from the stored CSRs and
bitsets, skipping the build-and-sort pass dict-backed graphs pay.

Flat graphs are **immutable snapshots**: :func:`repro.model.delta.apply_delta`
reads them through the public accessors and assembles a plain dict-backed
graph, so the first update copies-on-write out of the mapping and later
epochs live in the ordinary mutable store (the MVCC model is unchanged).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Mapping
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..errors import SnapshotFormatError
from ..model.graph import ObjectId, PathPropertyGraph
from .format import (
    SnapshotReader,
    decode_entry_table,
    decode_id,
    decode_scalar,
    read_u32,
)

__all__ = ["FlatGraphStore", "FlatPathPropertyGraph"]


def _iter_bits(bits: memoryview):
    """Yield the set bit positions of a little-endian bitset."""
    for byte_index, byte in enumerate(bits):
        while byte:
            low = byte & -byte
            yield (byte_index << 3) + low.bit_length() - 1
            byte &= byte - 1


class FlatGraphStore:
    """Decoded section handles for one graph inside a snapshot."""

    __slots__ = (
        "reader",
        "name",
        "prefix",
        "node_count",
        "edge_count",
        "path_count",
        "_ids",
        "_index",
        "_rho_arrays",
        "_adj_out",
        "_adj_in",
        "_label_names",
        "_label_index",
        "_path_starts",
        "_path_seq",
        "_prop_keys",
        "_prop_values",
        "_prop_columns",
    )

    def __init__(self, reader: SnapshotReader, entry: Dict[str, Any]) -> None:
        self.reader = reader
        self.name: str = entry["name"]
        self.prefix: str = entry["prefix"]
        self.node_count: int = entry["nodes"]
        self.edge_count: int = entry["edges"]
        self.path_count: int = entry["paths"]
        # Construction never touches the data sections — opening a
        # snapshot is O(manifest), not O(graph); the cold-start bench
        # gates this. Identifier/endpoint decodes happen on first read.
        self._ids: Optional[Tuple[ObjectId, ...]] = None
        self._index: Optional[Dict[ObjectId, int]] = None
        self._rho_arrays = None
        self._adj_out = {
            key: None for key in entry.get("adj_out", ())
        }  # label-or-"*" -> decoded CSR dict (filled lazily)
        self._adj_in = {key: None for key in entry.get("adj_in", ())}
        self._label_names: Optional[Tuple[str, ...]] = None
        self._label_index: Optional[Dict[str, int]] = None
        self._path_starts = None
        self._path_seq = None
        self._prop_keys: Optional[Tuple[str, ...]] = None
        self._prop_values: Optional[List[Any]] = None
        self._prop_columns: Optional[List[Optional[tuple]]] = None

    # -- raw sections ---------------------------------------------------
    def section(self, suffix: str) -> memoryview:
        return self.reader.section(self.prefix + suffix)

    # -- identifiers ----------------------------------------------------
    @property
    def ids(self) -> Tuple[ObjectId, ...]:
        """All identifiers by table position (nodes, edges, paths)."""
        if self._ids is None:
            ids = decode_entry_table(self.section("ids"), decode_id)
            expected = self.node_count + self.edge_count + self.path_count
            if len(ids) != expected:
                raise SnapshotFormatError(
                    f"{self.reader.path}: graph {self.name!r} identifier "
                    f"table has {len(ids)} entries, manifest says {expected}"
                )
            self._ids = tuple(ids)
        return self._ids

    @property
    def index(self) -> Dict[ObjectId, int]:
        """Identifier -> table position (built on first membership test)."""
        if self._index is None:
            self._index = {
                obj: position for position, obj in enumerate(self.ids)
            }
        return self._index

    @property
    def node_ids(self) -> Tuple[ObjectId, ...]:
        return self.ids[: self.node_count]

    @property
    def edge_ids(self) -> Tuple[ObjectId, ...]:
        return self.ids[self.node_count : self.node_count + self.edge_count]

    @property
    def path_ids(self) -> Tuple[ObjectId, ...]:
        return self.ids[self.node_count + self.edge_count :]

    # -- endpoints ------------------------------------------------------
    def _rho(self):
        if self._rho_arrays is None:
            rho = read_u32(self.section("rho"))
            if len(rho) != 2 * self.edge_count:
                raise SnapshotFormatError(
                    f"{self.reader.path}: graph {self.name!r} endpoint "
                    f"array has {len(rho)} entries for "
                    f"{self.edge_count} edges"
                )
            self._rho_arrays = (
                rho[: self.edge_count],
                rho[self.edge_count :],
            )
        return self._rho_arrays

    def endpoints_at(self, edge_pos: int) -> Tuple[ObjectId, ObjectId]:
        """``rho`` of the edge at table position *edge_pos* (0-based)."""
        src, dst = self._rho()
        return (self.ids[src[edge_pos]], self.ids[dst[edge_pos]])

    def iter_rho(self):
        """Yield ``(edge, (source, target))`` in stored (insertion) order."""
        ids = self.ids
        src, dst = self._rho()
        base = self.node_count
        for position in range(self.edge_count):
            yield ids[base + position], (ids[src[position]], ids[dst[position]])

    # -- stored paths ---------------------------------------------------
    def _path_arrays(self):
        if self._path_starts is None:
            buffer = read_u32(self.section("paths"))
            count = self.path_count
            self._path_starts = buffer[: count + 1]
            self._path_seq = buffer[count + 1 :]
        return self._path_starts, self._path_seq

    def sequence_at(self, path_pos: int) -> Tuple[ObjectId, ...]:
        starts, seq = self._path_arrays()
        ids = self.ids
        return tuple(
            ids[seq[position]]
            for position in range(starts[path_pos], starts[path_pos + 1])
        )

    # -- labels ---------------------------------------------------------
    @property
    def label_names(self) -> Tuple[str, ...]:
        if self._label_names is None:
            self._label_names = tuple(
                decode_entry_table(
                    self.section("labelnames"),
                    lambda view: str(view, "utf-8"),
                )
            )
            self._label_index = {
                name: position
                for position, name in enumerate(self._label_names)
            }
        return self._label_names

    def label_position(self, label: str) -> Optional[int]:
        self.label_names
        return self._label_index.get(label)

    def label_bitset(self, label_pos: int) -> memoryview:
        stride = (len(self.ids) + 7) >> 3
        bits = self.section("labelbits")
        return bits[label_pos * stride : (label_pos + 1) * stride]

    def labels_at(self, position: int) -> FrozenSet[str]:
        names = self.label_names
        byte_index = position >> 3
        bit = 1 << (position & 7)
        found = [
            name
            for label_pos, name in enumerate(names)
            if self.label_bitset(label_pos)[byte_index] & bit
        ]
        return frozenset(found)

    def labeled_positions(self) -> List[int]:
        """Table positions of every object carrying at least one label."""
        stride = (len(self.ids) + 7) >> 3
        if not stride or not self.label_names:
            return []
        union = bytearray(stride)
        for label_pos in range(len(self.label_names)):
            bits = self.label_bitset(label_pos)
            for byte_index, byte in enumerate(bits):
                union[byte_index] |= byte
        return list(_iter_bits(memoryview(union)))

    # -- properties -----------------------------------------------------
    @property
    def prop_keys(self) -> Tuple[str, ...]:
        if self._prop_keys is None:
            self._prop_keys = tuple(
                decode_entry_table(
                    self.section("propkeys"),
                    lambda view: str(view, "utf-8"),
                )
            )
        return self._prop_keys

    def _prop_value(self, value_pos: int) -> Any:
        if self._prop_values is None:
            self._prop_values = decode_entry_table(
                self.section("propvals"), decode_scalar
            )
        return self._prop_values[value_pos]

    def prop_column(self, key_pos: int):
        """``(object_positions, value_starts, value_indexes)`` of one key.

        ``object_positions`` is ascending, so per-object lookups bisect;
        all three are ``u32`` views straight over the mapping.
        """
        if self._prop_columns is None:
            self._prop_columns = [None] * len(self.prop_keys)
        column = self._prop_columns[key_pos]
        if column is None:
            buffer = read_u32(self.section("propcols"))
            key_count = len(self.prop_keys)
            offsets = buffer[: key_count + 1]
            body = buffer[key_count + 1 :]
            start, stop = offsets[key_pos], offsets[key_pos + 1]
            entry_count = body[start]
            objects = body[start + 1 : start + 1 + entry_count]
            starts = body[
                start + 1 + entry_count : start + 2 + 2 * entry_count
            ]
            values = body[start + 2 + 2 * entry_count : stop]
            column = (objects, starts, values)
            self._prop_columns[key_pos] = column
        return column

    def props_at(self, position: int) -> Dict[str, FrozenSet[Any]]:
        result: Dict[str, FrozenSet[Any]] = {}
        for key_pos, key in enumerate(self.prop_keys):
            objects, starts, values = self.prop_column(key_pos)
            slot = bisect_left(objects, position)
            if slot < len(objects) and objects[slot] == position:
                result[key] = frozenset(
                    self._prop_value(values[value_pos])
                    for value_pos in range(starts[slot], starts[slot + 1])
                )
        return result

    def propertied_positions(self) -> List[int]:
        """Ascending table positions of objects with at least one property."""
        merged: set = set()
        for key_pos in range(len(self.prop_keys)):
            objects, _starts, _values = self.prop_column(key_pos)
            merged.update(objects)
        return sorted(merged)

    # -- adjacency ------------------------------------------------------
    def adjacency(
        self, forward: bool, label: Optional[str]
    ) -> Dict[ObjectId, Tuple[ObjectId, ...]]:
        """The stored (direction, label) CSR as ``{node: (edges...)}``.

        Buckets were sorted by edge-identifier string at save time, so
        the decoded dict is exactly what
        :meth:`PathPropertyGraph.out_adjacency` would build. A label
        with no stored bucket labels no edge — the empty index.
        """
        buckets = self._adj_out if forward else self._adj_in
        if label is None:
            key = "*"
        else:
            label_pos = self.label_position(label)
            if label_pos is None:
                return {}
            key = str(label_pos)
        if key not in buckets:
            return {}
        decoded = buckets[key]
        if decoded is None:
            suffix = f"adj:{'out' if forward else 'in'}:{key}"
            buffer = read_u32(self.section(suffix))
            node_count = buffer[0]
            nodes = buffer[2 : 2 + node_count]
            starts = buffer[2 + node_count : 3 + 2 * node_count]
            edges = buffer[3 + 2 * node_count :]
            ids = self.ids
            decoded = {
                ids[nodes[slot]]: tuple(
                    ids[edges[position]]
                    for position in range(starts[slot], starts[slot + 1])
                )
                for slot in range(node_count)
            }
            buckets[key] = decoded
        return decoded

    # -- statistics -----------------------------------------------------
    def statistics_payload(self) -> Optional[Dict[str, Any]]:
        if not self.reader.has_section(self.prefix + "stats"):
            return None
        try:
            return json.loads(bytes(self.section("stats")))
        except ValueError as exc:
            raise SnapshotFormatError(
                f"{self.reader.path}: undecodable statistics for graph "
                f"{self.name!r} ({exc})"
            ) from None


# ---------------------------------------------------------------------------
# Lazy mapping views over the store
# ---------------------------------------------------------------------------

class _LazyMapping(Mapping):
    """Base of the store-backed ``rho``/``delta``/``lambda``/``sigma`` views.

    Per-object reads decode on demand; iteration and equality fall back
    to a one-time full materialization (cached), which keeps plain-dict
    semantics everywhere the engine (or :mod:`repro.model.setops`, which
    reaches into the private slots) treats these as dicts.
    """

    __slots__ = ("_store", "_full")

    def __init__(self, store: FlatGraphStore) -> None:
        self._store = store
        self._full: Optional[dict] = None

    def _materialize(self) -> dict:
        raise NotImplementedError

    def _dict(self) -> dict:
        if self._full is None:
            self._full = self._materialize()
        return self._full

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self._dict())

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, _LazyMapping):
            return self._dict() == other._dict()
        if isinstance(other, Mapping):
            return self._dict() == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{type(self).__name__} over {self._store.name!r}>"


class _FlatRho(_LazyMapping):
    """``rho``: edge -> (source, target), decoded from the u32 arrays."""

    __slots__ = ()

    def __getitem__(self, edge: ObjectId) -> Tuple[ObjectId, ObjectId]:
        store = self._store
        position = store.index.get(edge)
        if position is None:
            raise KeyError(edge)
        edge_pos = position - store.node_count
        if not 0 <= edge_pos < store.edge_count:
            raise KeyError(edge)
        return store.endpoints_at(edge_pos)

    def __len__(self) -> int:
        return self._store.edge_count

    def __iter__(self):
        return iter(self._store.edge_ids)

    def _materialize(self) -> dict:
        return dict(self._store.iter_rho())


class _FlatDelta(_LazyMapping):
    """``delta``: path -> alternating sequence, decoded from the CSR."""

    __slots__ = ()

    def __getitem__(self, path: ObjectId) -> Tuple[ObjectId, ...]:
        store = self._store
        position = store.index.get(path)
        if position is None:
            raise KeyError(path)
        path_pos = position - store.node_count - store.edge_count
        if not 0 <= path_pos < store.path_count:
            raise KeyError(path)
        return store.sequence_at(path_pos)

    def __len__(self) -> int:
        return self._store.path_count

    def __iter__(self):
        return iter(self._store.path_ids)

    def _materialize(self) -> dict:
        store = self._store
        return {
            path: store.sequence_at(path_pos)
            for path_pos, path in enumerate(store.path_ids)
        }


class _FlatLabels(_LazyMapping):
    """``lambda``: object -> label set, decoded from per-label bitsets.

    Mirrors the dict-backed invariant that only objects with a
    *non-empty* label set appear as keys.
    """

    __slots__ = ("_cache", "_carriers")

    def __init__(self, store: FlatGraphStore) -> None:
        super().__init__(store)
        self._cache: Dict[int, FrozenSet[str]] = {}
        self._carriers: Optional[List[int]] = None

    def _positions(self) -> List[int]:
        if self._carriers is None:
            self._carriers = self._store.labeled_positions()
        return self._carriers

    def __getitem__(self, obj: ObjectId) -> FrozenSet[str]:
        store = self._store
        position = store.index.get(obj)
        if position is None:
            raise KeyError(obj)
        labels = self._cache.get(position)
        if labels is None:
            labels = store.labels_at(position)
            self._cache[position] = labels
        if not labels:
            raise KeyError(obj)
        return labels

    def __len__(self) -> int:
        return len(self._positions())

    def __iter__(self):
        ids = self._store.ids
        return (ids[position] for position in self._positions())

    def _materialize(self) -> dict:
        store = self._store
        ids = store.ids
        return {
            ids[position]: store.labels_at(position)
            for position in self._positions()
        }


class _FlatProps(_LazyMapping):
    """``sigma``: object -> {key: value set}, from dictionary columns."""

    __slots__ = ("_cache", "_carriers")

    def __init__(self, store: FlatGraphStore) -> None:
        super().__init__(store)
        self._cache: Dict[int, Dict[str, FrozenSet[Any]]] = {}
        self._carriers: Optional[List[int]] = None

    def _positions(self) -> List[int]:
        if self._carriers is None:
            self._carriers = self._store.propertied_positions()
        return self._carriers

    def __getitem__(self, obj: ObjectId) -> Dict[str, FrozenSet[Any]]:
        store = self._store
        position = store.index.get(obj)
        if position is None:
            raise KeyError(obj)
        props = self._cache.get(position)
        if props is None:
            props = store.props_at(position)
            self._cache[position] = props
        if not props:
            raise KeyError(obj)
        return props

    def __len__(self) -> int:
        return len(self._positions())

    def __iter__(self):
        ids = self._store.ids
        return (ids[position] for position in self._positions())

    def _materialize(self) -> dict:
        store = self._store
        ids = store.ids
        return {
            ids[position]: store.props_at(position)
            for position in self._positions()
        }


# ---------------------------------------------------------------------------
# The graph
# ---------------------------------------------------------------------------

class FlatPathPropertyGraph(PathPropertyGraph):
    """A :class:`PathPropertyGraph` served from a :class:`FlatGraphStore`.

    Equality, query results and public accessors are indistinguishable
    from the dict-backed original the snapshot was saved from (the
    round-trip property suite pins this). The differences are all
    operational: construction is O(identifiers), adjacency and label
    indexes decode from pre-built sections instead of being recomputed,
    and property/label payloads stay in the mapped file until touched.
    """

    __slots__ = ("_flat", "_node_set", "_edge_set", "_path_set")

    # ``_nodes``/``_edges``/``_paths`` shadow the base-class slots with
    # lazy properties: the frozensets decode from the id table on first
    # access, which keeps ``GCoreEngine.open`` O(manifest) instead of
    # O(graph). Base-class code reading the "slots" resolves to these
    # through the MRO, so every consumer sees ordinary frozensets.
    @property
    def _nodes(self) -> FrozenSet[ObjectId]:
        cached = self._node_set
        if cached is None:
            cached = frozenset(self._flat.node_ids)
            self._node_set = cached
        return cached

    @property
    def _edges(self) -> FrozenSet[ObjectId]:
        cached = self._edge_set
        if cached is None:
            cached = frozenset(self._flat.edge_ids)
            self._edge_set = cached
        return cached

    @property
    def _paths(self) -> FrozenSet[ObjectId]:
        cached = self._path_set
        if cached is None:
            cached = frozenset(self._flat.path_ids)
            self._path_set = cached
        return cached

    @classmethod
    def _from_store(
        cls, store: FlatGraphStore, name: str = ""
    ) -> "FlatPathPropertyGraph":
        graph = cls.__new__(cls)
        graph._flat = store
        graph._node_set = None
        graph._edge_set = None
        graph._path_set = None
        graph._rho = _FlatRho(store)
        graph._delta = _FlatDelta(store)
        graph._labels = _FlatLabels(store)
        graph._props = _FlatProps(store)
        graph._name = name
        graph._out_index = None
        graph._in_index = None
        graph._node_label_index = None
        graph._edge_label_index = None
        graph._path_label_index = None
        graph._adjacency_cache = {}
        graph._statistics = None
        return graph

    @property
    def store(self) -> FlatGraphStore:
        """The backing store (snapshot path, section handles)."""
        return self._flat

    # -- derived indexes from stored sections ---------------------------
    def _build_adjacency(self) -> None:
        store = self._flat
        out_index: Dict[ObjectId, List[ObjectId]] = {
            node: [] for node in store.node_ids
        }
        in_index: Dict[ObjectId, List[ObjectId]] = {
            node: [] for node in store.node_ids
        }
        for edge, (src, dst) in store.iter_rho():
            out_index[src].append(edge)
            in_index[dst].append(edge)
        self._out_index = {n: tuple(es) for n, es in out_index.items()}
        self._in_index = {n: tuple(es) for n, es in in_index.items()}

    def _adjacency(
        self, forward: bool, label: Optional[str]
    ) -> Dict[ObjectId, Tuple[ObjectId, ...]]:
        key = ("out" if forward else "in", label)
        cached = self._adjacency_cache.get(key)
        if cached is None:
            cached = self._flat.adjacency(forward, label)
            self._adjacency_cache[key] = cached
        return cached

    def _build_label_indexes(self) -> None:
        store = self._flat
        node_end = store.node_count
        edge_end = node_end + store.edge_count
        ids = store.ids
        node_idx: Dict[str, set] = {}
        edge_idx: Dict[str, set] = {}
        path_idx: Dict[str, set] = {}
        for label_pos, label in enumerate(store.label_names):
            for position in _iter_bits(store.label_bitset(label_pos)):
                if position < node_end:
                    target = node_idx
                elif position < edge_end:
                    target = edge_idx
                else:
                    target = path_idx
                target.setdefault(label, set()).add(ids[position])
        self._node_label_index = {
            label: frozenset(objs) for label, objs in node_idx.items()
        }
        self._edge_label_index = {
            label: frozenset(objs) for label, objs in edge_idx.items()
        }
        self._path_label_index = {
            label: frozenset(objs) for label, objs in path_idx.items()
        }

    def statistics(self):
        if self._statistics is None:
            payload = self._flat.statistics_payload()
            if payload is None:
                return super().statistics()
            from ..model.statistics import GraphStatistics

            stats = GraphStatistics.__new__(GraphStatistics)
            stats.node_count = payload["node_count"]
            stats.edge_count = payload["edge_count"]
            stats.path_count = payload["path_count"]
            stats.node_label_counts = dict(payload["node_label_counts"])
            stats.edge_label_counts = dict(payload["edge_label_counts"])
            stats.path_label_counts = dict(payload["path_label_counts"])
            stats.edge_label_sources = dict(payload["edge_label_sources"])
            stats.edge_label_targets = dict(payload["edge_label_targets"])
            stats._node_prop_sel = dict(payload["node_prop_sel"])
            stats._edge_prop_sel = dict(payload["edge_prop_sel"])
            stats._path_prop_sel = dict(payload["path_prop_sel"])
            self._statistics = stats
        return self._statistics

    # -- identity-preserving clone --------------------------------------
    def with_name(self, name: str) -> "FlatPathPropertyGraph":
        """A shallow flat clone under a catalog *name*.

        The base implementation clones into a plain
        :class:`PathPropertyGraph`, which would silently drop the
        store-backed index overrides; flat graphs stay flat (the lazy
        views and decoded caches are shared — everything is read-only).
        """
        clone = FlatPathPropertyGraph.__new__(FlatPathPropertyGraph)
        clone._flat = self._flat
        clone._node_set = self._node_set
        clone._edge_set = self._edge_set
        clone._path_set = self._path_set
        for slot in PathPropertyGraph.__slots__:
            if slot in ("_nodes", "_edges", "_paths"):
                continue  # shadowed by the lazy properties above
            setattr(clone, slot, getattr(self, slot))
        clone._name = name
        return clone

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (
            f"<FlatPathPropertyGraph{label}: {len(self._nodes)} nodes, "
            f"{len(self._edges)} edges, {len(self._paths)} paths "
            f"[{self._flat.reader.path}]>"
        )

    def __reduce__(self):
        """Pickle as a (path, graph, name) reference, not as payload.

        A worker that unpickles this attaches to the same snapshot file
        (via the process-level attach cache) instead of shipping the
        graph's contents over the pipe — the mapping is the shared
        medium.
        """
        from .snapshot import _reopen_graph

        return (
            _reopen_graph,
            (self._flat.reader.path, self._flat.name, self._name),
        )
