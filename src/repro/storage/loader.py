"""Graph data loaders on top of the KV-store (Sec. 3.3.3).

:class:`GraphStore` serialises a :class:`~repro.graph.hetero.HeteroGraph`
into a KV-store (one entry per node's feature row plus the structural
arrays) and loads it back. :class:`WorkerLoader` is the per-worker data
loader: in the multi-handle design each worker owns an independent
mmap handle, which is the optimisation that removed the paper's
data-loading bottleneck (Figures 12 → 13).

Layout: the ``struct/*`` arrays are ``.npy`` blobs. Each ``feat/{node}``
value is the row's raw little-endian bytes with no header; the row
dtype and width are written once, in ``struct/meta``
(``[num_nodes, feature_dim, dtype code]``). Every reader decodes rows
through :func:`decode_rows`, whose exact-width check is the format
guard: a truncated, foreign or ``.npy``-format row raises
:class:`~repro.storage.kvstore.CorruptStoreError` rather than being
misread.
"""

from __future__ import annotations

import io
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..graph.hetero import HeteroGraph
from .kvstore import CorruptStoreError, KVStore, MmapKVStore, _MmapReader


def _encode_array(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


def _decode_array(blob: bytes) -> np.ndarray:
    return np.load(io.BytesIO(blob), allow_pickle=False)


def _row_dtype(dtype) -> np.dtype:
    """The on-store dtype of feature rows: ``dtype`` in little-endian order."""
    return np.dtype(dtype).newbyteorder("<")


def decode_rows(blobs: Sequence[bytes], dtype, dim: int) -> np.ndarray:
    """Decode header-free feature rows into one writable ``(n, dim)`` array.

    Every blob must be exactly ``dim * itemsize`` bytes; anything else
    raises :class:`CorruptStoreError`.
    """
    dtype = _row_dtype(dtype)
    width = dim * dtype.itemsize
    for blob in blobs:
        if len(blob) != width:
            raise CorruptStoreError(
                f"feature row is {len(blob)} bytes, expected {width} ({dim} x {dtype.name})"
            )
    return np.frombuffer(bytearray().join(blobs), dtype=dtype).reshape(len(blobs), dim)


def _read_meta(get: Callable[[str], bytes]) -> Tuple[int, int, np.dtype]:
    """``(num_nodes, feature_dim, row dtype)`` from ``struct/meta``."""
    meta = _decode_array(get("struct/meta"))
    if meta.shape != (3,):
        raise CorruptStoreError(
            f"struct/meta has shape {meta.shape}, expected (3,): "
            "not a header-free feature-row store"
        )
    try:
        dtype = _row_dtype(chr(int(meta[2])))
    except (TypeError, ValueError, OverflowError) as error:
        raise CorruptStoreError(f"struct/meta names no row dtype: {error}") from None
    return int(meta[0]), int(meta[1]), dtype


def _feature_keys(nodes: Sequence[int]):
    return (f"feat/{int(node)}" for node in nodes)


class GraphStore:
    """(De)serialise a heterogeneous graph through a KV-store."""

    STRUCT_KEYS = ("node_type", "edge_src", "edge_dst", "edge_type", "labels")

    def __init__(self, store: KVStore) -> None:
        self.store = store

    def save(self, graph: HeteroGraph) -> None:
        """Write structure arrays, the row format, and one raw row per node."""
        for key in self.STRUCT_KEYS:
            self.store.put(f"struct/{key}", _encode_array(getattr(graph, key)))
        dtype = _row_dtype(graph.txn_features.dtype)
        self.store.put(
            "struct/meta",
            _encode_array(
                np.array([graph.num_nodes, graph.feature_dim, ord(dtype.char)], dtype=np.int64)
            ),
        )
        rows = np.ascontiguousarray(graph.txn_features, dtype=dtype)
        for node in range(graph.num_nodes):
            self.store.put(f"feat/{node}", rows[node].tobytes())
        # Duck-typed: MmapKVStore needs its index footer written, and
        # ReplicatedKVStore forwards to any finalizable replicas.
        finalize = getattr(self.store, "finalize", None)
        if callable(finalize):
            finalize()

    def load(self) -> HeteroGraph:
        """Reassemble the full graph, round-tripping the saved dtype."""
        arrays = {key: _decode_array(self.store.get(f"struct/{key}")) for key in self.STRUCT_KEYS}
        num_nodes, feature_dim, dtype = _read_meta(self.store.get)
        features = decode_rows(
            [self.store.get(key) for key in _feature_keys(range(num_nodes))], dtype, feature_dim
        )
        return HeteroGraph(txn_features=features, **arrays)

    def load_features(self, nodes: Sequence[int]) -> np.ndarray:
        """Fetch feature rows through the shared store handle."""
        _, feature_dim, dtype = _read_meta(self.store.get)
        blobs = [self.store.get(key) for key in _feature_keys(nodes)]
        return decode_rows(blobs, dtype, feature_dim)


class WorkerLoader:
    """Per-worker feature loader.

    With ``private_handle=True`` (LMDB-style) the loader opens its own
    mmap reader; otherwise every call goes through the store's shared,
    possibly lock-guarded handle (LevelDB-style). The row format is
    read once, when the loader opens.
    """

    def __init__(self, store: KVStore, private_handle: bool = True) -> None:
        self.store = store
        self._reader: Optional[_MmapReader] = None
        if private_handle and isinstance(store, MmapKVStore) and not store.single_handle:
            self._reader = store.reader()
        _, self._dim, self._dtype = _read_meta(self._get)

    def _get(self, key: str) -> bytes:
        return self._reader.get(key) if self._reader is not None else self.store.get(key)

    def load_features(self, nodes: Sequence[int]) -> np.ndarray:
        return decode_rows([self._get(key) for key in _feature_keys(nodes)], self._dtype, self._dim)

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    def __enter__(self) -> "WorkerLoader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
