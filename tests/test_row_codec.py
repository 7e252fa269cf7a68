"""Header-free feature rows: one codec for every reader, width-checked."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import random_hetero_graph
from repro.storage import CorruptStoreError, GraphStore, InMemoryKVStore, MmapKVStore, WorkerLoader
from repro.storage.loader import _encode_array, decode_rows


def _graph(dtype, dim, seed=0, num_txns=6):
    rng = np.random.default_rng(seed)
    graph = random_hetero_graph(rng, num_txns=num_txns, feature_dim=dim)
    return graph.with_features(rng.normal(size=(graph.num_nodes, dim)).astype(dtype))


def _old_format_store(graph):
    """A store as written before rows lost their ``.npy`` headers."""
    store = InMemoryKVStore()
    for key in GraphStore.STRUCT_KEYS:
        store.put(f"struct/{key}", _encode_array(getattr(graph, key)))
    store.put("struct/meta", _encode_array(np.array([graph.num_nodes, graph.feature_dim])))
    for node in range(graph.num_nodes):
        store.put(f"feat/{node}", _encode_array(graph.txn_features[node]))
    return store


class TestRoundTrip:
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        dim=st.sampled_from([1, 2, 114]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_reader_returns_the_saved_rows(self, tmp_path_factory, dtype, dim, data):
        graph = _graph(dtype, dim, seed=data.draw(st.integers(0, 1000)))
        nodes = data.draw(st.lists(st.integers(0, graph.num_nodes - 1), max_size=12))
        expected = graph.txn_features[nodes]
        path = str(tmp_path_factory.mktemp("rows") / "g.bin")
        graph_store = GraphStore(MmapKVStore(path))
        graph_store.save(graph)
        with WorkerLoader(graph_store.store, private_handle=True) as private, WorkerLoader(
            graph_store.store, private_handle=False
        ) as shared:
            for load in (graph_store.load_features, private.load_features, shared.load_features):
                rows = load(nodes)
                assert rows.dtype == dtype and rows.shape == (len(nodes), dim)
                np.testing.assert_array_equal(rows, expected)
        loaded = graph_store.load()
        assert loaded.txn_features.dtype == dtype
        np.testing.assert_array_equal(loaded.txn_features, graph.txn_features)
        graph_store.store.close()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_request_keeps_width_and_dtype(self, tmp_path, dtype):
        graph = _graph(dtype, 5)
        graph_store = GraphStore(MmapKVStore(str(tmp_path / "g.bin")))
        graph_store.save(graph)
        for rows in (
            graph_store.load_features([]),
            WorkerLoader(graph_store.store).load_features([]),
        ):
            assert rows.shape == (0, 5)
            assert rows.dtype == dtype

    def test_rows_are_writable(self):
        graph_store = GraphStore(InMemoryKVStore())
        graph_store.save(_graph(np.float64, 3))
        rows = graph_store.load_features([0, 1])
        rows[0, 0] = 7.0  # the loaded graph may be edited in place
        assert graph_store.load().txn_features.flags.writeable

    def test_row_bytes_carry_no_header(self):
        graph = _graph(np.float32, 4)
        store = InMemoryKVStore()
        GraphStore(store).save(graph)
        assert store.get("feat/2") == graph.txn_features[2].astype("<f4").tobytes()


class TestFormatGuard:
    def test_wrong_width_row_raises(self):
        good = np.arange(3, dtype=np.float64).tobytes()
        with pytest.raises(CorruptStoreError, match="expected 24"):
            decode_rows([good, good[:-1]], np.float64, 3)
        with pytest.raises(CorruptStoreError):
            decode_rows([good + b"\x00"], np.float64, 3)
        # Same bytes, other row format: a float32 reader sees 6 values.
        with pytest.raises(CorruptStoreError):
            decode_rows([good], np.float32, 3)

    def test_truncated_row_in_store_raises(self):
        store = InMemoryKVStore()
        graph_store = GraphStore(store)
        graph_store.save(_graph(np.float64, 4))
        store.put("feat/1", store.get("feat/1")[:-8])
        with pytest.raises(CorruptStoreError):
            graph_store.load_features([0, 1])
        with pytest.raises(CorruptStoreError):
            graph_store.load()

    def test_old_npy_row_format_raises(self):
        graph = _graph(np.float64, 4)
        old = _old_format_store(graph)
        with pytest.raises(CorruptStoreError, match="struct/meta"):
            GraphStore(old).load()
        with pytest.raises(CorruptStoreError):
            WorkerLoader(old)
        # Even beside current metadata, a .npy row fails the width check.
        store = InMemoryKVStore()
        GraphStore(store).save(graph)
        store.put("feat/0", _encode_array(graph.txn_features[0]))
        with pytest.raises(CorruptStoreError, match="feature row"):
            GraphStore(store).load_features([0])

    @pytest.mark.parametrize("code", [-1, ord("z"), 2**62])
    def test_unknown_dtype_code_raises(self, code):
        store = InMemoryKVStore()
        GraphStore(store).save(_graph(np.float64, 4))
        store.put("struct/meta", _encode_array(np.array([1, 4, code])))
        with pytest.raises(CorruptStoreError, match="no row dtype"):
            GraphStore(store).load_features([0])
