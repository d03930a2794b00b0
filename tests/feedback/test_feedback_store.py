"""Units for the columnar feedback plane: store, batch, binlog, lazy history.

The backend conformance suite (test_ledger_backends.py) checks the
contract through the :class:`FeedbackLedger` facade; these tests pin the
columnar internals — string interning, batch validation, the SoA store's
indexes, the binary ledger's crash recovery, and the lazily-materialized
feedback metadata of columnar histories.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.feedback import binlog, store as store_module
from repro.feedback.history import TransactionHistory
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.records import Feedback, Rating
from repro.feedback.store import (
    ColumnarStore,
    FeedbackBatch,
    StringTable,
    _ColumnarHistory,
    id_hash,
)


def _fb(t, server="s1", client="c1", rating=Rating.POSITIVE, category=None):
    return Feedback(
        time=float(t), server=server, client=client, rating=rating, category=category
    )


class TestStringTable:
    def test_intern_is_idempotent(self):
        table = StringTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert len(table) == 2
        assert table.value(1) == "b"
        assert table.lookup("b") == 1
        assert table.lookup("missing") is None

    def test_intern_many_amortizes_and_reports_fresh(self):
        table = StringTable()
        table.intern("x")
        values = np.array(["y", "x", "y", "z"], dtype=object)
        codes, fresh = table.intern_many(values)
        assert codes.tolist() == [table.lookup("y"), 0, table.lookup("y"), table.lookup("z")]
        assert sorted(fresh) == ["y", "z"]

    def test_intern_many_unicode_array(self):
        table = StringTable()
        codes, fresh = table.intern_many(np.array(["a", "b", "a"]))
        assert codes.tolist() == [0, 1, 0]
        assert fresh == ["a", "b"]
        # new codes follow the sorted unique values, not first appearance
        codes, fresh = StringTable().intern_many(np.array(["b", "a", "b"]))
        assert codes.tolist() == [1, 0, 1]
        assert fresh == ["a", "b"]


def _reference_intern_many(table, values):
    """The string-sort intern: one ``np.unique`` over the ids themselves."""
    arr = np.asarray(values)
    if arr.dtype == object:
        arr = arr.astype(str)
    uniq, inverse = np.unique(arr, return_inverse=True)
    fresh = []
    codes = np.empty(uniq.size, dtype=np.uint32)
    for i, value in enumerate(uniq):
        value = str(value)
        code = table.lookup(value)
        if code is None:
            code = table.intern(value)
            fresh.append(value)
        codes[i] = code
    return codes[inverse], fresh


def _assert_interns_like_reference(seeded, values):
    table, reference = StringTable(seeded), StringTable(seeded)
    codes, fresh = table.intern_many(values)
    ref_codes, ref_fresh = _reference_intern_many(reference, values)
    assert codes.dtype == np.uint32
    assert codes.tolist() == ref_codes.tolist()
    assert fresh == ref_fresh
    assert table.values() == reference.values()


# mixed lengths, non-BMP characters and interior NULs (which the hash
# skips, so "a\0b" and "ab" share a key and must be told apart)
_IDS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=9
)


def _length_hash(arr):
    """A hash under which every two ids of the same length collide."""
    return np.char.str_len(arr).astype(np.uint64)


class TestInternByHash:
    @settings(max_examples=200, deadline=None)
    @given(
        pool=st.lists(_IDS, min_size=1, max_size=12, unique=True),
        picks=st.lists(st.integers(0, 11), min_size=0, max_size=60),
        seeded=st.lists(st.integers(0, 11), max_size=5, unique=True),
        grouped=st.booleans(),
        dtype=st.sampled_from([str, object]),
        colliding=st.booleans(),
    )
    def test_matches_sort_reference(
        self, pool, picks, seeded, grouped, dtype, colliding
    ):
        values = [pool[i % len(pool)] for i in picks]
        if grouped:  # ids arriving in runs take the run-collapsing branch
            values.sort()
        arr = np.array(values, dtype=dtype)
        seed_ids = list(dict.fromkeys(pool[i % len(pool)] for i in seeded))
        with pytest.MonkeyPatch.context() as patch:
            if colliding:  # the sort fallback, and the hash path on a poor hash
                patch.setattr(store_module, "id_hash", _length_hash)
            _assert_interns_like_reference(seed_ids, arr)

    def test_hash_is_width_independent_fnv1a(self):
        narrow = np.array(["ab", "\U0001F600"])
        wide = narrow.astype("<U16")
        assert id_hash(narrow).tolist() == id_hash(wide).tolist()
        key = 0xCBF29CE484222325
        for unit in map(ord, "ab"):
            key = ((key ^ unit) * 0x100000001B3) % 2**64
        assert int(id_hash(narrow)[0]) == key

    @pytest.mark.parametrize(
        "values",
        [
            ["aa", "b", "bb", "c", "aa", "d"],  # scattered: class check fails
            ["aa", "aa", "aa", "bb", "bb", "cc", "cc", "cc"],  # runs: run check fails
            ["zz", "zz", "zz", "zz", "yy", "yy", "xx", "zz"],
        ],
    )
    @pytest.mark.parametrize("dtype", [str, object])
    def test_forced_collision_takes_sort_path(self, monkeypatch, values, dtype):
        monkeypatch.setattr(store_module, "id_hash", _length_hash)
        calls = []
        unique = np.unique

        def spy(ar, *args, **kwargs):
            calls.append(np.asarray(ar).dtype.kind)
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        _assert_interns_like_reference(["bb"], np.array(values, dtype=dtype))
        # the table's intern sorted the strings (the reference sorts too)
        assert calls.count("U") == 2


def _cold_start_batch(seed, n_servers=12, offset=0):
    """A small fleet shaped like perfbench's cold_start cycle."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(120, 361, size=n_servers)
    names = [f"server-{i:05d}" for i in range(offset, offset + n_servers)]
    servers = np.repeat(np.array(names), lengths)
    clients = np.char.add("client-", rng.integers(0, 1000, size=servers.size).astype("U4"))
    times = np.concatenate([np.arange(k, dtype=np.float64) for k in lengths])
    ratings = (rng.random(servers.size) < 0.9).astype(np.uint8)
    return FeedbackBatch(times=times, servers=servers, clients=clients, ratings=ratings)


def _ledger_digests(tmp_path, name):
    path = str(tmp_path / f"{name}.ledger")
    with FeedbackLedger(backend="mmap", path=path) as led:
        first = _cold_start_batch(1)
        assert led.record_batch(first) == len(first)
        # a second batch: old servers continue, new ones join, the
        # client table is already seeded
        later = _cold_start_batch(2, offset=6)
        later.times = later.times + 400.0
        assert led.record_batch(later) == len(later)
        led.flush()
    files = [path] + [f"{path}.{kind}" for kind in ("servers", "clients", "categories")]
    return [hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files]


def test_ledger_bytes_same_with_hash_and_sort_paths(tmp_path, monkeypatch):
    hashed = _ledger_digests(tmp_path, "hashed")
    monkeypatch.setattr(
        store_module, "id_hash", lambda arr: np.zeros(np.asarray(arr).size, np.uint64)
    )
    assert _ledger_digests(tmp_path, "sorted") == hashed


class TestFeedbackBatch:
    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            FeedbackBatch(
                times=[1.0, 2.0],
                servers=["s1"],
                clients=["c1", "c2"],
                ratings=[1, 0],
            )
        with pytest.raises(ValueError, match="binary"):
            FeedbackBatch(
                times=[1.0], servers=["s1"], clients=["c1"], ratings=[2]
            )

    def test_round_trip_through_feedbacks(self):
        stream = [_fb(1), _fb(2, rating=Rating.NEGATIVE, category="na"), _fb(3, "s2")]
        batch = FeedbackBatch.from_feedbacks(stream)
        assert len(batch) == 3
        assert list(batch.iter_feedbacks()) == stream
        assert batch.feedback_at(1).category == "na"


class TestColumnarStore:
    def test_append_row_and_indexes(self):
        store = ColumnarStore()
        s = store.server_table.intern("s1")
        c1 = store.client_table.intern("c1")
        c2 = store.client_table.intern("c2")
        store.append_row(1.0, s, c1, 1, binlog.CATEGORY_NONE, 1)
        store.append_row(2.0, s, c2, 0, binlog.CATEGORY_NONE, 1)
        store.append_row(3.0, s, c1, 1, binlog.CATEGORY_NONE, 1)
        assert store.rows_for_server(s).tolist() == [0, 1, 2]
        assert store.last_time(s) == 3.0
        assert store.last_row_for_pair(s, c1) == 2
        assert store.last_row_for_pair(s, c2) == 1
        fb = store.feedback_at(1)
        assert fb.client == "c2" and fb.rating is Rating.NEGATIVE

    def test_growth_beyond_initial_capacity(self):
        store = ColumnarStore()
        s = store.server_table.intern("s")
        c = store.client_table.intern("c")
        for i in range(3000):
            store.append_row(float(i), s, c, i % 2, binlog.CATEGORY_NONE, 1)
        assert len(store) == 3000
        assert store.ratings[:4].tolist() == [0, 1, 0, 1]
        assert store.rows_for_server(s).size == 3000


class TestLazyColumnarHistory:
    def _ledger(self, stream):
        led = FeedbackLedger(backend="columnar")
        led.record_many(stream)
        return led

    def test_is_a_transaction_history(self):
        led = self._ledger([_fb(1), _fb(2)])
        history = led.history("s1")
        assert isinstance(history, _ColumnarHistory)
        assert isinstance(history, TransactionHistory)

    def test_outcomes_available_without_materialization(self):
        led = self._ledger([_fb(1), _fb(2, rating=Rating.NEGATIVE)])
        history = led.history("s1")
        assert np.array_equal(history.outcomes(), [1, 0])
        assert history.p_hat == 0.5
        assert history.last_time() == 2.0
        # nothing above touched the feedback metadata
        assert history._lazy_list is None

    def test_metadata_materializes_on_demand(self):
        led = self._ledger([_fb(1, client="a"), _fb(2, client="b")])
        history = led.history("s1")
        assert [f.client for f in history.feedbacks()] == ["a", "b"]
        assert history._lazy_list is not None

    def test_append_before_materialization_is_consistent(self):
        led = self._ledger([_fb(1), _fb(2)])
        history = led.history("s1")
        led.record(_fb(3, client="late"))
        assert history._lazy_list is None  # still lazy after a live fold
        assert len(history) == 3
        feedbacks = history.feedbacks()
        assert len(feedbacks) == 3
        assert feedbacks[-1].client == "late"

    def test_ordering_enforced_while_lazy(self):
        led = self._ledger([_fb(5)])
        history = led.history("s1")
        with pytest.raises(ValueError, match="non-decreasing"):
            history.append_feedback(_fb(1))

    def test_speculate_feedback_rolls_back(self):
        led = self._ledger([_fb(1), _fb(2)])
        history = led.history("s1")
        spec = _fb(9, client="spec")
        with history.speculate_feedback(spec) as h:
            assert len(h) == 3
            assert h.feedbacks()[-1].client == "spec"
        assert len(history) == 2
        assert history.feedbacks()[-1].client == "c1"

    def test_group_by_client_matches_memory_backend(self):
        stream = [_fb(t, client=f"c{t % 3}") for t in range(1, 10)]
        lazy = self._ledger(stream).history("s1")
        eager = TransactionHistory.from_feedbacks(stream)
        assert {
            client: np.asarray(idx).tolist()
            for client, idx in lazy.group_by_client().items()
        } == {
            client: np.asarray(idx).tolist()
            for client, idx in eager.group_by_client().items()
        }


class TestBinlogCrashRecovery:
    def _write(self, path, stream):
        return binlog.write_binary_ledger(path, stream)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "led.bin")
        stream = [_fb(1), _fb(2, "s2", "c2", Rating.NEGATIVE, category="na")]
        assert self._write(path, stream) == 2
        data = binlog.load_binary_ledger(path)
        assert not data.damaged
        assert data.records.size == 2
        assert data.servers == ["s1", "s2"]
        assert data.categories == ["na"]

    def test_truncated_record_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "led.bin")
        self._write(path, [_fb(1), _fb(2), _fb(3)])
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 7)  # tear the last record mid-write
        data = binlog.load_binary_ledger(path, recover=True)
        assert data.damaged
        assert data.records.size == 2
        with pytest.raises(ValueError):
            binlog.load_binary_ledger(path, recover=False)

    def test_mmap_backend_recovers_and_appends(self, tmp_path):
        path = str(tmp_path / "led.bin")
        led = FeedbackLedger(backend="mmap", path=path)
        led.record_many([_fb(1), _fb(2), _fb(3)])
        led.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        with FeedbackLedger(backend="mmap", path=path) as led2:
            assert len(led2) == 2  # torn tail dropped
            led2.record(_fb(9))
            assert len(led2) == 3
        with FeedbackLedger(backend="mmap", path=path) as led3:
            assert not binlog.load_binary_ledger(path).damaged
            assert [f.time for f in led3.feedbacks_for_server("s1")] == [1.0, 2.0, 9.0]

    def test_header_magic_checked(self, tmp_path):
        path = str(tmp_path / "led.bin")
        with open(path, "wb") as handle:
            handle.write(b"NOTALEDGERFILE" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            binlog.load_binary_ledger(path)
