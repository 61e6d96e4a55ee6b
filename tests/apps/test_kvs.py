"""Tests for the hardware-accelerated key-value store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kvs import (
    _FULL,
    HashTableStore,
    KvError,
    KvsPerformanceParams,
    cpu_requests_per_s,
    fpga_requests_per_s,
)


def test_put_get_round_trip():
    store = HashTableStore()
    store.put(b"key", b"value")
    assert store.get(b"key") == b"value"
    assert store.get(b"missing") is None


def test_overwrite_updates_in_place():
    store = HashTableStore()
    store.put(b"k", b"v1")
    store.put(b"k", b"v2")
    assert store.get(b"k") == b"v2"
    assert store.items == 1


def test_delete_and_tombstone_reuse():
    store = HashTableStore(n_slots=8)
    store.put(b"a", b"1")
    assert store.delete(b"a")
    assert not store.delete(b"a")
    assert store.get(b"a") is None
    store.put(b"a", b"2")  # reuses the tombstone
    assert store.get(b"a") == b"2"
    assert store.items == 1


def test_probe_past_tombstone_finds_key():
    """Deleting one key must not hide colliding keys behind it."""
    store = HashTableStore(n_slots=8)
    # Force collisions by filling enough of a small table.
    keys = [f"k{i}".encode() for i in range(6)]
    for key in keys:
        store.put(key, key)
    store.delete(keys[0])
    for key in keys[1:]:
        assert store.get(key) == key


def test_table_full():
    store = HashTableStore(n_slots=8)
    for i in range(8):
        store.put(f"key{i}".encode(), b"x")
    with pytest.raises(KvError):
        store.put(b"overflow", b"x")


def test_key_value_size_limits():
    store = HashTableStore()
    with pytest.raises(KvError):
        store.put(b"", b"x")
    with pytest.raises(KvError):
        store.put(b"k" * 33, b"x")
    with pytest.raises(KvError):
        store.put(b"k", b"v" * 121)
    store.put(b"k" * 32, b"v" * 120)  # exactly at the limits


def test_atomic_add():
    store = HashTableStore()
    assert store.atomic_add(b"ctr", 5) == 5
    assert store.atomic_add(b"ctr", -2) == 3
    assert store.atomic_add(b"ctr", 0) == 3


def test_load_factor_and_stats():
    store = HashTableStore(n_slots=16)
    for i in range(4):
        store.put(f"k{i}".encode(), b"v")
    assert store.load_factor == 0.25
    store.get(b"k0")
    assert store.stats["gets"] == 1
    assert store.stats["puts"] == 4


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "delete"]),
            st.binary(min_size=1, max_size=8),
            st.binary(max_size=16),
        ),
        max_size=60,
    )
)
def test_matches_dict_reference(ops):
    store = HashTableStore(n_slots=256)
    reference = {}
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            reference[key] = value
        elif op == "get":
            assert store.get(key) == reference.get(key)
        else:
            assert store.delete(key) == (reference.pop(key, None) is not None)
    for key, value in reference.items():
        assert store.get(key) == value


# -- scan ---------------------------------------------------------------------

def _reference_scan(store):
    """Every full slot's (key, value), in slot order."""
    out = []
    for index in range(store.n_slots):
        state, key, value = store._slot(index)
        if state == _FULL:
            out.append((key, value))
    return out


def _wrapping_keys(store, count):
    """Keys that all hash to the arena's last slot, so every one after
    the first probes round to slot 0 and on."""
    keys = []
    i = 0
    while len(keys) < count:
        key = b"w%d" % i
        if store._hash(key) == store.n_slots - 1:
            keys.append(key)
        i += 1
    return keys


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "put", "put", "delete", "delete", "clear", "snap", "restore"]),
            st.integers(min_value=0, max_value=11),
            st.binary(max_size=6),
        ),
        max_size=60,
    )
)
def test_scan_matches_slot_order_walk(ops):
    store = HashTableStore(n_slots=16)
    keys = _wrapping_keys(store, 3) + [b"k%d" % i for i in range(9)]
    reference = {}
    saved = (store.snapshot_state(), {})
    for op, which, value in ops:
        key = keys[which]
        if op == "put":
            store.put(key, value)
            reference[key] = value
        elif op == "delete":
            store.delete(key)
            reference.pop(key, None)
        elif op == "clear":
            store.clear()
            reference.clear()
        elif op == "snap":
            saved = (store.snapshot_state(), dict(reference))
        else:
            store.restore_state(saved[0])
            reference = dict(saved[1])
        scanned = list(store.scan())
        assert scanned == _reference_scan(store)
        assert dict(scanned) == reference
        assert len(scanned) == store.items


def test_scan_follows_probe_wraparound_in_slot_order():
    store = HashTableStore(n_slots=16)
    first, second, third = _wrapping_keys(store, 3)
    for key in (first, second, third):
        store.put(key, key.upper())
    # first sits in the last slot; the others wrapped to slots 0 and 1.
    assert list(store.scan()) == [
        (second, second.upper()), (third, third.upper()), (first, first.upper())
    ]


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(st.binary(min_size=1, max_size=6), min_size=2, max_size=40, unique=True),
    seen=st.integers(min_value=0, max_value=39),
    doomed=st.lists(st.booleans(), min_size=40, max_size=40),
)
def test_scan_skips_keys_deleted_before_their_slot(keys, seen, doomed):
    """Stop the walk after ``seen`` items, delete the ``doomed`` keys it
    has not reached yet, then finish it."""
    store = HashTableStore(n_slots=64)
    for key in keys:
        store.put(key, b"v" + key)
    seen %= len(keys)
    before = _reference_scan(store)
    walk = store.scan()
    got = [item for _, item in zip(range(seen), walk)]
    visited = {key for key, _ in got}
    gone = {key for key, doom in zip(keys, doomed) if doom} - visited
    for key in gone:
        store.delete(key)
    got.extend(walk)
    assert (b"", b"") not in got
    assert got == [item for item in before if item[0] not in gone]


def test_fpga_path_beats_cpu_path():
    """KV-Direct's claim: the NIC-side store outruns the software server."""
    fpga = fpga_requests_per_s()
    cpu = cpu_requests_per_s()
    assert fpga > cpu
    # Both bounded by the wire for 64 B requests at 100G.
    wire = 100e9 / 8 / 64
    assert fpga <= wire
    assert fpga > 20e6  # tens of Mops, the KV-Direct regime


def test_performance_scales_with_clock():
    slow = fpga_requests_per_s(KvsPerformanceParams(fpga_clock_mhz=150.0))
    fast = fpga_requests_per_s(KvsPerformanceParams(fpga_clock_mhz=300.0))
    assert fast == pytest.approx(2 * slow)
