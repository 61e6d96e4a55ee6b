"""Property tests for consistent-hash placement.

Follows the ``tests/sim/test_determinism.py`` convention: hypothesis
when available, a seeded plain-``random`` sweep otherwise.  Two of the
fleet's invariants are *exact* and tested without tolerance:

* extension moves keys only *to* the new machine;
* removal moves only the removed machine's keys, and each lands on its
  old first replica -- failover is a promotion, not a migration.

Uniformity is statistical and tested within tolerance.
"""

import random

import pytest

from repro.fleet.placement import HashRing, PlacementError, key_hash, moved_keys

pytestmark = pytest.mark.fleet

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on environment
    HAVE_HYPOTHESIS = False


def _names(n):
    return [f"enzian{i}" for i in range(n)]


def _keys(seed, count=800, size=8):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(count)]


# -- uniformity --------------------------------------------------------------

def _assert_uniform(n_machines: int, seed: int) -> None:
    ring = HashRing(_names(n_machines), vnodes=128)
    shares = ring.shares()
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    mean = 1.0 / n_machines
    assert max(shares.values()) <= 2.5 * mean, shares
    assert min(shares.values()) >= 0.15 * mean, shares
    # Sampled placement agrees with the analytic arcs direction-wise:
    # every machine serves *some* keys at this vnode count.
    keys = _keys(seed)
    primaries = {ring.primary(k) for k in keys}
    assert primaries == set(ring.machines)


if HAVE_HYPOTHESIS:

    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_primary_shares_are_near_uniform(n_machines, seed):
        _assert_uniform(n_machines, seed)

else:  # pragma: no cover - depends on environment

    def test_primary_shares_are_near_uniform():
        rng = random.Random(0xF1EE)
        for _ in range(20):
            _assert_uniform(rng.randrange(2, 17), rng.randrange(1 << 31))


# -- minimal movement (exact) ------------------------------------------------

def _assert_minimal_movement(n_machines: int, seed: int) -> None:
    keys = _keys(seed)
    ring = HashRing(_names(n_machines), vnodes=64, replication_factor=2)

    joined = ring.extended("enzian-new")
    moved_in = moved_keys(ring, joined, keys)
    # A join claims arcs only for itself: every moved key now primaries
    # on the new machine, and the moved fraction is near 1/(N+1).
    assert all(joined.primary(k) == "enzian-new" for k in moved_in)
    assert len(moved_in) / len(keys) <= 3.0 / (n_machines + 1)

    victim = ring.machines[seed % n_machines]
    shrunk = ring.removed(victim)
    moved_out = moved_keys(ring, shrunk, keys)
    # A removal re-homes exactly the victim's keys...
    assert all(ring.primary(k) == victim for k in moved_out)
    assert {k for k in keys if ring.primary(k) == victim} == set(
        bytes(k) for k in moved_out
    ) == set(moved_out)
    # ...and each is *promoted*: the new primary is the old first replica.
    assert all(shrunk.primary(k) == ring.place(k)[1] for k in moved_out)


if HAVE_HYPOTHESIS:

    @given(
        st.integers(min_value=3, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_membership_changes_move_minimal_keys(n_machines, seed):
        _assert_minimal_movement(n_machines, seed)

else:  # pragma: no cover - depends on environment

    def test_membership_changes_move_minimal_keys():
        rng = random.Random(0x5EED)
        for _ in range(15):
            _assert_minimal_movement(rng.randrange(3, 13), rng.randrange(1 << 31))


# -- placement memo ----------------------------------------------------------

def _assert_memo_matches_fresh(n_machines: int, seed: int) -> None:
    keys = _keys(seed, count=200, size=1 + seed % 12)
    ring = HashRing(_names(n_machines), vnodes=32, replication_factor=3)
    warm = [ring.place(k) for k in keys]
    for view in (bytes, bytearray, memoryview):
        fresh = HashRing(_names(n_machines), vnodes=32, replication_factor=3)
        for key, placed in zip(keys, warm):
            assert fresh.place(view(key)) == placed
            # Repeats, in any of the three key types, hit the memo.
            assert ring.place(view(key)) is placed
            assert fresh.place(key) is fresh.place(view(key))
    for other in (ring.removed(ring.machines[0]), ring.extended("enzian-new")):
        assert other._placed == {}
        rebuilt = HashRing(other.machines, vnodes=32, replication_factor=3)
        assert [other.place(k) for k in keys] == [rebuilt.place(k) for k in keys]


if HAVE_HYPOTHESIS:

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_memoised_placement_matches_a_fresh_ring(n_machines, seed):
        _assert_memo_matches_fresh(n_machines, seed)

else:  # pragma: no cover - depends on environment

    def test_memoised_placement_matches_a_fresh_ring():
        rng = random.Random(0x3E30)
        for _ in range(15):
            _assert_memo_matches_fresh(rng.randrange(2, 9), rng.randrange(1 << 31))


# -- replica sets ------------------------------------------------------------

def test_place_returns_distinct_machines():
    ring = HashRing(_names(6), vnodes=32, replication_factor=3)
    for key in _keys(11, count=200):
        placed = ring.place(key)
        assert len(placed) == 3
        assert len(set(placed)) == 3
        assert placed[0] == ring.primary(key)
        assert placed[1:] == ring.replicas(key)


def test_place_clamps_to_ring_size():
    ring = HashRing(_names(2), vnodes=16, replication_factor=2)
    shrunk = ring.removed("enzian1")
    assert shrunk.place(b"k") == ("enzian0",)


def test_placement_independent_of_name_order():
    a = HashRing(["b", "a", "c"], vnodes=32, replication_factor=2)
    b = HashRing(["c", "b", "a"], vnodes=32, replication_factor=2)
    for key in _keys(3, count=100):
        assert a.place(key) == b.place(key)


def test_key_hash_is_stable():
    # crc32: process- and version-independent (no PYTHONHASHSEED), so
    # the pinned value below holds on every interpreter.
    assert key_hash(b"enzian") == 0x5A915088
    assert key_hash(b"") == 0


# -- typed errors ------------------------------------------------------------

def test_ring_rejects_bad_topologies():
    with pytest.raises(PlacementError):
        HashRing([])
    with pytest.raises(PlacementError):
        HashRing(["a", "a"])
    with pytest.raises(PlacementError):
        HashRing(["a"], vnodes=0)
    with pytest.raises(PlacementError):
        HashRing(["a"], replication_factor=0)
    ring = HashRing(["a", "b"])
    with pytest.raises(PlacementError):
        ring.removed("nope")
    with pytest.raises(PlacementError):
        ring.extended("a")
    with pytest.raises(PlacementError):
        ring.removed("a").removed("b")
