"""Background anti-entropy: Merkle trees, passes, fencing, convergence.

The claim under test: with hinted handoff *disabled* and no reads
issued, a rack that diverged under a partition converges to zero
divergence through :class:`AntiEntropyScheduler` passes alone --
apply-iff-newer, epoch-fenced, deterministic, and bit-identical when
the section is disabled.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    AntiEntropyConfig,
    AntiEntropyScheduler,
    FleetConfig,
    MerkleTree,
    Rack,
    replica_divergence,
)
from repro.fleet.kvs import NO_VERSION
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl

pytestmark = [pytest.mark.fleet, pytest.mark.chaos]


def _fleet(**overrides):
    defaults = dict(
        enabled=True,
        machines=6,
        replication_factor=3,
        write_quorum=2,
        read_quorum=2,
        hinted_handoff=False,
        machine_preset="bringup_4lane",
        seed=0xAE0B,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _rack(**overrides):
    obs = MetricsRegistry()
    rack = Rack(_fleet(**overrides), obs=obs)
    return rack, rack.client(), obs


def _run(kernel, generator, name="work"):
    kernel.spawn(generator, name=name)
    kernel.run()


def _writes(client, n, suffix=b"a"):
    for i in range(n):
        yield from client.put(b"k%04d" % i, b"v%04d-" % i + suffix)


def _advance_past(rack, until_ns):
    rack.kernel.call_at(until_ns, lambda _value: None)
    rack.kernel.run()
    rack.maybe_heal()


def _split(rack, until_ns):
    rack.start_partition(
        [["enzian0", "enzian1", "enzian2", "enzian3"], ["enzian4", "enzian5"]],
        until_ns=until_ns,
    )


def _diverge(rack, client, n=50):
    """Write, split, overwrite, heal -- without hints the minority side
    is left stale.  Returns the post-heal divergence (must be > 0)."""
    _run(rack.kernel, _writes(client, n), "w1")

    def overwrite():
        for i in range(n):
            try:
                yield from client.put(b"k%04d" % i, b"v%04d-b" % i)
            except Exception:
                pass

    _split(rack, until_ns=rack.kernel.now + 2_000_000.0)
    _run(rack.kernel, overwrite(), "w2")
    _advance_past(rack, rack.kernel.now + 2_500_000.0)
    assert rack.active_partition is None
    divergence = replica_divergence(rack)
    assert divergence > 0, "partition without hints must leave divergence"
    return divergence


# -- config ------------------------------------------------------------------

def test_anti_entropy_disabled_by_default():
    assert FleetConfig(enabled=True).anti_entropy.enabled is False


def test_anti_entropy_config_validation():
    with pytest.raises(ValueError, match="interval_ns"):
        AntiEntropyConfig(interval_ns=0)
    with pytest.raises(ValueError, match="depth"):
        AntiEntropyConfig(depth=0)
    with pytest.raises(ValueError, match="depth"):
        AntiEntropyConfig(depth=17)


# -- Merkle trees ------------------------------------------------------------

def test_identical_trees_compare_in_one_root_check():
    entries = {
        b"k%03d" % i: ((1, i), i * 7, False) for i in range(40)
    }
    a = MerkleTree(4, dict(entries))
    b = MerkleTree(4, dict(entries))
    assert a.root == b.root
    divergent, comparisons = a.diff(b)
    assert divergent == []
    assert comparisons == 1


def test_single_divergent_key_is_localized():
    entries = {b"k%03d" % i: ((1, i), i * 7, False) for i in range(40)}
    changed = dict(entries)
    changed[b"k007"] = ((2, 99), 1234, False)
    a = MerkleTree(4, entries)
    b = MerkleTree(4, changed)
    divergent, comparisons = a.diff(b)
    assert len(divergent) == 1
    assert b"k007" in a.buckets[divergent[0]]
    # One root-to-leaf path plus the pruned siblings: 2*depth + 1.
    assert comparisons <= 2 * 4 + 1


def test_tombstones_hash_differently_from_absence():
    with_tomb = MerkleTree(2, {b"k": ((1, 1), 0, True)})
    without = MerkleTree(2, {})
    assert with_tomb.root != without.root


# -- passes ------------------------------------------------------------------

def test_pass_closes_post_heal_divergence_without_reads():
    rack, client, _obs = _rack()
    _diverge(rack, client)
    scheduler = AntiEntropyScheduler(
        rack, AntiEntropyConfig(enabled=True)
    )
    repaired = scheduler.run_pass()
    assert repaired > 0
    assert replica_divergence(rack) == 0
    assert scheduler.stats["repairs_applied"] == repaired
    assert scheduler.stats["ranges_diverged"] > 0
    # A second pass finds nothing: one root comparison per pair.
    assert scheduler.run_pass() == 0


def test_pass_is_skipped_while_partition_is_active():
    rack, client, _obs = _rack()
    _run(rack.kernel, _writes(client, 10), "w")
    _split(rack, until_ns=rack.kernel.now + 1_000_000.0)
    scheduler = AntiEntropyScheduler(rack, AntiEntropyConfig(enabled=True))
    assert scheduler.run_pass() == 0
    assert scheduler.stats["skipped_partition"] == 1
    assert scheduler.stats["pairs_compared"] == 0
    _advance_past(rack, rack.kernel.now + 1_500_000.0)


def test_repairs_are_apply_iff_newer():
    rack, client, _obs = _rack()
    _run(rack.kernel, _writes(client, 20), "w")
    key = b"k0005"
    targets = rack.ring.place(key)
    winner = rack.machines[targets[0]]
    newest = winner.server.versions[key]
    # Plant a stale copy on another placement target.
    stale = rack.machines[targets[1]]
    stale.server.versions[key] = (newest[0], max(0, newest[1] - 1))
    stale.store.put(key, b"stale-value")
    assert replica_divergence(rack) > 0
    scheduler = AntiEntropyScheduler(rack, AntiEntropyConfig(enabled=True))
    scheduler.run_pass()
    assert stale.server.versions[key] == newest
    assert stale.store.get(key) == winner.store.get(key)
    assert winner.server.versions[key] == newest  # never clobbered back
    assert replica_divergence(rack) == 0


def test_tombstones_propagate_to_stale_replicas():
    rack, client, _obs = _rack()
    _run(rack.kernel, _writes(client, 20), "w")
    key = b"k0008"

    def deleter():
        yield from client.delete(key)

    targets = rack.ring.place(key)
    # Make one target miss the delete entirely, as a partition would.
    victim = rack.machines[targets[-1]]
    before_version = dict(victim.server.versions)
    before_value = victim.store.get(key)
    _run(rack.kernel, deleter(), "del")
    victim.server.versions.update({key: before_version.get(key, NO_VERSION)})
    if before_value is not None:
        victim.store.put(key, before_value)
    assert replica_divergence(rack) > 0
    scheduler = AntiEntropyScheduler(rack, AntiEntropyConfig(enabled=True))
    assert scheduler.run_pass() > 0
    assert victim.store.get(key) is None
    assert replica_divergence(rack) == 0


# -- the background window ---------------------------------------------------

def test_window_runs_passes_and_drains():
    rack, client, obs = _rack(
        anti_entropy=AntiEntropyConfig(enabled=True, interval_ns=500_000.0)
    )
    _diverge(rack, client)
    scheduler = AntiEntropyScheduler(rack, obs=obs)
    scheduler.start(rack.kernel.now + 2_000_000.0)
    rack.kernel.run()  # drains: ticks retire at the window's end
    assert rack.kernel.pending_events == 0
    assert scheduler.stats["passes"] >= 2
    assert replica_divergence(rack) == 0
    assert scheduler._until is None


def test_disabled_scheduler_is_inert_and_bit_identical():
    def run(arm: bool) -> str:
        rack, client, obs = _rack()
        _run(rack.kernel, _writes(client, 30), "w")
        if arm:
            scheduler = AntiEntropyScheduler(rack)  # fleet default: disabled
            scheduler.start(rack.kernel.now + 5_000_000.0)
            assert scheduler.stats["passes"] == 0
        rack.kernel.run()
        return snapshot_jsonl(obs)

    assert run(arm=True) == run(arm=False)


# -- divergence measure ------------------------------------------------------

def test_replica_divergence_counts_missing_and_stale():
    rack, client, _obs = _rack()
    _run(rack.kernel, _writes(client, 12), "w")
    assert replica_divergence(rack) == 0
    key = b"k0002"
    target = rack.machines[rack.ring.place(key)[1]]
    version = target.server.versions.pop(key)
    target.store.delete(key)
    assert replica_divergence(rack) == 1
    target.server.versions[key] = (version[0], version[1] - 1)
    target.store.put(key, b"old")
    assert replica_divergence(rack) == 1


# -- checkpoint/restore ------------------------------------------------------

def test_scheduler_snapshot_round_trip():
    rack, client, _obs = _rack()
    _diverge(rack, client)
    scheduler = AntiEntropyScheduler(rack, AntiEntropyConfig(enabled=True))
    scheduler.run_pass()
    from repro.snap import restore, tagged

    state = tagged(scheduler)
    clone = AntiEntropyScheduler(rack, AntiEntropyConfig(enabled=True))
    restore(clone, state)
    assert clone.stats == scheduler.stats
    assert clone._until is None


# -- one view per machine == a fresh scan per pair ---------------------------

def _shared_entries(rack, name, partner):
    """The per-pair walk the pass used before it kept one view per
    machine: a full scan plus a ``store.get`` probe per versioned key,
    re-placing every key on the ring, on every call."""
    machine = rack.machines[name]
    ring = rack.ring
    server = machine.server
    out = {}
    for key, value in machine.store.scan():
        key = bytes(key)
        place = ring.place(key)
        if name in place and partner in place:
            version = server.versions.get(key, NO_VERSION)
            out[key] = (version, zlib.crc32(value), False)
    for key, version in server.versions.items():
        key = bytes(key)
        if key in out or machine.store.get(key) is not None:
            continue
        place = ring.place(key)
        if name in place and partner in place:
            out[key] = (tuple(version), 0, True)
    return out


class _PerPairFreshScan(AntiEntropyScheduler):
    """The pass as it was before machine views: each pair re-walks both
    stores with :func:`_shared_entries`, ignoring the pass's views."""

    def _sync_pair(self, a, b, epoch, _views):
        fresh = {
            name: [
                (key, None, entry, (a, b))
                for key, entry in _shared_entries(self.rack, name, partner).items()
            ]
            for name, partner in ((a, b), (b, a))
        }
        return super()._sync_pair(a, b, epoch, fresh)


#: What one machine holds for a key: nothing, a versioned copy, a
#: tombstone, or a version-less (all-replica discipline) copy.
_HOLDINGS = [
    None,
    ("live", (1, 1)), ("live", (1, 2)), ("live", (2, 1)),
    ("tomb", (1, 2)), ("tomb", (2, 1)),
    ("bare", b"x"), ("bare", b"y"),
]


def _plant(rack, key, holdings):
    for name, held in zip(sorted(rack.machines), holdings):
        if held is None:
            continue
        machine = rack.machines[name]
        kind, what = held
        if kind == "bare":
            machine.store.put(key, b"bare-" + what)
            continue
        machine.server.versions[key] = what
        if kind == "live":
            machine.store.put(key, b"v%d.%d" % what)


def _cascade(rack, key):
    """The newest copy sits on the key's middle placement target; the
    other two lack it.  Pair (first, middle) repairs the first target,
    and pair (first, last) must then carry that repair to the last."""
    first, middle, last = sorted(rack.ring.place(key))
    newest = rack.machines[middle]
    newest.server.versions[key] = (3, 1)
    newest.store.put(key, b"v3.1")
    rack.machines[last].server.versions[key] = (1, 1)
    rack.machines[last].store.put(key, b"v1.1")


def _planted_rack(plan):
    rack = Rack(_fleet())
    for i, holdings in enumerate(plan):
        _plant(rack, b"k%02d" % i, holdings)
    _cascade(rack, b"cascade")
    return rack


def _rack_state(rack):
    return {
        name: (bytes(m.store.arena), m.store.items, dict(m.server.versions))
        for name, m in sorted(rack.machines.items())
    }


@settings(max_examples=40, deadline=None)
@given(
    plan=st.lists(
        st.lists(st.sampled_from(_HOLDINGS), min_size=6, max_size=6),
        max_size=24,
    )
)
def test_one_view_pass_matches_a_fresh_scan_per_pair(plan):
    results = []
    for kind in (_PerPairFreshScan, AntiEntropyScheduler):
        rack = _planted_rack(plan)
        scheduler = kind(rack, AntiEntropyConfig(enabled=True))
        repaired = [scheduler.run_pass(), scheduler.run_pass()]
        results.append((repaired, dict(scheduler.stats), _rack_state(rack)))
    oracle, one_view = results
    assert one_view == oracle
