"""Record-replay: one board from a rack run, re-executed in isolation.

The satellite-3 acceptance test: record an 8-board
``examples/rack_kvs.py`` run (the canonical failover scenario), replay
single boards from their message traces alone, and require the replayed
board to be bit-identical to its in-rack execution -- outbound frames,
store arena, server stats, and the board's observability series.
"""

import json
import os
import sys
from dataclasses import MISSING, fields

import pytest

from repro.config import FleetConfig, preset
from repro.fleet import Rack
from repro.fleet.kvs import (
    REQUEST_HEADER_BYTES,
    FleetKvsError,
    KvsRequest,
    KvsResponse,
)
from repro.net import Frame
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.snap import (
    FleetSoak,
    attach_taps,
    replay_board,
    trace_from_jsonl,
    trace_to_jsonl,
)
from repro.snap.protocol import to_jsonable
from repro.snap.tap import _frame_of, _frame_record, decode_payload

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "examples"))

pytestmark = pytest.mark.snap


def _board_series(obs, name: str) -> list:
    return [
        line
        for line in snapshot_jsonl(obs).splitlines()
        if f'"machine": "{name}"' in line and "fleet_kvs_ops_total" in line
    ]


def test_rack_kvs_example_board_replays_bit_identically():
    from rack_kvs import run_rack

    result = run_rack(machines=8, seed=990951, record_taps=True)
    fleet, obs, traces = result["fleet"], result["obs"], result["traces"]

    # Replay every board that served traffic -- including the victim,
    # whose trace carries the out-of-band "down" control record.
    replayed = 0
    for name, records in traces.items():
        if not records:
            continue
        replay_obs = MetricsRegistry()
        board, outbound = replay_board(records, fleet, name, obs=replay_obs)

        original = [r for r in records if r["dir"] == "out"]
        assert outbound == original, f"{name}: outbound frames diverged"
        assert board["server"].stats == result["served"][name]
        assert _board_series(replay_obs, name) == _board_series(obs, name)
        replayed += 1
    assert replayed >= 2, "scenario should exercise several boards"

    # The victim's replay must reproduce the black-holed requests.
    victim = result["victim"]
    replay_obs = MetricsRegistry()
    board, _ = replay_board(traces[victim], fleet, victim, obs=replay_obs)
    assert not board["server"].alive


def test_trace_round_trips_through_jsonl():
    fleet = FleetConfig(enabled=True, machines=3, replication_factor=2, seed=4)
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    taps = attach_taps(rack)
    clients = [rack.client("client0")]
    FleetSoak(rack, clients, ops_per_epoch=20).run(2)

    for name, tap in taps.items():
        text = tap.to_jsonl()
        rt_name, rt_records = trace_from_jsonl(text)
        assert rt_name == name
        assert rt_records == tap.records


def test_replay_reproduces_store_arena():
    fleet = FleetConfig(enabled=True, machines=3, replication_factor=2, seed=9)
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    taps = attach_taps(rack)
    clients = [rack.client("client0")]
    FleetSoak(rack, clients, ops_per_epoch=25).run(2)

    for name, tap in taps.items():
        board, _ = replay_board(tap.records, fleet, name)
        assert bytes(board["store"].arena) == bytes(
            rack.machines[name].store.arena
        ), f"{name}: replayed arena diverged"
        assert board["store"].items == rack.machines[name].store.items


def test_recording_does_not_perturb_the_run():
    fleet = FleetConfig(enabled=True, machines=3, replication_factor=2, seed=6)

    def run(record):
        obs = MetricsRegistry()
        rack = Rack(fleet, obs=obs)
        if record:
            attach_taps(rack)
        clients = [rack.client("client0")]
        FleetSoak(rack, clients, ops_per_epoch=15).run(2)
        return snapshot_jsonl(obs)

    assert run(record=False) == run(record=True)


def _assert_boards_replay(rack, taps, fleet):
    """Every board, replayed alone from its JSONL trace, sends the same
    frames and ends with the same arena and quorum state."""
    assert len(taps) == fleet.machines
    for name, tap in taps.items():
        _, records = trace_from_jsonl(tap.to_jsonl())
        board, outbound = replay_board(records, fleet, name)
        original = [r for r in tap.records if r["dir"] == "out"]
        assert original, f"{name}: served no traffic"
        assert outbound == original, f"{name}: outbound frames diverged"
        machine = rack.machines[name]
        assert bytes(board["store"].arena) == bytes(machine.store.arena), name
        assert board["server"].versions == machine.server.versions, name
        assert board["server"].epoch == machine.server.epoch, name
        assert board["server"].hints == machine.server.hints, name


def _quorum_rack():
    fleet = preset("rack_quorum").fleet
    rack = Rack(fleet, obs=MetricsRegistry())
    taps = attach_taps(rack)
    return fleet, rack, taps, rack.client("client0")


def test_quorum_rack_boards_replay_bit_identically():
    """Quorum racks put epochs, versions and replica lists on the wire
    and run strict-epoch servers: the trace must carry all of it."""
    fleet, rack, taps, client = _quorum_rack()
    keys = [f"q:{i:03d}".encode() for i in range(40)]

    def workload():
        for i, key in enumerate(keys):
            yield from client.put(key, bytes([i]) * 16)
        for key in keys:
            value = yield from client.get(key)
            assert value == bytes([keys.index(key)]) * 16

    rack.kernel.spawn(workload())
    rack.kernel.run()
    assert fleet.machines == 6
    _assert_boards_replay(rack, taps, fleet)


def test_killed_and_rejoined_board_replays_bit_identically():
    """A rejoin wipes the board's store, then re_replicate and the hint
    drain write into it directly, off the wire: the trace carries those
    writes as control records, so the rejoined board replays too."""
    fleet, rack, taps, client = _quorum_rack()

    def puts(start):
        for i in range(start, start + 40):
            yield from client.put(f"r:{i:03d}".encode(), bytes([i]) * 16)

    def workload():
        yield from puts(0)
        rack.kill("enzian1")
        yield from puts(40)
        rack.rejoin("enzian1")
        yield from puts(80)

    rack.kernel.spawn(workload())
    rack.kernel.run()
    kinds = {r["kind"] for r in taps["enzian1"].records if r["dir"] == "ctl"}
    assert {"down", "wipe", "write", "up"} <= kinds
    _assert_boards_replay(rack, taps, fleet)


def test_boards_replay_across_a_partition_heal_hint_drain():
    """Writes that miss the cut-off side queue as hints on a carrier;
    the heal drains them into their targets directly."""
    fleet, rack, taps, client = _quorum_rack()

    def workload():
        rack.start_partition([
            ["enzian0", "enzian1", "enzian2", "enzian3"], ["enzian4", "enzian5"],
        ])
        for i in range(40):
            try:
                yield from client.put(f"p:{i:03d}".encode(), bytes([i]) * 16)
            except FleetKvsError:
                pass  # primaried on the cut-off side
        rack.heal()
        for i in range(40):
            yield from client.put(f"p:{i:03d}".encode(), bytes([i + 1]) * 16)

    rack.kernel.spawn(workload())
    rack.kernel.run()
    controls = [r for tap in taps.values() for r in tap.records if r["dir"] == "ctl"]
    assert any(r["kind"] == "hints_drained" for r in controls)
    assert any(r["kind"] == "write" for r in controls)
    _assert_boards_replay(rack, taps, fleet)


# -- the message contract ---------------------------------------------------

_REQUEST = KvsRequest(
    "replicate", b"k\x00ey", b"val\xff", 17, "client0#kvs",
    epoch=3, version=(3, 9), replicas=("enzian1", "enzian2"),
    hint_for="enzian4", tombstone=True,
)
_RESPONSE = KvsResponse(
    17, False, b"v", "enzian1", epoch=4, version=(4, 2), error="stale_epoch"
)


@pytest.mark.parametrize("message", [_REQUEST, _RESPONSE])
def test_every_kvs_message_field_survives_the_trace(message):
    # Every field differs from its default, so a dropped field shows.
    for f in fields(message):
        if f.default is not MISSING:
            assert getattr(message, f.name) != f.default, f.name
    frame = Frame("a#kvs", "b#kvs", message, size_bytes=message.wire_bytes)
    text = trace_to_jsonl("b", [_frame_record("in", 1.5, frame)])
    _, records = trace_from_jsonl(text)
    replayed = _frame_of(records[0])
    assert replayed == frame
    decoded = replayed.payload
    assert type(decoded) is type(message)
    for f in fields(message):
        assert getattr(decoded, f.name) == getattr(message, f.name), f.name


def test_version_1_trace_decodes_quorum_fields_to_defaults():
    header = json.dumps({"trace": "enzian0", "version": 1}, sort_keys=True)
    record = {
        "t": 2.0, "dir": "in", "src": "client0#kvs", "dst": "enzian0#kvs",
        "size": 28, "seq": 0,
        "payload": {"kind": "kvs_request", "op": "get", "key": b"key",
                    "value": b"", "txid": 5, "reply_to": "client0#kvs"},
    }
    text = header + "\n" + json.dumps(to_jsonable(record), sort_keys=True) + "\n"
    _, records = trace_from_jsonl(text)
    assert decode_payload(records[0]["payload"]) == KvsRequest(
        "get", b"key", b"", 5, "client0#kvs"
    )


def test_kvs_message_wire_bytes_are_unchanged():
    key, value = b"user:0042", b"x" * 100
    base = REQUEST_HEADER_BYTES + len(key)
    assert REQUEST_HEADER_BYTES == 24
    assert KvsRequest("put", key, value, 1, "c#kvs").wire_bytes == base + 100
    assert KvsRequest("get", key, b"", 2, "c#kvs").wire_bytes == base
    replicate = KvsRequest(
        "replicate", key, value, 3, "c#kvs",
        epoch=2, version=(2, 7), tombstone=False,
    )
    assert replicate.wire_bytes == base + 100
    hint = KvsRequest(
        "hint", key, value, 0, "c#kvs",
        epoch=2, version=(2, 7), hint_for="enzian3", tombstone=True,
    )
    assert hint.wire_bytes == base + 100
    assert KvsResponse(1, True, value, "enzian0").wire_bytes == 24 + 100
    assert KvsResponse(2, True, None, "enzian0", version=(1, 1)).wire_bytes == 24
    assert KvsResponse(3, False, None, "e", error="stale_epoch").wire_bytes == 24
