"""Rack checkpoints: capture, restore, and fork.

A :class:`Checkpoint` is the whole deterministic state of a rack run at
a *quiescent point* (drained event queue): the fleet configuration, a
tagged snapshot of every stateful component (kernel, switch, per-board
link/store/server/health, clients, the metrics registry), and a little
metadata.  Restoring rebuilds the object graph from the configuration
and re-materializes each component's state onto it -- the restored rack
continues bit-identically to the original.

:func:`fork_rack` is the sweep accelerator: restore the checkpoint,
then reseed the kernel RNG.  All deterministic state (stores, rings,
metrics, sim time) is pinned at the branch point while every stochastic
draw after it follows the new seed -- "warm boot" a sweep instead of
replaying the common prefix per point.

Restore ordering is load-bearing and documented in DESIGN.md §13:
components restore silently onto a freshly built rack, the metrics
registry restores *last* (in place, discarding whatever construction
emitted), and the kernel's clock/sequence/RNG restore closes it out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from .protocol import (
    SNAP_SCHEMA,
    SnapshotError,
    from_jsonable,
    restore,
    tagged,
    to_jsonable,
)


@dataclass
class Checkpoint:
    """One quiescent-point capture of a rack (plain data throughout)."""

    kind: str
    config: Dict[str, Any]
    states: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)
    schema: int = SNAP_SCHEMA

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            to_jsonable(
                {
                    "schema": self.schema,
                    "kind": self.kind,
                    "config": self.config,
                    "states": self.states,
                    "meta": self.meta,
                }
            ),
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        doc = from_jsonable(json.loads(text))
        if not isinstance(doc, dict) or "states" not in doc:
            raise SnapshotError("not a checkpoint document")
        return cls(
            kind=doc.get("kind", "rack"),
            config=doc["config"],
            states=doc["states"],
            meta=doc.get("meta", {}),
            schema=doc.get("schema", 0),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def _require_quiescent(kernel) -> None:
    pending = kernel.pending_events
    if pending:
        raise SnapshotError(
            f"kernel has {pending} pending events at t={kernel.now:g}; "
            "checkpoints are taken only at quiescent points (run the "
            "kernel until the queue drains first)"
        )


def checkpoint_rack(
    rack,
    clients: Tuple = (),
    kind: str = "rack",
    extras: Dict[str, Any] = None,
) -> Checkpoint:
    """Capture a quiescent rack (and its attached clients) whole.

    ``clients`` lists the :class:`repro.fleet.kvs.FleetKvsClient`
    instances created via :meth:`Rack.client`, in creation order --
    restore rebuilds them on the same addresses in the same order so
    switch port order (and thus every tie-break) is preserved.

    ``extras`` names additional Snapshottable components riding on the
    rack -- an anti-entropy scheduler, a gateway -- keyed however the
    harness likes.  :func:`restore_rack` requires the same names back
    (it cannot *build* an extra from config; the harness constructs it
    and the checkpoint re-materializes its state).
    """
    from ..config.schema import encode

    _require_quiescent(rack.kernel)
    machines: Dict[str, Any] = {}
    for name, machine in rack.machines.items():
        machines[name] = {
            "link": tagged(machine.link),
            "store": tagged(machine.store),
            "server": tagged(machine.server),
            "health": tagged(machine.health),
        }
    client_states: List[Dict[str, Any]] = []
    for client in clients:
        client_states.append(
            {
                # Rack.client() appends "#kvs"; keep the bare address.
                "address": client.address.rsplit("#", 1)[0],
                "link": tagged(client.link),
                "state": tagged(client),
            }
        )
    states: Dict[str, Any] = {
        "rack": tagged(rack),
        "switch": tagged(rack.switch),
        "machines": machines,
        "clients": client_states,
        "obs": tagged(rack.obs) if rack.obs else None,
        "extras": {
            name: tagged(obj) for name, obj in sorted((extras or {}).items())
        },
        # Kernel last in capture order for symmetry with restore.
        "kernel": tagged(rack.kernel),
    }
    return Checkpoint(
        kind=kind,
        config=encode(rack.fleet),
        states=states,
        meta={
            "taken_at": rack.kernel.now,
            "live": list(rack.live_machines()),
            "clients": [entry["address"] for entry in client_states],
        },
    )


def restore_rack(checkpoint: Checkpoint, obs=None, extras: Dict[str, Any] = None):
    """Re-materialize ``(rack, clients)`` from a checkpoint.

    A fresh rack is built from the checkpoint's fleet config, then each
    component's state is restored onto it.  Pass ``obs`` to supply your
    own registry; by default a fresh one is created whenever the
    checkpoint carries registry state.

    ``extras`` supplies freshly constructed counterparts for every
    extra captured at checkpoint time (same names); their state is
    restored *before* the registry, so construction-time emissions are
    discarded like everyone else's.  Name mismatches in either
    direction raise: a silently dropped extra would continue from
    default state and break bit-identical resumption.
    """
    from ..config.schema import decode
    from ..fleet.config import FleetConfig
    from ..fleet.rack import Rack

    if checkpoint.schema != SNAP_SCHEMA:
        raise SnapshotError(
            f"checkpoint schema {checkpoint.schema} != supported {SNAP_SCHEMA}"
        )
    fleet = decode(FleetConfig, checkpoint.config)
    if obs is None and checkpoint.states.get("obs") is not None:
        from ..obs import MetricsRegistry

        obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    states = checkpoint.states
    restore(rack, states["rack"])
    for name, parts in states["machines"].items():
        machine = rack.machines.get(name)
        if machine is None:
            raise SnapshotError(f"checkpoint names unknown machine {name!r}")
        restore(machine.link, parts["link"])
        restore(machine.store, parts["store"])
        restore(machine.server, parts["server"])
        restore(machine.health, parts["health"])
    restore(rack.switch, states["switch"])
    clients = []
    for entry in states["clients"]:
        client = rack.client(entry["address"])
        restore(client.link, entry["link"])
        restore(client, entry["state"])
        clients.append(client)
    saved_extras = states.get("extras", {}) or {}
    extras = extras or {}
    if set(saved_extras) != set(extras):
        raise SnapshotError(
            f"checkpoint extras {sorted(saved_extras)} != supplied "
            f"{sorted(extras)}; restore_rack needs a constructed "
            "counterpart for every captured extra (and no strays)"
        )
    for name in sorted(saved_extras):
        restore(extras[name], saved_extras[name])
    # The registry restores LAST (in place, so the instruments components
    # bound stay exported; construction-time emissions from the rebuild
    # above are discarded), then the kernel closes out with clock,
    # tie-break sequence, and RNG stream.
    if states.get("obs") is not None and rack.obs:
        restore(rack.obs, states["obs"])
    restore(rack.kernel, states["kernel"])
    return rack, clients


def fork_rack(checkpoint: Checkpoint, seed: int, obs=None):
    """Branch a new run off a checkpoint: restore, then reseed.

    The forked rack shares the checkpoint's entire deterministic state
    -- stores, ring, metrics, sim clock -- but every stochastic draw
    after the branch point follows ``seed``.  Two forks with the same
    seed are bit-identical; different seeds diverge only through RNG
    use.
    """
    rack, clients = restore_rack(checkpoint, obs=obs)
    rack.kernel.reseed(seed)
    return rack, clients
