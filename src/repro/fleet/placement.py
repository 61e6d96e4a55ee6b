"""Consistent-hash key placement for the sharded fleet KVS.

Every machine owns ``vnodes`` points on a 32-bit hash ring; a key is
placed on the first ``replication_factor`` *distinct* machines found
walking clockwise from the key's own hash.  The construction gives the
two properties the fleet leans on (both property-tested):

* **uniformity** -- with enough vnodes the primary-ownership arcs are
  close to ``1/N`` per machine;
* **minimal movement** -- removing a machine only re-homes the keys it
  owned (they shift to the next machine on the ring -- which, for the
  primary, is by construction the key's first replica, so failover is
  a *promotion*, not a migration); adding a machine only claims the
  arcs its new vnodes cut.

All hashing is :func:`zlib.crc32` -- deterministic across processes and
Python versions (no ``PYTHONHASHSEED`` dependence), matching the hash
the FPGA KVS itself uses (:mod:`repro.apps.kvs`).
"""

from __future__ import annotations

import bisect
import zlib
from typing import Iterable, Sequence, Tuple

RING_SPACE = 1 << 32


class PlacementError(ValueError):
    """Misconfigured or misused hash ring."""


def _point(machine: str, vnode: int) -> int:
    return zlib.crc32(f"{machine}/{vnode}".encode())


def key_hash(key: bytes) -> int:
    """The ring position of a key (32-bit, deterministic)."""
    return zlib.crc32(bytes(key))


class HashRing:
    """An immutable consistent-hash ring over named machines."""

    def __init__(
        self,
        machines: Iterable[str],
        vnodes: int = 64,
        replication_factor: int = 1,
    ):
        names = tuple(machines)
        if not names:
            raise PlacementError("ring needs at least one machine")
        if len(set(names)) != len(names):
            raise PlacementError(f"duplicate machine names in {names!r}")
        if vnodes < 1:
            raise PlacementError(f"vnodes must be >= 1, got {vnodes}")
        if replication_factor < 1:
            raise PlacementError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        self.machines: Tuple[str, ...] = tuple(sorted(names))
        self.vnodes = vnodes
        self.replication_factor = replication_factor
        # Sorted (point, machine) pairs; ties break by machine name so
        # the ring is a pure function of its inputs.
        points = sorted(
            (_point(m, v), m) for m in self.machines for v in range(vnodes)
        )
        self._hashes = [p for p, _ in points]
        self._owners = [m for _, m in points]
        self._placed: dict[bytes, Tuple[str, ...]] = {}

    # -- placement -----------------------------------------------------------

    def place(self, key: bytes) -> Tuple[str, ...]:
        """Primary + replicas: the first ``replication_factor`` distinct
        machines clockwise from the key's hash (fewer if the ring has
        shrunk below the replication factor).  Memoised per key: a ring
        never changes; membership changes build a new one."""
        key = bytes(key)
        placed = self._placed.get(key)
        if placed is None:
            want = min(self.replication_factor, len(self.machines))
            start = bisect.bisect_left(self._hashes, key_hash(key))
            chosen: list[str] = []
            n = len(self._owners)
            for i in range(n):
                owner = self._owners[(start + i) % n]
                if owner not in chosen:
                    chosen.append(owner)
                    if len(chosen) == want:
                        break
            placed = self._placed[key] = tuple(chosen)
        return placed

    def primary(self, key: bytes) -> str:
        return self.place(key)[0]

    def replicas(self, key: bytes) -> Tuple[str, ...]:
        return self.place(key)[1:]

    # -- membership ----------------------------------------------------------

    def removed(self, machine: str) -> "HashRing":
        """A new ring without ``machine`` (failover / decommission)."""
        if machine not in self.machines:
            raise PlacementError(f"unknown machine {machine!r}")
        if len(self.machines) == 1:
            raise PlacementError("cannot remove the last machine")
        rest = tuple(m for m in self.machines if m != machine)
        return HashRing(rest, self.vnodes, self.replication_factor)

    def extended(self, machine: str) -> "HashRing":
        """A new ring with ``machine`` joined."""
        if machine in self.machines:
            raise PlacementError(f"machine {machine!r} already on the ring")
        return HashRing(
            self.machines + (machine,), self.vnodes, self.replication_factor
        )

    # -- analysis ------------------------------------------------------------

    def shares(self) -> dict[str, float]:
        """Analytic primary-ownership fraction of the hash space per
        machine (arc lengths, no sampling)."""
        arcs = {m: 0 for m in self.machines}
        prev = self._hashes[-1] - RING_SPACE  # wraparound arc
        for point, owner in zip(self._hashes, self._owners):
            arcs[owner] += point - prev
            prev = point
        return {m: arc / RING_SPACE for m, arc in arcs.items()}

    def __len__(self) -> int:
        return len(self.machines)

    def __repr__(self) -> str:
        return (
            f"HashRing({len(self.machines)} machines, vnodes={self.vnodes}, "
            f"rf={self.replication_factor})"
        )


def moved_keys(
    before: HashRing, after: HashRing, keys: Sequence[bytes]
) -> list[bytes]:
    """Keys whose *primary* changed between two rings (the data that
    must move on a membership change)."""
    return [k for k in keys if before.primary(k) != after.primary(k)]
