"""Per-subsystem health state machines.

Every supervised subsystem (an ECI link, the power manager, the boot
chain, a net path) carries one :class:`HealthStateMachine` tracking its
position in the degradation ladder::

    HEALTHY --> DEGRADED --> FAILED
        \\          |   ^       |
         \\         v   |       v
          +----> RECOVERING --> HEALTHY | DEGRADED | FAILED

Transitions are *typed*: only the edges of that ladder are legal, a
same-state transition is a no-op, and anything else raises
:class:`HealthError` (a supervisor bug, not a runtime condition).
Every transition is timestamped, appended to :attr:`history`, counted
as ``health_transitions_total{subsystem,from,to}``, and mirrored into
the ``health_state{subsystem}`` gauge -- so a soak report can prove
"the link ended DEGRADED, never FAILED" from the observability export
alone.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..obs import NULL_REGISTRY


class HealthError(RuntimeError):
    """An illegal health transition (supervisor logic bug)."""


class HealthState(enum.Enum):
    """Where a subsystem sits on the degradation ladder."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FAILED = "failed"
    RECOVERING = "recovering"


#: Numeric severity for the ``health_state`` gauge (higher = worse,
#: except RECOVERING which sits between DEGRADED and FAILED).
STATE_SEVERITY: Dict[HealthState, int] = {
    HealthState.HEALTHY: 0,
    HealthState.DEGRADED: 1,
    HealthState.RECOVERING: 2,
    HealthState.FAILED: 3,
}

#: The legal edges of the ladder.
LEGAL_TRANSITIONS: Dict[HealthState, FrozenSet[HealthState]] = {
    HealthState.HEALTHY: frozenset({HealthState.DEGRADED, HealthState.FAILED}),
    HealthState.DEGRADED: frozenset(
        {HealthState.HEALTHY, HealthState.FAILED, HealthState.RECOVERING}
    ),
    HealthState.FAILED: frozenset({HealthState.RECOVERING}),
    HealthState.RECOVERING: frozenset(
        {HealthState.HEALTHY, HealthState.DEGRADED, HealthState.FAILED}
    ),
}


class HealthStateMachine:
    """One subsystem's position on the ladder, with a typed event log."""

    def __init__(
        self,
        subsystem: str,
        obs=None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.subsystem = subsystem
        self.obs = obs = obs if obs is not None else NULL_REGISTRY
        self._transitions = obs.family(
            "counter", "health_transitions_total", ("subsystem", "from", "to")
        )
        self._severity = obs.gauge("health_state", {"subsystem": subsystem})
        self._clock = clock
        self.state = HealthState.HEALTHY
        #: Transition log: (time, from, to, reason).
        self.history: List[Tuple[float, str, str, str]] = []
        self._severity.set(0)

    @property
    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # -- transitions ---------------------------------------------------------

    def to(self, target: HealthState, reason: str = "") -> bool:
        """Move to ``target``; returns False for a same-state no-op.

        Raises :class:`HealthError` on an edge the ladder does not have.
        """
        if target is self.state:
            return False
        if target not in LEGAL_TRANSITIONS[self.state]:
            raise HealthError(
                f"{self.subsystem}: illegal transition "
                f"{self.state.value} -> {target.value}"
            )
        origin, self.state = self.state, target
        self.history.append((self.now, origin.value, target.value, reason))
        self._transitions[self.subsystem, origin.value, target.value].inc()
        self._severity.set(STATE_SEVERITY[target])
        return True

    # -- checkpoint/restore (repro.snap) ---------------------------------
    #
    # Restoring assigns the ladder position and history directly -- no
    # transition runs, so no counters fire and no edge legality check
    # applies (the snapshot was taken from a machine that got there
    # legally).

    SNAP_VERSION = 1

    def snapshot_state(self) -> dict:
        return {
            "state": self.state.value,
            "history": [list(entry) for entry in self.history],
        }

    def restore_state(self, state: dict) -> None:
        self.state = HealthState(state["state"])
        self.history = [tuple(entry) for entry in state["history"]]

    def degrade(self, reason: str = "") -> bool:
        """HEALTHY/RECOVERING -> DEGRADED (no-op when already DEGRADED)."""
        return self.to(HealthState.DEGRADED, reason)

    def fail(self, reason: str = "") -> bool:
        """Any state -> FAILED (no-op when already FAILED)."""
        return self.to(HealthState.FAILED, reason)

    def recovering(self, reason: str = "") -> bool:
        """DEGRADED/FAILED -> RECOVERING."""
        return self.to(HealthState.RECOVERING, reason)

    def recover(self, reason: str = "") -> bool:
        """Back to HEALTHY (legal from DEGRADED and RECOVERING)."""
        return self.to(HealthState.HEALTHY, reason)

    # -- queries -------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        return self.state is HealthState.HEALTHY

    @property
    def degraded(self) -> bool:
        return self.state is HealthState.DEGRADED

    @property
    def wedged(self) -> bool:
        """Terminal failure: FAILED with no recovery in progress."""
        return self.state is HealthState.FAILED

    def __repr__(self) -> str:
        return f"HealthStateMachine({self.subsystem!r}, {self.state.value})"
