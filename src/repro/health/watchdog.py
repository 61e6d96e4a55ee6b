"""Heartbeat / watchdog monitors: silent-stall detection.

Two clock domains, two mechanisms:

* **Kernel-time progress watchdog** (:meth:`Watchdog.watch_kernel`) --
  a re-arming ``call_after`` check against a *progress probe* (e.g.
  ``lambda: transport.stats["messages"]``).  Each deadline tick the
  probe is read; if it moved, the check re-arms; if the supervised
  activity declared itself done, the check retires; otherwise a stall
  is declared exactly once and the check retires -- so the event queue
  always drains and a watched simulation terminates deterministically.

* **Board-clock heartbeats** (:meth:`Watchdog.watch_board` +
  :meth:`Watchdog.check_board`) -- control-plane activities (boot
  milestones, telemetry sweeps) call :meth:`WatchdogHandle.beat` as
  they make progress; the supervisor polls :meth:`check_board` at
  checkpoints and any live handle whose last beat is older than its
  deadline is a stall.

Stalls increment ``watchdog_stalls_total{name}``, push the subsystem's
health machine to FAILED, and are listed in :attr:`Watchdog.stalls` so
a soak can assert "no undetected stall".
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..obs import NULL_REGISTRY
from .state import HealthStateMachine


class WatchdogHandle:
    """One supervised activity: beats, progress, and completion."""

    __slots__ = (
        "name",
        "deadline",
        "probe",
        "health",
        "on_stall",
        "last_value",
        "last_beat",
        "done",
        "stalled",
    )

    def __init__(
        self,
        name: str,
        deadline: float,
        probe: Optional[Callable[[], object]] = None,
        health: Optional[HealthStateMachine] = None,
        on_stall: Optional[Callable[[], None]] = None,
    ):
        self.name = name
        self.deadline = deadline
        self.probe = probe
        self.health = health
        self.on_stall = on_stall
        self.last_value: object = probe() if probe is not None else None
        self.last_beat = 0.0
        self.done = False
        self.stalled = False

    def beat(self, now: float = 0.0) -> None:
        """Record liveness (board-clock handles)."""
        self.last_beat = now

    def complete(self) -> None:
        """The activity finished cleanly; the watchdog stands down."""
        self.done = True


class Watchdog:
    """Owns every handle; detects and records silent stalls."""

    def __init__(self, obs=None):
        self.obs = obs = obs if obs is not None else NULL_REGISTRY
        self._stalls = obs.family("counter", "watchdog_stalls_total", ("name",))
        self.handles: List[WatchdogHandle] = []
        #: Names of activities declared stalled, in detection order.
        self.stalls: List[str] = []

    # -- kernel-time progress watch ------------------------------------------

    def watch_kernel(
        self,
        kernel,
        name: str,
        deadline_ns: float,
        probe: Callable[[], object],
        health: Optional[HealthStateMachine] = None,
        on_stall: Optional[Callable[[], None]] = None,
    ) -> WatchdogHandle:
        """Arm a progress check every ``deadline_ns`` of kernel time."""
        if deadline_ns <= 0:
            raise ValueError("deadline_ns must be positive")
        handle = WatchdogHandle(name, deadline_ns, probe, health, on_stall)
        self.handles.append(handle)
        kernel.call_after(deadline_ns, self._check_kernel, (kernel, handle))
        return handle

    def _check_kernel(self, arg) -> None:
        kernel, handle = arg
        if handle.done or handle.stalled:
            return
        value = handle.probe()
        if value != handle.last_value:
            handle.last_value = value
            kernel.call_after(handle.deadline, self._check_kernel, arg)
            return
        self._declare_stall(handle)

    # -- board-clock heartbeats ----------------------------------------------

    def watch_board(self, name: str, deadline_s: float) -> WatchdogHandle:
        """Register a heartbeat the control plane beats as it progresses."""
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        handle = WatchdogHandle(name, deadline_s)
        self.handles.append(handle)
        return handle

    def check_board(self, now_s: float) -> List[str]:
        """Poll every board handle; returns the names newly stalled."""
        new: List[str] = []
        for handle in self.handles:
            if handle.probe is not None or handle.done or handle.stalled:
                continue
            if now_s - handle.last_beat > handle.deadline:
                self._declare_stall(handle)
                new.append(handle.name)
        return new

    # -- bookkeeping ---------------------------------------------------------

    def _declare_stall(self, handle: WatchdogHandle) -> None:
        handle.stalled = True
        self.stalls.append(handle.name)
        self._stalls[handle.name].inc()
        if handle.health is not None:
            handle.health.fail(f"watchdog: {handle.name} stalled")
        if handle.on_stall is not None:
            handle.on_stall()

    @property
    def all_quiet(self) -> bool:
        """True when nothing the watchdog saw ever stalled."""
        return not self.stalls
