"""Graceful-degradation policies: turn faults into degraded-but-correct.

Two concrete policies, both modelled on what the real board does:

* :class:`EciDegradationPolicy` -- the §4.4 story ("early debugging of
  ECI was done with 4 lanes rather than the full 24") made automatic: a
  link that accumulates CRC errors faster than the policy's window
  allows is *renegotiated* to half its lane count (down to a floor),
  retraining and then carrying traffic at the reduced -- but correct --
  bandwidth.  Dropping the marginal lanes removes most of the error
  source, so the residual stochastic error rate is scaled by a relief
  factor.  A link that keeps storming after the renegotiation budget is
  spent is declared FAILED.

* :class:`PowerDegradationPolicy` -- PMBus brown-out (VIN_UV) and
  over-temperature (OTP) events drive the power manager into a
  *throttled* degraded mode (load-book demands scaled down, rail
  cleared and re-enabled) instead of shutting the machine down.
  Over-current and over-voltage stay fatal: those are wiring faults,
  not load transients, and re-enabling into them would be the §4.2
  150 A short all over again.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from ..bmc.pmbus import StatusBit
from ..obs import NULL_REGISTRY
from .config import EciHealthConfig, PowerHealthConfig
from .state import HealthStateMachine

#: Status bits the power policy may absorb into throttled operation.
THROTTLE_STATUS_BITS = int(StatusBit.VIN_UV) | int(StatusBit.TEMPERATURE)
#: Status bits that stay fatal no matter what (electrical damage risk).
FATAL_STATUS_BITS = int(StatusBit.IOUT_OC) | int(StatusBit.VOUT_OV)


class EciDegradationPolicy:
    """Auto-renegotiate a storming link to a reduced lane count."""

    def __init__(
        self,
        transport,
        kernel,
        params: EciHealthConfig,
        health: HealthStateMachine,
        obs=None,
    ):
        self.transport = transport
        self.kernel = kernel
        self.params = params
        self.health = health
        self.obs = obs = obs if obs is not None else NULL_REGISTRY
        self._renegotiations = obs.family("counter", "health_lane_renegotiations_total", ("link",))
        self._lanes = obs.family("gauge", "health_link_lanes", ("link",))
        links = transport.params.links
        self._windows: List[Deque[float]] = [deque() for _ in range(links)]
        self.renegotiations = [0] * links
        #: Renegotiation log: (time, link, lanes-after).
        self.events: List[Tuple[float, int, int]] = []
        transport.on_crc_error = self.on_crc_error

    def on_crc_error(self, link: int) -> None:
        """One CRC failure on ``link``; renegotiate if the window fills."""
        now = self.kernel.now
        window = self._windows[link]
        window.append(now)
        cutoff = now - self.params.crc_window_ns
        while window and window[0] < cutoff:
            window.popleft()
        if len(window) >= self.params.crc_storm_threshold:
            self._renegotiate(link, now)

    def _renegotiate(self, link: int, now: float) -> None:
        self._windows[link].clear()
        if self.renegotiations[link] >= self.params.max_renegotiations:
            self.health.fail(
                f"link{link}: CRC storm persists at "
                f"{self.transport.lanes[link]} lanes"
            )
            return
        self.renegotiations[link] += 1
        lanes = max(self.params.min_lanes, self.transport.lanes[link] // 2)
        # drop_lanes retrains the link and scales its serialization
        # rate, so the bandwidth model tracks the degraded width.
        self.transport.drop_lanes(link, lanes)
        # The marginal lanes carried most of the error source.
        self.transport.fault_rate *= self.params.relief_factor
        self.events.append((now, link, lanes))
        self.health.degrade(f"link{link}: renegotiated to {lanes} lanes")
        self._renegotiations[link].inc()
        self._lanes[link].set(lanes)


class PowerDegradationPolicy:
    """Brown-out / OTP events throttle the machine instead of killing it."""

    def __init__(
        self,
        power,
        params: PowerHealthConfig,
        health: HealthStateMachine,
        obs=None,
    ):
        self.power = power
        self.params = params
        self.health = health
        self.obs = obs = obs if obs is not None else NULL_REGISTRY
        self._throttles = obs.family("counter", "power_throttle_events_total", ("rail",))
        self.throttle_events = 0
        #: Absorption log: (time, rail, decoded-status).
        self.events: List[Tuple[float, str, str]] = []
        power.degrade_hook = self.absorb_rail_fault

    def _absorbable(self, status: int) -> bool:
        return bool(status & THROTTLE_STATUS_BITS) and not (
            status & FATAL_STATUS_BITS
        )

    def absorb_rail_fault(self, rail: str, status: int) -> bool:
        """Power-manager hook: absorb a brown-out/OTP at a settle point.

        Returns True when the fault was converted into throttled
        operation (rail cleared, re-enabled, re-settled); False hands
        the fault back to the fail/re-sequence path.
        """
        from ..bmc.power_manager import decode_status

        if not self._absorbable(status):
            return False
        if self.throttle_events >= self.params.max_throttle_events:
            self.health.fail(f"rail {rail}: throttle budget exhausted")
            return False
        self.throttle_events += 1
        now = self.power.clock.now_s
        self.events.append((now, rail, decode_status(status)))
        self.power.enter_throttle(
            self.params.throttle_fraction, reason=f"{rail}:{decode_status(status)}"
        )
        self.power.recover_rail(rail)
        self.health.degrade(f"rail {rail}: throttled ({decode_status(status)})")
        self._throttles[rail].inc()
        return True

    def observe(self, label: str, rail: str, sample) -> None:
        """Telemetry observer: catch after-sequencing brown-outs/OTP."""
        regulator = self.power.regulators[rail]
        if regulator.faulted and self._absorbable(regulator.status):
            self.absorb_rail_fault(rail, regulator.status)
