"""The fault injector: arms a :class:`FaultsConfig` plan onto live parts.

One :class:`FaultInjector` owns the mutable campaign state (how many
firings each :class:`FaultSpec` has left), translates specs into the
per-subsystem injection surfaces, and keeps the deterministic
*injection trace* -- the ``(time, site, kind, detail)`` record the soak
harness replays to prove that identical seeds give identical runs.

Injection surfaces
------------------
* ``eci.link``  -- scheduled against the simulation kernel:
  :meth:`arm_eci` plants ``call_at`` events that corrupt transmissions,
  set a stochastic corruption rate (drawn from ``kernel.rng``), or drop
  lanes into the retraining path.
* ``net``       -- :meth:`arm_ethernet` installs a per-frame hook that
  drops/duplicates/reorders within each spec's ``[at, at+duration)``
  window, drawing from ``kernel.rng``.
* ``fleet.machine`` -- :meth:`arm_fleet` schedules whole-machine kills
  against a :class:`repro.fleet.rack.Rack`, driving its health-machine
  failover path.
* ``fleet.partition`` -- also :meth:`arm_fleet`: splits the rack
  switch's ports into groups for ``[at, at+duration)`` (symmetric or
  one-way), with the heal evaluated lazily so a mid-partition rack
  stays checkpointable.
* ``bmc.rail``, ``telemetry``, ``boot.stage`` -- :meth:`arm_control_plane`
  installs hooks on the power manager (fires at each rail's settle
  point), the telemetry service (sensor glitches and after-sequencing
  rail trips), and the boot orchestrator (stage hang/fail verdicts).

Every firing decrements the spec's remaining ``count``, increments the
``faults_injected_total{site,kind}`` counter, and appends to
:attr:`trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..bmc.pmbus import StatusBit
from ..obs import NULL_REGISTRY
from .plan import FaultSpec, FaultsConfig

#: Map of PMBus-fault kinds onto the STATUS bits they set.
_RAIL_TRIP_BITS = {
    "ocp": StatusBit.IOUT_OC,
    "ovp": StatusBit.VOUT_OV,
    "otp": StatusBit.TEMPERATURE,
    "brownout": StatusBit.VIN_UV,
}


@dataclass
class _Pending:
    """Mutable firing state for one spec."""

    spec: FaultSpec
    remaining: int

    @property
    def live(self) -> bool:
        return self.remaining > 0

    def fire(self) -> None:
        self.remaining -= 1


class FaultInjector:
    """Arms a fault plan onto subsystems and records every injection."""

    def __init__(self, plan: FaultsConfig, obs=None):
        self.plan = plan
        self.obs = obs = obs if obs is not None else NULL_REGISTRY
        self._injected = obs.family("counter", "faults_injected_total", ("site", "kind"))
        self._pending: List[_Pending] = [
            _Pending(spec, spec.count) for spec in plan.events
        ]
        #: The deterministic injection trace: (time, site, kind, detail).
        self.trace: List[Tuple[float, str, str, str]] = []

    # -- bookkeeping ---------------------------------------------------------

    def record(self, t: float, site: str, kind: str, detail: str = "") -> None:
        self.trace.append((t, site, kind, detail))
        self._injected[site, kind].inc()

    def injected_kinds(self) -> set:
        """Distinct fault kinds that actually fired."""
        return {kind for _, _, kind, _ in self.trace}

    def _site_pending(self, site: str) -> List[_Pending]:
        return [p for p in self._pending if p.spec.site == site and p.live]

    # -- event-kernel sites --------------------------------------------------

    def arm_eci(self, transport, kernel) -> None:
        """Schedule the plan's ``eci.link`` events against the kernel."""
        for pending in self._site_pending("eci.link"):
            spec = pending.spec
            if spec.kind == "bit_flip":
                def flip(_value, p=pending, s=spec):
                    transport.inject_bit_flips(p.remaining)
                    self.record(kernel.now, s.site, s.kind, f"x{p.remaining}")
                    p.remaining = 0
                kernel.call_at(spec.at, flip)
            elif spec.kind == "crc_storm":
                def storm_on(_value, s=spec, p=pending):
                    transport.fault_rate = s.rate
                    self.record(kernel.now, s.site, s.kind, f"rate={s.rate}")
                    p.fire()
                def storm_off(_value):
                    transport.fault_rate = 0.0
                kernel.call_at(spec.at, storm_on)
                kernel.call_at(spec.at + spec.duration, storm_off)
            elif spec.kind == "degraded_lane":
                # Marginal lanes: a persistent error rate with no off
                # event -- relief comes only from the health layer
                # renegotiating the link to a reduced width.
                def marginal(_value, s=spec, p=pending):
                    transport.fault_rate = max(transport.fault_rate, s.rate)
                    self.record(kernel.now, s.site, s.kind, f"rate={s.rate}")
                    p.fire()
                kernel.call_at(spec.at, marginal)
            elif spec.kind == "lane_drop":
                def drop(_value, s=spec, p=pending):
                    link = int(s.arg or 0)
                    transport.drop_lanes(link, int(s.value))
                    self.record(
                        kernel.now, s.site, s.kind,
                        f"link{link}->{int(s.value)}lanes",
                    )
                    p.fire()
                kernel.call_at(spec.at, drop)
                if spec.duration > 0:
                    def restore(_value, s=spec):
                        transport.restore_lanes(int(s.arg or 0))
                    kernel.call_at(spec.at + spec.duration, restore)

    def arm_ethernet(self, link) -> None:
        """Install the drop/duplicate/reorder hook on an Ethernet link."""
        specs = [p for p in self._pending if p.spec.site == "net"]
        if not specs:
            return
        kernel = link.kernel
        kind_to_action = {"drop": "drop", "duplicate": "dup", "reorder": "reorder"}

        def hook(frame) -> Optional[str]:
            now = kernel.now
            for pending in specs:
                spec = pending.spec
                if not pending.live or now < spec.at:
                    continue
                if spec.duration and now >= spec.at + spec.duration:
                    continue
                if kernel.rng.random() < spec.rate:
                    pending.fire()
                    self.record(now, spec.site, spec.kind, frame.dst)
                    return kind_to_action[spec.kind]
            return None

        link.fault_hook = hook

    def arm_fleet(self, rack) -> None:
        """Schedule ``fleet.machine`` kills against the rack's kernel.

        Each spec's ``arg`` names a rack machine; at ``at`` (simulated
        ns) the machine is failed through its health state machine and
        the rack fails over (:meth:`repro.fleet.rack.Rack.kill`).
        """
        for pending in self._site_pending("fleet.machine"):
            spec = pending.spec
            if spec.arg not in rack.machines:
                raise ValueError(
                    f"fleet.machine fault names unknown machine {spec.arg!r}; "
                    f"rack has {sorted(rack.machines)}"
                )
            if spec.at < rack.kernel.now:
                # Re-arming against a checkpoint-restored rack: this
                # fault already fired (its effect is in the restored
                # health state), so scheduling it again would fail the
                # victim twice.
                continue

            def kill(_value, s=spec, p=pending):
                if rack.kill(s.arg, reason=f"fault plan: {s.describe()}"):
                    self.record(rack.kernel.now, s.site, s.kind, s.arg)
                p.remaining = 0

            rack.kernel.call_at(spec.at, kill)
        self._arm_partitions(rack)

    def _arm_partitions(self, rack) -> None:
        """Schedule ``fleet.partition`` windows against the rack.

        The split itself is one scheduled event (the rack bumps its
        quorum epoch and fences the controller side); the *heal* is not
        an event at all -- the switch evaluates the window lazily
        against the kernel clock and the rack drains hinted handoffs at
        its first control-plane touch past ``at + duration``.  A spec
        already past ``at`` on a checkpoint-restored rack is skipped:
        the partition state (active or healed) travelled with the
        switch and rack snapshots.
        """
        from .plan import parse_partition_groups

        for pending in self._site_pending("fleet.partition"):
            spec = pending.spec
            groups = parse_partition_groups(spec.arg, spec.kind)
            known = set(rack.machines) | set(rack.switch.ports)
            for group in groups:
                unknown = [m for m in group if m not in known]
                if unknown:
                    raise ValueError(
                        f"fleet.partition fault names unknown hosts {unknown}; "
                        f"rack has {sorted(known)} (attach clients before arming)"
                    )
            if spec.at < rack.kernel.now:
                # Restored rack: the split (and possibly the heal)
                # already happened; its state came with the snapshot.
                continue

            def split(_value, s=spec, p=pending, g=groups):
                rack.start_partition(
                    g, oneway=(s.kind == "oneway"), until_ns=s.at + s.duration
                )
                self.record(rack.kernel.now, s.site, s.kind, s.arg)
                p.remaining = 0

            rack.kernel.call_at(spec.at, split)

    # -- control-plane sites -------------------------------------------------

    def arm_control_plane(self, power, boot=None, telemetry=None) -> None:
        """Hook the power manager, boot orchestrator, and telemetry."""
        if self._site_pending("bmc.rail"):
            power.fault_hook = self._power_hook(power)
        if boot is not None and self._site_pending("boot.stage"):
            boot.fault_hook = self._boot_hook(boot)
        if telemetry is not None and (
            self._site_pending("telemetry") or self._site_pending("bmc.rail")
        ):
            telemetry.fault_hook = self._telemetry_hook(telemetry)

    def _trip_rail(self, power, rail: str, kind: str, t_s: float) -> None:
        regulator = power.regulators[rail]
        regulator._trip(_RAIL_TRIP_BITS[kind])
        self.record(t_s, "bmc.rail", kind, rail)

    def _power_hook(self, power):
        def hook(event: str, rail: str) -> None:
            now = power.clock.now_s
            for pending in self._site_pending("bmc.rail"):
                spec = pending.spec
                if spec.arg == rail and spec.at <= now:
                    pending.fire()
                    self._trip_rail(power, rail, spec.kind, now)
        return hook

    def _boot_hook(self, boot):
        def hook(stage: str) -> Optional[str]:
            now = boot.clock.now_s
            for pending in self._site_pending("boot.stage"):
                spec = pending.spec
                if spec.arg == stage and spec.at <= now:
                    pending.fire()
                    self.record(now, spec.site, spec.kind, stage)
                    return spec.kind
            return None
        return hook

    def _telemetry_hook(self, telemetry):
        from ..bmc.telemetry import PowerSample

        power = telemetry.manager

        def hook(label: str, rail: str, sample: PowerSample) -> PowerSample:
            # After-sequencing rail trips: the rail is up and idling when
            # protection fires (thermal creep, load transients).
            for pending in self._site_pending("bmc.rail"):
                spec = pending.spec
                if spec.arg == rail and spec.at <= sample.t_s:
                    if power.regulators[rail].enabled:
                        pending.fire()
                        self._trip_rail(power, rail, spec.kind, sample.t_s)
            # Sensor glitches: the reading (not the rail) is wrong.
            for pending in self._site_pending("telemetry"):
                spec = pending.spec
                if spec.arg and spec.arg != label:
                    continue
                if spec.at <= sample.t_s:
                    pending.fire()
                    self.record(sample.t_s, spec.site, spec.kind, label)
                    factor = spec.value if spec.value > 0 else 10.0
                    return PowerSample(sample.t_s, sample.volts, sample.amps * factor)
            return sample

        return hook
