"""The BMC telemetry service (§5.5).

"We used the BMC to monitor the primary power regulators for the CPU
and FPGA cores and the CPU-side DRAM channels, sampling each every
20 ms and collecting the data using our dbus-based telemetry service."

:class:`TelemetryService` samples named rails through the PMBus stack
at a fixed period while scripted *phases* (boot stages, diagnostics,
stress tests) manipulate the load book, producing the power-vs-time
series of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..obs import NULL_REGISTRY
from .power_manager import PRIMARY_DOMAINS, PowerManager


@dataclass
class PowerSample:
    """One telemetry sample of one rail."""

    t_s: float
    volts: float
    amps: float

    @property
    def watts(self) -> float:
        return self.volts * self.amps


@dataclass
class PowerTrace:
    """A labelled time series of power samples."""

    label: str
    samples: List[PowerSample] = field(default_factory=list)

    @property
    def times(self) -> List[float]:
        return [s.t_s for s in self.samples]

    @property
    def watts(self) -> List[float]:
        return [s.watts for s in self.samples]

    def mean_watts(self, t_from: float = 0.0, t_to: float = float("inf")) -> float:
        window = [s.watts for s in self.samples if t_from <= s.t_s < t_to]
        return sum(window) / len(window) if window else 0.0

    def peak_watts(self) -> float:
        return max((s.watts for s in self.samples), default=0.0)

    def energy_j(self) -> float:
        """Trapezoidal integral of power over the trace."""
        total = 0.0
        for a, b in zip(self.samples, self.samples[1:]):
            total += 0.5 * (a.watts + b.watts) * (b.t_s - a.t_s)
        return total


@dataclass(frozen=True)
class Phase:
    """One scripted segment of a telemetry run.

    ``action`` runs once at phase entry (power sequences, load changes);
    ``during`` (optional) is called at every sample tick with the time
    since phase start, for loads that evolve within a phase (the FPGA
    power burn's 1/24-area steps).
    """

    name: str
    duration_s: float
    action: Optional[Callable[[], None]] = None
    during: Optional[Callable[[float], None]] = None


@dataclass
class PhaseMark:
    name: str
    t_start_s: float
    t_end_s: float


class TelemetryService:
    """Samples rails at a fixed period while phases execute."""

    def __init__(
        self,
        manager: PowerManager,
        rails: Optional[Dict[str, str]] = None,
        sample_period_ms: float = 20.0,
        obs=None,
    ):
        if sample_period_ms <= 0:
            raise ValueError("sample period must be positive")
        self.manager = manager
        self.rails = dict(rails) if rails is not None else dict(PRIMARY_DOMAINS)
        self.sample_period_s = sample_period_ms / 1000.0
        self.traces: Dict[str, PowerTrace] = {
            label: PowerTrace(label) for label in self.rails
        }
        self.marks: List[PhaseMark] = []
        self.obs = registry = obs if obs is not None else NULL_REGISTRY
        self._volts = registry.family("gauge", "bmc_rail_volts", ("rail",))
        self._amps = registry.family("gauge", "bmc_rail_amps", ("rail",))
        self._watts = registry.family("gauge", "bmc_rail_watts", ("rail",))
        self._sweeps = registry.family(
            "counter", "bmc_samples_total", help="telemetry sweeps completed"
        )
        if obs is not None:
            obs.use_clock(lambda: self.manager.clock.now_s, override=False)
        #: Fault-injection hook: may replace a sample (sensor glitch) or
        #: trip after-sequencing rail faults.  None costs one comparison
        #: per rail per sweep.
        self.fault_hook: Optional[
            Callable[[str, str, PowerSample], PowerSample]
        ] = None
        #: Health hook, called as ``health_hook(label, rail, sample)``
        #: after each (possibly fault-mutated) sample: heartbeats the
        #: telemetry watchdog and lets the power degradation policy see
        #: after-sequencing rail faults.  None costs one comparison.
        self.health_hook: Optional[
            Callable[[str, str, PowerSample], None]
        ] = None

    def _sample_all(self) -> None:
        now = self.manager.clock.now_s
        for label, rail in self.rails.items():
            regulator = self.manager.regulators[rail]
            # Sample electrically (the PMBus read path is exercised by
            # print_current_all and the power-manager tests); sampling
            # all rails through the bus at 20 ms would saturate it,
            # which is why the real firmware batches reads per rail.
            sample = PowerSample(now, regulator.vout, regulator.iout)
            if self.fault_hook is not None:
                sample = self.fault_hook(label, rail, sample)
            if self.health_hook is not None:
                self.health_hook(label, rail, sample)
            self.traces[label].samples.append(sample)
            self._volts[label].set(regulator.vout)
            self._amps[label].set(regulator.iout)
            self._watts[label].set(regulator.vout * regulator.iout)
        self._sweeps[()].inc()

    def run_phases(self, phases: Sequence[Phase]) -> None:
        """Execute phases, sampling throughout."""
        for phase in phases:
            start = self.manager.clock.now_s
            if phase.action is not None:
                phase.action()
            elapsed = self.manager.clock.now_s - start
            while elapsed < phase.duration_s:
                if phase.during is not None:
                    phase.during(elapsed)
                self._sample_all()
                step = min(self.sample_period_s, phase.duration_s - elapsed)
                self.manager.clock.advance(step)
                elapsed += step
            self.marks.append(PhaseMark(phase.name, start, self.manager.clock.now_s))

    def trace(self, label: str) -> PowerTrace:
        return self.traces[label]

    def phase_window(self, name: str) -> tuple[float, float]:
        for mark in self.marks:
            if mark.name == name:
                return (mark.t_start_s, mark.t_end_s)
        raise KeyError(f"no phase named {name!r}")
