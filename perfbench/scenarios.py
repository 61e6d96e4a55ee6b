"""The three serving-headline workloads the benchmark runs.

All three drive the ``rack_traffic`` preset: the 6-board ``rack_quorum``
fleet (rf=3, w=r=2) under 10^6 open-loop users at 0.75 req/s each, with
a 10x flash crowd inside a 24 ms simulated window.  Arrivals are drawn
by the simulator in simulated time, so the generator can never run
late: every request is timed from the instant it was due.

* ``flash_admit``    -- ``examples/traffic_slo.py``'s protected run
  (gateway admission on);
* ``flash_overload`` -- the same arrival trace with admission off;
* ``chaos_repair``   -- ``examples/chaos_serving.py``: a kill, a 4-vs-2
  split, the fault-tolerant serving path, anti-entropy convergence, the
  linearizability audit and the acked-key readback.

Each workload is split into :meth:`Workload.setup` (what ``setup_s``
times) and :meth:`Scenario.run` (what ``wall_s`` times).  The canonical
document a run produces is byte-for-byte the per-scenario document the
examples print with ``--json``, so its digest is comparable with theirs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.config import preset
from repro.faults import FaultInjector
from repro.fleet import (
    AntiEntropyScheduler,
    HistoryRecorder,
    Rack,
    antientropy,
    audit,
)
from repro.obs import MetricsRegistry
from repro.obs.export import snapshot_jsonl
from repro.traffic import TrafficEngine

ROOT = Path(__file__).resolve().parent.parent
#: The example whose scenario ``chaos_repair`` runs; its fault schedule
#: and hardened config are used as they are, not copied.
CHAOS_EXAMPLE = ROOT / "examples" / "chaos_serving.py"


def _load_example(path: Path):
    spec = importlib.util.spec_from_file_location(f"_example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


chaos_serving = _load_example(CHAOS_EXAMPLE)

SERVED = ("served", "cache_hit")


class Outcomes:
    """Terminal outcome and simulated latency of every offered request.

    Installed as each request's ``done`` sink: the gateway calls
    ``done.succeed(kernel, request)`` exactly once per request, whether
    it was served, rejected or failed.  Recording schedules nothing, so
    the simulation is unchanged.
    """

    def __init__(self) -> None:
        #: (class, phase) -> simulated ns from due time to completion
        #: (arrays, so the harness adds no objects for the collector to walk).
        self.latency: Dict[Tuple[str, str], array] = {}
        #: outcome string -> count.
        self.counts: Dict[str, int] = {}

    def succeed(self, kernel, request) -> None:
        outcome = request.outcome
        self.counts[outcome] = self.counts.get(outcome, 0) + 1
        if outcome in SERVED:
            key = (request.cls.kind, request.phase)
            self.latency.setdefault(key, array("d")).append(
                kernel.now - request.submitted_ns
            )

    @property
    def offered(self) -> int:
        return sum(self.counts.values())

    def samples(self, kind: str = "", phase: str = "") -> List[float]:
        """Latencies of served requests, filtered by class and/or phase."""
        out: List[float] = []
        for (k, p), values in self.latency.items():
            if (not kind or k == kind) and (not phase or p == phase):
                out.extend(values)
        return out

    def within_slo(self, slo_ns: Dict[str, float]) -> int:
        """Served requests that finished within their class objective."""
        return sum(
            sum(1 for v in values if v <= slo_ns[kind])
            for (kind, _phase), values in self.latency.items()
        )


def p99(values: List[float]) -> float:
    """Exact nearest-rank 99th percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def attach_outcomes(engine: TrafficEngine) -> Outcomes:
    """Route every sampled request's completion into an :class:`Outcomes`."""
    outcomes = Outcomes()
    sample = engine.sampler.sample

    def sample_with_sink(kernel, phase):
        request = sample(kernel, phase)
        request.done = outcomes
        return request

    engine.sampler.sample = sample_with_sink
    return outcomes


def digest(document: dict) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()
    ).hexdigest()


@dataclass
class Result:
    """One finished run: canonical document, simulated figures, checks."""

    document: dict
    outcomes: Outcomes
    #: (check name, passed) in evaluation order.
    checks: List[Tuple[str, bool]]
    sim_events: int
    extras: dict

    @property
    def failed_checks(self) -> List[str]:
        return [name for name, ok in self.checks if not ok]


class Scenario:
    """A built workload, ready to run once."""

    def __init__(self, seed: int, obs, rack, engine, **parts):
        self.seed = seed
        self.obs = obs
        self.rack = rack
        self.engine = engine
        self.parts = parts
        self.outcomes = attach_outcomes(engine)

    def run(self) -> dict:
        """Run the headline to its end; returns run-specific extras."""
        return {"report": self.engine.run()}

    def finish(self, extras: dict) -> Result:
        """Build the canonical document and evaluate the checks (untimed)."""
        report = extras.pop("report")
        report["seed"] = self.seed
        checks = common_checks(report, self.outcomes) + self.checks(report, extras)
        report["snapshot"] = snapshot_jsonl(self.obs)
        return Result(report, self.outcomes, checks, self.rack.kernel._seq, extras)

    def checks(self, report: dict, extras: dict) -> List[Tuple[str, bool]]:
        return []


def common_checks(report: dict, outcomes: Outcomes) -> List[Tuple[str, bool]]:
    g = report["gateway"]
    return [
        (
            "conservation",
            g["offered"]
            == g["completed"] + g["rejected_throttled"] + g["rejected_shed"] + g["errors"],
        ),
        ("every request reached a terminal outcome", outcomes.offered == g["offered"]),
    ]


def flash_met(report: dict) -> Dict[str, bool]:
    return {
        kind: summary["met"]
        for kind, summary in report["slo"]["phases"]["flash"].items()
    }


class FlashAdmit(Scenario):
    def checks(self, report, extras):
        return [
            ("no errors", report["gateway"]["errors"] == 0),
            ("every flash-phase class SLO met", all(flash_met(report).values())),
            ("admission throttled", report["gateway"]["rejected_throttled"] > 0),
        ]


class FlashOverload(Scenario):
    def checks(self, report, extras):
        return [
            ("no errors", report["gateway"]["errors"] == 0),
            (
                "some flash-phase class SLO violated",
                not all(flash_met(report).values()),
            ),
        ]


class ChaosRepair(Scenario):
    def run(self) -> dict:
        rack, engine = self.rack, self.engine
        recorder = self.parts["recorder"]
        scheduler = self.parts["scheduler"]
        scheduler.start(until_ns=chaos_serving.SPLIT_AT_NS)
        report = engine.run()
        rack.maybe_heal()
        extras = {
            "report": report,
            "healed": rack.active_partition is None,
            "victim_out": chaos_serving.VICTIM not in rack.ring.machines,
            "max_concurrency": recorder.max_concurrency(),
        }
        try:
            extras["audit"] = audit.assert_linearizable(recorder).summary()
        except audit.AuditError as exc:
            extras["audit"] = {"linearizable": False, "error": str(exc)}
        extras["divergence_at_drain"] = antientropy.replica_divergence(rack)
        scheduler.start(until_ns=rack.kernel.now + 4 * chaos_serving.SYNC_INTERVAL_NS)
        rack.kernel.run()
        extras["divergence_final"] = antientropy.replica_divergence(rack)

        acked_keys = sorted({k for c in engine.clients for k in c.acked})
        missing = []

        def readback():
            client = engine.clients[0]
            for key in acked_keys:
                value = yield from client.get(key)
                if value is None:
                    missing.append(key)

        rack.kernel.run_process(readback())
        extras["acked_keys"] = len(acked_keys)
        extras["missing"] = len(missing)
        return extras

    def checks(self, report, extras):
        """chaos_serving's checks; also adds its ``chaos`` section to the
        document, as the example does."""
        scheduler = self.parts["scheduler"]
        recorder = self.parts["recorder"]
        g = report["gateway"]
        checks = [
            ("partition healed", extras["healed"]),
            ("victim left the ring", extras["victim_out"]),
            ("hedging engaged", g["hedges"] > 0),
            ("faults reached the serving path", g["errors"] + g["retries"] > 0),
            ("history is concurrent", extras["max_concurrency"] > 1),
            ("history is linearizable", extras["audit"].get("linearizable") is True),
            ("divergence at drain > 0", extras["divergence_at_drain"] > 0),
            ("divergence ends at 0", extras["divergence_final"] == 0),
            ("anti-entropy repaired", scheduler.stats["repairs_applied"] > 0),
            ("every acked key readable", extras["missing"] == 0),
        ]
        report["chaos"] = {
            "fault_trace": [list(entry) for entry in self.parts["injector"].trace],
            "audit": extras["audit"],
            "clients": recorder.clients,
            "max_concurrency": extras["max_concurrency"],
            "divergence_at_drain": extras["divergence_at_drain"],
            "divergence_final": extras["divergence_final"],
            "anti_entropy": dict(scheduler.stats),
            "acked_keys": extras["acked_keys"],
        }
        return checks


def _seeded_fleet(cfg, seed: int):
    return cfg.fleet if seed == cfg.fleet.seed else replace(cfg.fleet, seed=seed)


def _flash(admission: bool, cls) -> Callable[[int], Scenario]:
    def setup(seed: int) -> Scenario:
        cfg = preset("rack_traffic")
        fleet = _seeded_fleet(cfg, seed)
        traffic = cfg.traffic
        if traffic.gateway.admission != admission:
            traffic = replace(
                traffic, gateway=replace(traffic.gateway, admission=admission)
            )
        obs = MetricsRegistry()
        rack = Rack(fleet, obs=obs)
        engine = TrafficEngine(rack, traffic, obs=obs)
        return cls(seed, obs, rack, engine)

    return setup


def _chaos_setup(seed: int) -> Scenario:
    fleet, traffic, faults = chaos_serving._chaos_config(seed)
    obs = MetricsRegistry()
    rack = Rack(fleet, obs=obs)
    injector = FaultInjector(faults, obs=obs)
    injector.arm_fleet(rack)
    engine = TrafficEngine(rack, traffic, obs=obs)
    recorder = HistoryRecorder(lambda: rack.kernel.now)
    engine.attach_history(recorder)
    scheduler = AntiEntropyScheduler(rack, obs=obs)
    return ChaosRepair(
        seed, obs, rack, engine,
        injector=injector, recorder=recorder, scheduler=scheduler,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], Scenario]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "flash_admit",
            "admission on: the token bucket turns ~40% away, so traffic is the "
            "largest layer; repair, hedging and faults stay idle",
            _flash(True, FlashAdmit),
        ),
        Workload(
            "flash_overload",
            "admission off: every request reaches the fleet KVS, ~2x the frames "
            "and store ops of flash_admit, and the backend queue grows",
            _flash(False, FlashOverload),
        ),
        Workload(
            "chaos_repair",
            "kill plus 4-vs-2 split: the only workload where repair, scans, "
            "hedging, breakers and the audit do real work",
            _chaos_setup,
        ),
    )
}
