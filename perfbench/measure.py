"""Measured runs: repetitions, pooled metrics, determinism ledger.

A run at ``--seed n`` simulates the workload once at each of
:func:`run_seeds` -- ``n`` itself and a few seeds derived from it -- and
pools their requests, so one run's simulated figures rest on more than
one arrival trace.  How many seeds depends only on the workload and
``--seconds`` (:func:`repetitions`), never on how fast the host is, so
a run's requests, and its ``attempted`` and ``failed`` counts, are the
same every time.  Host times are in reference seconds (see
:mod:`perfbench.calibrate`) and are medians over repetitions.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from . import calibrate, scenarios, tracing
from .scenarios import Result, p99

ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave their state: the determinism ledger and span files.
STATE_DIR = ROOT / ".perfbench"

#: Host seconds budgeted per repetition, checks included, per workload:
#: a 2-vCPU host took 3.2-4.3 s, 5-6.8 s and 5.4-8.2 s over ten-run
#: sets, by how busy the host was.  An untraced run at ``--seconds s`` makes
#: ``(s - SETUP_RESERVE_S) //`` this many repetitions, one per pooled
#: seed: 7, 5 and 5 at 40 s.  Each pooled seed narrows the seed-to-seed
#: spread of the simulated tail latencies.
REP_SECONDS = {"flash_admit": 5.0, "flash_overload": 7.0, "chaos_repair": 7.0}
#: Host seconds an untraced run keeps for its set-up probes.
SETUP_RESERVE_S = 4.0
#: Host seconds an untraced plus a traced repetition may take; a traced
#: run at ``--seconds s`` makes ``s //`` this many pairs: 3, 1 and 1 at 40 s.
PAIR_SECONDS = {"flash_admit": 13.0, "flash_overload": 24.0, "chaos_repair": 26.0}
#: Derived seeds are this far apart, so nearby run seeds share none.
SEED_STRIDE = 1_000_003
#: Cold set-ups timed per run (after one dropped warm-up probe), spread
#: evenly over the run: a share before each repetition.
SETUP_PROBES = 15
#: A cold set-up takes ~0.1 s, so its speed is sampled more often.
SETUP_SAMPLE_INTERVAL_S = 0.005
#: At most this share of the traced wall may be spent outside every
#: named span: in ``untraced`` program code the kernel dispatched, or
#: outside any span at all.
UNATTRIBUTED_TOLERANCE = 0.05

KiB_PER_MiB = 1024.0  # ru_maxrss is in KiB on Linux


def repetitions(workload: str, seconds: float, trace: bool) -> int:
    """Repetitions (untraced) or pairs (traced) one run makes: a fixed
    number for each ``--seconds``, at least one."""
    if trace:
        return max(1, int(seconds // PAIR_SECONDS[workload]))
    return max(1, int((seconds - SETUP_RESERVE_S) // REP_SECONDS[workload]))


def run_seeds(seed: int, count: int) -> List[int]:
    return [seed + i * SEED_STRIDE for i in range(count)]


# -- one repetition -----------------------------------------------------------


class Rep:
    """One measured repetition: host times plus the finished result."""

    def __init__(self, seed, wall_s, result: Result, scenario, span_totals: dict,
                 ref_s: Optional[float] = None):
        self.seed = seed
        self.wall_s = wall_s
        #: ``wall_s`` in reference seconds (sampled runs only).
        self.ref_s = ref_s
        self.result = result
        #: Per span name: self seconds, calls, items over the timed run.
        self.span_totals = span_totals
        g = result.document["gateway"]
        self.offered = g["offered"]
        self.errors = g["errors"]
        self.fingerprint = fingerprint(result)
        self.layer = layer_counts(scenario, result)


def run_once(workload: str, seed: int, tracer: Optional[tracing.Tracer] = None,
             sample_speed: bool = False) -> Rep:
    """Set up, then time the run; with a tracer, also return the span
    totals of exactly the timed part.  ``sample_speed`` also measures the
    run in reference seconds (never with a tracer: the samples would be
    charged to whichever span is open)."""
    scenario = scenarios.WORKLOADS[workload].setup(seed)
    ref_s = None
    if tracer is not None:
        tracer.restart_totals()
    if sample_speed:
        with calibrate.SpeedSampler() as sampler:
            extras = scenario.run()
        wall_s, ref_s = sampler.wall_s, sampler.ref_s
    else:
        start = time.perf_counter()
        extras = scenario.run()
        wall_s = time.perf_counter() - start
    totals = tracer.totals() if tracer is not None else {}
    return Rep(seed, wall_s, scenario.finish(extras), scenario, totals, ref_s)


def fingerprint(result: Result) -> dict:
    """Everything a speed-only change must leave bit-identical."""
    latency = hashlib.sha256()
    for key, values in sorted(result.outcomes.latency.items()):
        latency.update(repr(key).encode())
        latency.update(values.tobytes())
    return {
        "digest": scenarios.digest(result.document),
        "latency_digest": latency.hexdigest(),
        "sim_events": result.sim_events,
        "offered": result.document["gateway"]["offered"],
    }


# -- metrics ------------------------------------------------------------------


def end_to_end(results: List[Result], classes_slo: Dict[str, float]) -> dict:
    """Simulated end-to-end figures over the pooled requests of ``results``
    (one per run seed).  Refused, shed and failed requests never complete,
    so they count against goodput and SLO attainment."""
    offered = sum(r.document["gateway"]["offered"] for r in results)
    completed = sum(r.document["gateway"]["completed"] for r in results)
    within = sum(r.outcomes.within_slo(classes_slo) for r in results)

    def pooled(kind: str = "", phase: str = "") -> List[float]:
        return [v for r in results for v in r.outcomes.samples(kind, phase)]

    get, put = pooled("kvs_get"), pooled("kvs_put")
    flash = {kind: p99(pooled(kind, "flash")) for kind in classes_slo}
    return {
        "goodput_frac": completed / offered,
        "slo_attain_frac": within / offered,
        "kvs_get_p99_us": p99(get) / 1e3,
        "kvs_put_p99_us": p99(put) / 1e3,
        "flash_p99_us": max(flash.values()) / 1e3,
        "_counts": {"kvs_get": len(get), "kvs_put": len(put), "offered": offered},
    }


def layer_counts(scenario, result: Result) -> dict:
    """Per-layer counts and ratios from the layers' own stats and report."""
    doc, extras = result.document, result.extras
    g, cache = doc["gateway"], doc["cache"]
    rack, engine = scenario.rack, scenario.engine
    clients = [c.stats for c in engine.clients]
    succeeded = sum(s["puts_acked"] + s["gets"] + s["deletes"] for s in clients)
    failed = sum(s["timeouts"] + s["quorum_rejects"] + s["rejections"] for s in clients)
    kvs_ops = succeeded + failed - sum(s["retries"] for s in clients)
    links = [m.link for m in rack.machines.values()] + [c.link for c in engine.clients]
    switch = rack.switch.stats
    stores = [m.store.stats for m in rack.machines.values()]
    scheduler = scenario.parts.get("scheduler")
    ae = scheduler.stats if scheduler is not None else {"passes": 0, "repairs_applied": 0}
    return {
        "sim.events": result.sim_events,
        "traffic.admit_frac": (g["admitted"] + g["cache_hits"]) / g["offered"],
        "traffic.batch_mean": g["batched_requests"] / g["batches"] if g["batches"] else 0.0,
        "traffic.cache_hit_frac": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "traffic.max_queue_depth": g["max_queue_depth"],
        "traffic.hedges": g["hedges"],
        "traffic.hedge_win_frac": g["hedge_wins"] / g["hedges"] if g["hedges"] else 0.0,
        "traffic.retries": g["retries"],
        "traffic.shed_breaker": g["shed_breaker"],
        "traffic.error_frac": g["errors"] / g["offered"],
        "fleet.kvs.ops": kvs_ops,
        "fleet.kvs.attempts_per_op": (succeeded + failed) / kvs_ops if kvs_ops else 0.0,
        "fleet.op_p99_us": doc["fleet"]["p99"] / 1e3,
        "fleet.ae.passes": ae["passes"],
        "fleet.ae.repairs": ae["repairs_applied"],
        "fleet.audit.ops": extras.get("audit", {}).get("ops", 0),
        "fleet.audit.max_concurrency": extras.get("max_concurrency", 0),
        "net.frames": sum(link.stats["frames"] for link in links),
        "net.bytes": sum(link.stats["bytes"] for link in links),
        "net.dropped": sum(link.stats["dropped"] for link in links)
        + switch["dropped_partitioned"]
        + switch["dropped_unknown"],
        "apps.store.ops": sum(s["gets"] + s["puts"] + s["deletes"] for s in stores),
    }


# -- set-up time --------------------------------------------------------------


class SetupProbes:
    """Times cold set-ups, as a user pays them, at any point of a run.

    Each probe builds the workload once in a child forked from a process
    that has built nothing, so it pays every lazy import and first-use
    cost that construction triggers (the program's modules are imported,
    as the examples import them at their top).  That process is a copy
    of this one, forked before anything was built and kept idle as a
    probe server: each request makes it fork one probe.  So a run can
    spread its probes between its repetitions, over the host's fast and
    slow spells, instead of taking them all in its first seconds.

    The parent's objects are frozen out of the collector, so a
    collection in a probe copies no parent pages.  A probe times its own
    thread's CPU time: that leaves out the threads numerical libraries
    start when imported, and the time the host gives other processes.
    It samples the host's speed on the same clock every few milliseconds
    of the set-up and reports reference seconds, as repetitions do.  The
    first probe warms the file cache and is dropped.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        sys.stdout.flush()
        gc.collect()
        gc.freeze()
        try:
            request_r, request_w = os.pipe()
            result_r, result_w = os.pipe()
            self.pid = os.fork()
            if self.pid == 0:
                os.close(request_w)
                os.close(result_r)
                _serve_probes(workload, seed, request_r, result_w)
            os.close(request_r)
            os.close(result_w)
        finally:
            gc.unfreeze()
        self._requests = os.fdopen(request_w, "wb", buffering=0)
        self._results = os.fdopen(result_r, "rb")
        try:
            self.take(1)
        except BaseException:
            self.close()
            raise

    def take(self, count: int) -> List[float]:
        """Reference seconds of ``count`` more cold set-ups, one after
        another."""
        self._requests.write(b"p" * count)
        times = []
        for _ in range(count):
            line = self._results.readline()
            if not line.endswith(b"\n"):
                raise RuntimeError(f"set-up probe for {self.workload} failed")
            times.append(float(line))
        return times

    def close(self) -> None:
        """Stop the probe server and wait for it to end."""
        self._requests.close()
        self._results.close()
        os.waitpid(self.pid, 0)

    def __enter__(self) -> "SetupProbes":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve_probes(workload: str, seed: int, request_fd: int, result_fd: int) -> None:
    """The probe server's loop: one probe per request byte, until the
    requests pipe closes.  Never returns."""
    status = 1
    try:
        with os.fdopen(request_fd, "rb", buffering=0) as requests:
            while requests.read(1):
                os.write(result_fd, f"{_fork_probe(workload, seed)!r}\n".encode())
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)


def _fork_probe(workload: str, seed: int) -> float:
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with calibrate.SpeedSampler(SETUP_SAMPLE_INTERVAL_S, time.thread_time) as sampler:
                scenarios.WORKLOADS[workload].setup(seed)
            os.write(write_fd, repr(sampler.ref_s).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"set-up probe for {workload} failed (status {status})")
    return float(data)


# -- determinism ledger -------------------------------------------------------


def code_version() -> str:
    """Hash of the program source plus the workload definitions."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py"))
    files += [Path(scenarios.__file__), scenarios.CHAOS_EXAMPLE]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Ledger:
    """Fingerprints per (code version, workload, seed), kept across runs:
    every run of one code version at one seed must simulate identically."""

    def __init__(self, path: Path = STATE_DIR / "fingerprints.json"):
        self.path = path
        self.version = code_version()
        try:
            self.data = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            self.data = {}
        self.mismatches: List[str] = []

    def check(self, workload: str, rep: Rep) -> None:
        entries = self.data.setdefault(self.version, {})
        key = f"{workload}/{rep.seed}"
        known = entries.setdefault(key, rep.fingerprint)
        if known != rep.fingerprint:
            self.mismatches.append(key)

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# -- runs ---------------------------------------------------------------------


class Outcome:
    """What one benchmark run found: metrics, checks, request counts."""

    def __init__(self) -> None:
        self.metrics: Dict[str, tuple] = {}
        self.failed_checks: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def add_rep(self, workload: str, rep: Rep, first: Dict[int, Rep], ledger: Ledger) -> None:
        self.attempted += rep.offered
        self.failed += rep.errors
        for name in rep.result.failed_checks:
            self.fail(f"{workload}@{rep.seed}: {name}")
        seen = first.setdefault(rep.seed, rep)
        if seen.fingerprint != rep.fingerprint:
            self.fail(f"{workload}@{rep.seed}: repetitions simulated differently")
        ledger.check(workload, rep)

    def fail(self, check: str) -> None:
        if check not in self.failed_checks:
            self.failed_checks.append(check)


def _slo_by_class(result: Result) -> Dict[str, float]:
    return {
        kind: summary["slo_ns"]
        for kind, summary in result.document["slo"]["classes"].items()
    }


def measure_untraced(workload: str, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    ledger = Ledger()
    seeds = run_seeds(seed, repetitions(workload, seconds, trace=False))
    first: Dict[int, Rep] = {}
    walls: List[float] = []
    refs: List[float] = []
    setups: List[float] = []
    with SetupProbes(workload, seed) as probes:
        for i, run_seed in enumerate(seeds):
            setups += probes.take(
                SETUP_PROBES * (i + 1) // len(seeds) - SETUP_PROBES * i // len(seeds)
            )
            rep = run_once(workload, run_seed, sample_speed=True)
            walls.append(rep.wall_s)
            refs.append(rep.ref_s)
            out.add_rep(workload, rep, first, ledger)
            first[rep.seed].result.document.pop("snapshot", None)
            del rep
            gc.collect()
    ledger.save()
    for key in ledger.mismatches:
        out.fail(f"{key}: simulated differently from an earlier run of this code")
    results = [first[s].result for s in seeds]
    sim = end_to_end(results, _slo_by_class(results[0]))
    counts = sim.pop("_counts")
    sim["wall_s"] = statistics.median(refs)
    sim["setup_s"] = statistics.median(setups)
    sim["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / KiB_PER_MiB
    for name, unit in END_TO_END_UNITS.items():
        out.metrics[name] = (sim[name], unit)
    out.notes.append(
        f"{len(walls)} reps over seeds {seeds}; host walls {[round(w, 3) for w in walls]}; "
        f"reference walls {[round(r, 3) for r in refs]}; "
        f"setups {[round(s, 4) for s in setups]}; samples {counts}"
    )
    # Zero on both flash_* workloads, so it cannot carry a relative bound;
    # the result line carries it as failed / attempted.
    out.notes.append(f"error_frac {out.failed / out.attempted:.6g} ratio")
    return out


@contextlib.contextmanager
def _probes(tracer: tracing.Tracer, found: dict):
    """Simulated queue wait per executed request, and store entries
    scanned inside anti-entropy passes (patched over the traced entry
    points, so their own cost stays out of the layer spans)."""
    from repro.fleet.antientropy import AntiEntropyScheduler
    from repro.traffic.gateway import Gateway

    execute = Gateway.__dict__["_execute"]
    run_pass = AntiEntropyScheduler.__dict__["run_pass"]
    scan = tracer.name_id("apps.scan")

    def timed_execute(self, request, client):
        found["queue_wait_ns"].append(self.kernel.now - request.submitted_ns)
        return execute(self, request, client)

    def counted_run_pass(self):
        before = tracer.items[scan]
        try:
            return run_pass(self)
        finally:
            found["ae_scanned"] += tracer.items[scan] - before

    Gateway._execute = timed_execute
    AntiEntropyScheduler.run_pass = counted_run_pass
    try:
        yield
    finally:
        Gateway._execute = execute
        AntiEntropyScheduler.run_pass = run_pass


def measure_traced(workload: str, seed: int, seconds: float) -> Outcome:
    """Alternate untraced and traced repetitions at the run seed; the
    per-layer figures come from the traced ones.  Host times here are
    plain host seconds: they carry no bound."""
    out = Outcome()
    ledger = Ledger()
    first: Dict[int, Rep] = {}
    plain: List[float] = []
    traced: List[dict] = []
    for count in range(2 * repetitions(workload, seconds, trace=True)):
        if count % 2 == 0:
            rep = run_once(workload, seed)
            plain.append(rep.wall_s)
        else:
            tracer = tracing.Tracer()
            found = {"queue_wait_ns": [], "ae_scanned": 0}
            with tracing.installed(tracer), _probes(tracer, found):
                rep = run_once(workload, seed, tracer)
            traced.append(layer_self_times(rep, found))
            STATE_DIR.mkdir(parents=True, exist_ok=True)
            tracer.write(STATE_DIR / f"spans-{workload}.npz")
            del tracer
        out.add_rep(workload, rep, first, ledger)
        layer = rep.layer
        del rep
        gc.collect()
    ledger.save()
    for key in ledger.mismatches:
        out.fail(f"{key}: simulated differently from an earlier run of this code")

    plain_wall = statistics.median(plain)
    merged = {k: statistics.median_low(t[k] for t in traced) for k in traced[0]}
    traced_wall = merged.pop("_wall_s")
    metrics = dict(layer)
    repairs = metrics.pop("fleet.ae.repairs")
    metrics.update(merged)
    metrics["fleet.ae.repair_yield"] = (
        repairs / merged["fleet.ae.entries_scanned"]
        if merged["fleet.ae.entries_scanned"] else 0.0
    )
    metrics["sim.events_per_s"] = layer["sim.events"] / plain_wall
    metrics["obs.share"] = (merged["obs.lookup.self_s"] + merged["obs.update.self_s"]) / traced_wall
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    if merged["trace.unattributed_frac"] > UNATTRIBUTED_TOLERANCE:
        out.fail(
            f"{merged['trace.unattributed_frac']:.1%} of the traced wall is outside "
            f"every named span (tolerance {UNATTRIBUTED_TOLERANCE:.0%})"
        )
    for name, value in metrics.items():
        out.metrics[name] = (value, PER_LAYER_UNITS[name])
    out.notes.append(
        f"untraced walls {[round(w, 3) for w in plain]}; "
        f"traced walls {[round(t['_wall_s'], 3) for t in traced]}"
    )
    return out


#: Per span name, the per-layer metric that carries its self time.
#: Every span a traced run records has one, so no layer's time hides in
#: another's figure; the ``untraced`` span is in ``trace.unattributed_frac``.
SELF_TIME_METRICS = {
    "sim": "sim.self_s",
    "obs.lookup": "obs.lookup.self_s",
    "obs.update": "obs.update.self_s",
    "traffic.submit": "traffic.submit.self_s",
    "traffic.worker": "traffic.worker.self_s",
    "traffic.complete": "traffic.complete.self_s",
    "traffic.hedge": "traffic.hedge.self_s",
    "traffic.sample": "traffic.sample.self_s",
    "traffic.arrivals": "traffic.arrivals.self_s",
    "traffic.report": "traffic.report.self_s",
    "fleet.kvs": "fleet.kvs.self_s",
    "fleet.server": "fleet.server.self_s",
    "fleet.ae": "fleet.ae.self_s",
    "fleet.divergence": "fleet.divergence.self_s",
    "fleet.audit": "fleet.audit.self_s",
    "fleet.rack": "fleet.rack.self_s",
    "net.send": "net.send.self_s",
    "apps.store": "apps.store.self_s",
    "apps.scan": "apps.scan.self_s",
}


def unattributed_frac(totals: Dict[str, dict], wall_s: float) -> float:
    """Share of ``wall_s`` that no named span accounts for: the
    ``untraced`` spans' self time plus the time outside every root span
    (root spans are disjoint, so all self times add up to the time
    inside them)."""
    inside = sum(t["self_s"] for t in totals.values())
    untraced = totals.get(tracing.UNTRACED, {}).get("self_s", 0.0)
    return (wall_s - inside + untraced) / wall_s


def layer_self_times(rep: Rep, found: dict) -> dict:
    totals = rep.span_totals

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    waits = found["queue_wait_ns"]
    figures = {
        metric: get(name, "self_s") for name, metric in SELF_TIME_METRICS.items()
    }
    figures.update({
        "_wall_s": rep.wall_s,
        "obs.lookups": get("obs.lookup", "calls"),
        "obs.updates": get("obs.update", "calls"),
        "traffic.submit.calls": get("traffic.submit", "calls"),
        "traffic.queue_wait_p99_us": p99(waits) / 1e3,
        "fleet.ae.entries_scanned": found["ae_scanned"],
        "apps.scan.entries": get("apps.scan", "items"),
        "trace.unattributed_frac": unattributed_frac(totals, rep.wall_s),
    })
    return figures


#: Units of every end-to-end metric an untraced run reports.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "goodput_frac": "ratio",
    "slo_attain_frac": "ratio",
    "kvs_get_p99_us": "us",
    "kvs_put_p99_us": "us",
    "flash_p99_us": "us",
}

#: Units of every per-layer metric a traced run reports.
PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.self_s": "s",
    "obs.lookups": "count",
    "obs.lookup.self_s": "s",
    "obs.updates": "count",
    "obs.update.self_s": "s",
    "obs.share": "ratio",
    "traffic.submit.calls": "count",
    "traffic.submit.self_s": "s",
    "traffic.admit_frac": "ratio",
    "traffic.worker.self_s": "s",
    "traffic.complete.self_s": "s",
    "traffic.hedge.self_s": "s",
    "traffic.sample.self_s": "s",
    "traffic.arrivals.self_s": "s",
    "traffic.report.self_s": "s",
    "traffic.batch_mean": "req/batch",
    "traffic.cache_hit_frac": "ratio",
    "traffic.max_queue_depth": "req",
    "traffic.queue_wait_p99_us": "us",
    "traffic.hedges": "count",
    "traffic.hedge_win_frac": "ratio",
    "traffic.retries": "count",
    "traffic.shed_breaker": "count",
    "traffic.error_frac": "ratio",
    "fleet.kvs.ops": "count",
    "fleet.kvs.self_s": "s",
    "fleet.kvs.attempts_per_op": "attempts/op",
    "fleet.server.self_s": "s",
    "fleet.op_p99_us": "us",
    "fleet.ae.passes": "count",
    "fleet.ae.self_s": "s",
    "fleet.ae.entries_scanned": "count",
    "fleet.ae.repair_yield": "ratio",
    "fleet.divergence.self_s": "s",
    "fleet.audit.self_s": "s",
    "fleet.audit.ops": "count",
    "fleet.audit.max_concurrency": "count",
    "fleet.rack.self_s": "s",
    "net.frames": "count",
    "net.bytes": "B",
    "net.dropped": "count",
    "net.send.self_s": "s",
    "apps.store.ops": "count",
    "apps.store.self_s": "s",
    "apps.scan.entries": "count",
    "apps.scan.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        return measure_traced(workload, seed, seconds)
    return measure_untraced(workload, seed, seconds)

