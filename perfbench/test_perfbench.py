"""Tests for the benchmark's own logic (not the program it measures).

Run:  python3 -m pytest perfbench
"""

import json
import os
import signal
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import calibrate, measure, run, scenarios, tracing
from perfbench.scenarios import WORKLOADS, ChaosRepair, FlashAdmit, Outcomes, Result, p99
from repro.sim.kernel import Kernel, Timeout

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """Each read returns the next scripted instant."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def totals(tracer):
    return {name: (t["self_s"], t["calls"], t["items"]) for name, t in tracer.totals().items()}


def test_nested_calls_split_self_time():
    # outer [0, 10) holds inner [2, 5) and inner [6, 7).
    tracer = tracing.Tracer(FakeClock(0.0, 2.0, 5.0, 6.0, 7.0, 10.0))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert totals(tracer) == {"inner": (4.0, 2, 0), "outer": (6.0, 1, 0)}
    tracer.restart_totals()
    assert totals(tracer) == {"inner": (0.0, 0, 0), "outer": (0.0, 0, 0)}
    assert list(tracer.span_parent) == [-1, 0, 0]
    assert list(tracer.span_end) == [10.0, 5.0, 7.0]


def test_exception_closes_span():
    tracer = tracing.Tracer(FakeClock(0.0, 3.0))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert totals(tracer) == {"boom": (3.0, 1, 0)}
    assert tracer._stack == []


def test_generator_steps_are_spans_and_forward_send_and_throw():
    # Step 1 [0, 4) calls leaf [1, 2); step 2 [10, 11) catches a thrown
    # error; step 3 [20, 23) returns.  Time between steps is nobody's.
    tracer = tracing.Tracer(
        FakeClock(0.0, 1.0, 2.0, 4.0, 10.0, 11.0, 20.0, 23.0)
    )
    leaf = tracer.wrap("leaf", lambda: None)

    def process():
        leaf()
        got = yield "first"
        try:
            yield got
        except ValueError:
            pass
        return "done"

    gen = tracer.wrap_generator("proc", process)()
    assert next(gen) == "first"
    assert gen.send("second") == "second"
    with pytest.raises(StopIteration) as stop:
        gen.throw(ValueError("retry"))
    assert stop.value.value == "done"
    assert totals(tracer) == {"leaf": (1.0, 1, 0), "proc": (7.0, 3, 2)}


def test_generator_wrapper_nests_under_yield_from():
    # worker step [0, 10) delegates to a traced kvs step [3, 8).
    tracer = tracing.Tracer(FakeClock(0.0, 3.0, 8.0, 10.0, 20.0, 21.0, 22.0, 25.0))
    kvs = tracer.wrap_generator("kvs", lambda: (yield "wait"))

    def worker():
        value = yield from kvs()
        return value

    gen = tracer.wrap_generator("worker", worker)()
    assert next(gen) == "wait"
    with pytest.raises(StopIteration) as stop:
        gen.send("reply")
    assert stop.value.value == "reply"
    worker_self, kvs_self = 10.0 - 5.0 + 5.0 - 1.0, 5.0 + 1.0
    assert totals(tracer) == {"kvs": (kvs_self, 2, 1), "worker": (worker_self, 2, 1)}


def test_kernel_dispatch_outside_entry_points_is_untraced():
    # A plain callback and both steps of a plain process run in
    # ``untraced`` spans; the kernel's own resumption of the process
    # does not; a traced entry point scheduled directly gets no
    # ``untraced`` span around it.
    tracer = tracing.Tracer()
    kernel = Kernel()
    seen = []

    def process():
        yield Timeout(5.0)
        seen.append(("process", kernel.now))

    traced_leaf = tracer.wrap("leaf", lambda value: seen.append(("leaf", value)))
    with tracing.installed(tracer):
        kernel.call_at(1.0, lambda value: seen.append(("callback", value)), "v")
        kernel.call_at(2.0, traced_leaf, "w")
        kernel.spawn(process(), name="plain")
        assert kernel._processes[0].name == "plain"
        kernel.run()
    assert seen == [("callback", "v"), ("leaf", "w"), ("process", 5.0)]
    counts = {name: t["calls"] for name, t in tracer.totals().items() if t["calls"]}
    assert counts == {"sim": 1, tracing.UNTRACED: 3, "leaf": 1}
    # Every dispatched span nests directly under Kernel.run's.
    assert list(tracer.span_parent) == [-1, 0, 0, 0, 0]
    assert Kernel.__dict__["call_at"].__module__ == "repro.sim.kernel"


def test_unattributed_time_is_untraced_spans_plus_time_outside_roots():
    totals = {
        "sim": {"self_s": 2.0},
        "net.send": {"self_s": 3.0},
        tracing.UNTRACED: {"self_s": 1.5},
    }
    # 10 s wall: 6.5 s inside root spans, 1.5 s of it untraced.
    frac = measure.unattributed_frac(totals, 10.0)
    assert frac == pytest.approx((3.5 + 1.5) / 10.0)
    assert frac > measure.UNATTRIBUTED_TOLERANCE


def test_every_span_has_a_reported_metric():
    assert tracing.span_names() - {tracing.UNTRACED} == set(measure.SELF_TIME_METRICS)
    assert set(measure.SELF_TIME_METRICS.values()) <= set(measure.PER_LAYER_UNITS)


def test_cold_setup_probes_run_in_children(monkeypatch):
    calls = []
    monkeypatch.setitem(
        scenarios.WORKLOADS, "probe", scenarios.Workload("probe", "", calls.append)
    )
    with measure.SetupProbes("probe", 3) as probes:
        calls.append("built after the server forked")
        times = probes.take(2) + probes.take(1)
    assert len(times) == 3 and all(t >= 0 for t in times)
    assert calls == ["built after the server forked"]  # no set-up ran here
    with pytest.raises(ChildProcessError):
        os.waitpid(probes.pid, os.WNOHANG)  # the server has ended

    def broken(seed):
        raise ValueError(seed)

    monkeypatch.setitem(scenarios.WORKLOADS, "probe", scenarios.Workload("probe", "", broken))
    with pytest.raises(RuntimeError, match="set-up probe for probe failed"):
        measure.SetupProbes("probe", 3)


def _request(kind, phase, outcome, submitted_ns):
    return SimpleNamespace(
        cls=SimpleNamespace(kind=kind), phase=phase, outcome=outcome,
        submitted_ns=submitted_ns,
    )


def test_slo_attainment_counts_refused_and_failed_requests_as_misses():
    outcomes = Outcomes()
    kernel = SimpleNamespace(now=100.0)
    for outcome, submitted in [
        ("served", 95.0),        # 5 ns: within
        ("cache_hit", 99.0),     # 1 ns: within
        ("served", 50.0),        # 50 ns: over the 10 ns objective
        ("rejected:throttled", 100.0),
        ("rejected:shed", 100.0),
        ("error", 60.0),
    ]:
        outcomes.succeed(kernel, _request("kvs_get", "flash", outcome, submitted))
    gateway = {"offered": 6, "completed": 3}
    result = Result({"gateway": gateway}, outcomes, [], 0, {})
    figures = measure.end_to_end([result], {"kvs_get": 10.0})
    assert figures["slo_attain_frac"] == 2 / 6
    assert figures["goodput_frac"] == 3 / 6
    assert figures["kvs_get_p99_us"] == 50.0 / 1e3
    assert figures["flash_p99_us"] == 50.0 / 1e3


def test_p99_is_nearest_rank():
    assert p99([]) == 0.0
    assert p99(list(range(1, 101))) == 99
    assert p99([3.0]) == 3.0


def test_failed_check_fails_the_workload():
    report = {
        "gateway": {"errors": 1, "rejected_throttled": 5},
        "slo": {"phases": {"flash": {"kvs_get": {"met": True}}}},
    }
    checks = dict(FlashAdmit.checks(None, report, {}))
    assert checks == {
        "no errors": False,
        "every flash-phase class SLO met": True,
        "admission throttled": True,
    }


def test_chaos_checks_require_hedging():
    scenario = ChaosRepair.__new__(ChaosRepair)
    scenario.parts = {
        "scheduler": SimpleNamespace(stats={"repairs_applied": 4}),
        "recorder": SimpleNamespace(clients=4),
        "injector": SimpleNamespace(trace=[]),
    }
    report = {"gateway": {"hedges": 0, "errors": 1, "retries": 0}}
    extras = {
        "healed": True, "victim_out": True, "max_concurrency": 4,
        "audit": {"linearizable": True}, "divergence_at_drain": 3,
        "divergence_final": 0, "missing": 0, "acked_keys": 10,
    }
    checks = dict(scenario.checks(report, extras))
    assert [name for name, ok in checks.items() if not ok] == ["hedging engaged"]


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    outcome = measure.Outcome()
    outcome.attempted = 10
    outcome.metrics["wall_s"] = (1.5, "s")
    outcome.fail("flash_admit@1: conservation")
    monkeypatch.setattr(measure, "run", lambda *args: outcome)
    assert run.main(["--workload", "flash_admit", "--seconds", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last == {
        "correct": False, "attempted": 10, "failed": 0,
        "metrics": {"wall_s": {"value": 1.5, "unit": "s"}},
    }


def test_passing_run_exits_zero(monkeypatch, capsys):
    outcome = measure.Outcome()
    outcome.attempted = 10
    monkeypatch.setattr(measure, "run", lambda *args: outcome)
    assert run.main(["--workload", "chaos_repair", "--trace", "1"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"]


def test_no_program_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "flash_admit"]) == 2
    assert capsys.readouterr().out == ""


def test_run_seeds_start_at_the_workload_seed_and_never_overlap():
    seeds = measure.run_seeds(7, 5)
    assert seeds[0] == 7 and len(set(seeds)) == 5
    assert not set(seeds) & set(measure.run_seeds(8, 5))


def test_repetitions_depend_only_on_the_workload_and_seconds():
    counts = {w: measure.repetitions(w, 40, trace=False) for w in run.WORKLOADS}
    assert counts == {"flash_admit": 7, "flash_overload": 5, "chaos_repair": 5}
    pairs = {w: measure.repetitions(w, 40, trace=True) for w in run.WORKLOADS}
    assert pairs == {"flash_admit": 3, "flash_overload": 1, "chaos_repair": 1}
    assert measure.repetitions("chaos_repair", 1, trace=False) == 1
    assert measure.repetitions("chaos_repair", 1, trace=True) == 1


def test_reference_seconds_weigh_speed_not_pass_time():
    ref = calibrate.REFERENCE_LOOP_S
    # Half the run at reference speed, half at half speed: 3/4 the work.
    assert calibrate.reference_seconds(4.0, [ref, 2 * ref]) == pytest.approx(3.0)
    assert calibrate.reference_seconds(2.0, [ref / 2]) == pytest.approx(4.0)


@pytest.mark.parametrize("clock", [time.perf_counter, time.thread_time])
def test_speed_sampler_leaves_its_own_time_out(clock):
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with calibrate.SpeedSampler(interval_s=0.005, clock=clock) as sampler:
        busy(0.1)
    assert len(sampler.samples) > 4
    assert 0.0 < sampler.wall_s < 0.1 and sampler.ref_s > 0.0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)


def test_ledger_covers_every_layer_metric_and_the_bypass_prediction():
    ledger = json.loads((ROOT / "perfbench" / "ledger.json").read_text())
    assert set(ledger["predictions"]) == set(measure.PER_LAYER_UNITS)
    for workload in run.WORKLOADS:
        assert set(ledger["baseline"][workload]) == set(measure.PER_LAYER_UNITS)
    for workload in ("flash_admit", "flash_overload"):
        baseline = ledger["baseline"][workload]
        idle = [
            name for name in measure.PER_LAYER_UNITS
            if name.startswith(("fleet.ae.", "apps.scan."))
            or name in ("traffic.hedges", "traffic.shed_breaker")
        ]
        assert all(baseline[name] == 0 for name in idle), workload
