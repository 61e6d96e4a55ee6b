"""Host-time spans around each layer's public entry points.

The traced run patches the entry points of ``sim``, ``net``, ``fleet``,
``traffic``, ``obs`` and ``apps`` from outside the program (see
:func:`_entry_points`); nothing under ``src/`` knows it is being traced.

A span covers one call, or one resumed step of a generator API (a
simulation process runs a step per wakeup).  Spans nest on one stack,
so a span's *self time* is its duration minus the time its child spans
cover, and the self times of all spans add up to the time spent inside
root spans.  Every span is kept in memory -- name, parent, start, end --
and written out once, when the run ends.

Program code the kernel dispatches that no entry point covers -- a
callback or a process step outside the traced APIs -- runs in an
:data:`UNTRACED` span (see :func:`_dispatch_patches`).  ``sim``'s self
time is therefore the kernel's own dispatch loop and process machinery
alone, and the ``untraced`` self time is what the ledger cannot name.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from typing import Callable, Dict, Iterator, List

#: Span name for dispatched program code that no entry point covers.
UNTRACED = "untraced"
#: Attribute marking a function as a traced entry point.
_SPAN_ATTR = "_perfbench_span"


class Tracer:
    """A span stack with per-name self time, call and yield counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: Per name id: summed self seconds, spans closed, values yielded.
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self.items: List[int] = []
        # Open spans: [name id, start, child seconds, span index].
        self._stack: List[list] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
            self.items.append(0)
        return nid

    def enter(self, nid: int) -> None:
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][3] if stack else -1)
        self.span_end.append(0.0)
        start = self.clock()
        self.span_start.append(start)
        stack.append([nid, start, 0.0, index])

    def exit(self) -> None:
        end = self.clock()
        nid, start, child, index = self._stack.pop()
        duration = end - start
        self.span_end[index] = end
        self.self_s[nid] += duration - child
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][2] += duration

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A function whose every call is one span."""
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        setattr(traced, _SPAN_ATTR, name)
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every resumed step is one span."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.steps(nid, fn(*args, **kwargs))

        setattr(traced, _SPAN_ATTR, name)
        return traced

    def steps(self, nid: int, gen):
        """Drive ``gen`` one span per step, forwarding sends and throws
        exactly as ``yield from`` would."""
        enter, exit_ = self.enter, self.exit
        value, error = None, None
        while True:
            enter(nid)
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                exit_()
            self.items[nid] += 1
            try:
                value, error = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into gen, as yield from does
                value, error = None, exc

    # -- results -------------------------------------------------------------

    def restart_totals(self) -> None:
        """Zero the per-name totals (spans already recorded are kept), so
        the totals cover only what runs from here on."""
        n = len(self.names)
        self.self_s, self.calls, self.items = [0.0] * n, [0] * n, [0] * n

    def totals(self) -> Dict[str, dict]:
        return {
            name: {
                "self_s": self.self_s[nid],
                "calls": self.calls[nid],
                "items": self.items[nid],
            }
            for nid, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span: ``names``, and per span its ``name`` id,
        ``parent`` span index (-1 for a root) and ``start``/``end``
        host seconds, as one ``.npz`` archive."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _entry_points():
    """(owner, attribute, span name, is generator API) for every
    traced entry point.  Handlers that components bind at construction
    (frame handlers, the switch uplink) are patched on the class, so the
    patch must be in place before the scenario is built.  Besides the
    public APIs, the processes and callbacks a layer runs on its own --
    the arrival source, hedge legs, request completions -- are entry
    points of that layer."""
    from repro.apps.kvs import HashTableStore
    from repro.fleet import antientropy, audit
    from repro.fleet.antientropy import AntiEntropyScheduler
    from repro.fleet.audit import HistoryRecorder
    from repro.fleet.kvs import FleetKvsClient, KvsShardServer
    from repro.fleet.rack import Rack
    from repro.net.ethernet import EthernetLink
    from repro.net.switch import Switch
    from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
    from repro.sim.kernel import Kernel
    from repro.traffic.classes import RequestSampler
    from repro.traffic.engine import TrafficEngine
    from repro.traffic.gateway import Gateway

    return [
        (Kernel, "run", "sim", False),
        (MetricsRegistry, "counter", "obs.lookup", False),
        (MetricsRegistry, "gauge", "obs.lookup", False),
        (MetricsRegistry, "histogram", "obs.lookup", False),
        (Counter, "inc", "obs.update", False),
        (Gauge, "set", "obs.update", False),
        (Gauge, "inc", "obs.update", False),
        (Gauge, "dec", "obs.update", False),
        (Histogram, "observe", "obs.update", False),
        (Gateway, "submit", "traffic.submit", False),
        (Gateway, "worker", "traffic.worker", True),
        (Gateway, "_complete", "traffic.complete", False),
        (Gateway, "_guarded_get", "traffic.hedge", True),
        (RequestSampler, "sample", "traffic.sample", False),
        (TrafficEngine, "_open_source", "traffic.arrivals", True),
        (TrafficEngine, "report", "traffic.report", False),
        (FleetKvsClient, "put", "fleet.kvs", True),
        (FleetKvsClient, "get", "fleet.kvs", True),
        (FleetKvsClient, "delete", "fleet.kvs", True),
        (FleetKvsClient, "_on_frame", "fleet.kvs", False),
        (KvsShardServer, "_on_frame", "fleet.server", False),
        (KvsShardServer, "_complete", "fleet.server", False),
        (AntiEntropyScheduler, "run_pass", "fleet.ae", False),
        (antientropy, "replica_divergence", "fleet.divergence", False),
        (audit, "assert_linearizable", "fleet.audit", False),
        (HistoryRecorder, "max_concurrency", "fleet.audit", False),
        (Rack, "maybe_heal", "fleet.rack", False),
        (Rack, "kill", "fleet.rack", False),
        (Rack, "start_partition", "fleet.rack", False),
        (EthernetLink, "send", "net.send", False),
        (EthernetLink, "_pump", "net.send", False),
        (Switch, "_ingress", "net.send", False),
        (HashTableStore, "get", "apps.store", False),
        (HashTableStore, "put", "apps.store", False),
        (HashTableStore, "delete", "apps.store", False),
        (HashTableStore, "scan", "apps.scan", True),
    ]


def _dispatch_patches(tracer: Tracer):
    """Replacements for ``Kernel.call_at`` and ``Kernel.spawn`` that run
    every scheduled callback and every process step in an
    :data:`UNTRACED` span, unless it is the kernel's own machinery
    (process resumption, event fan-out) or already a traced entry point.
    Wrapping changes no simulated behaviour: queue entries are ordered
    by (time, sequence number) alone."""
    from repro.sim import kernel as sim_kernel

    call_at = sim_kernel.Kernel.__dict__["call_at"]
    spawn = sim_kernel.Kernel.__dict__["spawn"]
    kernel_module = sim_kernel.__name__
    traced_steps = Tracer.steps.__code__
    nid = tracer.name_id(UNTRACED)
    enter, exit_ = tracer.enter, tracer.exit

    def dispatch_call_at(self, when, callback, value=None):
        fn = getattr(callback, "__func__", callback)
        if getattr(fn, "__module__", None) == kernel_module or hasattr(fn, _SPAN_ATTR):
            return call_at(self, when, callback, value)
        inner = callback

        def untraced(value):
            enter(nid)
            try:
                inner(value)
            finally:
                exit_()

        return call_at(self, when, untraced, value)

    def dispatch_spawn(self, generator, name=""):
        if getattr(generator, "gi_code", None) is not traced_steps:
            name = name or getattr(generator, "__name__", "process")
            generator = tracer.steps(nid, generator)
        return spawn(self, generator, name)

    return [
        (sim_kernel.Kernel, "call_at", dispatch_call_at),
        (sim_kernel.Kernel, "spawn", dispatch_spawn),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every entry point and the kernel's dispatch for the
    duration of the block."""
    saved = []
    try:
        for owner, attr, name, is_gen in _entry_points():
            original = owner.__dict__[attr]
            wrap = tracer.wrap_generator if is_gen else tracer.wrap
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(name, original))
        for owner, attr, replacement in _dispatch_patches(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_names() -> set:
    """Every span name a traced run can record."""
    return {name for _owner, _attr, name, _is_gen in _entry_points()} | {UNTRACED}
