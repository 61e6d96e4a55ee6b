"""Simulated-time-aware metrics: counters, gauges, log-bucketed histograms.

The registry is the platform-wide measurement substrate the paper's
tooling implies (§4.1, §6): every layer of the software twin -- the
event kernel, the ECI link and protocol agents, the BMC telemetry
service, the network stacks, and the application pipelines -- reports
into one :class:`MetricsRegistry`, stamped with *simulated* time
(``Kernel.now``, or a board clock) rather than wall time.

Zero-overhead contract
----------------------
A registry lookup (``counter``/``gauge``/``histogram``) sorts its label
set and searches the instrument table, so no hot path makes one:

* **Bind once.**  A series a component updates while it is built is
  looked up then and kept as an attribute.
* **Bind lazily per label set.**  Every other series goes through the
  registry's shared :class:`Family` for its metric, taken when the
  component is built; a family looks a series up on its first update.
* **No guards.**  Unobserved components bind :data:`NULL_REGISTRY`'s
  no-op instruments and call them; nothing sits in ``if self.obs:``.
* **Update through** ``Counter.inc``, ``Gauge.set/inc/dec`` and
  ``Histogram.observe``, never by assigning ``value``: the
  ``perfbench`` ledger counts updates by wrapping these names.

Model outputs are bit-identical with and without a registry attached
(covered by ``tests/obs``).
"""

from __future__ import annotations

import contextlib
import enum
import functools
import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

LabelsKey = Tuple[Tuple[str, str], ...]

#: Values at or below zero land in the histogram bucket with this bound.
ZERO_BUCKET = 0.0


class ObsError(ValueError):
    """An observability-API misuse (kind conflict, double finish, ...)."""


def labels_key(labels: Optional[Mapping[str, Any]]) -> LabelsKey:
    """Canonical, hashable form of a label set (sorted string pairs)."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class ObsEvent:
    """One timestamped update, recorded when the registry logs events."""

    t: float
    kind: str          # 'counter' | 'gauge' | 'histogram' | 'span_start' | 'span_end'
    name: str
    labels: LabelsKey
    value: float

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Instrument:
    """Common identity plumbing for one (name, labels) series."""

    kind = "instrument"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 key: LabelsKey, help: str = ""):
        self._registry = registry
        self.name = name
        self.labels_key = key
        self.help = help

    @property
    def labels(self) -> dict:
        return dict(self.labels_key)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.labels})"


class Counter(Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, registry, name, key, help=""):
        super().__init__(registry, name, key, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError(f"counter {self.name!r} can only increase, got {amount}")
        self.value += amount
        if self._registry.record_events:
            self._registry._record(self.kind, self.name, self.labels_key, self.value)


class Gauge(Instrument):
    """A value that can move in either direction."""

    kind = "gauge"

    def __init__(self, registry, name, key, help=""):
        super().__init__(registry, name, key, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        if self._registry.record_events:
            self._registry._record(self.kind, self.name, self.labels_key, self.value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)


@functools.lru_cache(maxsize=None)
def _bound_table(base: float) -> Tuple[float, ...]:
    """Every positive finite ``base ** e`` in increasing ``e``, then
    ``inf``.  The first is the smallest power that does not underflow
    to zero, so its bucket starts at 0."""
    low = 0
    while base ** (low - 1) > 0.0:
        low -= 1
    bounds: List[float] = []
    with contextlib.suppress(OverflowError):
        while True:
            bounds.append(base ** (low + len(bounds)))
    return (*bounds, math.inf)


class Histogram(Instrument):
    """Log-bucketed distribution: bucket *i* holds values in
    ``(base**(i-1), base**i]``; non-positive values share the
    :data:`ZERO_BUCKET`.  Exact powers of the base land on their own
    boundary (``observe(8)`` with base 2 goes to the ``le=8`` bucket).
    Values above the largest finite power of the base land in an
    ``inf`` bucket.
    """

    kind = "histogram"

    def __init__(self, registry, name, key, help="", base: float = 2.0):
        super().__init__(registry, name, key, help)
        if base <= 1.0:
            raise ObsError(f"histogram base must be > 1, got {base}")
        self.base = float(base)
        self._bounds = _bound_table(self.base)
        self._buckets: Dict[float, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def bucket_bound(self, value: float) -> float:
        """Upper bound of the bucket ``value`` falls into."""
        if value > 0.0:
            return self._bounds[bisect_left(self._bounds, value)]
        if value != value:
            raise ObsError(f"histogram {self.name!r} cannot bucket NaN")
        return ZERO_BUCKET

    def observe(self, value: float) -> None:
        value = float(value)
        bound = self.bucket_bound(value)
        self._buckets[bound] = self._buckets.get(bound, 0) + 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._registry.record_events:
            self._registry._record(self.kind, self.name, self.labels_key, value)

    def buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, count) pairs, sorted by bound."""
        return sorted(self._buckets.items())

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Instrument factory, event log, and tracer root for one system.

    ``clock`` supplies event timestamps; a :class:`repro.sim.Kernel`
    built with ``Kernel(obs=registry)`` installs its own ``now`` unless
    a clock was already set.  ``record_events`` turns on the append-only
    :attr:`events` log used by the JSON-lines exporter and the golden
    trace tests.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        record_events: bool = False,
        max_events: int = 1_000_000,
    ):
        self._clock = clock
        self.record_events = record_events
        self.max_events = max_events
        self.dropped_events = 0
        self.events: List[ObsEvent] = []
        self._instruments: Dict[Tuple[str, LabelsKey], Instrument] = {}
        self._families: Dict[str, Family] = {}
        # Imported here to avoid a cycle at module load time.
        from .tracer import Tracer

        self.tracer = Tracer(registry=self)

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def use_clock(self, clock: Callable[[], float], override: bool = True) -> None:
        """Install a time source; ``override=False`` keeps an existing one."""
        if override or self._clock is None:
            self._clock = clock

    # -- instrument factories --------------------------------------------

    def _get(self, cls, name: str, labels, help: str, **kwargs) -> Instrument:
        key = labels_key(labels)
        existing = self._instruments.get((name, key))
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObsError(
                    f"metric {name!r}{dict(key)} already registered as "
                    f"{existing.kind}, requested {cls.kind}"
                )
            if "base" in kwargs and existing.base != float(kwargs["base"]):
                raise ObsError(
                    f"histogram {name!r}{dict(key)} already registered with "
                    f"base {existing.base}, requested {kwargs['base']}"
                )
            return existing
        instrument = cls(self, name, key, help=help, **kwargs)
        self._instruments[(name, key)] = instrument
        return instrument

    def counter(self, name: str, labels: Optional[Mapping] = None,
                help: str = "") -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, labels: Optional[Mapping] = None,
              help: str = "") -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(self, name: str, labels: Optional[Mapping] = None,
                  help: str = "", base: float = 2.0) -> Histogram:
        return self._get(Histogram, name, labels, help, base=base)

    def family(self, kind: str, name: str, labels: Tuple[str, ...] = (),
               **kwargs) -> Family:
        """The one :class:`Family` of ``kind`` (``"counter"``, ``"gauge"``
        or ``"histogram"``) series named ``name``, shared by every
        component that declares it, so each series is looked up once."""
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = Family(self, kind, name, labels, **kwargs)
        elif (family.kind, family.labels) != (kind, tuple(labels)):
            raise ObsError(
                f"metric family {name!r} already declared as {family.kind} "
                f"{family.labels}, requested {kind} {tuple(labels)}"
            )
        return family

    # -- introspection ----------------------------------------------------

    def metrics(self) -> Iterator[Instrument]:
        """All instruments in deterministic (name, labels) order."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def snapshot(self) -> List[dict]:
        """Plain-data view of every instrument (exporter input)."""
        out = []
        for m in self.metrics():
            entry = {"kind": m.kind, "name": m.name, "labels": m.labels}
            if isinstance(m, Histogram):
                entry.update(
                    count=m.count,
                    sum=m.sum,
                    min=m.min,
                    max=m.max,
                    base=m.base,
                    buckets=[[bound, count] for bound, count in m.buckets()],
                )
            else:
                entry["value"] = m.value
            out.append(entry)
        return out

    # -- event log --------------------------------------------------------

    def _record(self, kind: str, name: str, key: LabelsKey, value: float) -> None:
        if not self.record_events:
            return
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(ObsEvent(self.now, kind, name, key, value))

    # -- checkpoint/restore (repro.snap) ---------------------------------
    #
    # The registry's state is every instrument's accumulated series plus
    # the (optional) event log.  A restore overwrites each checkpointed
    # series in place (instruments components bound stay exported) and
    # drops the rest, so updates emitted while a component was being
    # *re-constructed* (before restore) are discarded, not double-counted.

    SNAP_VERSION = 1

    def snapshot_state(self) -> dict:
        instruments = []
        for m in self.metrics():
            entry: dict = {
                "kind": m.kind,
                "name": m.name,
                "labels": [list(pair) for pair in m.labels_key],
                "help": m.help,
            }
            if isinstance(m, Histogram):
                entry.update(
                    base=m.base,
                    count=m.count,
                    sum=m.sum,
                    min=m.min,
                    max=m.max,
                    buckets=[[bound, count] for bound, count in m.buckets()],
                )
            else:
                entry["value"] = m.value
            instruments.append(entry)
        return {
            "instruments": instruments,
            "record_events": self.record_events,
            "max_events": self.max_events,
            "dropped_events": self.dropped_events,
            "events": [
                [e.t, e.kind, e.name, [list(pair) for pair in e.labels], e.value]
                for e in self.events
            ],
        }

    def restore_state(self, state: dict) -> None:
        kinds = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        previous, self._instruments = self._instruments, {}
        for entry in state["instruments"]:
            cls = kinds.get(entry["kind"])
            if cls is None:
                raise ObsError(f"unknown instrument kind {entry['kind']!r} in snapshot")
            key = (entry["name"], labels_key(dict(entry["labels"])))
            extra = {"base": entry["base"]} if cls is Histogram else {}
            metric = previous.get(key)
            if type(metric) is not cls or getattr(metric, "base", None) != extra.get("base"):
                metric = cls(self, *key, **extra)
            self._instruments[key] = metric
            metric.help = entry["help"]
            if cls is Histogram:
                metric.count, metric.sum = entry["count"], entry["sum"]
                metric.min, metric.max = entry["min"], entry["max"]
                metric._buckets = {float(bound): n for bound, n in entry["buckets"]}
            else:
                metric.value = entry["value"]
        for family in self._families.values():
            family.clear()  # re-bound on next use, to the restored series
        self.record_events = state["record_events"]
        self.max_events = state["max_events"]
        self.dropped_events = state["dropped_events"]
        self.events = [
            ObsEvent(t, kind, name, tuple(tuple(pair) for pair in labels), value)
            for t, kind, name, labels, value in state["events"]
        ]

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._instruments)} instruments, "
            f"{len(self.events)} events)"
        )


class Family(dict):
    """Every series of one metric in one registry, keyed by label
    values and bound on first use; get it from
    :meth:`MetricsRegistry.family`.

    ``family[v]``, ``family[v1, v2]`` (in the order of ``labels``) or
    ``family[()]`` is the series for those label values; an enum member
    labels by its name.  A missing key costs one registry lookup and is
    kept; a hit is a plain dict hit::

        self._ops = obs.family("counter", "kvs_ops_total", ("machine", "op"))
        ...
        self._ops[self.name, request.op].inc()
    """

    __slots__ = ("_registry", "kind", "name", "labels", "_kwargs")

    def __init__(self, registry, kind: str, name: str,
                 labels: Tuple[str, ...] = (), **kwargs):
        super().__init__()
        self._registry = registry
        self.kind = kind
        self.name = name
        self.labels = tuple(labels)
        self._kwargs = kwargs

    def __missing__(self, key):
        values = key if isinstance(key, tuple) else (key,)
        if len(values) != len(self.labels):
            raise ObsError(
                f"metric {self.name!r} takes labels {self.labels}, got {values!r}"
            )
        labels = {
            label: value.name if isinstance(value, enum.Enum) else value
            for label, value in zip(self.labels, values)
        }
        series = self[key] = getattr(self._registry, self.kind)(self.name, labels, **self._kwargs)
        return series


# -- null objects ----------------------------------------------------------

class _NullInstrument:
    """Shared no-op counter/gauge/histogram.  Falsy, stateless."""

    __slots__ = ()
    name = "null"
    help = ""
    labels_key: LabelsKey = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NULL_INSTRUMENT = _NullInstrument()


#: The one family of every null-registry metric: any label values map to
#: :data:`NULL_INSTRUMENT`, so unobserved components share it.
NULL_FAMILY: Dict[Any, _NullInstrument] = defaultdict(lambda: NULL_INSTRUMENT)


class NullRegistry:
    """Falsy registry handing out shared no-op instruments.

    The default ``obs`` of every instrumented component; attaching
    nothing must cost nothing and change nothing.
    """

    __slots__ = ("tracer",)
    record_events = False
    events: tuple = ()

    def __init__(self):
        from .tracer import NullTracer

        self.tracer = NullTracer()

    @property
    def now(self) -> float:
        return 0.0

    def use_clock(self, clock, override: bool = True) -> None:
        pass

    def counter(self, name, labels=None, help="") -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name, labels=None, help="") -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name, labels=None, help="", base: float = 2.0) -> _NullInstrument:
        return NULL_INSTRUMENT

    def family(self, kind: str, name: str, labels=(), **kwargs) -> Dict[Any, _NullInstrument]:
        return NULL_FAMILY

    def metrics(self):
        return iter(())

    def snapshot(self) -> list:
        return []

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NullRegistry()"


NULL_REGISTRY = NullRegistry()
