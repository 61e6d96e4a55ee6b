"""Registry, counter, gauge, and log-bucketed histogram behaviour."""

import enum
import math
import sys

import pytest
from hypothesis import given, strategies as st

from repro.obs import (
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    ObsError,
)
from repro.obs.metrics import ZERO_BUCKET


def test_counter_starts_at_zero_and_accumulates():
    r = MetricsRegistry()
    c = r.counter("x_total")
    assert c.value == 0.0
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5


def test_counter_rejects_decrease():
    c = MetricsRegistry().counter("x_total")
    with pytest.raises(ObsError):
        c.inc(-1)


def test_labelled_series_are_distinct():
    r = MetricsRegistry()
    a = r.counter("msgs_total", {"vc": "REQ"})
    b = r.counter("msgs_total", {"vc": "RSP"})
    a.inc(3)
    assert b.value == 0.0
    assert {m.labels["vc"] for m in r.metrics()} == {"REQ", "RSP"}


def test_same_name_and_labels_return_same_instrument():
    r = MetricsRegistry()
    assert r.counter("x", {"a": 1}) is r.counter("x", {"a": 1})
    # Label order and value stringification do not matter.
    assert r.counter("y", {"a": 1, "b": 2}) is r.counter("y", {"b": "2", "a": "1"})


def test_kind_conflict_raises():
    r = MetricsRegistry()
    r.counter("x")
    with pytest.raises(ObsError):
        r.gauge("x")
    with pytest.raises(ObsError):
        r.histogram("x")


def test_gauge_set_inc_dec():
    g = MetricsRegistry().gauge("depth")
    g.set(10)
    g.inc(5)
    g.dec(2)
    assert g.value == 13.0


def test_histogram_bucket_boundaries_are_log2():
    h = MetricsRegistry().histogram("lat_ns")
    for value, expected in [(1, 1.0), (1.5, 2.0), (2.0, 2.0), (2.01, 4.0),
                            (8, 8.0), (1000, 1024.0)]:
        assert h.bucket_bound(value) == expected, value


def test_histogram_nonpositive_values_share_zero_bucket():
    h = MetricsRegistry().histogram("lat_ns")
    h.observe(0.0)
    h.observe(-3.0)
    assert dict(h.buckets())[0.0] == 2


def test_histogram_count_sum_min_max_mean():
    h = MetricsRegistry().histogram("lat_ns")
    for v in [1.0, 4.0, 16.0]:
        h.observe(v)
    assert h.count == 3
    assert h.sum == 21.0
    assert h.min == 1.0
    assert h.max == 16.0
    assert h.mean == 7.0


def test_histogram_custom_base():
    h = MetricsRegistry().histogram("lat_ns", base=10.0)
    assert h.bucket_bound(9) == 10.0
    assert h.bucket_bound(10) == 10.0
    assert h.bucket_bound(11) == 100.0


def test_histogram_rejects_bad_base():
    with pytest.raises(ObsError):
        MetricsRegistry().histogram("x", base=1.0)


def test_histogram_rejects_reregistration_with_another_base():
    r = MetricsRegistry()
    r.histogram("x", base=1.25)
    with pytest.raises(ObsError, match="base"):
        r.histogram("x", base=2.0)


# -- bucketing contract: bucket i holds (base**(i-1), base**i] --------------

BASES = st.sampled_from([1.25, 2.0, 10.0])


def _power(base, exponent):
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _contract_bound(base, value):
    """The bound the documented contract assigns ``value``, found by
    walking exponents from a log estimate (independent of the table)."""
    i = math.ceil(math.log(value, base))
    while _power(base, i - 1) >= value:
        i -= 1
    while _power(base, i) < value:
        i += 1
    return _power(base, i)


@given(BASES, st.integers(min_value=-300, max_value=300))
def test_bucket_bound_exact_powers_and_their_neighbours(base, exponent):
    h = MetricsRegistry().histogram("x", base=base)
    bound = base ** exponent
    assert h.bucket_bound(bound) == bound
    assert h.bucket_bound(math.nextafter(bound, math.inf)) == base ** (exponent + 1)
    below = math.nextafter(bound, 0.0)
    assert h.bucket_bound(below) == bound
    assert _contract_bound(base, below) == bound


@given(BASES, st.floats(min_value=5e-324, max_value=sys.float_info.max))
def test_bucket_bound_matches_contract_for_positive_values(base, value):
    h = MetricsRegistry().histogram("x", base=base)
    assert h.bucket_bound(value) == _contract_bound(base, value)


@given(BASES, st.floats(max_value=0.0, allow_nan=False))
def test_bucket_bound_puts_zero_and_negatives_in_zero_bucket(base, value):
    assert MetricsRegistry().histogram("x", base=base).bucket_bound(value) == ZERO_BUCKET


@pytest.mark.parametrize("base", [1.25, 2.0, 10.0])
def test_bucket_bound_beyond_the_finite_powers(base):
    h = MetricsRegistry().histogram("x", base=base)
    top = max(_power(base, e) for e in range(5000) if _power(base, e) < math.inf)
    assert h.bucket_bound(top) == top
    assert h.bucket_bound(math.nextafter(top, math.inf)) == math.inf
    assert h.bucket_bound(sys.float_info.max) == _contract_bound(base, sys.float_info.max)
    assert h.bucket_bound(math.inf) == math.inf
    tiny = 5e-324  # smallest subnormal: the first bound at or above it
    assert h.bucket_bound(tiny) == _contract_bound(base, tiny)
    with pytest.raises(ObsError, match="NaN"):
        h.bucket_bound(math.nan)


def test_restore_state_keeps_bound_instruments_live():
    reg = MetricsRegistry()
    c = reg.counter("x")
    c.inc()
    reg.restore_state(reg.snapshot_state())
    c.inc()
    assert reg.counter("x").value == 2


def test_restore_state_drops_series_absent_from_the_checkpoint():
    reg = MetricsRegistry()
    reg.counter("kept").inc()
    state = reg.snapshot_state()
    reg.gauge("extra").set(3)
    reg.restore_state(state)
    assert [m.name for m in reg.metrics()] == ["kept"]


def test_family_binds_each_series_once_per_registry():
    reg = MetricsRegistry()
    lookups = []
    counter = reg.counter

    def counting_counter(name, labels=None, help=""):
        lookups.append(labels)
        return counter(name, labels, help)

    reg.counter = counting_counter
    first = reg.family("counter", "ops_total", ("machine", "op"))
    second = reg.family("counter", "ops_total", ("machine", "op"))
    assert first is second  # shared by every component that declares it
    assert list(reg.metrics()) == []  # nothing exported before an update
    for _ in range(3):
        first["m0", "get"].inc()
    second["m0", "put"].inc()
    assert lookups == [{"machine": "m0", "op": "get"}, {"machine": "m0", "op": "put"}]
    assert reg.counter("ops_total", {"op": "get", "machine": "m0"}).value == 3
    with pytest.raises(ObsError, match="labels"):
        first["m0"]
    with pytest.raises(ObsError, match="declared"):
        reg.family("gauge", "ops_total", ("machine", "op"))


def test_family_labels_enum_members_by_name():
    class Vc(enum.IntEnum):
        REQ = 0

    reg = MetricsRegistry()
    reg.family("counter", "msgs_total", ("vc",))[Vc.REQ].inc()
    assert [m.labels for m in reg.metrics()] == [{"vc": "REQ"}]


def test_family_rebinds_to_restored_series():
    reg = MetricsRegistry()
    family = reg.family("counter", "x", ("k",))
    family["a"].inc()
    state = reg.snapshot_state()
    family["b"].inc()  # absent from the checkpoint: leaves the table
    reg.restore_state(state)
    family["a"].inc()
    family["b"].inc()
    assert reg.counter("x", {"k": "a"}).value == 2
    assert reg.counter("x", {"k": "b"}).value == 1


def test_null_registry_family_hands_out_the_null_instrument():
    family = NULL_REGISTRY.family("counter", "x", ("k",))
    assert family["v"] is NULL_INSTRUMENT
    assert NULL_REGISTRY.family("histogram", "y")[()] is NULL_INSTRUMENT


def test_clock_stamps_events():
    t = [0.0]
    r = MetricsRegistry(clock=lambda: t[0], record_events=True)
    c = r.counter("x_total")
    c.inc()
    t[0] = 7.5
    c.inc()
    assert [e.t for e in r.events] == [0.0, 7.5]
    assert [e.value for e in r.events] == [1.0, 2.0]


def test_use_clock_override_false_keeps_existing():
    r = MetricsRegistry(clock=lambda: 11.0)
    r.use_clock(lambda: 99.0, override=False)
    assert r.now == 11.0
    r.use_clock(lambda: 99.0)
    assert r.now == 99.0


def test_events_off_by_default():
    r = MetricsRegistry()
    r.counter("x").inc()
    r.histogram("h").observe(1)
    assert r.events == []


def test_event_log_bounded():
    r = MetricsRegistry(record_events=True, max_events=3)
    c = r.counter("x")
    for _ in range(10):
        c.inc()
    assert len(r.events) == 3
    assert r.dropped_events == 7


def test_snapshot_is_deterministically_ordered():
    r = MetricsRegistry()
    r.counter("z_total").inc()
    r.gauge("a_gauge").set(1)
    r.counter("m_total", {"vc": "RSP"})
    r.counter("m_total", {"vc": "REQ"})
    names = [(e["name"], tuple(sorted(e["labels"].items()))) for e in r.snapshot()]
    assert names == sorted(names)


def test_null_registry_is_falsy_noop_singleton():
    assert not NULL_REGISTRY
    assert not NULL_INSTRUMENT
    assert NULL_REGISTRY.counter("x") is NULL_INSTRUMENT
    assert NULL_REGISTRY.gauge("x") is NULL_INSTRUMENT
    assert NULL_REGISTRY.histogram("x") is NULL_INSTRUMENT
    # All no-ops, no state.
    NULL_REGISTRY.counter("x").inc(5)
    NULL_REGISTRY.gauge("x").set(5)
    NULL_REGISTRY.histogram("x").observe(5)
    NULL_REGISTRY.use_clock(lambda: 1.0)
    assert NULL_REGISTRY.snapshot() == []
    assert list(NULL_REGISTRY.metrics()) == []
    assert isinstance(NULL_REGISTRY, NullRegistry)


def test_null_tracer_span_is_noop_context_manager():
    with NULL_REGISTRY.tracer.span("anything", key="value") as span:
        assert not span
    assert NULL_REGISTRY.tracer.finished == ()
