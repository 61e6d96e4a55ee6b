"""Gateway unit behavior: token bucket, shedding, cache, batching,
and the worker pool's schedule."""

import hashlib
import json

import pytest

from repro.config import FleetConfig
from repro.fleet import Rack
from repro.sim import Interrupt, Kernel
from repro.traffic import (
    Gateway,
    GatewayConfig,
    LruCache,
    Request,
    TokenBucket,
    TrafficConfig,
    TrafficEngine,
    build_classes,
)
from repro.traffic.config import RequestClassConfig

pytestmark = pytest.mark.traffic


# -- token bucket ----------------------------------------------------------

def test_token_bucket_burst_then_refill():
    bucket = TokenBucket(rate_per_ns=0.001, burst=3)  # 1 token per µs
    assert [bucket.take(0.0) for _ in range(3)] == [True, True, True]
    assert bucket.take(0.0) is False
    assert bucket.take(500.0) is False  # half a token accrued
    assert bucket.take(1_500.0) is True  # 1.5 tokens since t=0
    assert bucket.take(1_500.0) is False


def test_token_bucket_caps_at_burst():
    bucket = TokenBucket(rate_per_ns=1.0, burst=2)
    assert bucket.take(1e9) is True
    assert bucket.take(1e9) is True
    assert bucket.take(1e9) is False


# -- LRU cache -------------------------------------------------------------

def test_lru_cache_evicts_least_recently_used():
    cache = LruCache(2)
    cache.fill(b"a", b"1")
    cache.fill(b"b", b"2")
    assert cache.lookup(b"a") == b"1"  # refresh a
    cache.fill(b"c", b"3")  # evicts b
    assert cache.lookup(b"b") is None
    assert cache.lookup(b"a") == b"1"
    assert cache.lookup(b"c") == b"3"
    assert cache.evictions == 1


def test_lru_cache_invalidate_and_zero_slots():
    cache = LruCache(0)
    cache.fill(b"a", b"1")
    assert len(cache) == 0
    cache = LruCache(4)
    cache.fill(b"a", b"1")
    cache.invalidate(b"a")
    assert cache.lookup(b"a") is None


# -- service-class fixtures (no rack needed) -------------------------------

def _service_gateway(kernel, **gw_overrides):
    """A gateway over service-time classes only (no KVS clients)."""
    traffic = TrafficConfig(
        enabled=True,
        classes=(
            RequestClassConfig("recsys", weight=1.0),
            RequestClassConfig("gbdt", weight=1.0),
        ),
    )
    classes = {c.kind: c for c in build_classes(traffic)}
    gateway = Gateway(kernel, GatewayConfig(**gw_overrides), clients=[])
    return gateway, classes


def _request(kernel, cls, key=b"k"):
    return Request(cls, key, b"", "steady", kernel.now)


def test_queue_depth_shedding_is_typed():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(
        kernel, max_queue_depth=2, admit_rps=1e12, admit_burst=100,
        cache_slots=0, workers=1,
    )
    cls = classes["gbdt"]
    accepted = [gateway.submit(_request(kernel, cls)) for _ in range(5)]
    assert accepted == [True, True, False, False, False]
    assert gateway.stats["rejected_shed"] == 3
    assert gateway.stats["rejected_throttled"] == 0
    assert all(r.reason == "shed" for r in gateway.rejections)
    assert {r.kind for r in gateway.rejections} == {"gbdt"}


def test_token_bucket_throttling_is_typed():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(
        kernel, admit_rps=1_000.0, admit_burst=1, cache_slots=0,
    )
    cls = classes["gbdt"]
    assert gateway.submit(_request(kernel, cls)) is True
    assert gateway.submit(_request(kernel, cls)) is False
    assert gateway.stats["rejected_throttled"] == 1
    assert gateway.rejections[-1].reason == "throttled"


def test_rejected_requests_carry_their_outcome():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(
        kernel, admit_rps=1_000.0, admit_burst=1, cache_slots=0,
    )
    first = _request(kernel, classes["recsys"])
    second = _request(kernel, classes["recsys"])
    gateway.submit(first)
    gateway.submit(second)
    assert second.outcome == "rejected:throttled"


def test_admission_off_admits_everything():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(
        kernel, admission=False, admit_rps=1.0, admit_burst=1,
        max_queue_depth=1, cache_slots=0,
    )
    for _ in range(50):
        assert gateway.submit(_request(kernel, classes["gbdt"])) is True
    assert gateway.stats["admitted"] == 50
    assert not gateway.rejections


def test_cacheable_class_hits_after_first_serve():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(kernel, workers=1)
    kernel.spawn(gateway.worker(0), name="worker")
    cls = classes["recsys"]  # cacheable
    gateway.submit(_request(kernel, cls, key=b"user:1"))
    kernel.run()
    assert gateway.stats["completed"] == 1
    hit = _request(kernel, cls, key=b"user:1")
    gateway.submit(hit)
    assert hit.outcome == "cache_hit"
    kernel.run()
    assert gateway.stats["cache_hits"] == 1
    assert gateway.stats["completed"] == 2
    assert gateway.cache.hits == 1


def test_non_cacheable_class_never_hits():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(kernel, workers=1)
    kernel.spawn(gateway.worker(0), name="worker")
    cls = classes["gbdt"]  # not cacheable
    for _ in range(3):
        gateway.submit(_request(kernel, cls, key=b"same"))
        kernel.run()
    assert gateway.stats["cache_hits"] == 0


def test_batching_drains_bursts_in_one_batch():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(
        kernel, workers=1, batch_max=8, cache_slots=0,
    )
    kernel.spawn(gateway.worker(0), name="worker")
    for _ in range(8):
        gateway.submit(_request(kernel, classes["gbdt"]))
    kernel.run()
    assert gateway.stats["completed"] == 8
    assert gateway.stats["batches"] == 1
    assert gateway.stats["batched_requests"] == 8


def test_batch_max_one_disables_batching():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(
        kernel, workers=1, batch_max=1, batch_window_ns=0.0, cache_slots=0,
    )
    kernel.spawn(gateway.worker(0), name="worker")
    for _ in range(4):
        gateway.submit(_request(kernel, classes["gbdt"]))
    kernel.run()
    assert gateway.stats["batches"] == 4


# -- KVS write-through (needs a rack) --------------------------------------

def test_put_write_through_serves_the_next_get_from_cache():
    fleet = FleetConfig(enabled=True, machines=2, replication_factor=1, seed=5)
    rack = Rack(fleet)
    kernel = rack.kernel
    traffic = TrafficConfig(enabled=True)
    classes = {c.kind: c for c in build_classes(traffic)}
    client = rack.client("gw0")
    gateway = Gateway(kernel, GatewayConfig(workers=1), clients=[client])
    kernel.spawn(gateway.worker(0), name="worker")

    put = Request(classes["kvs_put"], b"u:1", b"profile", "steady", kernel.now)
    gateway.submit(put)
    kernel.run()
    assert put.outcome == "served"
    assert client.stats["puts_acked"] == 1

    get = Request(classes["kvs_get"], b"u:1", b"", "steady", kernel.now)
    gateway.submit(get)
    kernel.run()
    assert get.outcome == "cache_hit"
    assert gateway.stats["cache_hits"] == 1
    assert client.stats["gets"] == 0, "cache hit must not touch the backend"


# -- worker pool: the schedule is pinned, idle workers cost nothing ---------

KVS_DEADLINE_MIX = (
    RequestClassConfig("kvs_put", deadline_ns=20_000.0),
    RequestClassConfig("kvs_get", weight=3.0, deadline_ns=20_000.0),
)
KVS_MIX = (RequestClassConfig("kvs_put"), RequestClassConfig("kvs_get", weight=3.0))
QUORUM_NO_RETRY = dict(
    replication_factor=3, write_quorum=2, read_quorum=2, max_retries=0
)

#: name -> (gateway knobs, traffic knobs, fleet knobs, kill three boards
#: at this ns or None, digest).  Each digest covers (request index,
#: serving client port, finish ns, outcome) for every offered request;
#: they were recorded with the broadcast-wakeup worker pool that the
#: parked-worker FIFO replaced, so any change to which port serves a
#: request or when it finishes fails here.
POOL_SCHEDULES = {
    "burst_8_workers": (
        dict(workers=8), {}, {}, None,
        "be285c9e5ef2d072d036acb5ff1d12a2f88e7227202b8a1946a9c34e6d4c3cbd",
    ),
    "burst_24_workers": (
        dict(workers=24), {}, {}, None,
        "7f8812949af6cfea06027d765c8481d5f9cb7dec3b62f58d8607ba21fb567543",
    ),
    "no_batch_window": (
        dict(batch_window_ns=0.0), {}, {}, None,
        "2f42059e6f1b516a93a8f25c3957dc04c9de97c857d9736a3fbc15fcf075bdf9",
    ),
    "no_batch_overhead": (
        dict(batch_overhead_ns=0.0), {}, {}, None,
        "f61cbead14593e6eda48a27b9b7d91c7ed86a1cd82bef4db1d9928728c53f018",
    ),
    "batch_max_1": (
        dict(batch_max=1), {}, {}, None,
        "3a5c61b72a2034cffb56e6336d560a99d07817711567a77990cc3df04a4d99eb",
    ),
    "closed_loop": (
        {}, dict(mode="closed", closed_clients=32, think_ns=20_000.0), {}, None,
        "feaf288edab032b221fc79ee349558f72ef293524b4c8dc5fbff2bd16e44c61f",
    ),
    # Zero overhead with batches that finish inside the step that took
    # them (deadline and breaker sheds do not yield): the worker takes
    # its next batch in that same step.
    "no_batch_overhead_deadline_sheds": (
        dict(workers=4, batch_overhead_ns=0.0, cache_slots=0),
        dict(classes=KVS_DEADLINE_MIX), {}, None,
        "9fb8cde8e50bd0647dd21fadf165ac9c3bc13798ad7a8b92ce74fd1d5ac8ac9d",
    ),
    "no_batch_overhead_breaker_sheds": (
        dict(
            workers=4, batch_overhead_ns=0.0, batch_max=1, cache_slots=0,
            breaker_enabled=True, breaker_failures=2,
            breaker_reset_ns=10_000_000.0,
        ),
        dict(classes=KVS_MIX), QUORUM_NO_RETRY, 200_000.0,
        "396559681a2fc299a6691d20003e2908a124015fbb596031067d860b02685c06",
    ),
}


def _pool_schedule(gateway_kw, traffic_kw, fleet_kw, kill_at):
    """Run a small flash burst; return one row per offered request and
    the gateway's stats."""
    fleet = dict(enabled=True, machines=4, replication_factor=2, seed=0xBEEF)
    fleet.update(fleet_kw)
    rack = Rack(FleetConfig(**fleet))
    traffic = dict(
        enabled=True, users=100_000, per_user_rps=2.0, duration_ns=600_000.0,
        arrival="flash", flash_at_ns=150_000.0, flash_duration_ns=200_000.0,
        flash_multiplier=40.0, gateway=GatewayConfig(**gateway_kw),
    )
    traffic.update(traffic_kw)
    engine = TrafficEngine(rack, TrafficConfig(**traffic))
    gateway = engine.gateway
    # Requests are kept alive so that id() names one request only.
    offered, index, port, finish = [], {}, {}, {}
    submit, execute = gateway.submit, gateway._execute

    def record_submit(request):
        index[id(request)] = len(offered)
        offered.append(request)
        return submit(request)

    def record_execute(request, client):
        port[index[id(request)]] = client.address
        return execute(request, client)

    def record_finish(method):
        def finished(request, *reason):
            finish[index[id(request)]] = gateway.kernel.now
            return method(request, *reason)
        return finished

    gateway.submit, gateway._execute = record_submit, record_execute
    for name in ("_complete", "_fail", "_reject"):
        setattr(gateway, name, record_finish(getattr(gateway, name)))
    if kill_at is not None:
        def kill(_=None):
            for name in ("enzian1", "enzian2", "enzian3"):
                rack.kill(name)
        rack.kernel.call_at(kill_at, kill)
    engine.run()
    rows = [
        [i, port.get(i), finish[i], request.outcome]
        for i, request in enumerate(offered)
    ]
    return rows, gateway.stats


@pytest.mark.parametrize("name", sorted(POOL_SCHEDULES))
def test_worker_pool_schedule_is_pinned(name):
    gateway_kw, traffic_kw, fleet_kw, kill_at, digest = POOL_SCHEDULES[name]
    rows, stats = _pool_schedule(gateway_kw, traffic_kw, fleet_kw, kill_at)
    assert stats["batches"] > 0
    assert all(row[3] for row in rows), "every offered request finishes"
    got = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert got == digest


def _counting(generator, resumes, index):
    """Delegate to ``generator``, counting how often it is resumed."""
    value = None
    while True:
        value = yield generator.send(value)
        resumes[index] += 1


def test_one_submit_resumes_one_of_24_parked_workers():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(kernel, workers=24, cache_slots=0)
    resumes = [0] * 24
    for i in range(24):
        kernel.spawn(_counting(gateway.worker(i), resumes, i))
    kernel.run()
    parked = list(gateway._parked)
    assert len(parked) == 24 and resumes == [0] * 24

    request = _request(kernel, classes["gbdt"])
    gateway.submit(request)
    kernel.run()
    assert request.outcome == "served"
    assert resumes[0] > 0
    assert resumes[1:] == [0] * 23, "an idle worker resumed for nothing"
    # The 23 others kept their places; the one that served parks last.
    assert gateway._parked[:23] == parked[1:]
    assert len(gateway._parked) == 24


def test_interrupted_parked_worker_is_never_handed_a_batch():
    kernel = Kernel(seed=1)
    gateway, classes = _service_gateway(kernel, workers=3, cache_slots=0)
    interrupted, served_by = [], []
    execute = gateway._execute

    def record_execute(request, client):
        served_by.append(kernel.now)
        return execute(request, client)

    gateway._execute = record_execute

    def guarded(i):
        try:
            yield from gateway.worker(i)
        except Interrupt:
            interrupted.append(i)

    procs = [kernel.spawn(guarded(i)) for i in range(3)]
    kernel.run()
    # Interrupted while parked: it leaves the FIFO.
    procs[0].interrupt()
    kernel.run()
    assert interrupted == [0] and len(gateway._parked) == 2
    # Interrupted after submit handed it over, before it was dispatched.
    request = _request(kernel, classes["gbdt"])
    gateway.submit(request)
    procs[1].interrupt()
    kernel.run()
    assert interrupted == [0, 1]
    assert request.outcome == "served" and len(served_by) == 1
    assert procs[2].alive and len(gateway._parked) == 1
