"""A reliable byte-stream protocol over lossy Ethernet (Go-Back-N).

This is the transport machinery under both TCP stack models: sequence
numbers, cumulative acknowledgements, a sliding window, and timeout
retransmission.  It runs as real simulation processes over the
:mod:`repro.net.ethernet` links, so loss, reordering through the
switch, and retransmission behaviour are all exercised for real in the
tests -- the performance *models* in :mod:`repro.net.tcp` then stand on
measured protocol behaviour rather than hand-waving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..obs import NULL_REGISTRY
from ..sim import Event, Kernel, Timeout
from .ethernet import EthernetLink, Frame


@dataclass(frozen=True)
class Segment:
    """Payload carried inside a frame: data or a cumulative ACK."""

    kind: str                 # 'data' | 'ack' | 'fin'
    seq: int                  # data: segment index; ack: next expected index
    data: bytes = b""


class TransferAborted(ConnectionError):
    """A reliable transfer gave up after exhausting its retry budget.

    Carries enough state for give-up accounting: how far the transfer
    got, how many timeouts it burned, and the sender's stats snapshot.
    """

    def __init__(self, local: str, retries: int, delivered: int, total: int,
                 stats: Optional[dict] = None):
        super().__init__(
            f"{local}: aborted after {retries} consecutive timeouts "
            f"({delivered}/{total} segments acked)"
        )
        self.local = local
        self.retries = retries
        self.delivered = delivered
        self.total = total
        self.stats = dict(stats or {})


class ReliableSender:
    """Go-Back-N sender over one link endpoint."""

    def __init__(
        self,
        kernel: Kernel,
        link: EthernetLink,
        local: str,
        remote: str,
        window: int = 32,
        mtu: int = 1500,
        timeout_ns: float = 2_000_000.0,  # 2 ms retransmission timer
        max_retries: int = 50,
        backoff: float = 1.0,
        max_timeout_ns: float = 64_000_000.0,
        jitter: float = 0.0,
        breaker=None,
        obs=None,
    ):
        self.obs = obs = obs if obs is not None else NULL_REGISTRY
        self._acks = obs.family("counter", "net_acks_total")
        self._segments_sent = obs.family("counter", "net_segments_sent_total")
        self._aborted = obs.family("counter", "net_transfers_aborted_total")
        self._retransmits = obs.family("counter", "net_retransmits_total")
        if window < 1:
            raise ValueError("window must be >= 1")
        if mtu < 64:
            raise ValueError("mtu too small")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.kernel = kernel
        self.link = link
        self.local = local
        self.remote = remote
        self.window = window
        self.mtu = mtu
        self.timeout_ns = timeout_ns
        self.max_retries = max_retries
        #: Multiplier applied to the retransmission timer per consecutive
        #: timeout (1.0 = fixed timer, the historical behaviour).
        self.backoff = backoff
        self.max_timeout_ns = max_timeout_ns
        #: Uniform jitter fraction on each backed-off timer, drawn from
        #: the kernel's seeded RNG so retransmission schedules stay
        #: deterministic per seed.  0.0 (the default) draws nothing and
        #: is bit-identical to the un-jittered sender.
        self.jitter = jitter
        #: Optional :class:`repro.health.CircuitBreaker` guarding this
        #: path: checked at send() entry, informed of the outcome.
        self.breaker = breaker
        self.base = 0                 # oldest unacked segment
        self.next_seq = 0
        self._segments: List[bytes] = []
        self._ack_event: Optional[Event] = None
        self.stats = {"sent": 0, "retransmitted": 0, "acks": 0, "aborted": 0}
        link.attach(f"{local}#tx", self._on_frame)

    def _on_frame(self, frame: Frame) -> None:
        segment: Segment = frame.payload
        if segment.kind != "ack":
            return
        self.stats["acks"] += 1
        self._acks[()].inc()
        if segment.seq > self.base:
            self.base = segment.seq
            if self._ack_event is not None and not self._ack_event.fired:
                self._ack_event.succeed(self.kernel)

    def _transmit(self, index: int) -> None:
        data = self._segments[index]
        self.link.send(
            Frame(
                src=self.local,
                dst=f"{self.remote}#rx",
                payload=Segment("data", index, data),
                size_bytes=len(data) + 40,  # TCP/IP header
                seq=index,
            )
        )
        self.stats["sent"] += 1
        self._segments_sent[()].inc()

    def send(self, payload: bytes):
        """Process: reliably deliver ``payload``; returns stats dict."""
        if self.breaker is not None:
            self.breaker.check()
        self._segments = [
            payload[i : i + self.mtu] for i in range(0, len(payload), self.mtu)
        ] or [b""]
        total = len(self._segments)
        self.base = 0
        self.next_seq = 0
        retries = 0
        timeout_ns = self.timeout_ns
        while self.base < total:
            # Fill the window.
            while self.next_seq < min(self.base + self.window, total):
                self._transmit(self.next_seq)
                self.next_seq += 1
            # Wait for an ACK advancing the base, or a timeout.
            self._ack_event = Event("ack")
            before = self.base
            index, _ = yield _first_of(self.kernel, self._ack_event, timeout_ns)
            if self.base == before and index == 1:
                # Timeout with no progress: go back N.
                retries += 1
                if retries > self.max_retries:
                    self.stats["aborted"] += 1
                    self._aborted[()].inc()
                    if self.breaker is not None:
                        self.breaker.record_failure()
                    raise TransferAborted(
                        self.local, retries, self.base, total, stats=self.stats
                    )
                timeout_ns = min(timeout_ns * self.backoff, self.max_timeout_ns)
                if self.jitter:
                    # Desynchronise retransmission storms: uniform jitter
                    # on the backed-off timer, drawn from the kernel's
                    # seeded RNG for per-seed determinism.
                    timeout_ns *= 1.0 + self.jitter * self.kernel.rng.random()
                self.stats["retransmitted"] += self.next_seq - self.base
                self._retransmits[()].inc(self.next_seq - self.base)
                self.next_seq = self.base
            elif self.base != before:
                retries = 0
                timeout_ns = self.timeout_ns
        # Record completion time: the kernel may keep running until the
        # last (orphaned) retransmission timer expires, so callers must
        # not use kernel.now for goodput.
        stats = dict(self.stats)
        stats["finish_ns"] = self.kernel.now
        if self.breaker is not None:
            self.breaker.record_success()
        return stats

    # -- checkpoint/restore (repro.snap) ---------------------------------
    #
    # A transfer in flight lives in the send() coroutine frame, so a
    # sender is only snapshot-safe *between* transfers; the window
    # position and lifetime statistics are the explicit state.

    SNAP_VERSION = 1

    def snapshot_state(self) -> dict:
        if self._ack_event is not None and not self._ack_event.fired:
            from ..snap.protocol import SnapshotError

            raise SnapshotError(
                f"sender {self.local!r} has a transfer in flight; "
                "snapshot only between transfers"
            )
        return {
            "base": self.base,
            "next_seq": self.next_seq,
            "stats": dict(self.stats),
        }

    def restore_state(self, state: dict) -> None:
        self.base = state["base"]
        self.next_seq = state["next_seq"]
        self.stats.update(state["stats"])


def _first_of(kernel: Kernel, event: Event, timeout_ns: float):
    """AnyOf(event, timeout): yields (0, _) on event, (1, _) on timeout."""
    from ..sim import AnyOf

    return AnyOf([event, Timeout(timeout_ns)])


class ReliableReceiver:
    """Go-Back-N receiver: in-order delivery with cumulative ACKs."""

    def __init__(
        self,
        kernel: Kernel,
        link: EthernetLink,
        local: str,
        remote: str,
        deliver: Optional[Callable[[bytes], None]] = None,
    ):
        self.kernel = kernel
        self.link = link
        self.local = local
        self.remote = remote
        self.expected = 0
        self.received = bytearray()
        self.deliver = deliver
        self.stats = {"accepted": 0, "discarded": 0}
        link.attach(f"{local}#rx", self._on_frame)

    def _on_frame(self, frame: Frame) -> None:
        segment: Segment = frame.payload
        if segment.kind != "data":
            return
        if segment.seq == self.expected:
            self.expected += 1
            self.received.extend(segment.data)
            self.stats["accepted"] += 1
            if self.deliver is not None:
                self.deliver(segment.data)
        else:
            self.stats["discarded"] += 1
        # Cumulative ACK (also re-ACKs duplicates, triggering fast resend
        # of nothing -- GBN relies on sender timeout).
        self.link.send(
            Frame(
                src=self.local,
                dst=f"{self.remote}#tx",
                payload=Segment("ack", self.expected),
                size_bytes=40,
            )
        )

    @property
    def data(self) -> bytes:
        return bytes(self.received)

    # -- checkpoint/restore (repro.snap) ---------------------------------

    SNAP_VERSION = 1

    def snapshot_state(self) -> dict:
        return {
            "expected": self.expected,
            "received": bytes(self.received),
            "stats": dict(self.stats),
        }

    def restore_state(self, state: dict) -> None:
        self.expected = state["expected"]
        self.received = bytearray(state["received"])
        self.stats.update(state["stats"])
