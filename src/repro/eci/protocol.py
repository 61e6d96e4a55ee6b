"""The ECI coherence protocol: MOESI cache and directory agents.

Two kinds of agent participate:

* :class:`CacheAgent` -- the requesting side (the ThunderX-1's L2, or a
  caching controller on the FPGA).  Exposes ``read``/``write``
  simulation processes over 128-byte lines, with a finite LRU-managed
  line store and one outstanding transaction per line (MSHR).
* :class:`HomeAgent` -- the directory side for the address range it
  *homes*.  Processing is serialized per line: a per-line worker takes
  transactions from a FIFO, which makes the protocol simple to reason
  about (and matches the blocking-directory design used by the real
  implementation's bring-up configuration).

The design choices mirror the paper's description (§4.1): MOESI states,
128-byte lines, lines cacheable at home or requesting node, uncached
small I/O reads/writes, and inter-processor interrupts.

Race handling
-------------
The only unavoidable race under per-line home serialization is a probe
(FLDS/FLDX/FINV) overtaking a victim writeback: the cache has already
evicted the line when the probe arrives.  The cache answers ``FNAK``;
the home then waits for the in-flight ``VICD``/``VICC``, applies it,
and retries the stalled transaction.
"""

from __future__ import annotations

import enum
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..obs import NULL_REGISTRY
from ..sim import Channel, Event, Kernel, SimulationError
from .messages import (
    CACHE_LINE_BYTES,
    Message,
    MessageType,
    line_address,
)

ZERO_LINE = bytes(CACHE_LINE_BYTES)


class CacheState(enum.Enum):
    """MOESI stable states as seen by a cache agent."""

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


DIRTY_STATES = frozenset({CacheState.MODIFIED, CacheState.OWNED})
READABLE_STATES = frozenset(
    {CacheState.MODIFIED, CacheState.OWNED, CacheState.EXCLUSIVE, CacheState.SHARED}
)
WRITABLE_STATES = frozenset({CacheState.MODIFIED, CacheState.EXCLUSIVE})


class ProtocolError(SimulationError):
    """A protocol invariant was violated."""


class LineStore:
    """Backing memory for a home agent: line-granular, default zero."""

    def __init__(self):
        self._lines: Dict[int, bytes] = {}

    def read(self, addr: int) -> bytes:
        return self._lines.get(line_address(addr), ZERO_LINE)

    def write(self, addr: int, data: bytes) -> None:
        if len(data) != CACHE_LINE_BYTES:
            raise ValueError(f"line write must be {CACHE_LINE_BYTES} B")
        self._lines[line_address(addr)] = bytes(data)


class Transport:
    """Delivers messages between protocol nodes.

    Per-(src, dst, VC) ordering must be preserved by implementations.
    Passing a :class:`repro.obs.MetricsRegistry` as ``obs`` records
    per-VC message and byte counters for every send; agents attached to
    the transport inherit the same registry for their own counters.
    """

    def __init__(self, kernel: Kernel, obs=None):
        self.kernel = kernel
        self._nodes: Dict[int, "ProtocolNode"] = {}
        self.observers: list[Callable[[float, Message], None]] = []
        self.obs = registry = obs if obs is not None else NULL_REGISTRY
        self._messages = registry.family("counter", "eci_messages_total", ("vc",))
        self._bytes = registry.family("counter", "eci_bytes_total", ("vc",))
        if obs is not None:
            obs.use_clock(lambda: self.kernel.now, override=False)

    def attach(self, node: "ProtocolNode") -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node

    def send(self, message: Message) -> None:
        for observer in self.observers:
            observer(self.kernel.now, message)
        self._messages[message.vc].inc()
        self._bytes[message.vc].inc(message.wire_bytes)
        self._deliver(message)

    def _deliver(self, message: Message) -> None:
        raise NotImplementedError

    def _handoff(self, message: Message) -> None:
        node = self._nodes.get(message.dst)
        if node is None:
            raise ProtocolError(f"no node {message.dst} for {message}")
        node.receive(message)


class InstantTransport(Transport):
    """Fixed-latency delivery; latency 0 is valid for correctness tests."""

    def __init__(self, kernel: Kernel, latency_ns: float = 0.0, obs=None):
        super().__init__(kernel, obs=obs)
        self.latency_ns = latency_ns

    def _deliver(self, message: Message) -> None:
        self.kernel.call_after(self.latency_ns, lambda _: self._handoff(message))


class ProtocolNode:
    """Common plumbing: an id, a transport, and per-VC receive routing."""

    def __init__(self, kernel: Kernel, node_id: int, transport: Transport):
        self.kernel = kernel
        self.node_id = node_id
        self.transport = transport
        transport.attach(self)

    def receive(self, message: Message) -> None:
        raise NotImplementedError

    def send(self, message: Message) -> None:
        self.transport.send(message)


@dataclass
class _Mshr:
    """Miss status holding register: one outstanding transaction per line."""

    addr: int
    want_exclusive: bool
    done: Event
    line_lost: bool = False  # invalidated while the upgrade was in flight


@dataclass
class CacheLine:
    state: CacheState
    data: bytes


class CacheAgent(ProtocolNode):
    """A caching node: issues reads/writes, answers probes.

    ``capacity_lines`` bounds the store; a miss on a full cache evicts
    the least recently used line (VICD if dirty, VICC if clean).
    """

    def __init__(
        self,
        kernel: Kernel,
        node_id: int,
        transport: Transport,
        home_for: Callable[[int], int],
        capacity_lines: int = 4096,
        name: str = "",
    ):
        super().__init__(kernel, node_id, transport)
        if capacity_lines < 1:
            raise ValueError("capacity_lines must be >= 1")
        self.home_for = home_for
        self.capacity_lines = capacity_lines
        self.name = name or f"cache{node_id}"
        self.lines: "OrderedDict[int, CacheLine]" = OrderedDict()
        self._mshrs: Dict[int, _Mshr] = {}
        self._txids = itertools.count(1)
        self._io_waiters: Dict[int, Event] = {}
        self.ipi_handler: Optional[Callable[[Message], None]] = None
        self.state_observers: list[
            Callable[[int, int, CacheState, CacheState], None]
        ] = []
        self.stats = {
            "read_hits": 0,
            "read_misses": 0,
            "write_hits": 0,
            "write_misses": 0,
            "upgrades": 0,
            "evictions": 0,
            "probes": 0,
        }
        self.obs = transport.obs
        self._transitions = self.obs.family(
            "counter", "eci_state_transitions_total", ("node", "from", "to")
        )

    # -- public API (simulation processes) ------------------------------

    def read(self, addr: int):
        """Process: coherent read; returns the 128-byte line."""
        addr = line_address(addr)
        first_try = True
        while True:
            line = self._lookup(addr)
            if line is not None and line.state in READABLE_STATES:
                if first_try:
                    self.stats["read_hits"] += 1
                return line.data
            first_try = False
            self.stats["read_misses"] += 1
            yield from self._miss(addr, want_exclusive=False)

    def write(self, addr: int, data: bytes):
        """Process: coherent write of a full line."""
        if len(data) != CACHE_LINE_BYTES:
            raise ValueError(f"write must be a full {CACHE_LINE_BYTES}-B line")
        addr = line_address(addr)
        first_try = True
        while True:
            line = self._lookup(addr)
            if line is not None and line.state in WRITABLE_STATES:
                if first_try:
                    self.stats["write_hits"] += 1
                self._set_state(addr, line, CacheState.MODIFIED)
                line.data = bytes(data)
                return
            first_try = False
            if line is not None and line.state in (CacheState.SHARED, CacheState.OWNED):
                self.stats["upgrades"] += 1
                yield from self._miss(addr, want_exclusive=True, upgrade=True)
            else:
                self.stats["write_misses"] += 1
                yield from self._miss(addr, want_exclusive=True)

    def io_read(self, addr: int, size: int = 8):
        """Process: uncached I/O load (1..8 bytes)."""
        txid = next(self._txids)
        done = Event(f"{self.name}.io{txid}")
        self._io_waiters[txid] = done
        self.send(
            Message(
                MessageType.IOBLD,
                src=self.node_id,
                dst=self.home_for(addr),
                addr=addr,
                txid=txid,
            )
        )
        response = yield done
        return response.payload[:size]

    def io_write(self, addr: int, data: bytes):
        """Process: uncached I/O store (1..8 bytes), waits for the ack."""
        txid = next(self._txids)
        done = Event(f"{self.name}.io{txid}")
        self._io_waiters[txid] = done
        self.send(
            Message(
                MessageType.IOBST,
                src=self.node_id,
                dst=self.home_for(addr),
                addr=addr,
                txid=txid,
                payload=bytes(data),
            )
        )
        yield done

    def send_ipi(self, dst: int, vector: int) -> None:
        """Fire-and-forget inter-processor interrupt."""
        self.send(
            Message(MessageType.IPI, src=self.node_id, dst=dst, addr=vector)
        )

    def flush(self, addr: int):
        """Process: write back and drop one line (no-op when absent)."""
        addr = line_address(addr)
        line = self.lines.get(addr)
        if line is None:
            return
        if addr in self._mshrs:
            yield self._mshrs[addr].done
        self._evict(addr)
        yield self.kernel.timeout(0)

    # -- internals -------------------------------------------------------

    def _lookup(self, addr: int) -> Optional[CacheLine]:
        line = self.lines.get(addr)
        if line is not None:
            self.lines.move_to_end(addr)
        return line

    def _set_state(self, addr: int, line: CacheLine, new: CacheState) -> None:
        old = line.state
        line.state = new
        if old is not new:
            self._transitions[self.name, old.value, new.value].inc()
        for observer in self.state_observers:
            observer(self.node_id, addr, old, new)

    def _install(self, addr: int, state: CacheState, data: bytes) -> None:
        while len(self.lines) >= self.capacity_lines and addr not in self.lines:
            victim = next(iter(self.lines))
            if victim in self._mshrs:
                # Never evict a line with a transaction in flight; fall
                # back to the next-oldest line.
                candidates = [a for a in self.lines if a not in self._mshrs]
                if not candidates:
                    raise ProtocolError(f"{self.name}: all lines have MSHRs")
                victim = candidates[0]
            self._evict(victim)
        line = self.lines.get(addr)
        if line is None:
            line = CacheLine(CacheState.INVALID, data)
            self.lines[addr] = line
        line.data = bytes(data)
        self._set_state(addr, line, state)
        self.lines.move_to_end(addr)

    def _evict(self, addr: int) -> None:
        line = self.lines.pop(addr)
        self.stats["evictions"] += 1
        if line.state in DIRTY_STATES:
            self.send(
                Message(
                    MessageType.VICD,
                    src=self.node_id,
                    dst=self.home_for(addr),
                    addr=addr,
                    payload=line.data,
                )
            )
        else:
            self.send(
                Message(
                    MessageType.VICC,
                    src=self.node_id,
                    dst=self.home_for(addr),
                    addr=addr,
                )
            )
        self._set_state(addr, line, CacheState.INVALID)

    def _miss(self, addr: int, want_exclusive: bool, upgrade: bool = False):
        existing = self._mshrs.get(addr)
        if existing is not None:
            # Piggyback on the in-flight transaction, then re-evaluate.
            yield existing.done
            return
        txid = next(self._txids)
        mshr = _Mshr(addr, want_exclusive, Event(f"{self.name}.tx{txid}"))
        self._mshrs[addr] = mshr
        if upgrade:
            mtype = MessageType.RSTD
        elif want_exclusive:
            mtype = MessageType.RLDD
        else:
            mtype = MessageType.RLDS
        self.send(
            Message(
                mtype,
                src=self.node_id,
                dst=self.home_for(addr),
                addr=addr,
                txid=txid,
            )
        )
        yield mshr.done

    # -- message handling --------------------------------------------------

    def receive(self, message: Message) -> None:
        handler = {
            MessageType.PSHA: self._on_data_response,
            MessageType.PEMD: self._on_data_response,
            MessageType.PACK: self._on_pack,
            MessageType.FLDS: self._on_forward,
            MessageType.FLDX: self._on_forward,
            MessageType.FINV: self._on_finv,
            MessageType.HAKD: self._on_hakd,
            MessageType.IOBRSP: self._on_io_response,
            MessageType.IOBACK: self._on_io_response,
            MessageType.IPI: self._on_ipi,
        }.get(message.mtype)
        if handler is None:
            raise ProtocolError(f"{self.name}: unexpected {message}")
        handler(message)

    def _on_data_response(self, message: Message) -> None:
        mshr = self._mshrs.pop(message.addr, None)
        if mshr is None:
            raise ProtocolError(f"{self.name}: data response with no MSHR: {message}")
        if message.mtype is MessageType.PEMD:
            state = CacheState.EXCLUSIVE
        else:
            state = CacheState.SHARED
        self._install(message.addr, state, message.payload)
        mshr.done.succeed(self.kernel, message)

    def _on_pack(self, message: Message) -> None:
        mshr = self._mshrs.pop(message.addr, None)
        if mshr is None:
            raise ProtocolError(f"{self.name}: PACK with no MSHR: {message}")
        line = self.lines.get(message.addr)
        if line is None or line.state is CacheState.INVALID:
            raise ProtocolError(
                f"{self.name}: upgrade granted but line lost: {message}"
            )
        # An upgrade from OWNED keeps its dirty data; from SHARED the
        # grant is exclusive-clean.
        if line.state in DIRTY_STATES:
            self._set_state(message.addr, line, CacheState.MODIFIED)
        else:
            self._set_state(message.addr, line, CacheState.EXCLUSIVE)
        mshr.done.succeed(self.kernel, message)

    def _on_forward(self, message: Message) -> None:
        self.stats["probes"] += 1
        line = self.lines.get(message.addr)
        home = message.src
        if line is None or line.state is CacheState.INVALID:
            self.send(
                Message(
                    MessageType.FNAK,
                    src=self.node_id,
                    dst=home,
                    addr=message.addr,
                    txid=message.txid,
                )
            )
            return
        requester = message.requester
        if requester is None:
            raise ProtocolError(f"{self.name}: forward without requester: {message}")
        dirty = line.state in DIRTY_STATES
        self.send(
            Message(
                MessageType.PEMD if message.mtype is MessageType.FLDX else MessageType.PSHA,
                src=self.node_id,
                dst=requester,
                addr=message.addr,
                txid=message.txid,
                payload=line.data,
            )
        )
        # Tell the home the forward completed (and whether data was dirty,
        # encoded for the checker in the IACK's requester field).
        self.send(
            Message(
                MessageType.IACK,
                src=self.node_id,
                dst=home,
                addr=message.addr,
                txid=message.txid,
                requester=1 if dirty else 0,
            )
        )
        if message.mtype is MessageType.FLDX:
            self._set_state(message.addr, line, CacheState.INVALID)
            del self.lines[message.addr]
        else:
            new = CacheState.OWNED if dirty else CacheState.SHARED
            self._set_state(message.addr, line, new)

    def _on_finv(self, message: Message) -> None:
        self.stats["probes"] += 1
        line = self.lines.get(message.addr)
        if line is None or line.state is CacheState.INVALID:
            self.send(
                Message(
                    MessageType.FNAK,
                    src=self.node_id,
                    dst=message.src,
                    addr=message.addr,
                    txid=message.txid,
                )
            )
            return
        if line.state in DIRTY_STATES:
            raise ProtocolError(
                f"{self.name}: FINV hit dirty line in {line.state} at "
                f"{message.addr:#x}; home must use FLDX for owners"
            )
        self._set_state(message.addr, line, CacheState.INVALID)
        del self.lines[message.addr]
        mshr = self._mshrs.get(message.addr)
        if mshr is not None:
            mshr.line_lost = True
        self.send(
            Message(
                MessageType.IACK,
                src=self.node_id,
                dst=message.src,
                addr=message.addr,
                txid=message.txid,
            )
        )

    def _on_hakd(self, message: Message) -> None:
        # Victim writebacks are fire-and-forget from the cache's side.
        pass

    def _on_io_response(self, message: Message) -> None:
        waiter = self._io_waiters.pop(message.txid, None)
        if waiter is None:
            raise ProtocolError(f"{self.name}: unmatched I/O response {message}")
        waiter.succeed(self.kernel, message)

    def _on_ipi(self, message: Message) -> None:
        if self.ipi_handler is not None:
            self.ipi_handler(message)

    # -- introspection ---------------------------------------------------

    def state_of(self, addr: int) -> CacheState:
        line = self.lines.get(line_address(addr))
        return line.state if line is not None else CacheState.INVALID


@dataclass
class DirectoryEntry:
    """Home-side view of one line."""

    owner: Optional[int] = None
    sharers: Set[int] = field(default_factory=set)

    @property
    def idle(self) -> bool:
        return self.owner is None and not self.sharers


class HomeAgent(ProtocolNode):
    """Directory + memory backing for the address range this node homes.

    Each line gets a worker process that drains a FIFO of incoming
    transactions strictly one at a time.
    """

    def __init__(
        self,
        kernel: Kernel,
        node_id: int,
        transport: Transport,
        store: Optional[LineStore] = None,
        name: str = "",
        io_read_handler: Optional[Callable[[int, int], bytes]] = None,
        io_write_handler: Optional[Callable[[int, bytes], None]] = None,
    ):
        super().__init__(kernel, node_id, transport)
        self.name = name or f"home{node_id}"
        self.store = store if store is not None else LineStore()
        self.directory: Dict[int, DirectoryEntry] = {}
        self._line_queues: Dict[int, Channel] = {}
        self._completion_waiters: Dict[int, Event] = {}
        self._probe_txids = itertools.count(1)
        self.io_read_handler = io_read_handler
        self.io_write_handler = io_write_handler
        self.stats = {
            "requests": 0,
            "writebacks": 0,
            "forwards": 0,
            "invalidations": 0,
            "fnak_retries": 0,
            "io_ops": 0,
        }
        self.obs = obs = transport.obs
        self._requests = obs.family("counter", "eci_home_requests_total", ("type",))
        self._writebacks = obs.family("counter", "eci_writebacks_total", ("type",))
        self._forwards = obs.family("counter", "eci_forwards_total", ("type",))
        self._fnak_retries = obs.family("counter", "eci_fnak_retries_total")

    # -- message intake ---------------------------------------------------

    def receive(self, message: Message) -> None:
        if message.mtype in (MessageType.IACK, MessageType.FNAK):
            waiter = self._completion_waiters.pop(message.txid, None)
            if waiter is None:
                raise ProtocolError(f"{self.name}: unmatched {message}")
            waiter.succeed(self.kernel, message)
            return
        if message.mtype is MessageType.IOBLD:
            self.stats["io_ops"] += 1
            data = (
                self.io_read_handler(message.addr, 8)
                if self.io_read_handler
                else self.store.read(message.addr)[:8]
            )
            self.send(
                Message(
                    MessageType.IOBRSP,
                    src=self.node_id,
                    dst=message.src,
                    addr=message.addr,
                    txid=message.txid,
                    payload=bytes(data[:8]),
                )
            )
            return
        if message.mtype is MessageType.IOBST:
            self.stats["io_ops"] += 1
            if self.io_write_handler is not None:
                self.io_write_handler(message.addr, message.payload)
            self.send(
                Message(
                    MessageType.IOBACK,
                    src=self.node_id,
                    dst=message.src,
                    addr=message.addr,
                    txid=message.txid,
                )
            )
            return
        # Coherence traffic: enqueue on the per-line FIFO.
        addr = line_address(message.addr)
        queue = self._line_queues.get(addr)
        if queue is None:
            queue = Channel(name=f"{self.name}.q{addr:#x}")
            self._line_queues[addr] = queue
            self.kernel.spawn(self._line_worker(addr, queue), name=f"{self.name}.w{addr:#x}")
        queue.try_put_now(self.kernel, message)

    # -- per-line serialized processing ------------------------------------

    def _line_worker(self, addr: int, queue: Channel):
        while True:
            message = yield queue.get()
            if message.mtype in (MessageType.VICD, MessageType.VICC):
                self._apply_writeback(message)
            elif message.mtype in (MessageType.RLDS, MessageType.RLDD, MessageType.RSTD):
                self.stats["requests"] += 1
                self._requests[message.mtype].inc()
                yield from self._handle_request(addr, queue, message)
            else:
                raise ProtocolError(f"{self.name}: unexpected on line queue: {message}")

    def _apply_writeback(self, message: Message) -> None:
        self.stats["writebacks"] += 1
        self._writebacks[message.mtype].inc()
        addr = line_address(message.addr)
        entry = self.directory.setdefault(addr, DirectoryEntry())
        if message.mtype is MessageType.VICD:
            self.store.write(addr, message.payload)
        if entry.owner == message.src:
            entry.owner = None
        entry.sharers.discard(message.src)
        self.send(
            Message(
                MessageType.HAKD,
                src=self.node_id,
                dst=message.src,
                addr=addr,
                txid=message.txid,
            )
        )

    def _handle_request(self, addr: int, queue: Channel, message: Message):
        entry = self.directory.setdefault(addr, DirectoryEntry())
        requester = message.src
        want_exclusive = message.mtype in (MessageType.RLDD, MessageType.RSTD)

        # A plain (non-upgrade) request from a node the directory still
        # records means that node's victim writeback is in flight on the
        # WB circuit and was overtaken by the new request on the REQ
        # circuit.  Absorb the writeback first.
        if message.mtype in (MessageType.RLDS, MessageType.RLDD):
            while entry.owner == requester or requester in entry.sharers:
                yield from self._absorb_writeback_from(addr, queue, requester)

        if want_exclusive:
            # Invalidate all clean sharers other than the requester.
            for sharer in sorted(entry.sharers - {requester, entry.owner}):
                yield from self._probe_until_applied(
                    addr, queue, MessageType.FINV, sharer, requester, message.txid
                )
                entry.sharers.discard(sharer)
            if entry.owner is not None and entry.owner != requester:
                owner = entry.owner
                completed = yield from self._probe_until_applied(
                    addr, queue, MessageType.FLDX, owner, requester, message.txid
                )
                entry.sharers.discard(owner)
                if completed:
                    # Owner supplied PEMD directly to the requester.
                    entry.owner = requester
                    entry.sharers = set()
                    return
                entry.owner = None
            # Requester may have been a sharer (upgrade) or not.
            if message.mtype is MessageType.RSTD and entry.owner == requester:
                # Upgrade from OWNED: the requester already holds the only
                # valid (dirty) copy, so it must keep its data.
                entry.sharers = set()
                self.send(
                    Message(
                        MessageType.PACK,
                        src=self.node_id,
                        dst=requester,
                        addr=addr,
                        txid=message.txid,
                    )
                )
                return
            if message.mtype is MessageType.RSTD and requester in entry.sharers:
                entry.sharers = set()
                entry.owner = requester
                self.send(
                    Message(
                        MessageType.PACK,
                        src=self.node_id,
                        dst=requester,
                        addr=addr,
                        txid=message.txid,
                    )
                )
                return
            entry.sharers = set()
            entry.owner = requester
            self.send(
                Message(
                    MessageType.PEMD,
                    src=self.node_id,
                    dst=requester,
                    addr=addr,
                    txid=message.txid,
                    payload=self.store.read(addr),
                )
            )
            return

        # Shared read.
        if entry.owner is not None and entry.owner != requester:
            owner = entry.owner
            completed = yield from self._probe_until_applied(
                addr, queue, MessageType.FLDS, owner, requester, message.txid
            )
            if completed:
                entry.sharers.add(requester)
                entry.sharers.add(owner)
                return
            entry.owner = None
        if entry.idle:
            # Exclusive-clean optimization: sole reader gets E.
            entry.owner = requester
            self.send(
                Message(
                    MessageType.PEMD,
                    src=self.node_id,
                    dst=requester,
                    addr=addr,
                    txid=message.txid,
                    payload=self.store.read(addr),
                )
            )
            return
        entry.sharers.add(requester)
        self.send(
            Message(
                MessageType.PSHA,
                src=self.node_id,
                dst=requester,
                addr=addr,
                txid=message.txid,
                payload=self.store.read(addr),
            )
        )

    def _probe_until_applied(
        self,
        addr: int,
        queue: Channel,
        mtype: MessageType,
        target: int,
        requester: int,
        txid: int,
    ):
        """Probe ``target``; on FNAK, absorb the in-flight writeback and
        report that the probe found nothing.

        Returns True when the probe completed at the target (IACK),
        False when the target had already evicted the line.
        """
        self.stats["forwards"] += 1
        if mtype is MessageType.FINV:
            self.stats["invalidations"] += 1
        self._forwards[mtype].inc()
        probe_txid = next(self._probe_txids)
        done = Event(f"{self.name}.probe{probe_txid}->{target}")
        self._completion_waiters[probe_txid] = done
        self.send(
            Message(
                mtype,
                src=self.node_id,
                dst=target,
                addr=addr,
                txid=probe_txid,
                requester=requester,
            )
        )
        reply = yield done
        if reply.mtype is MessageType.IACK:
            return True
        # FNAK: a VICD/VICC from the target is in flight; wait for it on
        # this line's queue, apply it, and report the miss.
        self.stats["fnak_retries"] += 1
        self._fnak_retries[()].inc()
        yield from self._absorb_writeback_from(addr, queue, target)
        return False

    def _absorb_writeback_from(self, addr: int, queue: Channel, source: int):
        """Drain the line queue until ``source``'s writeback arrives.

        Other writebacks are applied as encountered; overtaken requests
        are requeued behind the writeback.
        """
        deferred = []
        while True:
            pending = yield queue.get()
            if pending.mtype in (MessageType.VICD, MessageType.VICC):
                self._apply_writeback(pending)
                if pending.src == source:
                    break
                continue
            # A request overtook the writeback; set it aside so the
            # blocking ``get`` above can advance simulated time.
            deferred.append(pending)
        for msg in deferred:
            queue.try_put_now(self.kernel, msg)

    # -- introspection ---------------------------------------------------

    def entry(self, addr: int) -> DirectoryEntry:
        return self.directory.setdefault(line_address(addr), DirectoryEntry())
