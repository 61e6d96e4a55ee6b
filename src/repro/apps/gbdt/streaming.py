"""Double-buffered streaming inference (§5.3).

"Double-buffering is used to overlap data copying and computation,
efficiently hiding latency."  This module runs that structure for real
in the simulator: tuples stream from host memory into two FPGA-side
buffers; while the engine computes over buffer A, the DMA fills buffer
B.  The measurable claim: with balanced copy/compute times the
pipelined run approaches ``max(copy, compute)`` per batch instead of
``copy + compute``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ...obs import NULL_REGISTRY
from ...sim import Kernel, Resource
from .accel import GbdtAccelerator, TUPLE_BYTES


@dataclass(frozen=True)
class StreamingResult:
    """Outcome of one streaming run."""

    batches: int
    total_ns: float
    copy_ns_per_batch: float
    compute_ns_per_batch: float
    predictions: np.ndarray

    @property
    def overlap_efficiency(self) -> float:
        """1.0 = perfect overlap (total == max per-batch cost)."""
        serial = self.batches * (self.copy_ns_per_batch + self.compute_ns_per_batch)
        ideal = (
            self.copy_ns_per_batch
            + self.batches * max(self.copy_ns_per_batch, self.compute_ns_per_batch)
        )
        if serial == ideal:
            return 1.0
        return (serial - self.total_ns) / (serial - ideal)


def run_streaming_inference(
    accelerator: GbdtAccelerator,
    features: np.ndarray,
    batch_tuples: int = 1024,
    host_bandwidth_bytes_per_ns: float = 10.0,
    double_buffered: bool = True,
    obs=None,
) -> StreamingResult:
    """Simulate streaming ``features`` through the engine.

    Copy time comes from the host link bandwidth; compute time from the
    engine's tuples/s.  Predictions are computed functionally on the
    same batch boundaries, so results are exactly the ensemble's.

    With a registry attached as ``obs``, each batch reports per-stage
    latency histograms (``app_gbdt_stage_ns`` for copy / compute /
    total, the last including buffer and engine queueing) and a tuple
    counter; observation never perturbs the schedule.
    """
    obs = obs if obs is not None else NULL_REGISTRY
    stage_ns = obs.family("histogram", "app_gbdt_stage_ns", ("stage",))
    tuples = obs.family("counter", "app_gbdt_tuples_total")
    if batch_tuples < 1:
        raise ValueError("batch_tuples must be positive")
    features = np.asarray(features)
    batches = [
        features[i : i + batch_tuples] for i in range(0, len(features), batch_tuples)
    ]
    if not batches:
        raise ValueError("no input tuples")

    copy_ns = batch_tuples * TUPLE_BYTES / host_bandwidth_bytes_per_ns
    compute_ns = batch_tuples / accelerator.throughput_tuples_per_s * 1e9

    kernel = Kernel()
    buffers = Resource(capacity=2 if double_buffered else 1)
    dma_busy = Resource(capacity=1)     # one physical DMA engine
    engine_busy = Resource(capacity=1)  # one compute engine
    predictions: List[np.ndarray] = [None] * len(batches)  # type: ignore

    def batch_pipeline(index: int, batch: np.ndarray):
        # Stage 1: claim a buffer, then the DMA engine, and copy in.
        t_start = kernel.now
        yield buffers.acquire()
        yield dma_busy.acquire()
        t_copy = kernel.now
        yield kernel.timeout(copy_ns)  # pooled: one Timeout per distinct delay
        stage_ns["copy"].observe(kernel.now - t_copy)
        dma_busy.release(kernel)
        # Stage 2: the (single) engine computes; the buffer frees when
        # the compute drains it.
        yield engine_busy.acquire()
        t_compute = kernel.now
        yield kernel.timeout(compute_ns * len(batch) / batch_tuples)
        predictions[index] = accelerator.infer(batch)
        stage_ns["compute"].observe(kernel.now - t_compute)
        stage_ns["total"].observe(kernel.now - t_start)
        tuples[()].inc(len(batch))
        engine_busy.release(kernel)
        buffers.release(kernel)

    def source():
        for index, batch in enumerate(batches):
            # Batches are issued in order; buffer availability provides
            # the back-pressure.
            yield kernel.spawn(batch_pipeline(index, batch))

    if double_buffered:
        # Issue all batches; buffer pool (2) limits concurrency.
        for index, batch in enumerate(batches):
            kernel.spawn(batch_pipeline(index, batch))
        kernel.run()
    else:
        kernel.run_process(source())

    return StreamingResult(
        batches=len(batches),
        total_ns=kernel.now,
        copy_ns_per_batch=copy_ns,
        compute_ns_per_batch=compute_ns,
        predictions=np.concatenate(predictions),
    )
