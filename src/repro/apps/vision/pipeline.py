"""The §5.4 machine-vision pipeline: functional and performance views.

Functional: ``soft_pipeline`` does RGB2Y + blur entirely on the CPU;
``hard_pipeline`` consumes a luminance view produced by the FPGA's
data-reduction engine (identical bytes for 8 bpp, quantized for 4 bpp)
and applies the blur.  Performance: :class:`VisionPerformanceModel`
reproduces Figure 11 (throughput and interconnect bandwidth vs core
count) and Table 1 (PMU counts), calibrated against the paper's
measurements.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ...cpu.pmu import PmuReport
from ...obs import NULL_REGISTRY
from ...sim.units import GIB
from .blur import gaussian_blur3
from .frames import BYTES_PER_PIXEL
from .rgb2y import dequantize4, pack4, quantize4, rgb_to_y, unpack4


class ReductionMode(enum.Enum):
    """What the FPGA does before the CPU sees the data (§A.6.4)."""

    NONE = "rgba"   # CPU reads raw RGBA, converts and blurs in software
    Y8 = "8bpp"     # FPGA converts to 8-bit luminance
    Y4 = "4bpp"     # FPGA converts and quantizes to 4 bits per pixel


# -- functional pipelines ---------------------------------------------------

def _observe_stage(obs, stage: str, t0_ns: int) -> int:
    """Record one wall-clock stage duration; returns a fresh stage start."""
    t1 = time.perf_counter_ns()
    obs.histogram("app_vision_stage_ns", {"stage": stage}).observe(t1 - t0_ns)
    return t1


def _count_frame(obs, mode: "ReductionMode", pixels: int) -> None:
    obs.counter("app_vision_frames_total", {"mode": mode.value}).inc()
    obs.counter("app_vision_pixels_total").inc(pixels)


def soft_pipeline(frame: np.ndarray, obs=None) -> np.ndarray:
    """All-software reference: RGB2Y then blur."""
    obs = obs if obs is not None else NULL_REGISTRY
    t = time.perf_counter_ns()
    y = rgb_to_y(frame)
    t = _observe_stage(obs, "rgb2y", t)
    blurred = gaussian_blur3(y)
    _observe_stage(obs, "blur", t)
    _count_frame(obs, ReductionMode.NONE, frame.shape[0] * frame.shape[1])
    return blurred


def reduce_frame(frame: np.ndarray, mode: ReductionMode) -> np.ndarray:
    """What the FPGA's reduction engine hands the CPU, per mode."""
    if mode is ReductionMode.NONE:
        return frame
    y = rgb_to_y(frame)
    if mode is ReductionMode.Y8:
        return y
    return pack4(quantize4(y)).reshape(y.shape[0], y.shape[1] // 2)


def hard_pipeline(reduced: np.ndarray, mode: ReductionMode, obs=None) -> np.ndarray:
    """The CPU side after hardware reduction: (unpack +) blur."""
    if mode is ReductionMode.NONE:
        return soft_pipeline(reduced, obs=obs)
    obs = obs if obs is not None else NULL_REGISTRY
    t = time.perf_counter_ns()
    if mode is ReductionMode.Y8:
        y = reduced
    else:
        codes = unpack4(reduced.reshape(-1)).reshape(
            reduced.shape[0], reduced.shape[1] * 2
        )
        t = _observe_stage(obs, "unpack", t)
        y = dequantize4(codes)
    blurred = gaussian_blur3(y)
    _observe_stage(obs, "blur", t)
    _count_frame(obs, mode, y.shape[0] * y.shape[1])
    return blurred


# -- performance model ---------------------------------------------------

@dataclass(frozen=True)
class ModeTiming:
    """Per-pixel costs for one reduction mode.

    ``stall_per_refill_cycles`` is the *effective* stall per remote L2
    refill after the ThunderX-1's stride prefetchers have hidden most of
    the raw ~400-cycle latency; it grows for the 4 bpp mode because each
    refill triggers a 1 KiB DRAM burst behind the reduction engine
    ("we need to read 1 KiB from DRAM at this point for each cache
    line", §5.4).
    """

    compute_cycles_per_px: float
    interconnect_bytes_per_px: float
    stall_per_refill_cycles: float

    @property
    def refills_per_px(self) -> float:
        return self.interconnect_bytes_per_px / 128.0

    @property
    def stall_cycles_per_px(self) -> float:
        return self.refills_per_px * self.stall_per_refill_cycles

    @property
    def cycles_per_px(self) -> float:
        return self.compute_cycles_per_px + self.stall_cycles_per_px


#: Calibrated against Table 1 and the 33 Mpx/s/core baseline (§5.4).
RGB2Y_CYCLES = 15.96
BLUR_CYCLES = 40.10
UNPACK4_CYCLES = 2.70

MODE_TIMINGS: Dict[ReductionMode, ModeTiming] = {
    ReductionMode.NONE: ModeTiming(
        compute_cycles_per_px=RGB2Y_CYCLES + BLUR_CYCLES,
        interconnect_bytes_per_px=4.0,
        stall_per_refill_cycles=46.0,
    ),
    ReductionMode.Y8: ModeTiming(
        compute_cycles_per_px=BLUR_CYCLES,
        interconnect_bytes_per_px=1.0,
        stall_per_refill_cycles=26.0,
    ),
    ReductionMode.Y4: ModeTiming(
        compute_cycles_per_px=BLUR_CYCLES + UNPACK4_CYCLES,
        interconnect_bytes_per_px=0.5,
        stall_per_refill_cycles=55.0,
    ),
}


@dataclass(frozen=True)
class VisionPoint:
    """One (mode, core count) operating point of Figure 11."""

    mode: ReductionMode
    cores: int
    pixels_per_s: float
    interconnect_gibps: float
    dram_gibps: float


class VisionPerformanceModel:
    """Throughput/bandwidth/PMU predictions for the offload experiment."""

    def __init__(
        self,
        freq_ghz: float = 2.0,
        interconnect_cap_gibps: float = 10.0,  # one ECI link
        fpga_dram_cap_gibps: float = 57.0,
    ):
        self.freq_hz = freq_ghz * 1e9
        self.interconnect_cap = interconnect_cap_gibps * GIB
        self.dram_cap = fpga_dram_cap_gibps * GIB

    def per_core_pixels_per_s(self, mode: ReductionMode) -> float:
        return self.freq_hz / MODE_TIMINGS[mode].cycles_per_px

    def point(self, mode: ReductionMode, cores: int) -> VisionPoint:
        if cores < 1:
            raise ValueError("cores must be >= 1")
        timing = MODE_TIMINGS[mode]
        rate = cores * self.per_core_pixels_per_s(mode)
        # Interconnect cap: the CPU cannot pull lines faster than the link.
        link_limit = self.interconnect_cap / timing.interconnect_bytes_per_px
        # The FPGA always reads 4 B/px of RGBA from its DRAM.
        dram_limit = self.dram_cap / BYTES_PER_PIXEL
        rate = min(rate, link_limit, dram_limit)
        return VisionPoint(
            mode=mode,
            cores=cores,
            pixels_per_s=rate,
            interconnect_gibps=rate * timing.interconnect_bytes_per_px / GIB,
            dram_gibps=rate * BYTES_PER_PIXEL / GIB,
        )

    def sweep_cores(self, mode: ReductionMode, core_counts) -> list[VisionPoint]:
        return [self.point(mode, n) for n in core_counts]

    def speedup_vs_baseline(self, mode: ReductionMode) -> float:
        return self.per_core_pixels_per_s(mode) / self.per_core_pixels_per_s(
            ReductionMode.NONE
        )

    def pmu_report(self, mode: ReductionMode, pixels: int = 1 << 24) -> PmuReport:
        """Per-core PMU counts for Table 1 (48-thread run)."""
        timing = MODE_TIMINGS[mode]
        cycles = timing.cycles_per_px * pixels
        stalls = timing.stall_cycles_per_px * pixels
        refills = timing.refills_per_px * pixels
        # ~2.2 instructions per compute cycle-slot on the dual-issue core.
        instructions = int(timing.compute_cycles_per_px * pixels * 1.4)
        return PmuReport(
            cycles=round(cycles),
            instructions_retired=instructions,
            memory_stall_cycles=round(stalls),
            l1_refills=round(refills),
        )
