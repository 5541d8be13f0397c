"""Host-speed reference: times affekt's work in seconds at a fixed machine speed.

The benchmark runs on a few cores of a shared host. Other processes take the
CPU from it, and the host itself runs at one speed for tens of seconds, then
up to 1.7 times slower, with CPU time following wall time and no steal time.
Wall times of identical runs then spread by more than any bound the
benchmark could set.

`ReferenceClock` times each stage in CPU seconds of this process, which leave
out the time the process waited while other work held the CPU. On a quiet
host CPU and wall time differ by a few percent, the file I/O waits.

After each stage the clock probes the host: it runs a fixed reference kernel
once to bring its data back into cache, then PROBE_CALLS times more, and
keeps each of those calls' CPU time. The kernel is the benchmark's own code
and calls numpy and scipy only, never affekt, so no change to the program
moves it. Half of its time is cache-bound work like the program's signal
code (Welch, a zero-phase IIR filter, small matmuls, small pair comparisons,
an interpreter loop); the other half streams a 20 MB pair comparison through
memory, like the im2col products of training. Slow spells slow the two kinds
by different amounts, and the program has both (README.md, Timing).

`scale_since(mark)` is REFERENCE_S over the median kernel time from the probe
just before `mark` to the last one, so a set-up or a round is scaled by the
probes around it. Times multiplied by the scale, and rates divided by it, are
what the host would have measured had it run the kernel in REFERENCE_S.
Probes take 3-8% of a run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import signal as sps

# Median time of one ReferenceKernel call on the host described in
# README.md, so that scaled and measured times are alike there; it only fixes
# the unit of the scaled times.
REFERENCE_S = 0.012
# Kernel calls per probe, one probe after each timed stage.
PROBE_CALLS = 3


class ReferenceKernel:
    """Fixed inputs and output buffers, made once, so every call does the same work.

    Results of the pair comparisons go into buffers made here, so a call
    neither page-faults nor depends on the state the program left the
    allocator in.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20021)
        self.eeg = rng.standard_normal((8, 1024))
        self.long = rng.standard_normal((4, 2048))
        self.sos = sps.butter(4, (1.0, 40.0), btype="bandpass", fs=512.0, output="sos")
        self.mat = rng.standard_normal((64, 64)).astype(np.float32)
        self.series = rng.standard_normal(200).astype(np.float32)
        self.diff = np.empty((200, 200), dtype=np.float32)
        self.close = np.empty((200, 200), dtype=bool)
        self.wide = rng.standard_normal(1500)
        self.wide_diff = np.empty((1500, 1500))
        self.wide_close = np.empty((1500, 1500), dtype=bool)

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(4):
            _, pxx = sps.welch(self.eeg, fs=512.0, nperseg=256, axis=-1)
            acc += float(pxx[0, 0])
            acc += float(sps.sosfiltfilt(self.sos, self.long, axis=-1)[0, 0])
        m = self.mat
        for _ in range(16):
            m = np.tanh(m @ self.mat * 0.01)
        acc += float(m[0, 0])
        x = self.series
        for _ in range(16):
            np.subtract(x[:, None], x[None, :], out=self.diff)
            np.abs(self.diff, out=self.diff)
            np.less_equal(self.diff, 0.2, out=self.close)
            acc += float(np.count_nonzero(self.close))
        total = 0
        for i in range(20000):
            total += i % 7
        w = self.wide
        np.subtract(w[:, None], w[None, :], out=self.wide_diff)
        np.abs(self.wide_diff, out=self.wide_diff)
        np.less_equal(self.wide_diff, 0.2, out=self.wide_close)
        acc += float(np.count_nonzero(self.wide_close))
        return acc + total


class ReferenceClock:
    """Times callables in CPU and wall seconds and probes the host after each."""

    def __init__(self) -> None:
        self.kernel = ReferenceKernel()
        self.probes: list[float] = []
        self.probe()

    def probe(self) -> None:
        self.kernel()  # untimed: the stage has evicted the kernel's data
        for _ in range(PROBE_CALLS):
            t0 = time.process_time()
            self.kernel()
            self.probes.append(time.process_time() - t0)

    def time(self, fn, *args):
        """Run fn(*args); return (CPU seconds, wall seconds, fn's result)."""
        c0, t0 = time.process_time(), time.perf_counter()
        result = fn(*args)
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        self.probe()
        return cpu, wall, result

    def mark(self) -> int:
        return len(self.probes)

    def scale_since(self, mark: int) -> float:
        return REFERENCE_S / statistics.median(self.probes[max(0, mark - PROBE_CALLS):])


def scaled(value: float, unit: str, scale: float) -> float:
    """A measured time (s, ms) or rate (x/s) brought to the reference speed."""
    if unit in ("s", "ms"):
        return value * scale
    if unit.endswith("/s"):
        return value / scale
    return value
