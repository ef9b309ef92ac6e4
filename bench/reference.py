"""Reference kernel: fixed work outside fpq that tracks the machine's speed.

On the 2-core box the bounds were set on, raw pass times of all three
workloads moved together by up to 1.7x within ten minutes, while each
process's CPU time stayed equal to its wall time: the cores themselves ran
slower or faster.  No run length averages that out.  So the benchmark
times this kernel right before every set-up and every pass and reports
each time divided by it, converted back to seconds at the kernel's nominal
time.  Raw times go in the detail line.

The kernel mixes the kinds of work the workloads do, so that it slows when
they slow: rounding-style numpy passes over a cache-resident array and
over an array larger than the per-core L2 cache, interpreter-bound Python,
and small file writes (temp file plus rename, as the FPQT writer does) and
reads.  The large array is rounded in small-array-sized chunks, so the
kernel's temporaries stay near 1 MiB and ``peak_rss_mb`` measures fpq, not
the kernel.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

# Median time of one ``Reference.seconds`` call on the box the bounds were
# set on; it only converts the ratios back into seconds.
NOMINAL_S = 0.035


class Reference:
    def __init__(self, workdir: Path):
        self.small = np.sin(np.arange(1 << 14) * 0.37) * 3.0  # 128 KiB
        self.large = np.sin(np.arange(1 << 20) * 0.37) * 3.0  # 8 MiB
        self.chunks = np.split(self.large, len(self.large) // len(self.small))
        self.grid = np.linspace(0.0, 6.0, 8)
        self.blob = self.small.tobytes()[: 1 << 15]
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def _round(self, x: np.ndarray) -> float:
        i = np.minimum(np.searchsorted(self.grid, np.abs(x)), len(self.grid) - 1)
        return float(np.max(np.where(x < 0, -self.grid[i], self.grid[i])))

    def _files(self) -> None:
        for k in range(8):
            fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
            with os.fdopen(fd, "wb") as f:
                f.write(self.blob)
            os.replace(tmp, self.dir / f"r{k}")
        for k in range(8):
            (self.dir / f"r{k}").read_bytes()

    def seconds(self) -> float:
        """Time one run of the kernel."""
        t0 = time.perf_counter()
        for _ in range(48):
            self._round(self.small)
        for chunk in self.chunks:
            self._round(chunk)
        counts: dict[int, int] = {}
        for k in range(30000):
            counts[k & 255] = counts.get(k & 255, 0) + k
        self._files()
        return time.perf_counter() - t0


def smoothed(refs: list[float]) -> list[float]:
    """Running median over five neighbours: follows the drift, not the
    noise of single kernel runs."""
    return [statistics.median(refs[max(0, i - 2): i + 3]) for i in range(len(refs))]


def normalized(times: list[float], refs: list[float]) -> list[float]:
    """Times in seconds at the kernel's nominal speed."""
    return [t / r * NOMINAL_S for t, r in zip(times, smoothed(refs))]
