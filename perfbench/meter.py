"""A clock that runs at the speed of a reference machine.

The shared host this benchmark runs on switches between a fast and a slow
mode, with no steal time in the guest, and the share of time spent slow
changes over minutes.  A fixed pure-Python loop timed in 2-s windows ranged
over 0.64..1.0 of its fastest rate within one minute.  Those spells are
longer than a run, so they set the run-to-run spread of every wall-clock
timing: over five runs each, 0.13 to 0.45 of the median.

The workloads slow with about the same factor as a small fixed loop:

- Over four minutes of interleaved 0.6-s windows, the quartile spread of
  16-s blocks was 0.10 to 0.25 for fixed-input pieces of the four
  workloads, and 0.04 to 0.10 once each was divided by a kernel's time.
- Classed by the kernel runs just before and after them, fixed items were
  slower in the slow mode by 1.45 (corpus_mult, sudoku_rollouts) and 1.20
  (mc_deep, mc_grid).  An allocation-free integer loop, the kernel below,
  was slower by 1.30; a kernel that also ran json.dumps was slower by 1.5,
  more than any workload, and over-corrected.

So the benchmark times its items with this clock.  It runs the kernel at
checkpoints between items, at most every PERIOD_S seconds, and advances at
REFERENCE_S / (mean of the last WINDOW kernel times) seconds per real
second; kernel runs are left out of the time.  The mean, not the median,
because kernel times are bimodal.  A program change moves the items' time
and not the kernel's, so it shows in full; a slow spell of the machine
moves both, and mostly cancels.

REFERENCE_S is about the kernel's time on a 2-vCPU KVM guest, Intel Xeon
(Sapphire Rapids class), Python 3.11.7, so there times read about as on a
plain wall clock.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter

REFERENCE_S = 0.0055
PERIOD_S = 0.25
WINDOW = 16

_INTS = tuple(range(200)) * 10


def kernel() -> int:
    """Fixed interpreter work that allocates nothing and touches no
    reflect_lab code: small-int arithmetic over a tuple."""
    total = 0
    for _ in range(40):
        for x in _INTS:
            total = (total + x) & 255
            if total > 128:
                total -= 100
    return total


def kernel_seconds() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Meter:
    def __init__(self) -> None:
        self.samples: deque[float] = deque(maxlen=WINDOW)
        self.all_samples: list[float] = []
        self.scale = 1.0
        self.reading = 0.0
        self.last = perf_counter()
        self.last_kernel = self.last

    def now(self) -> float:
        """Seconds at reference speed since the meter was made."""
        t = perf_counter()
        self.reading += (t - self.last) * self.scale
        self.last = t
        return self.reading

    def _run_kernel(self) -> None:
        self.now()
        seconds = kernel_seconds()
        self.samples.append(seconds)
        self.all_samples.append(seconds)
        self.scale = REFERENCE_S / statistics.fmean(self.samples)
        self.last = self.last_kernel = perf_counter()

    def calibrate(self) -> None:
        """Fill the window before a timed loop."""
        for _ in range(WINDOW):
            self._run_kernel()

    def checkpoint(self) -> None:
        """Call between items, outside any span: runs the kernel when due."""
        if perf_counter() - self.last_kernel >= PERIOD_S:
            self._run_kernel()

    def slowdown(self, since: int = 0) -> float:
        """Mean kernel time from the since-th kernel run on ÷ REFERENCE_S."""
        return statistics.fmean(self.all_samples[since:]) / REFERENCE_S


METER = Meter()
