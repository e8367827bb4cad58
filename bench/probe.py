"""Timings corrected for the speed the host runs at.

The benchmark's host shares its CPUs with other machines. Its speed
moves by up to about 1.8x, in phases from tens of milliseconds to
minutes, and CPU time moves with wall time: the host's speed moves, not
the program. A whole run can fall into a slow phase, so no repetition
inside a run removes it.

The probe is a fixed piece of work that calls nothing of sicfield, so no
change to the package changes it. A run samples it after every timed
item (a set-up, a CLI command, a request), for about a tenth of the
item's time and at least once, on the CPU the work runs on. An item's
host factor is the probe's mean time over the samples taken just before
and just after it (and, while they are fewer than MIN_SAMPLES, those of
the next items out on either side), divided by the probe's nominal time. The item's
timing divided by its factor reads as seconds at the host's nominal
speed, and a change to the package moves it as much as it moves the raw
time; run.py prints the raw timings as well.

The host's speed is correlated over hundreds of milliseconds and less
so beyond, so the nearest samples serve best: on a 2-vCPU Xeon virtual
machine they left an expr-stream operation's timing about 6% apart
between runs of one seed, where one factor for the whole run left it 9%
and no factor 10%. A single sample is a noisy reading, though, so a
short item's factor takes in a few more.

Two probes match the two kinds of work the package does: `python` is
rational polynomial arithmetic in the interpreter (the exact layers, and
the searches at small d, where interpreter overhead dominates), and
`numpy` contracts a complex array the size of the d = 32 displacement
stack, as the search does at large d.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

#: each probe's nominal time in seconds: about its median on a 2-vCPU
#: Xeon virtual machine at that host's usual speed
NOMINAL_S = {"python": 0.0070, "numpy": 0.0045}
SHARE = 0.1
MIN_SAMPLES = 4

_MODULUS = [Fraction(k * k - 7, k + 3) for k in range(8)] + [Fraction(1)]
_START = [Fraction(2 * k + 1, 5 - k % 3) for k in range(8)]


def _mulmod(a: list, b: list) -> list:
    """a * b modulo the monic _MODULUS, coefficients lowest first."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    n = len(_MODULUS) - 1
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k]
        if c:
            for j in range(n + 1):
                out[k - n + j] -= c * _MODULUS[j]
    return out[:n]


def _python() -> None:
    x = list(_START)
    for _ in range(6):
        x = _mulmod(x, _START)
        x = [c.limit_denominator(10**12) for c in x]


def _numpy_probe():
    rng = np.random.default_rng(0)
    stack = rng.standard_normal((1024, 32, 32)) + 1j * rng.standard_normal((1024, 32, 32))
    psi = np.exp(1j * np.arange(32)) / np.sqrt(32)
    return lambda: np.einsum("a,kab,b->k", psi.conj(), stack, psi)


class Probe:
    """A run's timeline of timed items and the probe samples between them."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._work = {"python": lambda: _python, "numpy": _numpy_probe}[kind]()
        self.raw: list[float] = []
        self.blocks: list[list[float]] = []
        self._sample(0.0)

    def _sample(self, seconds: float) -> None:
        block, t0 = [], time.perf_counter()
        while not block or time.perf_counter() - t0 < SHARE * seconds:
            t1 = time.perf_counter()
            self._work()
            block.append(time.perf_counter() - t1)
        self.blocks.append(block)

    def mark(self, seconds: float) -> int:
        """Record a timed item that has just ended, sample the probe, and
        return the item's index."""
        self.raw.append(seconds)
        self._sample(seconds)
        return len(self.raw) - 1

    def factor(self, item: int) -> float:
        """The host factor of an item, which lies between blocks item and
        item + 1."""
        lo, hi = item, item + 1
        samples = self.blocks[lo] + self.blocks[hi]
        while len(samples) < MIN_SAMPLES and (lo > 0 or hi < len(self.blocks) - 1):
            if lo > 0:
                lo -= 1
                samples += self.blocks[lo]
            if hi < len(self.blocks) - 1:
                hi += 1
                samples += self.blocks[hi]
        return statistics.fmean(samples) / NOMINAL_S[self.kind]

    def corrected(self, item: int, seconds: float | None = None) -> float:
        """A timing of an item (by default the one it was marked with) at
        the host's nominal speed."""
        return (self.raw[item] if seconds is None else seconds) / self.factor(item)
