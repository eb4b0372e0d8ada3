"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed moves by 20 to
40% over seconds to minutes, as neighbours come and go. Those swings slow a
fixed piece of work in proportion whatever the program does, so the benchmark
times a fixed set of small kernels right before and right after every timed
call, and divides the call's wall time by their geometric mean.

The kernels mix the kinds of work the pipeline does: recursive pure-Python
calls over float lists (TreeSHAP), numpy fancy indexing inside a Python loop
(exact rank tests), dictionary updates, small matrix products and sorting an
array larger than the L2 cache (distance matrices). None of them touches
vaxclust, so a change to the program cannot move them.

The scaling holds for single-threaded, mostly interpreted work timed on the
CPU the kernels run on; the benchmark's workloads are chosen to be that. On a
2-vCPU Xeon host the kernels ran about 35% faster in the host's fast spells,
pure-Python pipeline calls about 25% faster and a call dominated by numpy's
Ward search only about 15% faster, so such a call is over-corrected there.
"""

from __future__ import annotations

import math
import statistics
import time
from itertools import combinations

import numpy as np

SLICE_S = 0.3  # seconds of kernels per calibration slice
WARM_UP_S = 1.0  # kernels run before the first slice; the first second runs slow
REFERENCE_S = 0.0045  # a round's geometric-mean kernel time on the reference host

_rng = np.random.default_rng(12345)
_SMALL = np.arange(64, dtype=np.float64)
_MATRIX = _rng.random((200, 200))
_LONG = _rng.random(200_000)
_POOL = np.arange(12, dtype=np.float64)


def _walk(xs, depth):
    if depth == 0:
        return xs[0] * 0.5 + xs[-1]
    ys = [x * 0.999 + 1.0 for x in xs]
    return _walk(ys[: len(ys) - 1], depth - 1) + float(_SMALL[depth % 64]) * 1e-3


def _recursion():
    total = 0.0
    for i in range(150):
        total += _walk([float(i + j) for j in range(12)], 10)


def _matmul():
    for _ in range(10):
        _MATRIX @ _MATRIX


def _sort():
    for _ in range(4):
        np.sort(_LONG)


def _fancy_index():
    total = 0.0
    for chosen in combinations(range(12), 6):
        total += _POOL[list(chosen)].sum()


def _dict():
    counts = {}
    for i in range(25_000):
        counts[i % 977] = counts.get(i % 977, 0) + i


KERNELS = (_recursion, _matmul, _sort, _fancy_index, _dict)


def slice_s(seconds: float = SLICE_S) -> float:
    """Run the kernels in rounds for about ``seconds``; geometric mean of their median times."""
    times = [[] for _ in KERNELS]
    end = time.perf_counter() + seconds
    while True:
        for samples, kernel in zip(times, KERNELS):
            start = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - start)
        if time.perf_counter() > end:
            break
    return math.exp(statistics.fmean(math.log(statistics.median(samples)) for samples in times))


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at the reference host speed, given the calibration slices around it."""
    return wall_s * REFERENCE_S / math.sqrt(before_s * after_s)

