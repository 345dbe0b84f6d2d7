"""A fixed reference computation, timed to show how fast the machine runs.

On a shared host, other tenants slow this process down by up to half. The
slow spells change within a second and can hold most of a minute, and the
full speed itself drifts by 5-10 % from one minute to the next. On a 2-vCPU
Intel Xeon VM (2.0 GHz), the fastest and the median optimize-32 solve of a
35-second run both spread 20 % over five runs (interquartile range over
median).

``Speedometer`` times a fixed computation of the kinds of work nchns does
(array arithmetic and ``np.pad`` on a 128x128 grid, FFTs and DCTs) in short
bursts between the set-ups and tasks of a run. Over a run, the bursts and
the workload meet the same mix of spells, so the ratio of their mean times
hardly depends on the mix: on those five runs it spread 6 %, and on five
forward-128 runs 2 %. ``normalized`` gives a mean time as that ratio times
``REFERENCE_S``, the reference computation's time at full speed on that VM,
so it reads as seconds on that machine.

The reference computation does not use nchns, so a change to the package
moves the ratio only through the workload's own time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.fft as sfft

N = 128
BURST_S = 0.05         # length of one burst of reference computations
REFERENCE_S = 1.2e-3   # reference() at full speed on the VM named above
A = np.random.default_rng(0).standard_normal((N, N))


def reference():
    """The fixed computation: a five-point Laplacian, FFTs and DCTs."""
    p = np.pad(A, 1, mode="edge")
    lap = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * A
    y = sfft.irfft2(sfft.rfft2(lap, s=(2 * N, 2 * N)), s=(2 * N, 2 * N))
    return sfft.idctn(sfft.dctn(y[:N, :N], type=2, norm="ortho"), type=2, norm="ortho")


def repeat_for(seconds, fn, times):
    """Call ``fn()`` again and again for ``seconds``, at least once, and
    append the time of each call to ``times``."""
    end = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        fn()
        t1 = perf_counter()
        times.append(t1 - t0)
        if t1 >= end:
            return


class Speedometer:
    """Times bursts of ``reference()`` and normalizes durations by them."""

    def __init__(self):
        self.times = []

    def burst(self):
        repeat_for(BURST_S, reference, self.times)

    def normalized(self, durations):
        """Mean of ``durations`` over the mean reference time, in units of
        ``REFERENCE_S``."""
        return statistics.fmean(durations) / statistics.fmean(self.times) * REFERENCE_S
