"""Correction for the momentary speed of the CPU the benchmark runs on.

On the 2-vCPU virtual machine this benchmark was built on, each vCPU switches
between two speeds about 1.6x apart, independently of the other and for
anything from a second to minutes, with no sign inside the machine (CPU time
grows with wall time).  Raw wall times of identical work therefore differ
between runs by more than any useful bound.

So a run pins itself, and every process it starts, to one CPU and times a
short fixed calibration kernel before the first operation and after every
operation.  Times are reported in reference seconds:

    reference seconds = wall seconds * REFERENCE_S / calibration seconds,

with the calibration time averaged over the kernel runs just before and just
after the operation.  REFERENCE_S is what the kernel takes on that machine at
its faster speed, so reference seconds read as that machine's undisturbed
seconds.  Raw wall times stay in the run record next to them.
"""

import os
import time

import numpy as np

REFERENCE_S = 1.5e-3
_SOURCE = np.linspace(0.0, 1.0, 300_000)
_BUFFERS = (np.zeros_like(_SOURCE), np.zeros_like(_SOURCE))


def pin_to_one_cpu():
    """Pin this process (and what it starts later) to its highest-numbered CPU."""
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    return cpu, len(cpus)


def _kernel():
    # half interpreter work, half streaming over a few MB.  Against the
    # operations of the workloads, interpreter-only kernels over-corrected
    # the memory-bound ones and streaming-only kernels under-corrected the
    # interpreter-bound ones; the mix tracked both.  Nothing is allocated
    # beyond small ints, so the program's heap cannot change its time.
    s = 0
    for i in range(8000):
        s += i * i % 7
    a, b = _BUFFERS
    for _ in range(2):
        np.multiply(_SOURCE[::-1], 1.0001, out=a)
        np.add(a, b, out=b)
    return s + float(b[0])


def calibrate():
    """Seconds the kernel takes now; the fastest of three, to drop interrupts."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def to_reference(seconds, calibration_s):
    return seconds * REFERENCE_S / calibration_s
