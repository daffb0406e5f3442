"""Host-speed calibration: program times at a fixed reference speed.

On a shared host the speed of a vCPU drifts: over a few minutes the same
iteration takes from 0.8 to 1.2 times its median, and ten runs of raw wall
time spread wider than the 0.25 bound a metric may have.  A fixed
bench-owned kernel slows down and speeds up with the program, in part, when
it does the same kinds of work: elementwise numpy arithmetic on a small
array that stays in the core's own caches, and on a 16 MB array that
streams through the shared L3 cache.  (A pure-Python loop tracked the
program worse than either.)  So the bench pins itself to one CPU, times the
kernel next to every program call, and reports each call as

    raw seconds * REF_S / (kernel seconds around the call),

the time the call would take on a host where the kernel takes REF_S.
The kernel never calls into bclab; raw times go to the result file.
"""

import os
import time

import numpy as np

# typical time of `kernel` on one 2 GHz Xeon vCPU (4 MiB L2, 105 MiB shared L3)
REF_S = 0.05

# the kernel's arrays, made once: a kernel that allocated would time the
# allocator, whose cost depends on what the program freed before it
_SMALL = np.random.default_rng(0).random((65, 65)) + 0.5j
_LARGE = np.random.default_rng(1).random(1_000_000) + 0.5j
_BUFFERS = {a.shape: (np.empty_like(a), np.empty_like(a)) for a in (_SMALL, _LARGE)}


def pin() -> str:
    """Pin this process, and the processes it starts, to one allowed CPU, so
    that the kernel runs on the CPU the program runs on."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return f"unpinned: {type(exc).__name__}"
    return f"cpu {cpu}"


def _iterate(source, passes):
    """b <- 0.5 b + source - 0.25 conj(b), in place; it converges, so the
    values never overflow or turn subnormal."""
    b, tmp = _BUFFERS[source.shape]
    b[...] = source
    for _ in range(passes):
        np.conjugate(b, out=tmp)
        np.multiply(tmp, 0.25, out=tmp)
        np.multiply(b, 0.5, out=b)
        np.add(b, source, out=b)
        np.subtract(b, tmp, out=b)


def kernel() -> float:
    """Seconds of one run of the fixed calibration work."""
    start = time.perf_counter()
    _iterate(_SMALL, 800)
    _iterate(_LARGE, 2)
    return time.perf_counter() - start
