"""Machine-speed reference for a shared, noisy host.

On the 2-core shared machine this benchmark was defined on, the same code
ran up to 40% slower from one minute to the next while nothing else ran in
the container: the CPU time per op itself changed, so neither longer runs nor
robust statistics of one run could hide it.  The benchmark therefore times
two fixed kernels after every chunk, which share no code with ``secrecy221``:
one bound by the Python interpreter (tuple arithmetic and float formatting,
as in the closed-form path and the CLI) and one by numpy (a 256x256
elementwise grid with an argmax, as in the grid engine).  Their weighted
geometric mean, relative to REFERENCE_S, is the chunk's slowdown, and the
chunk's timings are divided by it.  Each workload sets the numpy kernel's
weight; 6-seed trials picked 0.5 for the interpreter-bound workloads, 1 for
the grid-bound Degraded certificate and 0.75 for the oracle, which mixes
both.  Timings are therefore reported at reference
speed: the speed at which the two kernels take 570 us and 360 us, which was
the quietest state seen on that machine.

A program change cannot move the reference kernels, so it still moves the
scaled figures by its own share.  What this cannot separate is a change that
makes the whole process slower, such as a background thread started at
import: that would slow the kernels too and be scaled away.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REFERENCE_S = (570e-6, 360e-6)  # (Python kernel, numpy kernel) at reference speed

_ANGLES = np.linspace(0.0, math.pi, 256)
_POWERS = np.linspace(0.0, 1.0, 256)


def python_kernel():
    acc = 0
    for i in range(150):
        m = ((2.0 + i * 1e-3, 0.5), (0.5, 1.0))
        d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        inv = ((m[1][1] / d, -m[0][1] / d), (-m[1][0] / d, m[0][0] / d))
        doc = {"det": d, "inv": inv, "s": math.hypot(m[0][0] - m[1][1], 2.0 * m[0][1])}
        acc += len(",".join(format(x, ".17g") for row in doc["inv"] for x in row))
    return acc


def numpy_kernel():
    c = np.cos(_ANGLES)
    s = np.sin(_ANGLES)
    num = 1.0 + np.outer(c * c, _POWERS) + np.outer(s * s, _POWERS[::-1])
    den = 1.0 + np.outer(c * s, _POWERS)
    return int(np.argmax(num / den))


def slowdown(numpy_weight):
    """How many times slower than reference speed the machine runs right now."""
    t0 = perf_counter()
    python_kernel()
    t1 = perf_counter()
    numpy_kernel()
    t2 = perf_counter()
    python_ratio = (t1 - t0) / REFERENCE_S[0]
    numpy_ratio = (t2 - t1) / REFERENCE_S[1]
    return python_ratio ** (1.0 - numpy_weight) * numpy_ratio**numpy_weight
