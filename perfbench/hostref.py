"""Host-speed reference loop.

The benchmark shares its machine with other work, and the speed that work
leaves it drifted by 20-50 % over minutes on a 2-CPU x86-64 virtual machine.
A fixed loop of interpreter work and small LAPACK calls, shaped like cogia's
own per-call overhead but calling nothing from cogia, is timed before every
round of the workload and before every set-up probe.  Each of those figures
is scaled by ``REF_MS / t``, with ``t`` the loop time just before it, i.e.
reported at the host speed at which the loop takes ``REF_MS``.  The loop and
``REF_MS`` must never change: they define the scale.
"""

from time import perf_counter_ns

import numpy as np

# Median time of sample_ms() on the 2-CPU x86-64 host (OpenBLAS 0.3.31, one
# thread, numpy 2.4, Python 3.11) the benchmark was written on.
REF_MS = 2.8

_A = (np.arange(25.0).reshape(5, 5) % 7) + np.eye(5)


def sample_ms() -> float:
    """Time of one pass of the reference loop, in milliseconds."""
    t0 = perf_counter_ns()
    for i in range(100):
        u, s, vt = np.linalg.svd(_A)
        np.linalg.norm(u @ _A)
        sorted({j: j * i for j in range(40)}.values(), reverse=True)
    return (perf_counter_ns() - t0) / 1e6
