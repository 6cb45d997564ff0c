"""Reference work that expresses elapsed times in calibrated seconds.

On a shared host the speed of a core drifts by 10-20 % over minutes with
the load of other tenants (frequency, sibling threads, shared cache).  The
drift is the same for every workload measured in the same minute, so
repeated runs of one commit spread wider than the bounds worth gating on.
The benchmark therefore times this fixed piece of work next to each
measurement and rescales the measured time by ``NOMINAL_S`` over the
reference's time.  ``NOMINAL_S`` is close to the reference's median time on
the host the bounds were tuned on (2 vCPUs, 105 MiB L3, Python 3.11,
numpy 2.4) while it was lightly loaded; at that speed calibrated seconds
are wall seconds.  It sets only the scale of calibrated values.

The work mixes interpreter-bound and numpy-bound steps, like the workloads:
the screen is an interpreter loop, the tx exchange and the detection kernel
stream numpy arrays.  It uses nothing from coopalign, so no change to the
package moves it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.005
RUNS = 3
COPIES = 3


class Reference:
    """Equal parts, by time, of an interpreter loop, a numpy sort that stays
    in cache and numpy copies between arrays larger than a core's L2."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._ints = list(range(50_000))
        self._floats = rng.standard_normal(1 << 18)     # 2 MiB
        self._src = rng.standard_normal(1 << 20)        # 8 MiB
        self._dst = np.empty_like(self._src)

    def seconds(self):
        t0 = time.perf_counter()
        acc = 0
        for v in self._ints:
            acc += v & 7
        np.sort(self._floats)
        for _ in range(COPIES):
            np.copyto(self._dst, self._src)
        return time.perf_counter() - t0

    def speed(self):
        """Wall seconds -> calibrated seconds factor: below 1 while the host
        runs slower than nominal."""
        return NOMINAL_S / sorted(self.seconds() for _ in range(RUNS))[RUNS // 2]
