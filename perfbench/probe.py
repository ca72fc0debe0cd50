"""Host-speed probe: a fixed computation that shares no code with fockbench.

Other tenants of a shared machine slow every process on it, by up to
~40 % for tens of seconds on the reference machine (2 vCPUs).  The
benchmark times this probe before and after each invocation and scales
its wall time by ``REFERENCE_S`` over the mean of the two probes, so that
a slow host stretches probe and invocation alike and the ratio stays put.
The probe is mostly interpreter work of the kind that dominates fockbench's own Python
(objects built and hashed, strings, attribute access), plus a few sparse
matrix-vector products for the numeric route.  Of the mixes tried, this
one tracked the slow phases of both mesh and paper runs best.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse

#: The probe's time on the reference machine when nothing else contends
#: for it.  Scaled times are wall times on a host that runs the probe in
#: exactly this long.
REFERENCE_S = 1.4e-3


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = sparse.random(4096, 4096, density=0.001, format="csr",
                                    random_state=rng)
        self.vector = np.ones(4096)

    def __call__(self) -> float:
        """Wall seconds of one probe."""
        start = time.perf_counter()
        total = 0
        for i in range(1500):
            pair = _Pair(i, str(i))
            total += len(pair.right) + hash((pair.left, pair.right[:1]))
        x = self.vector
        for _ in range(5):
            x = self.matrix @ x
        return time.perf_counter() - start


def scaled(wall_s: float, probe_s: float) -> float:
    """``wall_s``, measured next to a probe of ``probe_s``, at reference speed."""
    return wall_s * REFERENCE_S / probe_s
