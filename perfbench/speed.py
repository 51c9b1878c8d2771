"""How fast this machine runs right now, measured with a fixed probe.

On a host shared with other machines the speed of one core moves by up to
2x within a minute, and every timing moves with it. The probe is a fixed
piece of work of the same kind as the program's hot path (small dense
linear algebra called from Python, with object churn) that uses nothing
from the program, so no change to the program changes it. Workloads run
it before every timed set-up and operation, and after the long ones; a
run's time metrics are then scaled by REFERENCE_MS / (median probe
time), i.e. reported at the speed at which the probe takes REFERENCE_MS.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_MS = 6.0  # the probe's time on an idle host of the reference machine (see README)

_A = np.eye(6) * 3.0 + 0.1
_B = np.ones(6)
_EYE = np.eye(6)


def probe_ms() -> float:
    """Wall time of the probe, in milliseconds."""
    t = perf_counter()
    acc = 0.0
    items = []
    for i in range(400):
        c = np.linalg.cholesky(_A + (i * 1e-3) * _EYE)
        x = np.linalg.solve(c, _B)
        acc += float(x[0]) + sum(j * 0.5 for j in range(10))
        items.append({"i": i, "v": acc})
    return 1e3 * (perf_counter() - t)
