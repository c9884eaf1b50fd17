"""A fixed reference task that measures how fast the machine runs right now.

The host this benchmark was tuned on changes speed by up to 40% over minutes
(other tenants, turbo frequency), which moves every timing of a run alike.
Timing this task next to each repetition gives a speed factor,
`REFERENCE_S / seconds`, by which the end-to-end times are scaled to seconds
at a fixed reference speed. The task mixes the kinds of work the CLI does:
interpreted Python, NumPy array passes and SciPy kd-tree builds and queries.
It does not touch spatial_firewalls, so no change to the program moves it.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

# median of `seconds()` on the 2-vCPU Xeon the baselines in results/ ran on
REFERENCE_S = 0.21

_RNG = np.random.default_rng(0)
_POINTS = _RNG.random((60000, 2)) * 100.0
_VALUES = _RNG.random(2_000_000)


def _python(n: int = 1_800_000) -> int:
    total = 0
    for i in range(n):
        total += i & 7
    return total


def seconds() -> float:
    """Wall seconds the reference task takes now."""
    t0 = time.monotonic()
    _python()
    np.sort(_VALUES)
    np.cumsum(_VALUES)
    cKDTree(_POINTS).query_pairs(1.5, output_type="ndarray")
    return time.monotonic() - t0
