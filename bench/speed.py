"""A fixed reference computation that measures how fast the machine is now.

The work resembles dcmg's own mix: a Python loop of small matrix-vector
products (the time-stepping loops), passes over an array larger than the
caches (the vectorized drive terms) and float formatting (the CSV
export).  It never touches the program, so a change to the program
cannot change its time; only the machine's speed can.
"""

from __future__ import annotations

import time

import numpy as np


def reference_s() -> float:
    """Seconds the reference computation takes right now."""
    a = np.full((4, 4), 0.05)
    drive = np.ones(4)
    x = np.zeros(4)
    big = np.ones(2_000_000)
    t0 = time.perf_counter()
    for _ in range(20_000):
        x = a @ x + drive
    for _ in range(10):
        big = big * 0.999 + 0.001
    text = ",".join(["%.17g" % (k / 7.0) for k in range(50_000)])
    elapsed = time.perf_counter() - t0
    if not text or not np.isfinite(big).all():
        raise RuntimeError("reference computation went wrong")
    return elapsed
