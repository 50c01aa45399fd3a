"""A fixed probe of how fast the machine runs right now.

On a shared box the same stage can take up to twice as long in one minute
as in the next, and its CPU time moves with its wall time, so the slowdown
comes from the host, not from waiting. Short probes show two speeds, about
1.7x apart, that alternate within a second; the share of time spent slow
drifts over tens of seconds. The probe is a fixed mix of the work
framescore's stages do (JSON, CSV writing, elementwise numpy, sorting) that
does not use framescore, so no change to the program moves it. It runs
between stages; its mean time over a run is that run's speed, and a stage
time times `REFERENCE_S / mean probe time` is the stage's time at the speed
where the probe takes `REFERENCE_S`.

Over 30 groups of 5 runs (one workload and stage each) on a 2-core shared
VM, the between-run spread of stage medians (quartile distance over
median) averaged 0.24 unscaled and 0.18 scaled.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import statistics
import time

import numpy as np

REFERENCE_S = 0.1
_REPEATS = 10


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)  # the probe's work never changes
        self.array = rng.standard_normal(100_000)
        self.buffer = np.empty_like(self.array)
        self.records = [
            {"trial_id": f"P{i:02d}", "frames": rng.standard_normal((40, 16)).tolist()}
            for i in range(6)
        ]
        self._work()  # warm up allocations and code paths
        self.times: list[float] = []

    def _work(self) -> None:
        json.loads(json.dumps(self.records))
        writer = csv.writer(io.StringIO())
        for i in range(2500):
            writer.writerow(["P00-affected-02", i, repr(i * 0.37), "", i & 1, 0])
        np.abs(self.array, out=self.buffer)
        np.exp(np.negative(self.buffer, out=self.buffer), out=self.buffer)
        self.buffer.sum()
        np.copyto(self.buffer, self.array)
        self.buffer.sort()

    def measure(self) -> float:
        """Time a fixed amount of work, with the garbage collector paused."""
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(_REPEATS):
                self._work()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        self.times.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Scale for this run's stage times: REFERENCE_S / mean probe time."""
        return REFERENCE_S / statistics.fmean(self.times)
