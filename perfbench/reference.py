"""A fixed computation, independent of aoi_access, timed beside every pass.

On the 2-vCPU machine this benchmark was tuned on, the speed at which the
same code runs drifts by 20-40% over minutes, whatever the code. A pass's
time divided by this computation's time, measured just before and just
after it, keeps the pass's cost and drops most of that drift. The mix
(a branchy Python loop over a deque and bytes, then a dense least-squares
solve) follows the benchmark's own: interpreted slot loops and BLAS.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

# median time of one reference computation on the reference machine; it
# scales the ratio back to seconds at that machine's speed
REFERENCE_S = 0.021
REPEATS = 3


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((300, 300))
        self.b = rng.random(300)
        self.data = rng.integers(0, 256, 60_000, dtype=np.uint8).tobytes()

    def _once(self) -> float:
        t0 = time.perf_counter()
        queue: deque = deque()
        total = 0
        data = self.data
        for t in range(len(data)):
            if data[t] & 1:
                queue.append(t)
            elif queue:
                total += t - queue.popleft()
        np.linalg.lstsq(self.a, self.b, rcond=None)
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """Fastest of a few back-to-back runs."""
        return min(self._once() for _ in range(REPEATS))
