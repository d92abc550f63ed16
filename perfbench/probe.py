"""A fixed load that measures how fast the host runs the benchmark just now.

``run.py`` starts it as a child process before and after each timed CLI
call and scales that call's time by ``PROBE_REF_S`` over the mean of the
two probe times. The host this benchmark runs on has slow and fast phases,
from seconds to minutes long, which move a 60-second run's median by 20% or
more; the probe does the same kind of work as the program (interpreter
start-up, numpy import, small-array numpy calls and plain Python loops),
so those phases move it too. It uses only the interpreter and numpy, never ``mcartest``, so
a change to the program cannot move it.
"""

import numpy as np


def main():
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(2500):
        x = rng.standard_normal((100, 3))
        x[rng.random((100, 3)) < 0.1] = np.nan
        rows = x[~np.isnan(x).any(axis=1)]
        mean = rows.mean(axis=0)
        total += float(mean @ np.linalg.solve(np.cov(rows.T) + np.eye(3), mean))
        counts = {}
        for j in range(60):
            counts[j % 7] = counts.get(j % 7, 0) + j
    if not np.isfinite(total):
        raise SystemExit("probe: non-finite result")


if __name__ == "__main__":
    main()
