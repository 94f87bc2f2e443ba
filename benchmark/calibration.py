"""The host-speed probe: a fixed calibration kernel timed in a helper process.

The helper shares the benchmark's core but nothing else: its own
interpreter, heap and numpy state, so the program's allocations and
interpreter state cannot move the kernel's time.  It runs only while the
benchmark waits for its answer, never beside the program.

    python3 benchmark/calibration.py

reads one count per line on standard input and answers each with that
many kernel times, in seconds, on one line.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
from scipy.special import logsumexp

LOOPS = 5
_X = np.linspace(0.0, 1.0, 9).reshape(3, 3)


def kernel() -> float:
    """Seconds for one fixed pass of small scipy log-sum-exps, numpy
    reductions and Python arithmetic: the kind of work the program's hot
    paths do, in code the program does not own."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(LOOPS):
        acc += float(logsumexp(_X, axis=0)[0])
        y = np.exp(_X - _X.max())
        acc += float(np.log(y.sum())) + sum(j * j for j in range(20))
    return time.perf_counter() - t0


class SpeedProbe:
    """The helper process, started on enter and stopped on exit; it
    inherits the caller's core and environment."""

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()

    def sample(self, n: int) -> list[float]:
        """n kernel times, taken back to back in the helper."""
        self._proc.stdin.write(f"{n}\n")
        self._proc.stdin.flush()
        return [float(t) for t in self._proc.stdout.readline().split()]


if __name__ == "__main__":
    for line in sys.stdin:
        print(" ".join(repr(kernel()) for _ in range(int(line))), flush=True)
