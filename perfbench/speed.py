"""Machine-speed probe, run in an interpreter of its own.

The 2-vCPU host the benchmark was built on changes speed by 10-30% over
tens of seconds.  The benchmark scales each compile time by a sample
taken just before the compile (see README, "Machine-speed
normalisation").  The samples come from this module running as a
separate process that does nothing between requests: its heap, garbage
collector and imports are its own, so the program's side effects (a
larger heap, pending garbage) do not reach the sample the way they do a
probe run inside the benchmark's process.

As a script it answers each line on standard input with one sample, in
seconds, until standard input closes.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: Median sample on the reference machine (2 vCPUs, Python 3.11).
REFERENCE_S = 0.0011


def sample() -> float:
    """Seconds for a fixed snippet of interpreter and numpy work."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i % 7
    data = np.arange(2048.0)
    for _ in range(20):
        data = np.sqrt(data * 1.0001 + 1.0)
    return time.perf_counter() - start


class SpeedProbe:
    """A running probe process; ``sample()`` asks it for one sample.

    Use as a context manager: leaving it closes the process's standard
    input and waits for the process to end.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def sample(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(sample(), flush=True)
