"""The host's speed during a run, from a fixed reference loop.

The reference host is a shared 2-vCPU VM whose speed drifts with its
neighbours: within ten minutes the same study ran 1.5x faster, and a
fixed loop of interpreter and numpy work sped up alike.  No repetition
inside one run removes a drift that outlasts the run, so while a run
measures, a sampler process (this file, run as a script) times one
chunk of the reference loop every ``PERIOD_S`` seconds, in CPU time, so
that waiting for a busy CPU does not count.  ``HostSpeed.factor()`` is
the nominal chunk time over the run's median chunk time, and the
benchmark multiplies the run's times of program work by it: they are
then seconds of a host as fast as the reference host.  A change to the
program moves the scaled time as it moves the raw one; host drift moves
the raw time and the reference loop together, and cancels.

The loop shares no code with the program.  Changing it changes every
scaled time, so it stays as it is.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import TracebackType

import numpy as np

#: nominal CPU time of one chunk: scaled times are in seconds of a host
#: that runs a chunk this fast (the reference host took 3.2-6.3 ms
#: depending on its neighbours)
REF_CHUNK_S = 0.004
#: one chunk every this many seconds: about 3 % of one CPU
PERIOD_S = 0.15
STOP_TIMEOUT_S = 10.0

_REF_ARRAY = np.random.default_rng(2005).random(256)


def reference_chunk() -> float:
    """Interpreter arithmetic and small-array numpy: the kind of work
    the program's solver and replay do."""
    total = 0.0
    for i in range(16000):
        total += (i % 7) * 0.5
    x = _REF_ARRAY
    for _ in range(480):
        y = np.exp(-x) * x
        total += float(np.cumsum(y)[-1]) + float(np.dot(x, y))
    return total


class HostSpeed:
    """Runs the sampler process while the ``with`` block runs."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.proc: subprocess.Popen[bytes] | None = None
        self.chunks: list[float] = []

    def __enter__(self) -> HostSpeed:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(self.path)],
            stdin=subprocess.PIPE,
        )
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        assert self.proc is not None and self.proc.stdin is not None
        # closing its stdin tells the sampler to stop
        self.proc.stdin.close()
        try:
            self.proc.wait(STOP_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.path.exists():
            self.chunks = [float(line) for line in self.path.read_text().split()]

    def factor(self) -> float:
        """Reference seconds per second of this host during the block."""
        if not self.chunks:
            raise RuntimeError("the host-speed sampler recorded no chunk")
        return REF_CHUNK_S / statistics.median(self.chunks)


def _sample(path: str) -> None:
    import selectors

    with open(path, "w") as out, selectors.DefaultSelector() as sel:
        sel.register(sys.stdin, selectors.EVENT_READ)
        while True:
            start = time.thread_time()
            reference_chunk()
            out.write(f"{time.thread_time() - start!r}\n")
            out.flush()
            # stdin readable means closed: the run is over
            if sel.select(PERIOD_S):
                return


if __name__ == "__main__":
    _sample(sys.argv[1])
