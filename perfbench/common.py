"""Shared helpers: where the program is, host facts, percentiles."""

from __future__ import annotations

import os
import platform
import statistics
import sys
from pathlib import Path

#: the checkout root (the benchmark runs from it; ``src/repro`` is the
#: program under test)
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: scratch files of one run live under here and are removed at its end
TMP = ROOT / ".perfbench_tmp"


def add_program_path() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit.

    The benchmark measures the program in this checkout and nothing
    else, so a missing ``src/repro`` is an error rather than a reason to
    fall back to some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {SRC / 'repro'}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for program processes: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def check_imported_from_checkout() -> None:
    """Exit unless ``import repro`` resolved to this checkout's ``src``."""
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        sys.exit(f"perfbench: imported repro from {origin}, not from {SRC}")


def host_facts() -> dict[str, object]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values: list[float]) -> float:
    return float(statistics.median(values))
