"""One program process of a sweep workload: the fig3 study on one pool.

Started by ``sweep.py``; not meant to be run by hand.  It prints
``ready`` once the ``repro`` modules the study needs are imported (the
parent times that as ``setup_s``), builds the seed's pool, runs the
Tables 1/3 study and writes what it measured as JSON to ``--out``:
wall time from handing the pool to ``repro`` until both tables are
rendered, CPU and peak RSS of this process and of its reaped workers,
every ``SimulationResult`` and both rendered tables.  With ``--spans``
the layer entry points are wrapped first (see ``spans.py``) and the
recorded spans are written there.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import add_program_path  # noqa: E402

add_program_path()

from repro.core.solver_cache import active_cache  # noqa: E402
from repro.experiments.study import run_simulation_study  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--machines", type=int, default=24)
    parser.add_argument("--observations", type=int, default=125)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()
    print("ready", flush=True)
    if args.import_only:
        return 0

    from pool import make_pool

    recorder = None
    generate = make_pool
    if args.spans:
        from spans import SWEEP_TARGETS, SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder, SWEEP_TARGETS)
        generate = recorder.wrap("traces", make_pool)
    pool = generate(args.seed, args.rep, args.machines, args.observations)

    own0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    study = run_simulation_study(pool, n_workers=args.workers)
    tables = [study.efficiency_table().render(), study.bandwidth_table().render()]
    end = time.perf_counter()

    # CPU over the timed window; the workers are reaped inside it, and
    # there are no children before it
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    cache = active_cache()
    out = {
        "wall_s": end - start,
        "window": [start, end],
        "parent_cpu_s": own.ru_utime + own.ru_stime - own0.ru_utime - own0.ru_stime,
        "worker_cpu_s": workers.ru_utime + workers.ru_stime,
        # ru_maxrss is in KiB on Linux
        "parent_rss_mb": own.ru_maxrss / 1024.0,
        "worker_rss_mb": workers.ru_maxrss / 1024.0,
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_misses": cache.misses if cache is not None else 0,
        "tables": tables,
        "results": [dataclasses.asdict(r) for r in study.sweep.results],
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    if recorder is not None:
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
