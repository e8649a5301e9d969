"""Self-tests of the benchmark (not of the program).

    python3 -m pytest perfbench -q

They run every workload at its tiny size and check that each run emits
every metric named in ``BENCHMARK.json`` with its unit, and that the
output checks flag injected wrong answers.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import add_program_path  # noqa: E402

add_program_path()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(HERE.relative_to(ROOT) / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout + proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for name, value in result["metrics"].items():
        assert math.isfinite(value["value"]), name
        # every metric is printed by name before the JSON line
        assert any(line.startswith(name + " ") for line in proc.stdout.splitlines()), name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_served_check_flags_a_one_ulp_error() -> None:
    from checks import check_served
    from repro.core.optimizer import optimize_interval
    from repro.core.solver_cache import use_solver_cache
    from repro.serve.bench import demo_registry

    entry = demo_registry().get("campus-weibull")
    with use_solver_cache(None):
        t_opt = optimize_interval(entry.distribution, entry.costs, age=1234.0).T_opt
    good = ("campus-weibull", 1234.0, t_opt)
    assert check_served([good], 10)[:2] == (1, 0)
    bad = ("campus-weibull", 1234.0, math.nextafter(t_opt, math.inf))
    attempted, failed, notes = check_served([good, bad], 10)
    assert (attempted, failed) == (2, 1) and notes


@pytest.fixture(scope="module")
def tiny_sweep() -> dict:
    import dataclasses

    from pool import make_pool
    from repro.experiments.study import run_simulation_study

    study = run_simulation_study(make_pool(3, 0, 3, 40))
    return {
        "results": [dataclasses.asdict(r) for r in study.sweep.results],
        "tables": [study.efficiency_table().render(), study.bandwidth_table().render()],
    }


def test_sweep_check_passes_on_the_program_output(tiny_sweep: dict) -> None:
    from checks import check_sweep

    attempted, failed, notes = check_sweep(3, 0, (3, 40), tiny_sweep)
    assert attempted > 0 and failed == 0, notes


def test_sweep_check_flags_a_perturbed_replay_mb(tiny_sweep: dict) -> None:
    from checks import check_sweep

    wrong = {**tiny_sweep, "results": [dict(r) for r in tiny_sweep["results"]]}
    for r in wrong["results"]:
        if r["model_name"] == "weibull" and r["checkpoint_cost"] == 500.0:
            r["mb_checkpoint"] *= 1.0 + 1e-6
    attempted, failed, notes = check_sweep(3, 0, (3, 40), wrong)
    # the scalar-loop sample covers one machine of the pool
    assert failed == 1 and all("weibull/C=500" in n for n in notes)


def test_golden_check_flags_a_wrong_t_opt(monkeypatch: pytest.MonkeyPatch) -> None:
    import numpy as np

    import repro.core.optimizer as optimizer
    from checks import check_golden, oracle_settings
    from pool import make_pool

    real = optimizer.optimize_interval

    def off_by_one_percent(*args, **kwargs):
        opt = real(*args, **kwargs)
        if optimizer.default_solver_method() == "golden":
            return opt
        return real(*args, **kwargs, t_max=opt.T_opt * 0.99)

    pool = make_pool(3, 0, 3, 40)
    settings = oracle_settings()
    assert check_golden(pool, settings, np.random.default_rng(0))[1] == 0
    monkeypatch.setattr(optimizer, "optimize_interval", off_by_one_percent)
    attempted, failed, _notes = check_golden(pool, settings, np.random.default_rng(0))
    assert failed == attempted > 0


def test_host_speed_sampler_records_chunks_and_stops(tmp_path: Path) -> None:
    import time

    from hostspeed import HostSpeed

    speed = HostSpeed(tmp_path / "speed.txt")
    with speed:
        time.sleep(0.5)
    assert speed.proc is not None and speed.proc.returncode == 0
    assert len(speed.chunks) >= 2 and all(c > 0 for c in speed.chunks)
    assert speed.factor() > 0
