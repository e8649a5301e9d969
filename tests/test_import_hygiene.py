"""Entry points import only what they run.

``scipy.stats`` and ``scipy.optimize`` together cost about a second of
start-up and ~45 MB of resident memory, and no entry point needs them
to start: the Student-t calls go through ``scipy.special`` and the
lognormal and Pareto fitters import ``scipy.optimize`` at first use.
These are module checks in a fresh interpreter, with no timing bound.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.distributions import fit_lognormal, fit_pareto

SRC = str(Path(repro.__file__).resolve().parents[1])
HEAVY = ("scipy.stats", "scipy.optimize")

_PRELUDE = f"""
import json, sys
HEAVY = {HEAVY!r}
def heavy():
    return sorted(m for m in sys.modules if ".".join(m.split(".")[:2]) in HEAVY)
"""


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve", "repro.experiments.study"])
def test_entry_point_does_not_load_heavy_scipy(module):
    out = run_fresh(f"import {module}\nprint(json.dumps({{'heavy': heavy()}}))")
    assert out["heavy"] == []


def test_censored_fits_load_the_optimizer_on_first_use():
    code = """
import numpy as np
import repro.cli
from repro.distributions import fit_lognormal, fit_pareto
before = heavy()
rng = np.random.default_rng(5)
x = rng.lognormal(1.0, 0.8, 300)
cens = rng.random(300) < 0.3
ln = fit_lognormal(x, cens)
pa = fit_pareto(x, cens)
print(json.dumps({"before": before, "after": heavy(),
                  "fits": [ln.mu, ln.sigma, pa.shape, pa.scale]}))
"""
    out = run_fresh(code)
    assert out["before"] == []
    assert "scipy.optimize" in out["after"]

    # the lazily imported optimizer gives the same fits as the in-process one
    rng = np.random.default_rng(5)
    x = rng.lognormal(1.0, 0.8, 300)
    cens = rng.random(300) < 0.3
    ln = fit_lognormal(x, cens)
    pa = fit_pareto(x, cens)
    assert out["fits"] == [ln.mu, ln.sigma, pa.shape, pa.scale]
