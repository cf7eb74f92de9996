"""Each script under scripts/ runs once on a small input and prints its header.

The scripts import package functions by name, so a rename that leaves a
script behind fails here rather than when someone next runs it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = [
    (["gap_ratio_sweep.py", "--c", "2", "--gamma", "0.2"],
     "c,gamma,ic_payoff,first_best,ic_ratio,delta,relaxed_payoff,relaxed_ratio"),
    (["fptas_quality.py", "--count", "2", "--m", "6"],
     "trial,exact,bucketed,quotient,max_family,budget,merged_items,millis,peak_kb"),
    (["front_scale.py", "--sizes", "3x6", "--seeds", "0"],
     "n,m,seed,action,front_points,ordered_items,front_ms,front_peak_kb,lp_pivots,lp_ms"),
    (["bench_answers.py", "--workload", "relaxed", "--seeds", "1", "2"],
     "relaxed: 0 of 1 seeds wrong: []"),
]


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(a[0] for a, _ in SCRIPTS)


@pytest.mark.parametrize("argv, header", SCRIPTS, ids=[a[0] for a, _ in SCRIPTS])
def test_script_runs(argv, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
