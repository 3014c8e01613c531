"""The campaign, sweep, service and CLI paths must not import scipy.

scipy costs over a second of import time, longer than a whole
paper-parameter campaign, and only the two significance tests in
:mod:`repro.analysis.stats` need it.  The probe runs in a fresh
interpreter, since this test process has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json
import sys

import repro
import repro.cli
import repro.service
import repro.sweeps
from repro import CampaignConfig, ProcessParameters, run_campaign

params = ProcessParameters(k=4, m=4, n1=32, n2=64)
outcome = run_campaign(CampaignConfig(parameters=params))
before = sorted(name for name in sys.modules if name.startswith("scipy"))

from repro.analysis import welch_t_test

statistic, p_value = welch_t_test([0.0, 1.0, 2.0, 3.0], [10.0, 11.0, 12.5, 13.0])
print(json.dumps({
    "rows": len(outcome.verdict_matrix()),
    "scipy_before": before,
    "welch": [statistic, p_value],
    "scipy_after": "scipy.stats" in sys.modules,
}))
"""


def test_runtime_paths_import_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["rows"] == 4
    assert report["scipy_before"] == []
    # The significance tests still work: scipy loads on first call.
    statistic, p_value = report["welch"]
    assert statistic < 0 and p_value < 0.01
    assert report["scipy_after"]
