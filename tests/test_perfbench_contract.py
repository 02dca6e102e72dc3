"""The benchmark's self-tests run as part of the suite.

The traced benchmark run wraps package functions by name (agent.step,
select_policy, enumerate_policies, ReadingEvidenceModel.likelihood_row, ...);
its self-tests fail when one of them is renamed or removed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
