"""The benchmark's check mode (``hostbench/run.py --check``) drives the
library through its public names and compares pinned digests.  Its own
tests are not part of this suite, so without this check a rename or a
deletion in ``nvmsim`` would break the benchmark unseen.  This reads
``hostbench/`` and changes nothing there.
"""

import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "hostbench" / "run.py"


@pytest.mark.parametrize("workload", ["ep-fence8", "sp-coldset", "crash-sweep"])
def test_benchmark_check_passes_on_seed_0(workload):
    done = subprocess.run([sys.executable, str(RUN), "--check", "--workload", workload, "--seed", "0"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "check passed: 0 of 222 checks failed" in done.stdout, done.stdout + done.stderr
