"""The trajectory fingerprint is the same in two fresh processes.

`fingerprint.py` hashes every step and evaluation of a set of small runs;
two processes with different hash seeds and the same OpenBLAS thread
count must print the same lines.
"""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().with_name("fingerprint.py")


def test_two_processes_print_the_same_fingerprint():
    procs = [
        subprocess.Popen(
            [sys.executable, str(SCRIPT)],
            env={**os.environ, "PYTHONHASHSEED": seed, "OPENBLAS_NUM_THREADS": "1"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    (first, err), (second, _) = (p.communicate(timeout=120) for p in procs)
    assert all(p.returncode == 0 for p in procs), err
    lines = first.splitlines()
    assert len(lines) == 49 and all(len(line.split()) == 4 for line in lines)
    assert first == second
