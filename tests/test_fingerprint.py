"""The trajectory fingerprint is the same in two fresh processes.

`fingerprint.py` hashes every step and evaluation of a set of small runs;
two processes with different hash seeds and the same OpenBLAS thread
count must print the same lines.  `fingerprint_diff.py` pairs two trees'
lines by run name.
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
    assert len(lines) == 54 and all(len(line.split()) == 4 for line in lines)
    assert first == second


def test_diff_pairs_lines_by_run_name():
    from fingerprint_diff import differing_lines

    old = ["a h=1 e=1 ok", "b h=2 e=2 ok", "gone h=3 e=3 ok"]
    new = ["a h=1 e=1 ok", "new h=4 e=4 ok", "b h=5 e=2 DivergenceError"]
    assert differing_lines(old, old) == []
    assert differing_lines(old, new) == [
        (None, "new h=4 e=4 ok"),
        ("b h=2 e=2 ok", "b h=5 e=2 DivergenceError"),
        ("gone h=3 e=3 ok", None),
    ]
