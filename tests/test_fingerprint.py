"""The trajectory fingerprint is the same in two fresh processes.

`fingerprint.py` hashes every step and evaluation of a set of small runs;
two processes with different hash seeds and the same OpenBLAS thread
count must print the same lines.  `fingerprint_diff.py` pairs two trees'
lines by run name, and it and `pairbench.py` reject a revision that
cannot be exported.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("script", ["fingerprint_diff", "pairbench"])
def test_a_rev_that_does_not_exist_exits_2_with_one_error_line(script, tmp_path, capsys):
    main = importlib.import_module(script).main
    out = tmp_path / "pairs.json"
    assert main(["no-such-rev"] + (["--out", str(out)] if script == "pairbench" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot export no-such-rev: ") and err.count("\n") == 1
    assert not out.exists()
