"""`uncovered.py` lists unrun statements in its documented format, on one small test file.

Format only: which statements a single test file reaches says nothing about the suite.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import uncovered

ROOT = Path(uncovered.__file__).resolve().parents[1]


def test_numerics_run_lists_unrun_statements_then_a_count():
    # --assert=plain: rewriting the test modules' asserts was most of this run's time
    run = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "uncovered.py"), "-q", "-p", "no:cacheprovider", "--assert=plain",
         str(ROOT / "tests" / "test_numerics.py")],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    count = re.fullmatch(r"(\d+) of (\d+) statements in src/samt did not run", lines[-1])
    assert count
    report = [line for line in lines if re.match(r"[a-z_]+\.py:\d+: ", line)]
    assert len(report) == int(count[1]) < int(count[2])
    sources = {}
    for line in report:
        name, lineno, text = line.split(":", 2)
        source = sources.setdefault(name, (ROOT / "src" / "samt" / name).read_text(encoding="utf-8").splitlines())
        assert source[int(lineno) - 1].strip() == text.strip()
        assert not re.match(r"(def|class|import|from) ", text.strip())
    # test_numerics draws from make_rng and never trains
    assert not any(line.startswith("numerics.py:") and "default_rng(seed)" in line for line in report)
    assert any(line.startswith("trainer.py:") for line in report)


def test_exit_code_is_pytests(monkeypatch, capsys):
    monkeypatch.setattr(pytest, "main", lambda args: pytest.ExitCode.NO_TESTS_COLLECTED)
    assert uncovered.main(["-k", "no_test_has_this_name"]) == 5
    assert capsys.readouterr().out.endswith(" statements in src/samt did not run\n")
