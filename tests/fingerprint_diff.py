"""Diff the trajectory fingerprint of this tree against a git revision.

Run as ``python tests/fingerprint_diff.py REV``.  ``REV`` (a commit, tag
or branch of this repository) is exported with ``git archive`` into a
temporary directory, and both trees' ``tests/fingerprint.py`` run at
``OPENBLAS_NUM_THREADS=1``.  Lines are paired by their run name, the
first field.  Each run whose line differs prints as ``- <REV's line>``
and ``+ <this tree's line>`` (a run missing from one side prints only
the other), and a last line counts them.  The exit code is 0 when every
line is identical, 1 when any differs and 2 when ``REV`` cannot be
exported or a fingerprint fails to run.  ``export`` is the one exporter
of a revision for the scripts under ``tests/``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def differing_lines(old: list[str], new: list[str]) -> list[tuple[str | None, str | None]]:
    """(old line, new line) for each run name whose lines differ, in the
    new output's order and then the old's; a side without the run gives None."""
    old_by_run = {line.split()[0]: line for line in old}
    new_by_run = {line.split()[0]: line for line in new}
    runs = list(new_by_run) + [run for run in old_by_run if run not in new_by_run]
    return [
        (old_by_run.get(run), new_by_run.get(run))
        for run in runs
        if old_by_run.get(run) != new_by_run.get(run)
    ]


class ExportError(Exception):
    """A revision that `git archive` cannot export; the message is one line."""


def export(rev: str, dest: Path) -> None:
    """Extract revision `rev` of this repository into the directory `dest`."""
    try:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, capture_output=True, check=True)
    except subprocess.CalledProcessError as e:
        raise ExportError(f"cannot export {rev}: {' '.join(e.stderr.decode().split())}") from None


def fingerprint(tree: Path) -> list[str]:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    script = tree / "tests" / "fingerprint.py"
    return subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tests/fingerprint_diff.py REV", file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory() as tmp:
            export(args[0], Path(tmp))
            old = fingerprint(Path(tmp))
        new = fingerprint(ROOT)
    except ExportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as e:
        detail = e.stderr.decode() if isinstance(e.stderr, bytes) else e.stderr or ""
        print(f"error: {' '.join(map(str, e.cmd))} exited {e.returncode}: {detail}", file=sys.stderr)
        return 2
    diffs = differing_lines(old, new)
    for old_line, new_line in diffs:
        if old_line is not None:
            print(f"- {old_line}")
        if new_line is not None:
            print(f"+ {new_line}")
    print(f"{len(diffs)} of {len({line.split()[0] for line in old + new})} lines differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
