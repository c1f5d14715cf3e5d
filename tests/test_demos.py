"""Every demo runs to completion.

A demo that still uses a name the package no longer exports fails here.  The
CLI walkthrough runs as a script with the package on its path, as its
subprocesses import ``nukc.cli``; it exits nonzero when a subcommand it calls
gives an unexpected exit code.
"""

import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
IMPORTS_NUKC = re.compile(r"^(from|import) nukc\b", re.MULTILINE)
LIBRARY_DEMOS = sorted(p for p in DEMOS.glob("*.py") if IMPORTS_NUKC.search(p.read_text()))


def test_library_demos_found():
    assert len(LIBRARY_DEMOS) >= 6


@pytest.mark.parametrize("demo", LIBRARY_DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, capsys):
    # Run a copy: demos that save output write it next to their own file.
    copy = tmp_path / "demos" / demo.name
    copy.parent.mkdir()
    shutil.copy(demo, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert capsys.readouterr().out


def test_cli_walkthrough_runs(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / "cli_walkthrough.py")], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("$ nukc ") == 6
