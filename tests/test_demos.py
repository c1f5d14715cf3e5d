"""Every demo that imports nukc runs to completion in process.

A demo that still uses a name the package no longer exports fails here.  The
CLI walkthrough is left out: it only shells out to the commands test_cli.py
already drives.
"""

import re
import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
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
