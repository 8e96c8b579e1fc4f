"""Each demo script and the README quick start run to completion.

Demo artifacts go to demos/output/.
"""

import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert DEMOS, "no demos/0*.py found"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    done = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=src_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    if script.name == "05_hopfield_spectrum.py":
        assert done.stdout.splitlines()[-1] == "complete: True"


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1, "expected one python block in README.md"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    assert printed.getvalue() == "0.1\n"
