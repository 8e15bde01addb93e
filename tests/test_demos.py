"""Every demo script and the README's examples run against this package."""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv, cwd):
    return subprocess.run(argv, capture_output=True, text=True, env=package_env(), cwd=cwd)


def _readme_block(lang: str, after: str) -> str:
    """The first ```lang code block of the README after the text `after`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.compile(rf"```{lang}\n(.*?)```", re.S).search(text, text.index(after))
    return block.group(1)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = _run([sys.executable, str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start(tmp_path):
    proc = _run([sys.executable, "-c", _readme_block("python", "## Quick start")], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_round_trip(tmp_path):
    # each line runs as `python -m selftesting`; a trailing "# exit N" states
    # its exit code, and every other line must succeed
    lines = _readme_block("sh", "A round trip").splitlines()
    for line in filter(str.strip, lines):
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "selftesting", line
        stated = re.search(r"exit (\d+)", comment)
        proc = _run([sys.executable, "-m", "selftesting", *argv[1:]], tmp_path)
        assert proc.returncode == (int(stated.group(1)) if stated else 0), (line, proc.stderr)
