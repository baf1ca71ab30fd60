"""The package surface: the README's Python API runs as printed, every
module's `__all__` names only what the module defines, and every source file
parses at the oldest Python that pyproject.toml admits."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import skolemhop

ROOT = Path(__file__).resolve().parents[1]

README_API = {"SimConfig", "run", "rho_series", "ess_for_channel_count"}
MODULES = [info.name for info in pkgutil.iter_modules(skolemhop.__path__)]


def readme_api_example() -> str:
    section = (ROOT / "README.md").read_text().split("\n## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_api_example_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", readme_api_example()], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    first, second = result.stdout.splitlines()
    assert first == "2"
    assert 0.0 <= float(second) <= 1.0


def test_top_level_names_are_the_readme_api():
    # dir(), not vars(): the simulation names are resolved on first use (PEP 562).
    public = {name for name in dir(skolemhop)
              if not name.startswith("_")
              and not isinstance(getattr(skolemhop, name), types.ModuleType)}
    assert public == README_API
    assert sorted(skolemhop.__all__) == sorted(README_API)
    assert isinstance(skolemhop.__version__, str)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    module = importlib.import_module(f"skolemhop.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_every_file_parses_at_the_python_floor():
    # Syntax only: a standard-library name or runtime behaviour newer than the floor
    # still passes.  ast takes the floor's grammar, whatever Python runs the suite.
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    floor = tuple(map(int, floor))
    files = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
