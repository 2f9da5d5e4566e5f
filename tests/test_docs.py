"""The README's library examples and the research scripts still run, and
the package's modules use what they import."""

import ast
import contextlib
import inspect
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest

import invexcheck as ic

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_quick_start_runs():
    section = README.split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README quick start", "exec"), {})


def test_readme_names_resolve():
    names = set(re.findall(r"\bic\.([A-Za-z_]\w*)", README))
    assert "certify_pair" in names
    assert sorted(n for n in names if not hasattr(ic, n)) == []
    # the calls the README says take a shared `analysis`
    listed = re.search(r"as the keyword `analysis` \((.*?)\)", README, re.S).group(1)
    calls = re.findall(r"`(\w+)`", listed)
    assert "grade_weighting_solutions" in calls
    for name in calls:
        assert "analysis" in inspect.signature(getattr(ic, name)).parameters, name


def test_all_names_resolve():
    missing = [name for name in ic.__all__ if not hasattr(ic, name)]
    assert missing == []
    assert len(set(ic.__all__)) == len(ic.__all__)
    namespace = {}
    exec("from invexcheck import *", namespace)
    assert set(ic.__all__) <= set(namespace)


def test_modules_use_their_imports():
    # __init__.py imports to re-export; a __future__ import is a compiler flag
    unused = []
    for path in sorted((ROOT / "src" / "invexcheck").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{path.name}: {name}" for name in names if name not in used]
    assert unused == []


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/certificate_audit.py", "--count", "50", "--seed", "7"],
        ["scripts/analyze_fixtures.py", "--grid-step", "0.25", "--pair-step", "0.5"],
    ],
    ids=["certificate_audit", "analyze_fixtures"],
)
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
