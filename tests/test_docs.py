"""The README's library examples and the research scripts still run, and
the package's modules use what they import, from the module that defines
it, in layers."""

import ast
import contextlib
import importlib
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
SRC = ROOT / "src" / "invexcheck"


def _module_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _defined(tree: ast.Module) -> set[str]:
    """The names a module's top level defines, not those it imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


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
    # each name is the very object of the one module that defines it
    homes: dict[str, list[str]] = {}
    for module, tree in _module_trees().items():
        for name in _defined(tree):
            homes.setdefault(name, []).append(module)
    for name in ic.__all__:
        (home,) = homes[name]
        module = importlib.import_module("invexcheck" + ("" if home == "__init__" else f".{home}"))
        assert getattr(ic, name) is getattr(module, name), name


def test_modules_use_their_imports():
    # a __future__ import is a compiler flag
    unused = []
    for stem, tree in _module_trees().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{stem}.py: {name}" for name in names if name not in used]
    assert unused == []


def test_modules_import_from_defining_module():
    trees = _module_trees()
    borrowed = [
        f"{stem}.py: {alias.name} from {node.module}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in _defined(trees[node.module])
    ]
    assert borrowed == []


_CHECKER = ["invexcheck", "invexcheck.expressions", "invexcheck.problems", "invexcheck.replay"]


@pytest.mark.parametrize(
    "code,loaded",
    [
        ("import invexcheck.replay", _CHECKER),
        ("import invexcheck; invexcheck.verify_report", _CHECKER),
        ("import invexcheck", ["invexcheck"]),
    ],
    ids=["checker", "lazy-checker-name", "package"],
)
def test_checker_loads_no_prover_module(code, loaded):
    # the checker stands on the problem model alone: importing it, directly
    # or by name through the package, loads no solver, scan or certifier
    report = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'invexcheck'))"
    done = subprocess.run(
        [sys.executable, "-c", f"{code}; {report}"], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert ast.literal_eval(done.stdout) == loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/certificate_audit.py", "--count", "50", "--seed", "7"],
        ["scripts/analyze_fixtures.py", "--grid-step", "0.25", "--pair-step", "0.5"],
    ],
    ids=["certificate_audit", "analyze_fixtures"],
)
def test_script_exits_zero(argv):
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
