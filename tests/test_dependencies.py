"""The package imports only the stdlib, numpy and PyYAML, and declares only
numpy and PyYAML; scipy serves the tests alone."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "yaml", "dfsqc"}


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_numpy_and_yaml():
    sources = sorted((ROOT / "src" / "dfsqc").glob("*.py"))
    assert sources
    outside = {f"{path.name}: {name}" for path in sources
               for name in imported_modules(path) if name not in ALLOWED}
    assert not outside


def test_runtime_dependencies_are_numpy_and_pyyaml():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
             for dep in project["dependencies"]}
    assert names == {"numpy", "pyyaml"}
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_numpy_floor_is_2_0():
    # np.trapezoid, which table spectra and the transport-noise line
    # integrate with, is new in NumPy 2.0 (1.x named it trapz)
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert "numpy>=2.0" in project["dependencies"]
    sources = "".join(p.read_text() for p in (ROOT / "src" / "dfsqc").glob("*.py"))
    assert "np.trapezoid(" in sources


def dfsqc_imports(path):
    """(module, name) of each name one source file imports from a dfsqc module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module or ""
        elif node.module and node.module.split(".")[0] == "dfsqc":
            module = node.module.partition(".")[2]
        else:
            continue
        for alias in node.names:
            # ``from . import noise`` imports the module itself
            yield (alias.name, "") if not module else (module, alias.name)


def test_no_module_imports_a_private_name_of_another():
    sources = sorted((ROOT / "src" / "dfsqc").glob("*.py"))
    private = {f"{path.name}: {module}.{name}" for path in sources
               for module, name in dfsqc_imports(path)
               if name.startswith("_") and not name.endswith("__")}
    assert not private


def test_noise_imports_nothing_from_logical():
    imports = dfsqc_imports(ROOT / "src" / "dfsqc" / "noise.py")
    assert "logical" not in {module for module, _ in imports}


def test_cli_import_loads_no_numerics_it_defers():
    # every run pays what ``import dfsqc.cli`` loads; the Gauss-Hermite
    # nodes load numpy.polynomial on first use, scipy serves tests only, and
    # nothing in the package needs concurrent.futures (or logging)
    code = ("import sys, dfsqc.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m.startswith(('numpy.polynomial', 'numpy.fft'))\n"
            "             or m in ('concurrent.futures', 'logging')))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"
