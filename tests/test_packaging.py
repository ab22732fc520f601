import ast
import os
import pathlib
import subprocess
import sys

import pytest

import adjrobust

# imports every module of the package in a fresh interpreter and prints
# the scipy modules that got loaded, then whether ctypes.util did
_PROBE = """
import importlib, pkgutil, sys
import adjrobust
names = [m.name for m in pkgutil.iter_modules(adjrobust.__path__)]
assert "cli" in names
for name in names:
    importlib.import_module("adjrobust." + name)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print("ctypes.util" in sys.modules)
"""


@pytest.fixture(scope="module")
def probe():
    src = os.path.dirname(os.path.dirname(os.path.abspath(adjrobust.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_package_imports_without_scipy(probe):
    # pyproject.toml lists numpy as the only runtime dependency; scipy is
    # a test extra
    assert probe[0] == "[]"


def test_package_imports_without_ctypes_util(probe):
    # the LP kernel reaches mallopt through ctypes.CDLL(None);
    # ctypes.util.find_library would run ldconfig, about 16 ms per import
    assert probe[1] == "False"


def test_no_module_imports_a_private_name_of_another():
    # a module's private names are its own: `from .lp import _Form` or
    # `from adjrobust.lp import _Form` fails; `from . import rng as _rng`
    # imports a module under a private alias and is fine
    bad = []
    for path in sorted(pathlib.Path(adjrobust.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != (
                    "adjrobust"):
                continue
            bad += [f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names if alias.name.startswith("_")]
    assert bad == []
