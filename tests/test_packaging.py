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


# The private names of adjrobust.lp that the kernel's own tests still
# use, each with the reason; everything else is tested through
# solve_lp's statuses, values and certificates.
_LP_PRIVATE_IN_TESTS = {
    "_FEAS_TOL": "the eager reference pivot clips basic values with the "
                 "kernel's tolerance",
    "_Form": "a tableau is built on a form directly, and B&B searches, "
             "cut loops and re-solves of the same rows count their forms",
    "_SHIFT": "a shift large enough that unshifting leaves basic values "
              "out of bounds drives the dual phase that restores them",
    "_SHIFT_AFTER": "every primal phase shifts at its first zero step, so "
                    "many LPs take the shifted path",
    "_Tableau": "the phases, the deferred factors and the refinement are "
                "driven directly, a phase that stops early is mocked, and "
                "the resumes of a start are counted",
    "_primal": "the primal phase is stopped while its bounds are "
               "shifted, to refresh the tableau there",
    "_rederive": "the re-derived values and the store rebuilt at the "
                 "basis are compared with what the pivots kept, and a "
                 "singular or ill-conditioned basis leaves the tableau",
    "_shift": "the shifts are counted, so a test that needs them cannot "
              "pass without them",
}


def _private_names(tree):
    """Every private name a module defines: globals, classes, functions,
    methods, fields and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Store):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return {n for n in names
            if n.startswith("_") and not n.startswith("__") and len(n) > 1}


def test_lp_tests_use_only_the_listed_private_names():
    # a new private use fails here until it is listed with its reason,
    # and a listed name no test uses any more must leave the list
    lp_path = pathlib.Path(adjrobust.__file__).parent / "lp.py"
    private = _private_names(ast.parse(lp_path.read_text()))
    used = set()
    for name in ("test_lp.py", "test_mip.py"):
        path = pathlib.Path(__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                used.add(node.value)
    assert sorted(used & private) == sorted(_LP_PRIVATE_IN_TESTS)


def _lp_outside_the_store():
    """Every syntax node of lp.py outside the class ``_Store``."""
    tree = ast.parse((pathlib.Path(adjrobust.__file__).parent
                      / "lp.py").read_text())
    (store,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "_Store"]
    inside = {id(node) for node in ast.walk(store)}
    return [node for node in ast.walk(tree) if id(node) not in inside]


def test_only_the_store_touches_the_tableau_arrays():
    # the simplex reaches the tableau through _Store's operations alone:
    # no code of lp.py outside that class reads or writes an attribute
    # T, U, V or k, so another store can replace it
    leaks = [node.lineno for node in _lp_outside_the_store()
             if isinstance(node, ast.Attribute)
             and node.attr in ("T", "U", "V", "k")]
    assert leaks == []


def test_only_the_store_inverts():
    # the basis inverse is the store's own: no code of lp.py outside
    # _Store reaches np.linalg, so a factored store can replace it
    calls = [node.lineno for node in _lp_outside_the_store()
             if isinstance(node, ast.Attribute) and node.attr == "linalg"]
    assert calls == []
