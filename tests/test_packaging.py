import os
import subprocess
import sys

import adjrobust

# imports every module of the package in a fresh interpreter and prints the
# scipy modules that got loaded
_PROBE = """
import importlib, pkgutil, sys
import adjrobust
names = [m.name for m in pkgutil.iter_modules(adjrobust.__path__)]
assert "cli" in names
for name in names:
    importlib.import_module("adjrobust." + name)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_package_imports_without_scipy():
    # pyproject.toml lists numpy as the only runtime dependency; scipy is
    # a test extra
    src = os.path.dirname(os.path.dirname(os.path.abspath(adjrobust.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
