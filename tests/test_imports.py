"""Every ``repro.*`` module imports on its own, in a fresh interpreter.

A module that imports cleanly only after some other module was imported
first hides an import cycle; this catches it for every module.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)
SRC = os.path.dirname(os.path.dirname(repro.__file__))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
