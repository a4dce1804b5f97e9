"""The package has no runtime dependencies beyond the standard library."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports every module under ``repro`` with numpy refused by a meta-path
# finder (``sys.modules["numpy"] = None`` would also break third-party
# import probes), then reports whether numpy was loaded anyway.
_PROBE = """
import importlib, pkgutil, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is refused")
        return None

sys.meta_path.insert(0, RefuseNumpy())
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
print("numpy" in sys.modules)
"""


def test_every_module_imports_without_numpy():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
