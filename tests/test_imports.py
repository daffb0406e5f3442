"""The package runs on numpy alone, and its export lists hold.

A fresh interpreter imports bclab from src/; every top-level module the
import adds must be bclab itself, numpy or part of the standard library.
Site hooks loaded before the import do not count.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import bclab

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import bclab
print(json.dumps(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_import_loads_only_numpy_and_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = set(json.loads(out.splitlines()[-1]))
    assert "bclab" in added
    foreign = sorted(added - {"bclab", "numpy"} - set(sys.stdlib_module_names))
    assert foreign == []


def test_every_exported_name_resolves_to_its_module_object():
    modules = [importlib.import_module(f"bclab.{info.name}")
               for info in pkgutil.iter_modules(bclab.__path__)]
    exported = {}
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            exported.setdefault(name, []).append(getattr(module, name))
    assert len(set(bclab.__all__)) == len(bclab.__all__)
    for name in bclab.__all__:
        if name == "__version__":
            continue
        assert any(getattr(bclab, name) is obj for obj in exported.get(name, [])), name
