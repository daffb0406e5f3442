"""The package runs on numpy alone, its export lists hold, and it factors
every per-node matrix through geometry._det and geometry._solve_small.

A fresh interpreter imports bclab from src/; every top-level module the
import adds must be bclab itself, numpy or part of the standard library.
Site hooks loaded before the import do not count.
"""

import importlib
import json
import os
import pkgutil
import re
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


def test_no_numpy_matrix_routine_factors_a_node_matrix():
    # determinants and solves go through geometry._det and _solve_small only
    routine = re.compile(r"linalg\.(det|solve|inv)\b")
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted((SRC / "bclab").glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if routine.search(line)]
    assert found == []
