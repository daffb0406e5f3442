"""The package runs on numpy alone.

A fresh interpreter imports bclab from src/; every top-level module the
import adds must be bclab itself, numpy or part of the standard library.
Site hooks loaded before the import do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
