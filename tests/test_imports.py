"""The package runs on numpy alone, its export lists hold, it factors every
per-node matrix through geometry._det and geometry._solve_small, the chart
slab differences nothing, the stepper's per-step methods only multiply and
add, and no raise site adds a plain string-literal message.

A fresh interpreter imports bclab from src/; every top-level module the
import adds must be bclab itself, numpy or part of the standard library.
Site hooks loaded before the import do not count.
"""

import ast
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


def test_chart_slab_differences_nothing():
    # every derivative the chart slab reads comes from the phases' depth march
    # (goursat._march), so _slab_fields, and every goursat function it calls
    # by name, is pointwise algebra: neither np.gradient nor _difference
    tree = ast.parse((SRC / "bclab" / "goursat.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found, seen, todo = [], set(), ["_slab_fields"]
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(functions[name]):
            if not isinstance(node, ast.Call):
                continue
            called = node.func.attr if isinstance(node.func, ast.Attribute) \
                else getattr(node.func, "id", None)
            if called in ("gradient", "_difference"):
                found.append(f"{name}: {called}")
            elif isinstance(node.func, ast.Name) and called in functions and called not in seen:
                todo.append(called)
    assert found == []


def test_stepper_per_step_methods_hold_no_division_and_no_negation():
    # _Stepper.level folds every per-level factor once, so the methods a step
    # and its sweeps run only multiply and add: on a 65x65 complex level a
    # complex division costs about 13 us and a negation about 10 us, against
    # 3.8 us for a complex multiply
    tree = ast.parse((SRC / "bclab" / "solver.py").read_text())
    stepper = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "_Stepper")
    methods = {node.name: node for node in stepper.body if isinstance(node, ast.FunctionDef)}
    found = []
    for name in ("explicit", "delta", "w0p"):
        for node in ast.walk(methods[name]):
            called = node.func.attr if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) else None
            if isinstance(node, (ast.Div, ast.FloorDiv, ast.USub)) \
                    or called in ("divide", "true_divide", "reciprocal", "negative"):
                found.append(f"{name}: {type(node).__name__} {called or ''}".strip())
    assert found == []


# Raise sites whose message is still a plain string literal, naming no value.
# A ratchet: a new plain-literal raise fails the scan, and a site that gains a
# value must leave this list, so it only shrinks.  Keyed by module and message.
PLAIN_RAISES_STILL_OPEN = {
    # expr.py: parse errors, which carry the line and column as arguments
    ("expr.py", "unexpected end of expression"),
}


def plain_raises(path: Path) -> list:
    """(module, message) of every raise X("literal") in a source file; an
    f-string without a placeholder counts as a literal."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and node.exc.args):
            continue
        msg = node.exc.args[0]
        if isinstance(msg, ast.JoinedStr) and not any(
                isinstance(v, ast.FormattedValue) for v in msg.values):
            msg = ast.Constant("".join(v.value for v in msg.values))
        if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
            found.append((path.name, msg.value))
    return found


def test_no_new_plain_string_raise():
    # every error names the condition, the place and the value
    found = [site for path in sorted((SRC / "bclab").glob("*.py"))
             for site in plain_raises(path)]
    assert len(found) == len(set(found))  # a second copy of a listed site is new too
    assert sorted(set(found) - PLAIN_RAISES_STILL_OPEN) == [], "new plain-string raise"
    assert sorted(PLAIN_RAISES_STILL_OPEN - set(found)) == [], "mended: drop it from the list"
    assert len(PLAIN_RAISES_STILL_OPEN) <= 1
