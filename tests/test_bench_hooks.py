"""The bench tracer finds every package name it wraps, and puts each one back.

bench/tracing.py looks the functions and methods it times up by name; a
rename in the package would break every traced bench run.
"""

from pathlib import Path

import bclab
import bclab.dn
import bclab.expr
import bclab.geometry
import bclab.goursat
import bclab.solver

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = (bclab, bclab.expr, bclab.geometry, bclab.solver, bclab.goursat, bclab.dn)


def snapshot() -> dict:
    """Every module attribute and every class attribute of the package, by identity."""
    out = {}
    for module in MODULES:
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("bclab"):
                for attr, member in vars(value).items():
                    out[(module.__name__, name, attr)] = member
    return out


def test_tracer_installs_and_restores_its_hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import _INTERP_NAMES, Tracer

    # bclab.goursat resolves the scipy names the tracer wraps on lookup; bind
    # them first, or the snapshot after uninstall sees them as new keys
    for name in _INTERP_NAMES:
        monkeypatch.setattr(bclab.goursat, name, getattr(bclab.goursat, name), raising=False)

    solve_ibvp = bclab.solve_ibvp
    speed = bclab.geometry.max_characteristic_speed
    eval_g = bclab.MetricField.eval_g
    coeffs = bclab.SampledCoefficients
    at, zeroth_at = coeffs.at, coeffs.zeroth_at
    before = snapshot()

    tracer = Tracer()
    tracer.install()
    try:
        assert bclab.solve_ibvp.__wrapped__ is solve_ibvp
        assert bclab.solver.solve_ibvp.__wrapped__ is solve_ibvp
        assert bclab.geometry.max_characteristic_speed.__wrapped__ is speed
        assert bclab.MetricField.eval_g is not eval_g
        assert coeffs.at is not at and coeffs.zeroth_at is not zeroth_at
    finally:
        tracer.uninstall()

    assert bclab.solve_ibvp is solve_ibvp
    assert bclab.solver.solve_ibvp is solve_ibvp
    assert bclab.geometry.max_characteristic_speed is speed
    assert bclab.MetricField.eval_g is eval_g
    assert coeffs.at is at and coeffs.zeroth_at is zeroth_at
    after = snapshot()
    assert set(after) == set(before)
    assert [key for key in before if after[key] is not before[key]] == []
