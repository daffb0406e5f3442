"""DN trace container, transformation, probe preconditions and exports.

Every test builds a DNTrace, SymbolEstimate or WaveField directly; none runs
the solver.
"""

import json
import math

import numpy as np
import pytest

from bclab.dn import (
    DNTrace,
    MissingBoundaryData,
    NotElliptic,
    SymbolEstimate,
    dn_trace,
    export_dn_csv,
    probe_symbol,
    symbol_report,
    transform_dn,
)
from bclab.expr import parse_expr
from bclab.geometry import MetricField, SpacetimeGrid
from bclab.solver import WaveField

GRID_2D = SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 4, 1 / 4), dt=1 / 8, t1=0.0, t2=0.5)


def trace_2d() -> DNTrace:
    face = (GRID_2D.nt,) + GRID_2D.shape[:-1]
    rng = np.random.default_rng(3)
    values = rng.standard_normal(face) + 1j * rng.standard_normal(face)
    return DNTrace(values=values, normal_order=2, grid=GRID_2D)


def face_coeffs() -> dict:
    ones = np.ones((GRID_2D.nt,) + GRID_2D.shape[:-1])
    return {"g1": ones, "dg1_dyn": 0.0 * ones, "gh_pm": ones, "g0_plus_j": [0.0 * ones]}


def never_called(face_data):
    raise AssertionError("the probe must refuse before running the pipeline")


# ---------------------------------------------------------------------------
# transform_dn
# ---------------------------------------------------------------------------

def test_transform_dn_names_missing_coefficients():
    coeffs = face_coeffs()
    del coeffs["dg1_dyn"]
    del coeffs["g0_plus_j"]
    with pytest.raises(MissingBoundaryData, match="dg1_dyn, g0_plus_j"):
        transform_dn(trace_2d(), coeffs)


def test_transform_dn_rejects_datum_of_wrong_shape():
    dn = trace_2d()
    with pytest.raises(ValueError, match="match the trace shape"):
        transform_dn(dn, face_coeffs(), f=np.zeros(dn.values.shape[1:], dtype=complex))


def test_transform_dn_datum_refusal_names_both_shapes():
    dn = trace_2d()
    face = dn.values.shape
    with pytest.raises(ValueError, match=rf"datum samples of shape \({face[1]},\) must match the "
                                         rf"trace shape \({face[0]}, {face[1]}\)$"):
        transform_dn(dn, face_coeffs(), f=np.zeros(face[1:], dtype=complex))


def test_transform_dn_unit_coefficients_keep_the_trace():
    dn = trace_2d()
    out = transform_dn(dn, face_coeffs(), f=np.ones_like(dn.values))
    assert np.array_equal(out.values, dn.values)
    assert out.grid == dn.grid and out.normal_order == dn.normal_order


def test_transform_dn_drift_matches_closed_form():
    # non-constant face coefficients with q = g1^(1/4) quadratic in x1, so the
    # lateral derivative d_1 q is exact on the nodes; dt, h1 and h2 all differ
    grid = SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 8, 1 / 4), dt=1 / 16, t1=0.0, t2=0.5)
    env = grid.face_env()
    t, x = env["x0"], env["x1"]
    shape = (grid.nt,) + grid.shape[:-1]
    q = np.broadcast_to((1 + 0.3 * t) * (1 + 0.5 * x + 0.25 * x * x), shape)
    dq_1 = (1 + 0.3 * t) * (0.5 + 0.5 * x)
    coeffs = {"g1": q ** 4,
              "dg1_dyn": np.broadcast_to(0.4 * np.cos(3 * t + x), shape),
              "gh_pm": np.broadcast_to(0.8 + 0.1 * x * t, shape),
              "g0_plus_j": [np.broadcast_to(0.3 - 0.2 * t + 0.1 * x, shape)]}
    rng = np.random.default_rng(5)
    trace = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = transform_dn(DNTrace(values=trace, normal_order=2, grid=grid), coeffs, f=f).values

    # d_n (q w) = q d_n w + (d_n q) w with w = f on the face: the drift
    # multiplies f itself
    drift = 0.25 * coeffs["dg1_dyn"] / q ** 3 + coeffs["g0_plus_j"][0] * dq_1
    want = q * trace / np.sqrt(coeffs["gh_pm"]) + drift * f
    # the drift carries about 20% of the result here
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


# g^{02} and g^{12} are nonzero on the face x2 = 0, so every tangential
# derivative of the conormal trace enters, along with the potential
CROSS_FACE_METRIC = MetricField(
    2,
    [["1 + 0.1*sin(x1)*cos(x0)", "0.05*sin(x2)", "0.2*cos(x1)*cos(x0)"],
     ["0.05*sin(x2)", "-1 - 0.1*cos(x1)", "0.15*cos(x1 + x0)"],
     ["0.2*cos(x1)*cos(x0)", "0.15*cos(x1 + x0)", "-1 - 0.1*sin(x1)"]],
    ["0.2 + 0.1*x2", "0.2*sin(x1)", "0.1*cos(x2)"],
)


def test_dn_trace_matches_exact_conormal_trace():
    """Lab-frame dn_trace on the exact first three depth layers of a field,
    against -sum_j g^{j2} (d_j - i A_j) u / sqrt(-g^{22}) from Expr.diff.
    dt, h1 and h2 all differ, so each derivative must use its own step."""
    u_re = parse_expr("sin(2*x0 + x1)*cos(x2) + 0.5*cos(x0 - x1)*sin(2*x2)")
    u_im = parse_expr("0.3*cos(x0)*sin(2*x1)*exp(x2)")
    g, A = CROSS_FACE_METRIC.g, CROSS_FACE_METRIC.A

    def rel_error(h):
        grid = SpacetimeGrid(n=2, extent=(1.0, 0.75), h=(h, 0.75 * h), dt=0.5 * h,
                             t1=0.0, t2=1.0)
        env = grid.face_env()
        shape = (grid.nt,) + grid.shape[:-1]

        def at(e, depth=0.0):
            return np.broadcast_to(e.evaluate(dict(env, x2=depth)), shape)

        layers = np.stack([at(u_re, d) + 1j * at(u_im, d)
                           for d in (0.0, grid.h[1], 2 * grid.h[1])], axis=-1)
        u = layers[..., 0]
        exact = -sum(at(g[j][2]) * (at(u_re.diff(f"x{j}")) + 1j * at(u_im.diff(f"x{j}"))
                                    - 1j * at(A[j]) * u)
                     for j in range(3)) / np.sqrt(-at(g[2][2]))
        wf = WaveField(samples=None, boundary_layers=layers, grid=grid, cfl_number=0.0)
        got = dn_trace(wf, CROSS_FACE_METRIC).values
        return float(np.abs(got - exact).max() / np.abs(exact).max())

    e1, e2 = rel_error(1 / 16), rel_error(1 / 32)
    # measured 2.73e-3 and 6.84e-4 (order 2.00); bounds about 15% above
    assert e1 <= 3.1e-3
    assert e2 <= 7.9e-4
    assert math.log2(e1 / e2) >= 1.8


# ---------------------------------------------------------------------------
# probe_symbol preconditions
# ---------------------------------------------------------------------------

def test_probe_refuses_one_dimensional_face():
    with pytest.raises(NotElliptic, match="n = 1"):
        probe_symbol(never_called, (0.5,), (1.0,), (10.0,))


def test_probe_refuses_vanishing_tangential_part():
    with pytest.raises(NotElliptic, match="tangential part"):
        probe_symbol(never_called, (0.5, 0.5), (1.0, 0.0), (10.0,))


def test_probe_refuses_covector_or_point_of_wrong_length():
    with pytest.raises(ValueError, match="covector has 3 and boundary point 3 components; "
                                         "the grid needs 2"):
        probe_symbol(never_called, (0.4, 0.5, 0.3), (0.25, 1.0, 0.5), (10.0,), grid=GRID_2D)
    with pytest.raises(ValueError, match="boundary point 1 components"):
        probe_symbol(never_called, (0.4,), (0.25, 1.0), (10.0,), grid=GRID_2D)


def test_probe_refuses_covector_outside_the_cone():
    # flat face: depth discriminant (eta0)^2 - |eta'|^2 is positive for eta0 = 2
    coeffs = {"g0_plus_j": [0.0], "g0_jk": [[-1.0]]}
    with pytest.raises(NotElliptic, match="depth discriminant"):
        probe_symbol(never_called, (0.5, 0.5), (2.0, 1.0), (10.0,),
                     boundary_coeffs=coeffs, grid=GRID_2D)
    # inside the cone the precondition passes and the next check speaks
    with pytest.raises(ValueError, match="run grid"):
        probe_symbol(never_called, (0.5, 0.5), (0.2, 1.0), (10.0,),
                     boundary_coeffs=coeffs)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def test_export_dn_csv_round_trips(tmp_path):
    dn = trace_2d()
    path = tmp_path / "trace.csv"
    export_dn_csv(dn, str(path))
    assert path.read_text().splitlines()[0] == "y0,y1,re,im"
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    y0, y1 = np.meshgrid(GRID_2D.times(), GRID_2D.axis(1), indexing="ij")
    assert table.shape == (dn.values.size, 4)
    assert np.array_equal(table[:, 0], y0.ravel())
    assert np.array_equal(table[:, 1], y1.ravel())
    assert np.array_equal(table[:, 2] + 1j * table[:, 3], dn.values.ravel())


@pytest.mark.parametrize("estimates", [
    {"gh_pm": 1.0, "g0_plus_j": [0.1], "g0_jk": [[-1.0]]},
    {"gh_pm": 1.0, "g0_plus_j": [0.0], "g0_jk": [[-1.0]]},  # the flat symbol
])
def test_symbol_report_is_json_with_provenance(estimates):
    probes = [(0.2 + m * 0.3, 1.0) for m in (-1, 0, 1)]
    samples = [{"covector": p, "responses": {10.0: 1.0 + 2.0j, 20.0: 2.0 + 4.0j},
                "slope": 0.1 + 0.2j, "magnitude": 0.2236, "residual": 0.01}
               for p in probes]
    est = SymbolEstimate(covector=(0.2, 1.0), frequencies=(10.0, 20.0),
                         estimates=estimates, residual=0.01, poor_fit=False,
                         samples=samples)
    body = json.loads(symbol_report(est))
    assert set(body["estimates"]) == set(estimates)
    for key, entry in body["estimates"].items():
        assert entry["value"] == estimates[key]
        assert entry["provenance"]
    assert body["fit"]["probes"][1]["responses"]["20.0"] == [2.0, 4.0]
