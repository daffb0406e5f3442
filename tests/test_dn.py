"""DN trace container, transformation, probe preconditions and exports.

Every test builds a DNTrace or SymbolEstimate directly; none runs the solver.
"""

import json

import numpy as np
import pytest

from bclab.dn import (
    DNTrace,
    MissingBoundaryData,
    NotElliptic,
    SymbolEstimate,
    export_dn_csv,
    probe_symbol,
    symbol_report,
    transform_dn,
)
from bclab.geometry import SpacetimeGrid

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


def test_transform_dn_unit_coefficients_keep_the_trace():
    dn = trace_2d()
    out = transform_dn(dn, face_coeffs(), f=np.ones_like(dn.values))
    assert np.array_equal(out.values, dn.values)
    assert out.grid == dn.grid and out.normal_order == dn.normal_order


# ---------------------------------------------------------------------------
# probe_symbol preconditions
# ---------------------------------------------------------------------------

def test_probe_refuses_one_dimensional_face():
    with pytest.raises(NotElliptic, match="n = 1"):
        probe_symbol(never_called, (0.5,), (1.0,), (10.0,))


def test_probe_refuses_vanishing_tangential_part():
    with pytest.raises(NotElliptic, match="tangential part"):
        probe_symbol(never_called, (0.5, 0.5), (1.0, 0.0), (10.0,))


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
    {"gh_pm": 1.0, "b_along": 0.1, "lat_along": -1.0},
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
