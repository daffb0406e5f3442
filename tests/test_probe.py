"""probe_symbol's frequency sweep: the fit, the estimates and the PoorFit warning.

The first test runs the sweep end to end on the flat metric (nine short
solves read out through dn_trace); the second feeds it a fake pipeline.
"""

import json
import warnings

import numpy as np

from bclab.dn import DNTrace, PoorFit, dn_trace, probe_symbol, symbol_report
from bclab.geometry import MetricField, SpacetimeGrid
from bclab.solver import solve_ibvp

H = 1 / 48
GRID = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(H, H), dt=H / 2, t1=0.0, t2=0.8)
K_LIST = (14.4, 21.6, 28.8)
POINT = (0.4, 0.5)
COVECTOR = (0.25, 1.0)
WIDTH = 0.3


def sweep(pipeline):
    """The probe at POINT and COVECTOR, and the PoorFit warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = probe_symbol(pipeline, POINT, COVECTOR, K_LIST, grid=GRID,
                           t_width=WIDTH, lat_width=WIDTH)
    return est, [w for w in caught if issubclass(w.category, PoorFit)]


def test_probe_recovers_the_flat_face_symbol():
    metric = MetricField.minkowski(2)

    def pipeline(face_data):
        def dirichlet(t):
            full = np.zeros(GRID.shape, dtype=complex)
            full[:, 0] = face_data(t)
            return full

        return dn_trace(solve_ibvp(metric, None, None, GRID, dirichlet=dirichlet,
                                   store="boundary"), metric)

    est, poor = sweep(pipeline)
    assert not poor and not est.poor_fit
    got = est.estimates
    # closed-form face symbol of the flat metric: gh_pm 1, g0_plus_j 0, g0_jk -1
    err = max(abs(got["gh_pm"] - 1.0), abs(got["g0_plus_j"][0]), abs(got["g0_jk"][0][0] + 1.0))
    assert err <= 0.45
    assert est.residual <= 0.2
    assert len(est.samples) == 3 and all(set(s["responses"]) == set(K_LIST) for s in est.samples)
    body = json.loads(symbol_report(est))
    assert set(body["estimates"]) == {"gh_pm", "g0_plus_j", "g0_jk"}
    assert body["fit"]["poor_fit"] is False


def test_probe_warns_when_the_response_does_not_grow_with_k():
    def echo(face_data):
        # the face datum itself as the trace: its demodulated response is
        # the same at every k, so it does not fit slope * k
        values = np.stack([face_data(t) for t in GRID.times()])
        return DNTrace(values=values, normal_order=2, grid=GRID)

    est, poor = sweep(echo)
    assert est.residual > 0.2
    assert est.poor_fit
    assert len(poor) == 1
    assert "threshold 0.2" in str(poor[0].message)
