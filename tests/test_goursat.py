"""Characteristic-chart tests.

Oracle hierarchy, strongest first: closed forms on constant metrics (phases,
face slopes, gauge phase, transformed coefficients), independent scipy ray
integration from off-lattice launch points, exact symbolic identities
(null constraint, transport orthogonality, the conjugation of a manufactured
field), and two-route solves where the same data is propagated in lab
coordinates and in chart coordinates and the fields are compared on the
causally clean part of the rectangle.
"""

import csv
import dataclasses
import functools
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, solve_ivp

from bclab import goursat, solver
from bclab.dn import DNTrace, dn_trace, transform_dn
from bclab.expr import parse_expr
from bclab.geometry import (
    Diffeo, MetricField, NonHyperbolic, SpacetimeGrid, _det, _eval_table, _Plan, pushforward,
    trace_bicharacteristic)
from bclab.goursat import (
    CharacteristicCrossing,
    EikonalField,
    FocalRegion,
    GoursatChart,
    _coverage,
    _cumulative_trapezoid,
    _fan_rhs,
    _grid_indices,
    _integrate_fan,
    _lagrange_dweights,
    _lattice,
    _normal_root,
    _pull_to_chart,
    _row_gradient,
    _RowStencil,
    _solve_small,
    _Stencil,
    _virtual_rays,
    build_chart,
    export_chart_csv,
    export_operator_npz,
    find_chart_depth,
    potential_symbolic,
    potential_term,
    sample_field,
    solve_eikonal,
    solve_transformed_ibvp,
    solve_transport_phi,
    transform_operator,
    transformed_time_step,
)
from bclab.solver import (
    BoundarySignal,
    CFLViolation,
    _Stepper,
    apply_operator_symbolic,
    solve_ibvp,
)

VAR_METRIC_1D = MetricField(
    1,
    [["1 + 0.1*sin(x0)*cos(x1)", "0.1*cos(2*x1)"],
     ["0.1*cos(2*x1)", "-1 - 0.2*sin(x1)"]],
    ["0.2*x1", "0.1*sin(x0)"],
)

VAR_METRIC_2D = MetricField(
    2,
    [["1 + 0.1*sin(x1)*cos(x2)", "0.05*sin(x2)", "0.1*cos(x1)"],
     ["0.05*sin(x2)", "-1 - 0.1*cos(x1)", "0.05*sin(x1)*sin(x2)"],
     ["0.1*cos(x1)", "0.05*sin(x1)*sin(x2)", "-1 - 0.1*sin(x2)"]],
    ["0.1*x2", "0.2*sin(x1)", "0.1*cos(x2)"],
)

# depth speed 1 + 0.4*cos(2 pi x1), written with the square expanded; the
# slow lane at x1 = 0.5 focuses downward rays, first crossing near z = 0.184
WAVEGUIDE = MetricField(
    2,
    [["1", "0", "0"],
     ["0", "-1", "0"],
     ["0", "0",
      "-1.08 - 0.8*cos(6.283185307179586*x1) - 0.08*cos(12.566370614359172*x1)"]],
    None,
)


# the cross-term metric of the solver's time-dependent runs: every entry of
# the first row and column depends on x0
TIME_CROSS_2D = MetricField(
    2,
    [["1 + 0.1*sin(x0)*cos(x2)", "0.05*cos(x0)*sin(x2)", "0.1*cos(x1 + x0)"],
     ["0.05*cos(x0)*sin(x2)", "-1 - 0.1*cos(x1)", "0.05*sin(x1)*sin(x2)"],
     ["0.1*cos(x1 + x0)", "0.05*sin(x1)*sin(x2)", "-1 - 0.1*sin(x0 + x2)"]],
)


def grid1(h, extent=1.0, t2=2.0):
    return SpacetimeGrid(n=1, extent=(extent,), h=(h,), dt=0.4 * h, t1=0.0, t2=t2)


def chart_pipeline_1d(metric, h, depth=0.375, extent=1.0, t2=2.0):
    g = grid1(h, extent=extent, t2=t2)
    ep = solve_eikonal(metric, "+", g, depth)
    em = solve_eikonal(metric, "-", g, depth)
    ch = build_chart(ep, em, [], 0.0, t2)
    return g, ch


def ray_oracle(metric, side, launch, depth):
    """Continuous bicharacteristic from an off-lattice face launch.

    Same Hamiltonian as the fan, different integrator: scipy RK45 with tight
    tolerances, adaptive in depth, no lattice anywhere.  Returns the dense
    solution; state is (position..., tangential slot...) as functions of z.
    """
    n = metric.n
    sign = 1.0 if side == "+" else -1.0

    def eval_g(pos, z):
        env = {f"x{k}": np.array([pos[k]]) if k < n else np.array([z])
               for k in range(n + 1)}
        G = np.zeros((1, n + 1, n + 1))
        for j in range(n + 1):
            for k in range(n + 1):
                G[:, j, k] = metric.g[j][k].evaluate(env)
        return G

    def rhs(z, state):
        pos, ptan = state[:n], state[n:]
        G = eval_g(pos, z)
        root, _ = _normal_root(G, ptan[None, :])
        pfull = np.concatenate([ptan, root])
        v = 2.0 * (G[0] @ pfull)
        env = {f"x{k}": np.array([pos[k]]) if k < n else np.array([z])
               for k in range(n + 1)}
        dH = np.zeros(n + 1)
        for d in range(n + 1):
            for j in range(n + 1):
                for k in range(n + 1):
                    e = metric.g[j][k].diff(f"x{d}")
                    dH[d] += float(np.broadcast_to(
                        np.asarray(e.evaluate(env), float), (1,))[0]) \
                        * pfull[j] * pfull[k]
        return np.concatenate([v[:n] / v[n], -dH[:n] / v[n]])

    p0 = np.zeros(n)
    p0[0] = sign
    sol = solve_ivp(rhs, (0.0, depth), np.concatenate([launch, p0]),
                    rtol=1e-11, atol=1e-12, dense_output=True)
    assert sol.success
    return sol


# ---------------------------------------------------------------------------
# Root and chart algebra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric, terms", [
    (VAR_METRIC_2D, 8),
    (WAVEGUIDE, 1),
    (TIME_CROSS_2D, 11),
    (VAR_METRIC_1D, 4),
    (MetricField.minkowski(2), 0),
])
def test_ham_grad_matches_dense_contraction(metric, terms):
    # the sparse term sum must reproduce the dense d_q g^{jk} p_j p_k
    # contraction, on a lattice env and at one point (the ray tracer's case)
    size = metric.n + 1
    rng = np.random.default_rng(size)
    shape = (9, 7)
    env = {f"x{i}": rng.uniform(0.0, 1.0, shape) for i in range(size)}
    p = rng.standard_normal(shape + (size,))
    point = {k: v[2, 3] for k, v in env.items()}
    for at, cov, dims in ((env, p, shape), (point, p[2, 3], ())):
        dense = np.einsum("...jkq,...j,...k->...q",
                          _eval_table(metric.grad_g(), at, dims), cov, cov)
        g, dH = metric.eval_ham(at, dims)
        got = dH(cov)
        assert got.shape == dims + (size,)
        assert np.abs(got - dense).max() <= 1e-14 * np.abs(dense).max()
        assert g.tobytes() == metric.eval_g(at, dims).tobytes()
        # the fan's face components alone, from the terms with q < n
        g, face = metric.eval_ham(at, dims, count=size - 1)
        assert face(cov).tobytes() == np.ascontiguousarray(got[..., :-1]).tobytes()
        assert g.tobytes() == metric.eval_g(at, dims).tobytes()
    assert len(metric._ham_terms) == terms


def test_fan_flow_evaluates_no_depth_derivative(monkeypatch):
    # the fan reads dH along the face only, so VAR_METRIC_2D's four
    # d/dx2 entries of its eight are never evaluated on a fan row; g and
    # those four terms are one plan, so their shared sin/cos run once
    compiled = []
    init = _Plan.__init__
    monkeypatch.setattr(_Plan, "__init__", lambda plan, table, **kw:
                        compiled.append(table) or init(plan, table, **kw))
    metric = MetricField(2, VAR_METRIC_2D.g, VAR_METRIC_2D.A)
    pos = np.stack(np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4),
                               indexing="ij"), axis=-1)
    ptan = np.zeros(pos.shape)
    ptan[..., 0] = 1.0
    _fan_rhs(metric, pos, ptan, 0.1)
    assert list(metric._ham_plans) == [2] and [len(table) for table in compiled] == [9 + 4]
    assert [term[2] for term in metric._ham_plans[2][0]] == [1, 1, 1, 1]


def test_ray_tracer_conserves_null_condition_2d():
    # trace_bicharacteristic shares eval_ham with the fans
    y = np.array([0.3, 0.5, 0.4])
    g = VAR_METRIC_2D.eval_g({f"x{i}": y[i] for i in range(3)})
    ptan = np.array([1.0, 0.3])
    root, _ = _normal_root(g[None], ptan[None])
    ray = trace_bicharacteristic(VAR_METRIC_2D, (y, np.append(ptan, root[0])), s_max=0.3)
    assert np.abs(ray.positions[-1] - y).max() > 0.1
    assert ray.max_drift() <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_form_newton_step_matches_solve(d):
    rng = np.random.default_rng(d)
    # a perturbation of norm <= 0.3 d keeps every singular value in [2 - 0.3 d, 2 + 0.3 d]
    jac = 2.0 * np.eye(d) + 0.3 * rng.uniform(-1.0, 1.0, (40, 30, d, d))
    assert np.linalg.cond(jac).max() < (2.0 + 0.3 * d) / (2.0 - 0.3 * d)
    res = rng.standard_normal((40, 30, d))
    want = np.linalg.solve(jac, res[..., None])[..., 0]
    got = _solve_small(jac, res)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the cofactor determinant on the same batch, as nested rows and as an array
    want = np.linalg.det(jac)
    rows = [[jac[..., i, j] for j in range(d)] for i in range(d)]
    for got in (_det(jac), _det(rows)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@settings(max_examples=80, deadline=None)
@given(
    g00=st.floats(0.3, 3.0),
    g11=st.floats(-3.0, -0.3),
    g01=st.floats(-1.0, 1.0),
    p0=st.floats(0.4, 2.0),
)
def test_normal_root_solves_null_condition(g00, g11, g01, p0):
    # the depth slot must close the covector to a null one, and of the two
    # real roots the inward-going (more negative) branch is the contract
    g = np.array([[[g00, g01], [g01, g11]]])
    root, radicand = _normal_root(g, np.array([[p0]]))
    r = float(root[0])
    res = g11 * r * r + 2.0 * g01 * p0 * r + g00 * p0 * p0
    scale = abs(g11) * r * r + 2.0 * abs(g01 * p0 * r) + g00 * p0 * p0
    assert abs(res) <= 1e-9 * scale
    other = (-g01 * p0 - math.sqrt(radicand[0])) / g11
    assert r <= other + 1e-12
    assert radicand[0] == pytest.approx((g01 * p0) ** 2 - g11 * g00 * p0 * p0)


@settings(max_examples=80, deadline=None)
@given(
    s=st.floats(-4.0, 4.0),
    tau=st.floats(-4.0, 4.0),
    T1=st.floats(-2.0, 2.0),
    T2=st.floats(-2.0, 2.0),
)
def test_pair_chart_roundtrip(s, tau, T1, T2):
    y0, yn = GoursatChart.pair_to_normal(s, tau, T1, T2)
    s2, tau2 = GoursatChart.normal_to_pair(y0, yn, T1, T2)
    assert s2 == pytest.approx(s, abs=1e-9)
    assert tau2 == pytest.approx(tau, abs=1e-9)


def test_pair_jacobian_value():
    assert GoursatChart.pair_jacobian() == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# Closed forms on constant metrics
# ---------------------------------------------------------------------------

def test_flat_phases_exact():
    g = grid1(1 / 24, extent=0.25, t2=1.0)
    flat = MetricField.minkowski(1)
    ep = solve_eikonal(flat, "+", g, 0.25)
    em = solve_eikonal(flat, "-", g, 0.25)
    T, Z = np.meshgrid(g.times(), ep.depth_nodes, indexing="ij")
    assert np.abs(ep.psi - (T - Z)).max() <= 1e-12
    assert np.abs(em.psi - (1.0 - T - Z)).max() <= 1e-12
    assert np.abs(ep.grad - np.array([1.0, -1.0])).max() <= 1e-12
    assert np.abs(em.grad - np.array([-1.0, -1.0])).max() <= 1e-12
    assert np.abs(ep.residual()).max() <= 1e-12
    assert np.abs(ep.boundary_slope() + 1.0).max() <= 1e-12


def test_constant_cross_metric_face_slopes():
    # with constant time-depth coupling b the face slopes solve
    # -r^2 + 2 b p0 r + p0^2 = 0, giving -(sqrt(1 + b^2) -+ b) for the
    # advancing / receding family
    b = 0.2
    cross = MetricField(1, [["1", f"{b}"], [f"{b}", "-1"]], None)
    g = grid1(1 / 32, extent=0.25, t2=1.0)
    for side, expect in (("+", -(math.sqrt(1 + b * b) - b)),
                         ("-", -(math.sqrt(1 + b * b) + b))):
        fld = solve_eikonal(cross, side, g, 0.25)
        assert np.abs(fld.boundary_slope() - expect).max() <= 1e-12
        assert np.abs(fld.residual()).max() <= 1e-12


def test_flat_chart_is_identity():
    g, ch = chart_pipeline_1d(MetricField.minkowski(1), 1 / 32,
                              depth=0.375, t2=2.0)
    T, Z = np.meshgrid(g.times(), ch.depth_nodes, indexing="ij")
    assert np.abs(ch.y_of_x[..., 0] - T).max() <= 1e-12
    assert np.abs(ch.y_of_x[..., 1] - Z).max() <= 1e-12
    assert np.abs(ch.jacobian_det - 1.0).max() <= 1e-12
    assert not ch.focal_mask.any()
    assert np.abs(ch.d_gauge).max() == 0.0
    assert np.abs(ch.g1 - 1.0).max() <= 1e-12
    yg = ch.y_grid
    TY, ZY = np.meshgrid(yg.times(), yg.axis(1), indexing="ij")
    assert np.abs(ch.x_at_y[..., 0] - TY).max() <= 1e-12
    assert np.abs(ch.x_at_y[..., 1] - ZY).max() <= 1e-12


def test_flat_transform_matches_direct_solve():
    flat = MetricField.minkowski(1)
    g, ch = chart_pipeline_1d(flat, 1 / 32, depth=0.375, t2=2.0)
    op = transform_operator(flat, None, ch)
    assert np.abs(op.metric_matrix[..., 0, 0] - 1.0).max() == 0.0
    assert np.abs(op.metric_matrix[..., 1, 1] + 1.0).max() == 0.0
    assert np.abs(op.V1).max() == 0.0
    assert np.abs(op.potential_vector).max() == 0.0
    sig = BoundarySignal(0.5, 0.3)
    yg = op.grid
    a = solve_transformed_ibvp(op, sig, yg)
    b = solve_ibvp(flat, None, sig, yg)
    assert np.abs(a.samples - b.samples).max() <= 1e-12


def test_constant_potential_gauge_closed_form():
    # constant one-form (a0, an): the phase grows linearly in depth with
    # slope an - a0 and the receding slot of the transformed potential is a0
    g = SpacetimeGrid(n=1, extent=(1.0,), h=(1 / 32,), dt=1 / 64,
                      t1=0.0, t2=2.0)
    a0, an = 0.3, -0.7
    metric = MetricField.minkowski(1).with_potential([a0, an])
    ep = solve_eikonal(metric, "+", g, 0.5)
    em = solve_eikonal(metric, "-", g, 0.5)
    ch = build_chart(ep, em, [], 0.0, 2.0)
    zy = ch.y_grid.axis(1)[None, :]
    assert np.abs(ch.d_gauge - (an - a0) * zy).max() <= 1e-10
    op = transform_operator(metric, None, ch)
    assert np.abs(op.A_minus - a0).max() <= 1e-10
    assert np.abs(op.potential_vector[..., 0] - a0).max() <= 1e-10
    assert np.abs(op.potential_vector[..., 1] - a0).max() <= 1e-10


@pytest.mark.parametrize("shape", [(30, 7, 5), (12, 40), (5,)])
def test_gauge_phase_rule_matches_scipy(shape):
    rng = np.random.default_rng(len(shape))
    y = rng.standard_normal(shape)
    x = np.cumsum(rng.random(shape) + 0.1, axis=0)  # non-uniform, per column
    want = cumulative_trapezoid(y, x=x, axis=0, initial=0.0)
    assert np.array_equal(_cumulative_trapezoid(y, x), want)


def test_flat_chart_identity_2d():
    flat = MetricField.minkowski(2)
    h = 1 / 16
    g = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=0.35 * h,
                      t1=0.0, t2=1.4)
    ep = solve_eikonal(flat, "+", g, 0.3125)
    em = solve_eikonal(flat, "-", g, 0.3125)
    phi = solve_transport_phi(flat, em, g)
    X1 = g.axis(1)[None, :, None]
    # ray-integrator accuracy, not machine zero
    assert np.abs(phi[0] - X1).max() <= 1e-8
    ch = build_chart(ep, em, phi, 0.0, 1.4)
    assert np.abs(ch.jacobian_det - 1.0).max() <= 1e-8
    assert not ch.focal_mask.any()
    op = transform_operator(flat, None, ch)
    assert np.abs(op.gh_pm - 1.0).max() <= 1e-8
    assert np.abs(op.g0_plus_j[0]).max() <= 1e-8
    assert np.abs(op.g0_jk[0][0] + 1.0).max() <= 1e-8
    assert np.abs(op.g1 - 1.0).max() <= 1e-8
    # V1 second-differences g1, amplifying the ray noise by 1/step^2
    assert np.abs(op.V1).max() <= 5e-5
    want = np.diag([1.0, -1.0, -1.0])
    assert np.abs(op.metric_matrix - want).max() <= 1e-8


# ---------------------------------------------------------------------------
# Variable metrics: null constraint and ray oracles
# ---------------------------------------------------------------------------

def test_eikonal_cached_gradient_residual_1d():
    g = grid1(1 / 32)
    fld = solve_eikonal(VAR_METRIC_1D, "+", g, 0.375)
    # gradients ride along the rays with the phase, so the null constraint
    # holds to integrator accuracy, far below the grid's own h^2
    assert np.abs(fld.residual()).max() <= 1e-9


def test_eikonal_fd_residual_convergence_1d():
    errs = []
    for h in (1 / 32, 1 / 64):
        g = grid1(h)
        fld = solve_eikonal(VAR_METRIC_1D, "-", g, 0.375)
        errs.append(float(np.abs(fld.residual_fd()).max()))
    assert errs[0] <= 5e-4
    assert errs[1] <= 1.3e-4
    assert math.log2(errs[0] / errs[1]) >= 1.7


def test_eikonal_residuals_2d():
    h = 1 / 16
    g = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=0.35 * h,
                      t1=0.0, t2=1.4)
    fld = solve_eikonal(VAR_METRIC_2D, "+", g, 0.3125)
    assert np.abs(fld.residual()).max() <= 1e-6
    assert np.abs(fld.residual_fd()).max() <= 2e-4


def test_ray_oracle_phase_and_slots_1d():
    h = 1 / 64
    depth = 0.375
    g = grid1(h, extent=depth, t2=2.0)
    for side, frozen in (("+", lambda t0: t0), ("-", lambda t0: 2.0 - t0)):
        fld = solve_eikonal(VAR_METRIC_1D, side, g, depth)
        t0 = 0.7371
        sol = ray_oracle(VAR_METRIC_1D, side, np.array([t0]), depth - h)
        zs = np.linspace(2 * h, depth - 2 * h, 9)
        pts = np.stack([sol.sol(zs)[0], zs], axis=-1)
        got = sample_field(fld.psi, g, pts)
        assert np.abs(got - frozen(t0)).max() <= 1e-7
        p0 = sample_field(fld.grad[..., 0], g, pts)
        assert np.abs(p0 - sol.sol(zs)[1]).max() <= 1e-7


def test_ray_oracle_transport_2d():
    h = 1 / 32
    depth = 0.25
    g = SpacetimeGrid(n=2, extent=(1.0, depth), h=(h, h), dt=0.35 * h,
                      t1=0.0, t2=1.4)
    em = solve_eikonal(VAR_METRIC_2D, "-", g, depth)
    phi = solve_transport_phi(VAR_METRIC_2D, em, g)
    t0, x10 = 0.6137, 0.5213
    sol = ray_oracle(VAR_METRIC_2D, "-", np.array([t0, x10]), depth - h)
    zs = np.linspace(2 * h, depth - 2 * h, 7)
    tray, xray = sol.sol(zs)[0], sol.sol(zs)[1]
    # the ray must actually drift laterally, otherwise this checks nothing
    assert np.abs(xray - x10).max() > 1e-3
    pts = np.stack([tray, xray, zs], axis=-1)
    assert np.abs(sample_field(phi[0], g, pts) - x10).max() <= 1e-7
    assert np.abs(sample_field(em.psi, g, pts) - (1.4 - t0)).max() <= 1e-7


def test_eikonal_bitwise_deterministic_2d():
    h = 1 / 16
    g = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=0.35 * h,
                      t1=0.0, t2=1.4)
    a = solve_eikonal(VAR_METRIC_2D, "-", g, 0.25)
    b = solve_eikonal(VAR_METRIC_2D, "-", g, 0.25)
    assert a.psi.tobytes() == b.psi.tobytes()
    assert a.grad.tobytes() == b.grad.tobytes()


# x0-free, with cross terms and a potential: the fans integrate one slice
STATIC_METRIC_1D = MetricField(
    1,
    [["1 + 0.1*cos(x1)", "0.1*cos(2*x1)"],
     ["0.1*cos(2*x1)", "-1 - 0.2*sin(x1)"]],
    ["0.2*x1", "0.1*cos(x1)"],
)


def with_time_read(metric):
    """The metric with g^00 + 0*x0: the same values, but g keeps x0."""
    g = [list(row) for row in metric.g]
    g[0][0] = parse_expr(g[0][0].render() + " + 0*x0")
    return MetricField(metric.n, g, metric.A)


@pytest.mark.parametrize("metric, grid, depth", [
    pytest.param(WAVEGUIDE, SpacetimeGrid(n=2, extent=(1.0, 0.25), h=(1 / 16, 1 / 16),
                                          dt=0.3 / 16, t1=0.0, t2=0.8), 0.1875, id="waveguide"),
    pytest.param(VAR_METRIC_2D, SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(1 / 16, 1 / 16),
                                              dt=0.35 / 16, t1=0.0, t2=1.4), 0.25, id="var_2d"),
    pytest.param(STATIC_METRIC_1D, grid1(1 / 32), 0.375, id="static_1d"),
])
def test_time_free_fan_matches_the_whole_lattice_bitwise(metric, grid, depth):
    # g without x0: each launch-time slice of a fan is the first shifted in
    # time, so only that slice is integrated; the copy whose g reads x0 (times
    # zero) integrates every slice and must give the same fan bits.  Its
    # march runs on every time row, where the x0-free one runs on one, so the
    # fields agree to round-off
    timed = with_time_read(metric)
    assert goursat._distinct_rays(metric) == slice(0, 1)
    assert goursat._distinct_rays(timed) == slice(None)
    assert goursat._face_drift(metric, grid) == goursat._face_drift(timed, grid)
    for side in ("+", "-"):
        free, full = (solve_eikonal(m, side, grid, depth) for m in (metric, timed))
        # the one mark of the symmetry: the march's zero time stride
        assert free._marched[1].strides[1] == 0 != full._marched[1].strides[1]
        # the fans keep no rows: their bounds and drift, and every row the ray
        # kernel hands them, are the same bits
        assert (free._fan.bounds, free._fan.drift) == (full._fan.bounds, full._fan.drift)
        rows = [goursat._ray_rows(m, side, free._fan.axes, grid.h[-1], len(free.depth_nodes) - 1)
                for m in (metric, timed)]
        assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(*rows))
        assert np.abs(free.psi - full.psi).max() <= 1e-12
        assert np.abs(free.grad - full.grad).max() <= 1e-12
    phis = [solve_transport_phi(m, e, grid) for m, e in ((metric, free), (timed, full))]
    assert len(phis[0]) == len(phis[1]) == grid.n - 1
    assert all(np.abs(a - b).max() <= 1e-12 for a, b in zip(*phis))


# the x0-free cases above, for the tests of the one-row fans and march
TIME_FREE_CASES = [
    pytest.param(WAVEGUIDE, SpacetimeGrid(n=2, extent=(1.0, 0.25), h=(1 / 16, 1 / 16),
                                          dt=0.3 / 16, t1=0.0, t2=0.8), 0.1875, id="waveguide"),
    pytest.param(VAR_METRIC_2D, SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(1 / 16, 1 / 16),
                                              dt=0.35 / 16, t1=0.0, t2=1.4), 0.25, id="var_2d"),
    pytest.param(STATIC_METRIC_1D, grid1(1 / 32), 0.375, id="static_1d"),
]


@pytest.mark.parametrize("metric, grid, depth", TIME_FREE_CASES)
def test_time_free_fan_rows_are_constant_along_launch_time(metric, grid, depth):
    # the premise of the fold check's one-slice verdict and of the one-level
    # pull: for g without x0 every row the ray kernel hands the fan has its
    # lateral positions on one launch-time slice, bitwise, and its times are
    # that slice's shifted by the whole launch steps
    for side in ("+", "-"):
        fan = solve_eikonal(metric, side, grid, depth)._fan
        steps = (fan.axes[0] - grid.t1) / grid.dt
        assert np.abs(steps - np.round(steps)).max() <= 1e-9
        launch = fan.axes[0][(slice(None),) + (None,) * (grid.n - 1)]
        rows = goursat._ray_rows(metric, side, fan.axes, grid.h[-1], len(fan.depth_nodes) - 1)
        for _, row in rows:
            lateral = row[..., 1:]
            assert lateral.tobytes() == np.broadcast_to(lateral[:1], lateral.shape).tobytes()
            drift = row[..., 0] - launch
            assert np.abs(drift - drift[:1]).max() <= 1e-12


@pytest.mark.parametrize("metric, grid, depth", TIME_FREE_CASES)
def test_time_free_slots_are_one_time_row_with_zero_stride(metric, grid, depth):
    # g without x0: the march runs on one time row, where d psi/dt is +-1 and
    # d xi/dt is 0 exactly, and keeps the phase's departure from t - t1 or
    # t2 - t, its slots and the lateral launch coordinates on that row alone,
    # broadcast over the coverage box's time rows with a zero stride; the
    # window reads are views of them.  A time-dependent g's march stores
    # every time row
    for side, sign in (("+", 1.0), ("-", -1.0)):
        fld = solve_eikonal(metric, side, grid, depth)
        delta, slots, xi = fld._marched
        assert len(xi) == (grid.n - 1 if side == "-" else 0)
        for stored in (delta, slots, *xi):
            assert stored.shape[:grid.n + 1] == delta.shape   # (rows, *coverage box)
            assert stored.strides[1] == 0 and not stored.flags.writeable
        assert np.all(delta[0] == 0.0) and np.all(slots[..., 0] == sign)
        for x, ax in zip(xi, _lattice(grid, fld._box)[1:]):
            assert np.all(x[0] == ax)   # on the face, the lateral coordinate itself
        assert fld.grad.strides[0] == 0 and all(p.strides[0] == 0 for p in fld._phi)
    delta, slots, xi = solve_eikonal(TIME_CROSS_2D, "-", CHART_GRID_16, 0.3125)._marched
    for stored in (delta, slots, *xi):
        assert 0 not in stored.strides and not stored.flags.writeable


def test_march_substeps_come_from_the_grid_and_the_drift(monkeypatch):
    # RK4 with fourth-order central differences is stable up to a Courant
    # number of about 2.06.  On the bench chart grid a family drifts about
    # 1.0-1.1 in time per unit depth, so a depth row's hz drift / dt is about
    # 3.0 and the march takes 2 substeps per row, evaluating g once per
    # distinct stage depth: twice per substep, and once on the face.  Half
    # the dt doubles the Courant number and takes more substeps
    half = dataclasses.replace(BENCH_CHART_GRID, dt=BENCH_CHART_GRID.dt / 2)
    for metric in (VAR_METRIC_2D, TIME_CROSS_2D):
        drift = goursat._face_drift(metric, BENCH_CHART_GRID)
        for side in "+-":
            courant = BENCH_CHART_GRID.h[-1] * max(drift[side][:2]) / BENCH_CHART_GRID.dt
            assert 2.8 < courant < 3.2
            assert goursat._substeps(BENCH_CHART_GRID, drift[side]) == 2
            assert goursat._substeps(half, drift[side]) > 2
    fld = solve_eikonal(TIME_CROSS_2D, "-", BENCH_CHART_GRID, 0.3)
    eval_g, depths = MetricField.eval_g, []
    monkeypatch.setattr(MetricField, "eval_g", lambda metric, env, shape: depths.append(
        float(env["x2"])) or eval_g(metric, env, shape))
    assert fld._marched   # marched here, on first read
    rows = len(fld.depth_nodes)
    assert len(depths) == len(set(depths)) == 1 + 2 * 2 * (rows - 1)
    assert depths[::4] == list(fld.depth_nodes)


@pytest.mark.parametrize("rows", [3, 4, 7])
def test_row_gradient_is_the_whole_stack_gradient_bitwise(rows):
    # the slab forms grad phi one depth row at a time, differencing depth on
    # the three rows around each: every row, the first and the last included,
    # is byte for byte that row of np.gradient over the whole stack
    steps = (0.35 / 20, 1 / 20, 0.3 / 6)   # time, lateral, depth
    f = np.random.default_rng(rows).standard_normal((rows, 9, 6))
    parts = np.gradient(f, steps[-1], *steps[:-1], edge_order=2)
    want = np.stack(parts[1:] + parts[:1], axis=-1)
    for r in range(rows):
        got = _row_gradient(f, r, steps)
        assert got.shape == want[r].shape and got.tobytes() == want[r].tobytes(), r


@pytest.mark.parametrize("metric, grid, depth", [
    # the waveguide's fans fold by depth 0.25 on both grids
    pytest.param(WAVEGUIDE, SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(1 / 8, 1 / 8),
                                          dt=0.3 / 8, t1=0.0, t2=0.8), 0.375, id="coarse"),
    # the bench's depth-search grid at its cap
    pytest.param(WAVEGUIDE, SpacetimeGrid(n=2, extent=(1.0, 0.25), h=(1 / 16, 1 / 16),
                                          dt=0.3 / 16, t1=0.0, t2=0.8), 0.5, id="waveguide"),
    pytest.param(VAR_METRIC_2D, SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(1 / 16, 1 / 16),
                                              dt=0.35 / 16, t1=0.0, t2=1.4), 0.25, id="var_2d"),
    # the bench's chart metric, grid and depth
    pytest.param(VAR_METRIC_2D, SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(1 / 20, 1 / 20),
                                              dt=0.35 / 20, t1=0.0, t2=1.4), 0.3, id="bench"),
])
def test_time_free_fold_check_matches_the_full_jacobian(monkeypatch, metric, grid, depth):
    # g without x0: x1 is constant along launch time, so _check_fold accepts a
    # row from dt/di and one slice's dx1/dj without forming the Jacobian; on
    # every depth row, folded or not, it gives the full Jacobian's verdict and
    # message
    check, det, rows, dets = goursat._check_fold, goursat._det, [], []
    monkeypatch.setattr(goursat, "_check_fold", lambda *row: rows.append(row))
    for side in ("+", "-"):
        pads = goursat._default_pads(grid, depth, goursat._face_drift(metric, grid), side)
        _integrate_fan(metric, side, grid, depth, *pads)
    monkeypatch.setattr(goursat, "_det", lambda m: dets.append(1) or det(m))

    def verdict(pos, side, z, rays):
        dets.clear()
        try:
            check(pos, side, z, rays)
        except CharacteristicCrossing as err:
            return str(err), len(dets)
        return None, len(dets)

    folds = []
    for pos, side, z, rays in rows:
        assert rays == slice(0, 1)
        got, formed = verdict(pos, side, z, rays)
        assert got == verdict(pos, side, z, slice(None))[0]
        folds.append(got is not None)
        assert formed == folds[-1]   # an accepted row forms no Jacobian
    assert any(folds) == (metric is WAVEGUIDE) and not all(folds)


@pytest.mark.parametrize("shape", [(9,), (7, 8), (6, 7, 5)])
def test_lagrange_exact_on_cubics(shape):
    """Values of a tensor cubic, edge cells included, and the along-ray
    form's values and derivatives."""
    ndim = len(shape)
    rng = np.random.default_rng(ndim)
    coef = rng.standard_normal((4,) * ndim + (2,))
    spec = ",".join(f"...{a}" for a in "abc"[:ndim]) + f",{'abc'[:ndim]}k->...k"

    def poly(idx):
        # cubic in every u_d = idx_d / (N_d - 1)
        factors = [np.stack([(idx[..., d] / (size - 1.0)) ** p for p in range(4)], axis=-1)
                   for d, size in enumerate(shape)]
        return np.einsum(spec, *factors, coef)

    nodes = np.stack(np.meshgrid(*[np.arange(float(s)) for s in shape], indexing="ij"), axis=-1)
    F = poly(nodes)
    top = np.array(shape) - 1.0
    pts = np.concatenate([rng.random((40, ndim)) * top,
                          rng.random((10, ndim)),                  # first cells
                          top - rng.random((10, ndim)),            # last cells
                          np.zeros((1, ndim)), top[None]])
    stencil = _Stencil(pts, shape)
    value = stencil(F)
    assert value.shape == (len(pts), 2)
    assert np.abs(value - poly(pts)).max() <= 1e-12
    # one located stencil serves any array on the grid
    assert stencil(F[..., ::-1]).tobytes() == np.ascontiguousarray(value[..., ::-1]).tobytes()

    # the along-ray form: column c holds its own cubic in u = row / (rows - 1)
    # and is read at its own fractional row r[c], edge cells and end rows included
    rows = shape[0]
    ccoef = rng.standard_normal((4, 16))
    r = np.concatenate([rng.random(10) * (rows - 1.0), rng.random(2), rows - 1.0 - rng.random(2),
                        [0.0, rows - 1.0]])
    u_nodes = np.arange(float(rows))[:, None] / (rows - 1.0)
    F = sum(ccoef[q] * u_nodes ** q for q in range(4))
    u = r / (rows - 1.0)
    want = sum(ccoef[q] * u ** q for q in range(4))
    dwant = sum(q * ccoef[q] * u ** (q - 1) for q in range(1, 4)) / (rows - 1.0)
    stencil = _RowStencil(r, np.arange(r.size), F.shape)
    assert np.abs(stencil(F) - want).max() <= 1e-12
    assert np.abs(stencil(F, _lagrange_dweights) - dwant).max() <= 1e-12


@pytest.mark.parametrize("shape", [(9,), (7, 8)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stencil_reads_a_strided_view_as_its_copy(shape, k):
    # every other node of a larger grid, components last: the gather must
    # read the view's values, not its buffer's layout
    rng = np.random.default_rng(10 * k + len(shape))
    every_other = (slice(None, None, 2),) * len(shape)
    view = rng.standard_normal(tuple(2 * s for s in shape) + (k,))[every_other]
    assert not view.flags.c_contiguous
    copy = np.ascontiguousarray(view)
    pts = rng.random((15, len(shape))) * (np.array(shape) - 1.0)
    stencil = _Stencil(pts, shape)
    got = stencil(view)
    assert got.shape == (15, k)
    assert got.tobytes() == stencil(copy).tobytes()


def test_stencil_gathers_without_copying_its_source():
    # a few points on a 2 MB node-major grid: the gather reads the nodes in
    # place, so one call allocates far less than the grid it reads
    F = np.random.default_rng(0).standard_normal((400, 320, 2))
    stencil = _Stencil(np.array([[10.5, 20.25], [200.0, 300.75], [398.9, 0.1]]), F.shape[:-1])
    tracemalloc.start()
    try:
        stencil(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < F.nbytes


def test_chart_pull_refuses_unconverged_depth_lookup():
    g = grid1(1 / 32)
    flat = MetricField.minkowski(1)
    em = solve_eikonal(flat, "-", g, 0.375)
    cover = _lattice(g, _coverage(em._fan, g))
    rays = _virtual_rays(flat, g, cover, len(em.depth_nodes), None)
    fracs = _grid_indices(rays.pos, cover)
    ext_t, z = cover[0], em.depth_nodes
    # flat space: the advancing phase on the slab is t - z - t1, and the
    # outgoing potential is zero
    s = ext_t[:, None] - g.t1 - z
    _pull_to_chart(rays, fracs, {"s": s, "Ap": 0 * s}, g, 0.0, 2.0)
    # a row-to-row wiggle keeps s monotone in depth, so every chart node has
    # a root, but two Newton steps no longer reach it
    wiggle = 0.03 * z * np.cos(np.pi * np.arange(len(z)))
    with pytest.raises(ValueError, match=r"\d+ chart nodes miss the advancing phase .*"
                                         r"worst residual .* at chart node y = \("):
        _pull_to_chart(rays, fracs, {"s": s - wiggle, "Ap": 0 * s}, g, 0.0, 2.0)


def test_chart_path_refusals_name_the_quantity_and_its_bound():
    g = grid1(1 / 32)
    flat = MetricField.minkowski(1)
    num = r"-?\d+\.\d+"
    # coverage: the covered span against the window's, per axis
    short = _integrate_fan(flat, "-", g, 0.375, 0.01, 0.0)
    with pytest.raises(ValueError, match=rf"covers \[{num}, {num}\] on x0, but the slab window "
                                         rf"needs \[0\.0000, 2\.0000\]; increase pad_time/pad_lat"):
        _coverage(short, g)
    em = solve_eikonal(flat, "-", g, 0.375)
    cover = _lattice(g, _coverage(em._fan, g))
    rows = len(em.depth_nodes)
    # containment: a virtual ray that leaves the fans' coverage overlap, here
    # one moved 50 past every ray, names the axis, the overlap and the pad
    with pytest.raises(ValueError, match=rf"virtual receding ray launched at \({num}\) reaches "
                                         rf"x0 = {num} on depth row \d+, outside the fans' "
                                         rf"coverage overlap \[{num}, {num}\]; increase pad_time"):
        _virtual_rays(flat, g, (cover[0] + 50.0,), rows, None)
    # the pull: the launch range against what the chart needs.  An overlap that
    # starts after the window start loses the rays launched there; the message
    # names the deepest point of the worst ray: t = -0.375 at depth 0.375
    k = int(np.searchsorted(cover[0], 0.1))
    with pytest.raises(ValueError, match=r"launched at \(0\.0000\) reaches x0 = -0\.3750 on depth "
                                         r"row 12, outside the fans' coverage overlap \[0\.1000, "
                                         rf"{num}\]; increase pad_time"):
        _virtual_rays(flat, g, (cover[0][k:],), rows, None)
    k = int(np.searchsorted(cover[0], 2.1))
    with pytest.raises(ValueError, match=rf"launches end at t = {num}, -?\d+ chart depth steps "
                                         rf"of {num} past T2 = 2\.0000, need 4; increase pad_time"):
        _virtual_rays(flat, g, (cover[0][:k],), rows, None)
    rays = _virtual_rays(flat, g, cover, rows, None)
    s = cover[0][:, None] - g.t1 - em.depth_nodes
    with pytest.raises(ValueError, match=r"the rays reach \d+ chart depth steps of "
                                         rf"{num}, need 4; deepen the slab"):
        _pull_to_chart(rays, _grid_indices(rays.pos, cover), {"s": s + 10.0, "Ap": 0 * s},
                       g, 0.0, 2.0)
    g2 = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(1 / 16, 1 / 16), dt=0.35 / 16, t1=0.0, t2=1.4)
    flat2 = MetricField.minkowski(2)
    em2 = solve_eikonal(flat2, "-", g2, 0.25)
    cover2 = _lattice(g2, _coverage(em2._fan, g2))
    k = int(np.searchsorted(cover2[1], 0.1))
    with pytest.raises(ValueError, match=rf"launched at \({num}, 0\.0000\) reaches x1 = 0\.0000 "
                                         rf"on depth row 0, outside the fans' coverage overlap "
                                         rf"\[0\.1250, 1\.\d+\]; increase pad_lat"):
        _virtual_rays(flat2, g2, (cover2[0], cover2[1][k:]), len(em2.depth_nodes), None)


def test_fan_refusals_name_the_value_and_its_bound():
    num = r"-?\d+\.\d+"
    g = grid1(1 / 32)
    flat = MetricField.minkowski(1)
    with pytest.raises(ValueError, match=r"slab depth 0\.0625 is 2 depth steps of "
                                         r"h_n = 0\.0312; need at least 3"):
        _integrate_fan(flat, "+", g, 0.0625, 0.5, 0.0)
    with pytest.raises(ValueError, match=r"side must be '\+' or '-', got 'x'"):
        solve_eikonal(flat, "x", g, 0.375)
    with pytest.raises(ValueError, match=r"depth must be positive, got -0\.1"):
        solve_eikonal(flat, "+", g, -0.1)
    with pytest.raises(ValueError, match=r"cap 0\.0500 allows 1 depth steps of h_n = 0\.0312; "
                                         r"need at least 3 \* h_n = 0\.0938"):
        find_chart_depth(flat, g, 0.05)
    # the radicand is x0-free here, so the refusal names no launch time
    slow = MetricField(2, [["1 - 2*x2*(1 + 0.5*x1)", "0", "0"], ["0", "-1", "0"],
                           ["0", "0", "-1"]])
    g2 = SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 16, 1 / 16), dt=0.3 / 16, t1=0.0, t2=0.8)
    with pytest.raises(CharacteristicCrossing,
                       match=rf"degenerates near depth {num}: least radicand {num} <= 0 at "
                             r"lateral launch node \(\d+,\)$"):
        solve_eikonal(slow, "+", g2, 0.75)
    coarse = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(1 / 8, 1 / 8), dt=0.3 / 8, t1=0.0, t2=0.8)
    fold = rf"'\+' family folds over by depth 0\.2500: least Jacobian {num}(e-\d+)? <= 0 at " \
           r"launch node \(\d+, \d+\)"
    with pytest.raises(CharacteristicCrossing, match=fold):
        solve_eikonal(WAVEGUIDE, "+", coarse, 0.375)
    with pytest.raises(CharacteristicCrossing,
                       match=r"the '\+' family folds within three depth steps: " + fold):
        find_chart_depth(WAVEGUIDE, coarse, 0.5)


def test_transport_orthogonality_2d():
    # the transported fields are constant on receding rays, so their
    # gradients pair to zero with the receding phase gradient
    def defect(h):
        depth = 0.25
        g = SpacetimeGrid(n=2, extent=(1.0, depth), h=(h, h), dt=0.35 * h,
                          t1=0.0, t2=1.2)
        em = solve_eikonal(VAR_METRIC_2D, "-", g, depth)
        ph = solve_transport_phi(VAR_METRIC_2D, em, g)[0]
        steps = [g.dt, h, h]
        dphi = np.stack(np.gradient(ph, *steps, edge_order=2), axis=-1)
        env = {"x0": g.times()[:, None, None],
               "x1": g.axis(1)[None, :, None],
               "x2": g.axis(2)[None, None, :]}
        G = np.zeros(ph.shape + (3, 3))
        for j in range(3):
            for k in range(3):
                G[..., j, k] = VAR_METRIC_2D.g[j][k].evaluate(env)
        ip = np.einsum("...jk,...j,...k->...", G, em.grad, dphi)
        return float(np.abs(ip[2:-2, 2:-2, 1:-1]).max())

    d1, d2 = defect(1 / 16), defect(1 / 32)
    assert d1 <= 3e-5
    assert d2 <= 9e-6
    assert math.log2(d1 / d2) >= 1.5


def test_transport_requires_receding_family():
    g = grid1(1 / 32, extent=0.25, t2=1.0)
    ep = solve_eikonal(MetricField.minkowski(1), "+", g, 0.25)
    with pytest.raises(ValueError):
        solve_transport_phi(MetricField.minkowski(1), ep, g)
    em = solve_eikonal(MetricField.minkowski(1), "-", g, 0.25)
    assert solve_transport_phi(MetricField.minkowski(1), em, g) == []


# ---------------------------------------------------------------------------
# Chart construction
# ---------------------------------------------------------------------------

def test_chart_face_identity_and_depth_sign_1d():
    g, ch = chart_pipeline_1d(VAR_METRIC_1D, 1 / 32)
    face_y0 = ch.y_of_x[:, 0, 0]
    face_yn = ch.y_of_x[:, 0, 1]
    assert np.abs(face_y0 - g.times()).max() <= 1e-12
    assert np.abs(face_yn).max() <= 1e-12
    assert (ch.y_of_x[:, 1:, 1] > 0.0).all()


def test_chart_face_identity_2d():
    h = 1 / 16
    g = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=0.35 * h,
                      t1=0.0, t2=1.4)
    ep = solve_eikonal(VAR_METRIC_2D, "+", g, 0.3125)
    em = solve_eikonal(VAR_METRIC_2D, "-", g, 0.3125)
    phi = solve_transport_phi(VAR_METRIC_2D, em, g)
    ch = build_chart(ep, em, phi, 0.0, 1.4)
    T, X1 = np.meshgrid(g.times(), g.axis(1), indexing="ij")
    assert np.abs(ch.y_of_x[:, :, 0, 0] - T).max() <= 1e-12
    assert np.abs(ch.y_of_x[:, :, 0, 1] - X1).max() <= 1e-12
    assert np.abs(ch.y_of_x[:, :, 0, 2]).max() <= 1e-12
    assert (ch.y_of_x[:, :, 1:, 2] > 0.0).all()
    assert not ch.focal_mask.any()
    assert 0.9 <= ch.jacobian_det.min() <= ch.jacobian_det.max() <= 1.2
    # gauge phase vanishes on the face by construction
    assert np.abs(ch.d_gauge[..., 0]).max() <= 1e-14


# VAR_METRIC_2D with a lateral-depth coupling that turns the receding rays
# toward larger x1: their deep rows, not the face, bound the chart's read box
# from above in x1
LATERAL_DRIFT_2D = MetricField(
    2,
    [["1 + 0.1*sin(x1)*cos(x2)", "0.05*sin(x2)", "0.1*cos(x1)"],
     ["0.05*sin(x2)", "-1 - 0.1*cos(x1)", "-0.2 + 0.05*sin(x1)*sin(x2)"],
     ["0.1*cos(x1)", "-0.2 + 0.05*sin(x1)*sin(x2)", "-1 - 0.1*sin(x2)"]],
    ["0.1*x2", "0.2*sin(x1)", "0.1*cos(x2)"],
)


@pytest.mark.parametrize("metric", [VAR_METRIC_2D, LATERAL_DRIFT_2D], ids=["var", "drift"])
def test_chart_read_box_matches_the_whole_overlap(monkeypatch, metric):
    # build_chart reads the marches and builds the slab fields only on the
    # nodes its stencils, differences and window read; on the whole coverage
    # overlap every chart output is bitwise the same
    h = 1 / 16
    g = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=0.35 * h,
                      t1=0.0, t2=1.4)
    ep = solve_eikonal(metric, "+", g, 0.3125)
    em = solve_eikonal(metric, "-", g, 0.3125)
    phi = solve_transport_phi(metric, em, g)
    read_box, boxes = goursat._read_box, []

    def spy(fracs, overlap, grid):
        boxes.append((read_box(fracs, overlap, grid), overlap))
        return boxes[-1][0]

    monkeypatch.setattr(goursat, "_read_box", spy)
    ch = build_chart(ep, em, phi, 0.0, 1.4)
    # the box leaves out nodes of the overlap on every side of both axes
    (box, overlap), = boxes
    assert all(o[0] < b[0] and b[1] < o[1] for b, o in zip(box, overlap))
    monkeypatch.setattr(goursat, "_read_box", lambda fracs, overlap, grid: overlap)
    whole = build_chart(ep, em, phi, 0.0, 1.4)
    for name in ("x_at_y", "g1", "d_gauge", "y_of_x", "jacobian_det", "focal_mask"):
        assert getattr(ch, name).tobytes() == getattr(whole, name).tobytes(), name
    assert ch._pull.keys() == whole._pull.keys()
    for name, value in ch._pull.items():
        assert value.tobytes() == whole._pull[name].tobytes(), name


@pytest.mark.parametrize("metric", [VAR_METRIC_2D, TIME_CROSS_2D], ids=["var", "time_cross"])
def test_each_field_is_marched_once_per_chart(monkeypatch, metric):
    # solve_eikonal only integrates the fans; the '-' field marches once, for
    # solve_transport_phi, and every window field comes from that march;
    # build_chart marches the '+' field and reads both on its read box as
    # slices of the two marches
    g = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(1 / 16, 1 / 16), dt=0.35 / 16,
                      t1=0.0, t2=1.4)
    march, calls = goursat._march, []
    monkeypatch.setattr(goursat, "_march",
                        lambda metric, side, grid, fan, box:
                        calls.append(id(fan)) or march(metric, side, grid, fan, box))
    ep, em = (solve_eikonal(metric, side, g, 0.3125) for side in "+-")
    assert calls == []
    phi = solve_transport_phi(metric, em, g)
    assert calls == [id(em._fan)]
    assert em.psi.shape == em.grad.shape[:-1] == phi[0].shape
    assert calls == [id(em._fan)]
    build_chart(ep, em, phi, 0.0, 1.4)
    assert calls == [id(em._fan), id(ep._fan)]


def test_chart_inverse_map_roundtrip_1d():
    h = 1 / 32
    g, ch = chart_pipeline_1d(VAR_METRIC_1D, h, depth=0.375,
                              extent=0.5, t2=1.0)
    yg = ch.y_grid
    sgrid = SpacetimeGrid(n=1, extent=(0.375,), h=(h,), dt=g.dt,
                          t1=0.0, t2=1.0)
    T, Z = np.meshgrid(yg.times(), yg.axis(1), indexing="ij")
    for comp, ref in ((0, T), (1, Z)):
        got = sample_field(ch.y_of_x[..., comp], sgrid, ch.x_at_y)
        assert np.abs(got - ref).max() <= 1e-7


def test_chart_input_validation():
    flat = MetricField.minkowski(1)
    g = grid1(1 / 32)
    ep = solve_eikonal(flat, "+", g, 0.375)
    em = solve_eikonal(flat, "-", g, 0.375)
    with pytest.raises(ValueError, match="in that order"):
        build_chart(em, ep, [], 0.0, 2.0)  # sides swapped
    with pytest.raises(ValueError, match="time window"):
        build_chart(ep, em, [], 0.0, 1.5)  # window disagrees with the grid
    with pytest.raises(ValueError, match="lateral"):
        build_chart(ep, em, [np.zeros_like(ep.psi)], 0.0, 2.0)  # no laterals in 1d


def test_chart_input_refusals_name_the_value_and_its_bound():
    flat = MetricField.minkowski(1)
    g = grid1(1 / 32)
    ep = solve_eikonal(flat, "+", g, 0.375)
    em = solve_eikonal(flat, "-", g, 0.375)
    with pytest.raises(ValueError, match=r"receding \('-'\) family, got side '\+'"):
        solve_transport_phi(flat, ep, g)
    with pytest.raises(ValueError, match=r"in that order, got \('-', '\+'\)"):
        build_chart(em, ep, [], 0.0, 2.0)
    narrow = solve_eikonal(flat, "-", grid1(1 / 32, extent=0.5), 0.375)
    with pytest.raises(ValueError, match=r"different grids: SpacetimeGrid\(n=1, extent=\(1\.0,\)"
                                         r".* and SpacetimeGrid\(n=1, extent=\(0\.5,\)"):
        build_chart(ep, narrow, [], 0.0, 2.0)
    with pytest.raises(ValueError, match=r"chart window \[0\.0, 1\.5\] must match the grid's "
                                         r"time window \[0\.0, 2\.0\]"):
        build_chart(ep, em, [], 0.0, 1.5)
    with pytest.raises(ValueError, match=r"got 1 transported lateral fields, need one per "
                                         r"lateral axis, n - 1 = 0"):
        build_chart(ep, em, [np.zeros_like(ep.psi)], 0.0, 2.0)
    shallow = solve_eikonal(flat, "-", g, 0.25)
    with pytest.raises(ValueError, match=r"different depths: 13 rows to 0\.375 and 9 rows "
                                         r"to 0\.25$"):
        build_chart(ep, shallow, [], 0.0, 2.0)
    flat2 = MetricField.minkowski(2)
    g2 = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(1 / 8, 1 / 8), dt=0.3 / 8, t1=0.0, t2=0.8)
    ep2, em2 = (solve_eikonal(flat2, side, g2, 0.375) for side in "+-")
    with pytest.raises(ValueError, match=r"transported field shape \(3, 3\) must share the "
                                         r"phase slab shape \(22, 9, 4\)"):
        build_chart(ep2, em2, [np.zeros((3, 3))], 0.0, 0.8)


def give_minus_the_plus_slots(monkeypatch, coords, row):
    """Make build_chart read psi-'s slots as psi+'s at one node of its read
    box: the (time, lateral...) node nearest coords, on the given depth row.
    Both fields are read on that box through EikonalField._on."""
    on, plus = EikonalField._on, {}

    def inject(field, box):
        psi, slots, xi = on(field, box)
        slots = np.array(slots)   # a read-only view of the march
        node = (row, *(int(np.argmin(np.abs(ax - c)))
                       for ax, c in zip(_lattice(field.grid, box), coords)))
        if field.side == "+":
            plus["slots"] = slots[node].copy()
        else:
            slots[node] = plus["slots"]
        return psi, slots, xi

    monkeypatch.setattr(EikonalField, "_on", inject)


def test_chart_refuses_singular_one_form_node(monkeypatch):
    # psi- taking psi+'s gradient at one window node makes the one-form system
    # for the hatted potentials exactly singular there; flat phases have
    # constant gradients.  build_chart reads both fields on the nodes it
    # needs, so the gradient goes in where it reads them.
    flat = MetricField.minkowski(1)
    g = grid1(1 / 32)
    ep = solve_eikonal(flat, "+", g, 0.375)
    em = solve_eikonal(flat, "-", g, 0.375)
    give_minus_the_plus_slots(monkeypatch, (1.0,), 3)   # t = 1, depth 3/32
    with pytest.raises(FocalRegion, match=r"singular at slab node \(.*, 0\.09375\): det 0"):
        build_chart(ep, em, [], 0.0, 2.0)


def test_chart_refuses_singular_one_form_node_2d(monkeypatch):
    # the injection above, in 2D and at depth row 2: the slab algebra is formed
    # one depth row at a time, and each row's one-form system is checked before
    # it is solved, so the refusal names the node instead of dividing by zero
    flat, g = MetricField.minkowski(2), CHART_GRID_16
    ep, em = (solve_eikonal(flat, side, g, 0.3125) for side in "+-")
    phi = solve_transport_phi(flat, em, g)
    give_minus_the_plus_slots(monkeypatch, (0.7, 0.25), 2)   # depth 0.125
    with pytest.raises(FocalRegion, match=r"singular at slab node \(0\.7, 0\.25, 0\.125\): "
                                          r"det 0$"):
        build_chart(ep, em, phi, 0.0, 1.4)


def test_chart_does_not_keep_the_fans_alive():
    # the chart and its operator keep only what they read: once the phase
    # fields go, their fans go with them
    flat = MetricField.minkowski(1)
    g = grid1(1 / 32)
    ep = solve_eikonal(flat, "+", g, 0.375)
    em = solve_eikonal(flat, "-", g, 0.375)
    phi = solve_transport_phi(flat, em, g)
    chart = build_chart(ep, em, phi, 0.0, 2.0)
    op = transform_operator(flat, None, chart)
    fans = [weakref.ref(ep._fan), weakref.ref(em._fan)]
    del ep, em, phi
    gc.collect()
    assert [ref() is None for ref in fans] == [True, True]
    assert op.grid is chart.y_grid


def test_pad_too_small_raises():
    g = grid1(1 / 24, extent=0.25, t2=1.0)
    with pytest.raises(ValueError, match="pad_time"):
        solve_eikonal(MetricField.minkowski(1), "+", g, 0.25, pad_time=0.01)


# the bench's chart grid and depth
BENCH_CHART_GRID = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(1 / 20, 1 / 20), dt=0.35 / 20,
                                 t1=0.0, t2=1.4)


def chart_stages(metric, grid, depth):
    ep, em = (solve_eikonal(metric, side, grid, depth) for side in "+-")
    chart = build_chart(ep, em, solve_transport_phi(metric, em, grid), grid.t1, grid.t2)
    return ep, em, chart, transform_operator(metric, None, chart)


@pytest.mark.parametrize("metric", [VAR_METRIC_2D, TIME_CROSS_2D], ids=["var", "time_cross"])
def test_fan_lattices_fit_the_drift_and_the_reach(metric):
    # the rays drift about 0.3 in time and under a fifth of a node laterally:
    # each fan's lattice is padded to that and to the pull's reach, not to half
    # the window and the time slope on every side, and the chart keeps its shape
    ep, em, chart, _ = chart_stages(metric, BENCH_CHART_GRID, 0.3)
    for fan in (ep._fan, em._fan):
        assert len(fan.axes[0]) < 235 and len(fan.axes[1]) < 55
    assert chart.y_grid.shape == (21, 6) and chart.y_grid.nt == 85


@pytest.mark.parametrize("metric, grid, depth, t2", [
    pytest.param(VAR_METRIC_2D, BENCH_CHART_GRID, 0.3, 1.4, id="var"),
    pytest.param(TIME_CROSS_2D, BENCH_CHART_GRID, 0.3, 1.4, id="time_cross"),
    pytest.param(VAR_METRIC_1D, grid1(1 / 32), 0.375, 2.0, id="var_1d"),
])
def test_reach_cap_leaves_the_chart_bitwise_equal(monkeypatch, metric, grid, depth, t2):
    # the pull's launches stop at the slab's reach, one step past drop / (2 dz);
    # launched on to where the fan ends, as the half-window cap did, the rays
    # past the reach change no chart output
    ep, em = (solve_eikonal(metric, side, grid, depth) for side in "+-")
    phi = solve_transport_phi(metric, em, grid)
    virtual, launches = goursat._virtual_rays, []

    def spy(metric, grid, cover, rows, y_depth, drop=None, one_level=False):   # the second: no cap
        rays = virtual(metric, grid, cover, rows, y_depth, None if launches else drop, one_level)
        launches.append(rays.pos.shape[1])
        return rays

    monkeypatch.setattr(goursat, "_virtual_rays", spy)
    capped, uncapped = (build_chart(ep, em, phi, 0.0, t2) for _ in range(2))
    assert launches[0] < launches[1]
    for name in ("x_at_y", "g1", "d_gauge", "y_of_x", "jacobian_det", "focal_mask"):
        assert getattr(capped, name).tobytes() == getattr(uncapped, name).tobytes(), name
    for name, value in capped._pull.items():
        assert value.tobytes() == uncapped._pull[name].tobytes(), name


def test_chart_refuses_launches_that_end_before_its_reach():
    # flat 1D: the advancing phase falls by 0.75 along every receding ray, so
    # the chart reaches 12 depth steps of 1/32; launches that end 8 steps past
    # T2 are refused instead of giving a shallower chart
    flat, g = MetricField.minkowski(1), grid1(1 / 32)
    ep, em = (EikonalField(side, g, fan.depth_nodes, flat, fan, _coverage(fan, g))
              for side, fan in (("+", _integrate_fan(flat, "+", g, 0.375, (0.8, 0.5), 0.0)),
                                ("-", _integrate_fan(flat, "-", g, 0.375, (0.4, 0.625), 0.0))))
    with pytest.raises(ValueError, match=r"the rays reach all 8 chart depth steps of 0\.0312 "
                                         r"that the launches support, and the slab may reach "
                                         r"deeper; increase pad_time"):
        build_chart(ep, em, [], 0.0, 2.0)
    assert build_chart(*(solve_eikonal(flat, side, g, 0.375) for side in "+-"), [],
                       0.0, 2.0).y_grid.shape == (13,)


def chart_stages_peak(metric):
    """tracemalloc peak of the chart stages on the bench grid, depth 0.3,
    after one warm run (lazy imports, plans)."""
    chart_stages(metric, BENCH_CHART_GRID, 0.3)
    gc.collect()
    tracemalloc.start()
    try:
        chart_stages(metric, BENCH_CHART_GRID, 0.3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chart_stages_peak_memory_on_a_time_dependent_metric():
    # the paper's case: every launch slice integrated, every time row marched.
    # With the fans keeping no positions, the phases marched once per field
    # and kept on the coverage box, the slab algebra formed one depth row at a
    # time and the pull dropping the slab and each sample once read, the chart
    # stages peak near 7.42 MiB under tracemalloc on the bench grid; with the
    # fans keeping every ray's positions they peaked at 8.72 MiB, with the
    # fans inverted onto the read box, Newton's slopes on top, at 9.78 MiB,
    # with the slab and the samples kept through the pull at 10.8 MiB, with
    # the whole slab's algebra alive at once at 14.8 MiB, and padded to half
    # the window on every side at 20 MB
    assert chart_stages_peak(TIME_CROSS_2D) < 8.0 * 2 ** 20


def test_chart_stages_peak_memory_on_a_time_free_metric():
    # the bench's chart metric: neither g nor A reads x0, so the fans
    # integrate one launch-time slice, the marches run on one time row and the
    # pull samples one chart-time level.  The chart stages peak near 2.36 MiB
    # under tracemalloc on the bench grid; with the fans keeping every ray's
    # positions they peaked at 3.66 MiB, with the fans inverted onto the read
    # box at 4.0 MiB, with the slots and grad phi whole on the read box at
    # 5.2 MiB, with p stored on every launch time at 7.1 MiB, with the whole
    # slab's algebra alive at once at 10.9 MiB, and pulling every level at
    # 14.8 MiB
    assert chart_stages_peak(VAR_METRIC_2D) < 2.6 * 2 ** 20


def test_chart_stages_peak_memory_when_only_a_reads_x0():
    # one-slice fans, one-row marches and an every-level pull: the chart
    # stages peak near 4.85 MiB; with the fans keeping every ray's positions
    # they peaked at 6.15 MiB, with the fans inverted onto the read box at
    # 6.3 MiB, with the slots and grad phi whole on the read box at 7.1 MiB,
    # with p on every launch time and the slab and the samples kept through
    # the pull at 10.8 MiB
    assert chart_stages_peak(A_READS_X0_2D) < 5.3 * 2 ** 20


def test_chart_depth_search_peak_memory():
    # the bench's depth search on the waveguide: each probe integrates two
    # fans that check every row as it goes and keep none, so the search peaks
    # near 0.46 MiB under tracemalloc; with every fan keeping its rays'
    # positions on every row it peaked at 1.42 MiB
    g = SpacetimeGrid(n=2, extent=(1.0, 0.25), h=(1 / 16, 1 / 16), dt=0.3 / 16, t1=0.0, t2=0.8)
    assert find_chart_depth(WAVEGUIDE, g, 0.5) == 0.1875   # warm: plans, lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        find_chart_depth(WAVEGUIDE, g, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2 ** 20


CHART_GRID_16 = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(1 / 16, 1 / 16), dt=0.35 / 16,
                              t1=0.0, t2=1.4)

# charts whose g and A have no x0: the bench's chart metric, the waveguide
# below its fold, and a static 1D metric with cross terms and a potential
ONE_LEVEL_CASES = [
    pytest.param(VAR_METRIC_2D, CHART_GRID_16, 0.3125, id="var_2d"),
    pytest.param(WAVEGUIDE, SpacetimeGrid(n=2, extent=(1.0, 0.25), h=(1 / 40, 1 / 40),
                                          dt=0.3 / 40, t1=0.0, t2=0.8), 0.15, id="waveguide"),
    pytest.param(STATIC_METRIC_1D, grid1(1 / 32), 0.375, id="static_1d"),
]

# a g without x0 whose A reads x0: the fans take the x0-free shortcuts, but
# the pulled potentials and the gauge phase change with chart time
A_READS_X0_2D = VAR_METRIC_2D.with_potential(["0.1*x2", "0.2*sin(x1)*cos(x0)", "0.1*cos(x2)"])


def every_level_stages(monkeypatch, metric, grid, depth):
    """chart_stages with the level rule set to pull every chart-time level."""
    with monkeypatch.context() as patch:
        patch.setattr(goursat, "_one_level", lambda metric: False)
        return chart_stages(metric, grid, depth)


def transformed_run(op):
    """The transformed operator's run from a smooth start, zero on the faces."""
    env = op.grid.env_at_time(op.grid.t1)
    u0 = np.ones(op.grid.shape, dtype=complex)
    for i in range(1, op.grid.n + 1):
        x = env[f"x{i}"]
        u0 = u0 * np.sin(np.pi * (x - x.min()) / (x.max() - x.min()))
    return solve_transformed_ibvp(op, None, op.grid, initial=(u0, 1.01 * u0))


def spy_rays(monkeypatch):
    """Record every _Rays the chart pull launches."""
    virtual, launched = goursat._virtual_rays, []
    monkeypatch.setattr(goursat, "_virtual_rays",
                        lambda *args, **kw: launched.append(virtual(*args, **kw)) or launched[-1])
    return launched


def test_virtual_rays_match_the_ray_oracle(monkeypatch):
    # the pull's receding rays are integrated from their own launches on the
    # chart's time lattice, which lie between the fans' launch nodes.  On
    # TIME_CROSS_2D, where every launch slice differs, each sampled ray matches
    # scipy's independent integration on every slab row: measured 4.0e-10 at
    # worst against a time drift near 0.3; bound about 15% above
    launched = spy_rays(monkeypatch)
    ep, *_ = chart_stages(TIME_CROSS_2D, BENCH_CHART_GRID, 0.3)
    rays, = launched
    dty = goursat._chart_steps(BENCH_CHART_GRID)[0]
    lateral = BENCH_CHART_GRID.axis(1)
    zs = ep.depth_nodes
    for i, j in ((0, 0), (17, 5), (42, 10), (84, 20), (105, 13)):
        launch = np.array([BENCH_CHART_GRID.t1 + dty * (rays.first + i), lateral[j]])
        want = ray_oracle(TIME_CROSS_2D, "-", launch, zs[-1]).sol(zs)[:2].T
        assert np.abs(rays.pos[:, i, j] - want).max() <= 4.7e-10, (i, j)


@pytest.mark.parametrize("metric, grid, depth", ONE_LEVEL_CASES)
def test_one_level_chart_matches_every_level_chart(monkeypatch, metric, grid, depth):
    # neither g nor A reads x0: the pull launches the middle chart-time level
    # alone and shifts it in x0, and the operator keeps that level.  Pulling
    # every level, as a time-dependent chart does, gives the same window
    # fields bitwise and the rest to round-off
    launched = spy_rays(monkeypatch)
    *_, one, op = chart_stages(metric, grid, depth)
    *_, every, op_every = every_level_stages(monkeypatch, metric, grid, depth)
    rays, every_rays = launched
    nt_y = one.y_grid.nt
    assert (rays.first, rays.count) == (nt_y // 2, 1)
    assert (every_rays.first, every_rays.count) == (0, nt_y)
    assert rays.pos.shape[1] == 1 + 3 * rays.nq_cap < every_rays.pos.shape[1]
    assert one.y_grid == every.y_grid and one.x_at_y.shape == every.x_at_y.shape
    for name in ("y_of_x", "jacobian_det", "focal_mask"):
        assert getattr(one, name).tobytes() == getattr(every, name).tobytes(), name

    def close(got, want, rel):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= rel * np.abs(want).max()

    for name in ("x_at_y", "g1", "d_gauge"):
        close(getattr(one, name), getattr(every, name), 1e-12)
    assert one._pull.keys() == every._pull.keys()
    for name, value in one._pull.items():
        close(value, every._pull[name], 1e-12)
    # a chart-space field is one level, broadcast over chart time
    assert one.g1.strides[0] == 0 and not one.g1.flags.writeable
    close(op.V1, op_every.V1, 1e-9)
    assert op.provider().static
    run, run_every = transformed_run(op), transformed_run(op_every)
    assert np.abs(run.samples - run_every.samples).max() <= 1e-10


def test_time_stride_not_the_metric_picks_the_one_level_operator():
    # the operator reads the pulled fields' zero time stride, not the metric:
    # the same chart with those fields materialised forms every level, and its
    # middle level is bitwise every level of the broadcast chart's operator
    *_, chart, op = chart_stages(VAR_METRIC_2D, CHART_GRID_16, 0.3125)
    full = dataclasses.replace(chart, _pull={k: np.array(v) for k, v in chart._pull.items()},
                               g1=np.array(chart.g1), d_gauge=np.array(chart.d_gauge))
    op_full = transform_operator(VAR_METRIC_2D, None, full)
    mid = chart.y_grid.nt // 2

    def coefficients(o):
        return [o.A_minus, o.V1, o.gh_pm, o.metric_matrix, o.potential_vector,
                *o.g0_plus_j, *o.A_j, *(a for row in o.g0_jk for a in row)]

    for i, (got, want) in enumerate(zip(coefficients(op), coefficients(op_full))):
        assert got.tobytes() == np.broadcast_to(want[mid], got.shape).tobytes(), i
    assert op.provider().static and not op_full.provider().static


def whole_box_slab_fields(psi_plus, psi_minus, box, T1, T2, j_max):
    """_slab_fields' outputs formed on the whole read box at once: every
    intermediate over every depth row, as the slab algebra was formed before
    it was streamed one row at a time."""
    grid, metric, depth_nodes = psi_plus.grid, psi_plus.metric, psi_plus.depth_nodes
    n = grid.n
    box_axes = _lattice(grid, box)

    def rows_last(a):
        return np.moveaxis(a, 0, n)

    psi_p, grad_p, _ = psi_plus._on(box)
    psi_m, grad_m, phi_box = psi_minus._on(box)
    # the slots in full: a zero-stride view read by the whole-box einsum rounds
    # differently from the contiguous rows the streamed algebra reads
    grad_p, grad_m = np.ascontiguousarray(grad_p), np.ascontiguousarray(grad_m)
    steps = grid.steps()
    dphi = []
    for p in phi_box:
        parts = np.gradient(p, steps[-1], *steps[:-1], edge_order=2)
        dphi.append(np.stack(parts[1:] + parts[:1], axis=-1))
    mesh = np.meshgrid(depth_nodes, *box_axes, indexing="ij")
    env = {f"x{i}": m for i, m in enumerate(mesh[1:] + mesh[:1])}
    shape = psi_p.shape
    g = metric.eval_g(env, shape)

    def contract(a, b):
        return np.einsum("...jk,...j,...k->...", g, a, b)

    ghpm = -0.5 * contract(grad_p, grad_m)
    ghpj = [0.5 * contract(grad_p, dphi[j]) for j in range(n - 1)]
    ghjk = [[contract(dphi[a], dphi[b]) for b in range(n - 1)] for a in range(n - 1)]
    g1 = 1.0 / np.abs(_det(ghjk)) if ghjk else np.ones(shape)
    y0, yn = GoursatChart.pair_to_normal(psi_p, psi_m, T1, T2)
    jac_rows = [0.5 * (grad_p - grad_m)] + dphi + [-0.5 * (grad_p + grad_m)]
    jac_det = _det([[row[..., k] for k in range(n + 1)] for row in jac_rows])
    focal = (np.abs(jac_det) > j_max) | (np.abs(jac_det) < 1.0 / j_max) | (ghpm <= 0.0)
    cols = [-grad_p, -grad_m] + dphi
    M = [[col[..., i] for col in cols] for i in range(n + 1)]
    A = metric.eval_A(env, shape)
    Ap, Am, *Aj = _solve_small(M, [A[..., i] for i in range(n + 1)])
    window = tuple(slice(-lo, len(ax) - lo) for ax, (lo, _) in zip(grid.face_axes(), box))
    y_of_x = np.stack([rows_last(c)[window] for c in [y0] + phi_box + [yn]], axis=-1)
    fields = {"s": psi_p, "ghpm": ghpm, "g1": g1, "Ap": Ap, "Am": Am,
              "focal": focal.astype(float)}
    for j in range(n - 1):
        fields[f"ghp{j}"], fields[f"Aj{j}"] = ghpj[j], Aj[j]
        fields.update({f"gh{j}{k}": ghjk[j][k] for k in range(n - 1)})
    return ({name: rows_last(f) for name, f in fields.items()}, y_of_x,
            rows_last(jac_det)[window], rows_last(focal)[window])


@pytest.mark.parametrize("metric, grid, depth", [
    pytest.param(VAR_METRIC_2D, BENCH_CHART_GRID, 0.3, id="var"),
    pytest.param(TIME_CROSS_2D, BENCH_CHART_GRID, 0.3, id="time_cross"),
    pytest.param(A_READS_X0_2D, CHART_GRID_16, 0.3125, id="a_reads_x0"),
    ONE_LEVEL_CASES[-1],
])
def test_streamed_slab_is_the_whole_box_algebra_bitwise(monkeypatch, metric, grid, depth):
    # the slab algebra, formed one depth row at a time, gives every output of
    # the whole-box formulas byte for byte, on the same read box and fans
    slab, calls = goursat._slab_fields, []
    monkeypatch.setattr(goursat, "_slab_fields",
                        lambda *args: calls.append((args, slab(*args))) or calls[-1][1])
    chart_stages(metric, grid, depth)
    [(args, (fields, *window))] = calls
    want_fields, *want_window = whole_box_slab_fields(*args)
    assert list(fields) == list(want_fields)
    for name, got, want in zip([*fields, "y_of_x", "jacobian_det", "focal_mask"],
                               [*fields.values(), *window], [*want_fields.values(), *want_window]):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_transformed_time_step_reads_one_level(monkeypatch):
    # the cone bound runs on the distinct levels of the metric matrix: one on
    # an x0-free chart, every chart-time level on a time-dependent one
    ops = [chart_stages(m, CHART_GRID_16, 0.3125)[-1] for m in (VAR_METRIC_2D, TIME_CROSS_2D)]
    cone, seen = goursat._cone, []
    monkeypatch.setattr(goursat, "_cone", lambda g: seen.append(len(g)) or cone(g))
    for op in ops:
        transformed_time_step(op)
    assert seen == [1, ops[1].grid.nt]


@pytest.mark.parametrize("metric", [TIME_CROSS_2D, A_READS_X0_2D], ids=["time_cross", "A_x0"])
def test_time_dependent_chart_pulls_every_level(monkeypatch, metric):
    # a g or an A that reads x0: the pull launches every chart-time level from
    # level 0, the operator keeps every level and is not static, and every
    # output is bitwise the every-level path's
    launched = spy_rays(monkeypatch)
    *_, chart, op = chart_stages(metric, CHART_GRID_16, 0.3125)
    *_, every, op_every = every_level_stages(monkeypatch, metric, CHART_GRID_16, 0.3125)
    assert [(r.first, r.count) for r in launched] == [(0, chart.y_grid.nt)] * 2
    assert not op.provider().static
    for name in ("y_of_x", "jacobian_det", "focal_mask", "x_at_y", "g1", "d_gauge"):
        assert getattr(chart, name).tobytes() == getattr(every, name).tobytes(), name
    assert chart._pull.keys() == every._pull.keys()
    for name, value in chart._pull.items():
        assert value.tobytes() == every._pull[name].tobytes(), name
    for name in ("metric_matrix", "potential_vector", "V1", "A_minus", "gh_pm"):
        assert getattr(op, name).tobytes() == getattr(op_every, name).tobytes(), name


@pytest.mark.parametrize("metric, static", [(VAR_METRIC_2D, True), (TIME_CROSS_2D, False)],
                         ids=["var", "time_cross"])
def test_transformed_run_builds_a_time_free_level_once(monkeypatch, metric, static):
    # an x0-free chart's operator is static: its run builds the step's
    # coefficients and checks the cone once; a time-dependent one does both
    # on every level
    *_, op = chart_stages(metric, CHART_GRID_16, 0.3125)
    built, speeds = [], []
    level, speed = _Stepper.level, solver._level_speed

    def counted_level(stepper, t):
        if stepper._fixed is None:
            built.append(t)
        return level(stepper, t)

    monkeypatch.setattr(_Stepper, "level", counted_level)
    monkeypatch.setattr(solver, "_level_speed", lambda *args: speeds.append(1) or speed(*args))
    transformed_run(op)
    nt = op.grid.nt
    assert (len(built), len(speeds)) == ((1, 1) if static else (nt - 2, nt))


def test_waveguide_fold_raises():
    h = 1 / 32
    g = SpacetimeGrid(n=2, extent=(1.0, 0.25), h=(h, h), dt=0.3 * h,
                      t1=0.0, t2=0.8)
    with pytest.raises(CharacteristicCrossing, match="folds"):
        solve_eikonal(WAVEGUIDE, "-", g, 0.3125)


def test_waveguide_focal_mask_and_refusal():
    h = 1 / 64
    depth = 11 / 64  # just short of the first crossing
    g = SpacetimeGrid(n=2, extent=(1.0, 0.25), h=(h, h), dt=0.3 * h,
                      t1=0.0, t2=0.8)
    ep = solve_eikonal(WAVEGUIDE, "+", g, depth)
    em = solve_eikonal(WAVEGUIDE, "-", g, depth)
    phi = solve_transport_phi(WAVEGUIDE, em, g)
    ch = build_chart(ep, em, phi, 0.0, 0.8, j_max=2.0)
    assert ch.focal_mask.any()
    assert ch.jacobian_det.max() > 2.0
    with pytest.raises(FocalRegion):
        transform_operator(WAVEGUIDE, None, ch)


def test_find_chart_depth_waveguide():
    h = 1 / 32
    g = SpacetimeGrid(n=2, extent=(1.0, 0.25), h=(h, h), dt=0.3 * h,
                      t1=0.0, t2=0.8)
    got = find_chart_depth(WAVEGUIDE, g, 0.5)
    assert got == pytest.approx(0.15625, abs=1e-12)


def test_find_chart_depth_agrees_with_full_solve():
    # the search checks folds only; the full solve must agree on both sides
    # of the returned depth
    h = 1 / 16
    g = SpacetimeGrid(n=2, extent=(1.0, 0.25), h=(h, h), dt=0.3 * h,
                      t1=0.0, t2=0.8)
    got = find_chart_depth(WAVEGUIDE, g, 0.5)
    assert got == pytest.approx(0.1875, abs=1e-12)
    # fans that reach the cap without a fold give the cap itself
    assert find_chart_depth(VAR_METRIC_2D, g, 0.25) == 0.25
    for side in ("+", "-"):
        solve_eikonal(WAVEGUIDE, side, g, got)
    refused = 0
    for side in ("+", "-"):
        try:
            solve_eikonal(WAVEGUIDE, side, g, got + h)
        except CharacteristicCrossing:
            refused += 1
    assert refused >= 1


# ---------------------------------------------------------------------------
# Transformed operator
# ---------------------------------------------------------------------------

def test_potential_symbolic_matches_closed_form():
    # for g1 = 1 + eps*(in-phase)*(out-phase) with an orthonormal lateral
    # block and no coupling, differentiating the quarter-log by hand gives
    # -eps/g1 + (3/4) eps^2 s tau / g1^2
    g1e = parse_expr("1 + 0.1*((x0 - x2) * (2 - x0 - x2))")
    v1e = potential_symbolic(g1e)
    yg = SpacetimeGrid(n=2, extent=(1.0, 0.25), h=(1 / 48, 1 / 48),
                       dt=1 / 48, t1=0.4, t2=1.6)
    T, X1, Z = np.meshgrid(yg.times(), yg.axis(1), yg.axis(2), indexing="ij")
    ss, tt = T - Z, 2.0 - T - Z
    g1v = 1.0 + 0.1 * ss * tt
    ref = -0.1 / g1v + 0.0075 * ss * tt / g1v ** 2
    got = np.broadcast_to(
        np.asarray(v1e.evaluate({"x0": T, "x1": X1, "x2": Z}), float), T.shape)
    assert np.abs(got - ref).max() <= 1e-14


def test_potential_sampled_interior_convergence():
    def defect(hz):
        yg = SpacetimeGrid(n=2, extent=(1.0, 0.25), h=(hz, hz), dt=hz,
                           t1=0.4, t2=1.6)
        T, X1, Z = np.meshgrid(yg.times(), yg.axis(1), yg.axis(2),
                               indexing="ij")
        ss, tt = T - Z, 2.0 - T - Z
        g1v = 1.0 + 0.1 * ss * tt
        ref = -0.1 / g1v + 0.0075 * ss * tt / g1v ** 2
        got = potential_term(g1v, [np.zeros_like(T)], [[-np.ones_like(T)]], yg)
        return float(np.abs((got - ref)[2:-2, 2:-2, 2:-2]).max())

    d1, d2 = defect(1 / 48), defect(1 / 96)
    assert d1 <= 5e-6
    assert d2 <= 1.3e-6
    assert math.log2(d1 / d2) >= 1.8


# ---------------------------------------------------------------------------
# Exact oracle: Minkowski pushed forward by a face-fixing, time-dependent map
# ---------------------------------------------------------------------------

# the lateral shear x1 + 0.15 x2^2 sin(2 x0), then the depth stretch of
# test_dn_trace_diffeomorphism_invariant_2d_depth_stretch; both fix the face
# pointwise, and the pushed-forward metric reads x0 in every entry
_STRETCH_A = "(0.5 + 0.2*sin(x0))"
_UNSTRETCH = f"0.5*log(1 + x2*(exp({_STRETCH_A}) - 1)/0.5)/{_STRETCH_A}"
SHEAR_STRETCH = Diffeo(
    2, ["x0", "x1 + 0.15*x2^2*sin(2*x0)",
        f"0.5*(exp({_STRETCH_A}*x2/0.5) - 1)/(exp({_STRETCH_A}) - 1)"],
    ["x0", f"x1 - 0.15*({_UNSTRETCH})^2*sin(2*x0)", _UNSTRETCH])
SHEARED_MINKOWSKI = pushforward(MetricField.minkowski(2), SHEAR_STRETCH)


@functools.lru_cache(maxsize=None)
def sheared_minkowski_errors(h):
    """Max abs errors of the chart stages on SHEARED_MINKOWSKI against their
    closed forms.  With x = SHEAR_STRETCH^-1(X) Minkowski's coordinates of
    the lab point X, the phases are x0 - x2 and 1.4 - x0 - x2, the transported
    lateral coordinate is x1, the chart is x itself, so x_at_y at chart node y
    is SHEAR_STRETCH(y), and the operator is Minkowski's normal form."""
    grid = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=0.35 * h, t1=0.0, t2=1.4)
    ep, em, chart, op = chart_stages(SHEARED_MINKOWSKI, grid, h * round(0.3125 / h))
    lab = np.meshgrid(*grid.face_axes(), ep.depth_nodes, indexing="ij")
    env = {f"x{i}": m for i, m in enumerate(lab)}
    x = [np.broadcast_to(c.evaluate(env), lab[0].shape) for c in SHEAR_STRETCH.inverse]
    y = np.meshgrid(*chart.y_grid.axes(), indexing="ij")
    x_at_y = SHEAR_STRETCH.eval_forward({f"x{i}": m for i, m in enumerate(y)})
    return {
        "psi+": np.abs(ep.psi - (x[0] - x[2])).max(),
        "psi-": np.abs(em.psi - (1.4 - x[0] - x[2])).max(),
        "phi": np.abs(solve_transport_phi(SHEARED_MINKOWSKI, em, grid)[0] - x[1]).max(),
        "x_at_y": np.abs(chart.x_at_y - x_at_y).max(),
        "gh_pm": np.abs(op.gh_pm - 1.0).max(),
        "g0_11": np.abs(op.g0_jk[0][0] + 1.0).max(),
        "g1": np.abs(op.g1 - 1.0).max(),
        "g0_plus_1": np.abs(op.g0_plus_j[0]).max(),
        "V1": np.abs(op.V1).max(),
    }


def assert_oracle_errors(bounds, order):
    """Each quantity's errors at h = 1/16 and 1/32 within its bounds, and its
    observed order at least order."""
    coarse, fine = sheared_minkowski_errors(1 / 16), sheared_minkowski_errors(1 / 32)
    for name, (b1, b2) in bounds.items():
        assert coarse[name] <= b1 and fine[name] <= b2, (name, coarse[name], fine[name])
        assert math.log2(coarse[name] / fine[name]) >= order, name


def test_sheared_minkowski_phases_match_the_closed_form():
    # measured 8.6e-8 and 5.3e-9 (psi+), 3.6e-7 and 2.2e-8 (psi-), 3.2e-7 and
    # 2.0e-8 (phi), all of order 4.0; bounds about 15% above
    assert_oracle_errors({"psi+": (9.9e-8, 6.1e-9), "psi-": (4.1e-7, 2.6e-8),
                          "phi": (3.7e-7, 2.3e-8)}, 3.5)


def test_sheared_minkowski_chart_points_match_the_closed_form():
    # measured 1.32e-5 and 1.11e-6 (order 3.58); bounds about 15% above
    assert_oracle_errors({"x_at_y": (1.52e-5, 1.27e-6)}, 3.5)


def test_sheared_minkowski_operator_is_the_normal_form():
    # measured 6.9e-7 and 4.3e-8 (gh_pm, order 4.0), 5.0e-6 and 4.2e-7 (g0_11
    # and g1, order 3.6); grad phi is second order, so g0_plus_1 (1.12e-3 and
    # 3.2e-4, order 1.80) and V1 (1.75e-4 and 5.7e-5, order 1.62) are too.
    # Bounds about 15% above
    assert_oracle_errors({"gh_pm": (8.0e-7, 4.9e-8), "g0_11": (5.8e-6, 4.8e-7),
                          "g1": (5.8e-6, 4.8e-7)}, 3.5)
    assert_oracle_errors({"g0_plus_1": (1.29e-3, 3.7e-4), "V1": (2.0e-4, 6.5e-5)}, 1.5)


def conjugated_chart_field(metric, grid, depth, t2, w_re_s, w_im_s):
    """Chart pipeline on grid, and a manufactured lab field w pushed through it.

    Returns the chart, its operator, w's (real, imaginary) expressions, the
    conjugated field u1 = g1^(1/4) e^(-i d) w at the chart nodes, and the
    exact lab-frame operator image of w scaled the same way and divided by
    gh_pm, which forces the chart update.
    """
    n = grid.n
    ep = solve_eikonal(metric, "+", grid, depth)
    em = solve_eikonal(metric, "-", grid, depth)
    phi = solve_transport_phi(metric, em, grid)
    chart = build_chart(ep, em, phi, grid.t1, t2)
    op = transform_operator(metric, None, chart)

    w_re, w_im = parse_expr(w_re_s), parse_expr(w_im_s)
    F_re, F_im = apply_operator_symbolic(metric, None, w_re, w_im)
    env = {f"x{k}": chart.x_at_y[..., k] for k in range(n + 1)}
    w = w_re.evaluate(env) + 1j * w_im.evaluate(env)
    # one compiled plan shares the image's subexpressions; bitwise the tree walk
    F = _eval_table([F_re, F_im], env, w.shape)
    F = F[..., 0] + 1j * F[..., 1]

    scale = chart.g1 ** 0.25 * np.exp(-1j * chart.d_gauge)
    return chart, op, (w_re, w_im), scale * w, scale * F / op.gh_pm


def stencil_defect(metric, grid, depth, t2, w_re_s, w_im_s):
    """Worst interior defect of the chart-rectangle update on a conjugated
    manufactured field.

    Pushes an exact complex field through the chart with the quarter-power
    volume weight and the gauge phase, forces the update with the exact
    lab-frame operator image scaled the same way, and returns the residual.
    Second-order decay certifies every transformed coefficient at once.
    """
    n = grid.n
    chart, op, _, u1, rhs = conjugated_chart_field(metric, grid, depth, t2, w_re_s, w_im_s)
    yg = chart.y_grid
    stepper = _Stepper(op.provider(), yg)
    times = yg.times()
    worst = 0.0
    for m in range(2, yg.nt - 2, max(1, yg.nt // 12)):
        res = stepper.apply(u1[m - 1], u1[m], u1[m + 1], times[m],
                            forcing_val=rhs[m])
        core = res[(slice(2, -2),) * n]
        worst = max(worst, float(np.abs(core).max()))
    return worst


def test_conjugated_field_satisfies_chart_stencil_1d():
    r = []
    for h in (1 / 32, 1 / 64):
        g = grid1(h)
        r.append(stencil_defect(VAR_METRIC_1D, g, 0.375, 2.0,
                                "sin(x0)*cos(2*x1)", "0.3*cos(x0)*sin(x1)"))
    assert r[0] <= 2.5e-3
    assert r[1] <= 6.5e-4
    assert math.log2(r[0] / r[1]) >= 1.7


def test_conjugated_field_satisfies_chart_stencil_2d():
    # TIME_CROSS_2D is the only time-dependent metric of the 2D chart tests;
    # only there do the pulled fields vary along the virtual launches' times
    for metric in (VAR_METRIC_2D, TIME_CROSS_2D):
        r = []
        for h in (1 / 16, 1 / 32):
            g = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=0.35 * h,
                              t1=0.0, t2=1.4)
            r.append(stencil_defect(metric, g, 0.3125, 1.4,
                                    "sin(x0)*cos(x1)*cos(2*x2)",
                                    "0.4*cos(2*x0)*sin(x1)*sin(x2)"))
        assert r[0] <= 9e-3
        assert r[1] <= 2.5e-3
        assert math.log2(r[0] / r[1]) >= 1.7


def chart_route_dn_error(metric, h):
    """Relative max error of the chart run's dn_trace against the exact
    lab-frame conormal trace of the same manufactured field, carried to the
    chart by transform_dn with the face datum."""
    grid = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=0.35 * h, t1=0.0, t2=1.4)
    chart, op, (w_re, w_im), u1, rhs = conjugated_chart_field(
        metric, grid, 0.3125, 1.4,
        "sin(x0)*cos(x1)*cos(2*x2)", "0.4*cos(2*x0)*sin(x1)*sin(x2)")
    yg = op.grid

    def level(t):
        return int(round((t - yg.t1) / yg.dt))

    wf = solve_transformed_ibvp(
        op, None, yg, forcing=lambda env: rhs[level(float(env["x0"].flat[0]))],
        dirichlet=lambda t: u1[level(t)], initial=(u1[0], u1[1]))

    # exact lab trace -sum_j g^{j2} (d_j - i A_j) w / sqrt(-g^{22}) on the face
    face = {f"x{k}": chart.x_at_y[..., 0, k] for k in range(3)}

    def on_face(e):
        return np.broadcast_to(e.evaluate(face), face["x0"].shape)

    w = on_face(w_re) + 1j * on_face(w_im)
    g, A = metric.g, metric.A
    lab = -sum(on_face(g[j][2]) * (on_face(w_re.diff(f"x{j}"))
                                   + 1j * on_face(w_im.diff(f"x{j}"))
                                   - 1j * on_face(A[j]) * w)
               for j in range(3)) / np.sqrt(-on_face(g[2][2]))
    carried = transform_dn(DNTrace(values=lab, normal_order=2, grid=yg),
                           op.boundary_traces(), f=w).values
    got = dn_trace(wf, op).values
    return float(np.abs(got - carried).max() / np.abs(carried).max())


def test_chart_route_dn_matches_lab_route_2d():
    """DN level of the two routes in 2D.  The chart run, forced by the
    conjugated manufactured field, gives its trace through dn_trace; the exact
    lab-frame trace of the same field, carried to the chart by transform_dn,
    must match it.  VAR_METRIC_2D gives transform_dn non-unit face
    coefficients; its datum drift term is only about 3e-5 of the trace here,
    under the scheme error, so this test does not pin that term."""
    e1, e2 = chart_route_dn_error(VAR_METRIC_2D, 1 / 16), chart_route_dn_error(VAR_METRIC_2D, 1 / 20)
    # measured 4.60e-3 and 3.09e-3; bounds about 15% above
    assert e1 <= 5.3e-3
    assert e2 <= 3.6e-3
    assert math.log(e1 / e2) / math.log(20 / 16) >= 1.5


def test_chart_route_dn_on_a_time_dependent_metric():
    """The two routes on TIME_CROSS_2D, whose g reads x0 in every entry of its
    first row (A = 0): the chart is pulled on every chart-time level, and the
    operator's y0 differences are real differences.  Taking every level as
    its middle one gives errors of about 3.6e-2 at both spacings.  This error
    does not move when V1's y0 differences are zeroed, so it does not pin V1."""
    e1 = chart_route_dn_error(TIME_CROSS_2D, 1 / 16)
    e2 = chart_route_dn_error(TIME_CROSS_2D, 1 / 20)
    # measured 4.835e-3 and 3.179e-3 (order 1.88); bounds about 15% above
    assert e1 <= 5.6e-3
    assert e2 <= 3.7e-3
    assert math.log(e1 / e2) / math.log(20 / 16) >= 1.5


def test_chart_route_dn_with_a_potential_reading_x0_in_every_component():
    """The two routes on TIME_CROSS_2D's g with the potential of the solver's
    time-dependent runs, which reads x0 in every component.  Taking every
    chart-time level as its middle one gives errors of about 1.21e-1 at both
    spacings."""
    metric = TIME_CROSS_2D.with_potential(
        ["0.1*x2*cos(x0)", "0.2*sin(x1 + x0)", "0.1*cos(x2)*sin(x0)"])
    e1, e2 = chart_route_dn_error(metric, 1 / 16), chart_route_dn_error(metric, 1 / 20)
    # measured 5.773e-3 and 3.975e-3 (order 1.67); bounds about 15% above
    assert e1 <= 6.6e-3
    assert e2 <= 4.6e-3
    assert math.log(e1 / e2) / math.log(20 / 16) >= 1.5


def test_chart_route_dn_when_only_a_reads_x0():
    """The two routes on A_READS_X0_2D: g has no x0, so both fans integrate
    one launch-time slice and both phases are marched on one time row, while
    A reads x0, so the pull serves every chart-time level.  Taking every level as its
    middle one gives 3.99e-2 and 3.49e-2."""
    e1 = chart_route_dn_error(A_READS_X0_2D, 1 / 16)
    e2 = chart_route_dn_error(A_READS_X0_2D, 1 / 20)
    # measured 4.660e-3 and 3.124e-3 (order 1.79); bounds about 15% above
    assert e1 <= 5.4e-3
    assert e2 <= 3.6e-3
    assert math.log(e1 / e2) / math.log(20 / 16) >= 1.5


def test_chart_route_dn_with_a_time_dependent_normal_potential():
    """The two routes on TIME_CROSS_2D's g with A = (0, 0, 0.8 cos(x0 + x1)):
    an order-one normal potential on the face that changes with time, so the
    one-form solve, the gauge phase and the chart-side conormal's -i A_n w
    term differ on every chart-time level."""
    metric = TIME_CROSS_2D.with_potential(["0", "0", "0.8*cos(x0 + x1)"])
    e1, e2 = chart_route_dn_error(metric, 1 / 16), chart_route_dn_error(metric, 1 / 20)
    # measured 1.505e-2 and 9.987e-3 (order 1.84); bounds about 15% above
    assert e1 <= 1.73e-2
    assert e2 <= 1.15e-2
    assert math.log(e1 / e2) / math.log(20 / 16) >= 1.5


def test_chart_route_dn_with_a_time_dependent_potential_in_time_and_depth():
    """As above with A = (0.3 sin x0, 0, 0.8 cos(x0 + x1) + 0.5 x2): the time
    component reads x0 too, and the normal one grows with depth."""
    metric = TIME_CROSS_2D.with_potential(["0.3*sin(x0)", "0", "0.8*cos(x0 + x1) + 0.5*x2"])
    e1, e2 = chart_route_dn_error(metric, 1 / 16), chart_route_dn_error(metric, 1 / 20)
    # measured 2.118e-2 and 1.389e-2 (order 1.89); bounds about 15% above
    assert e1 <= 2.44e-2
    assert e2 <= 1.60e-2
    assert math.log(e1 / e2) / math.log(20 / 16) >= 1.5


# g^{11} varies in depth, so the chart's volume weight q = g1^(1/4) is sqrt(2)
# on the face with an order-one normal derivative, and A = 0
DEPTH_WEIGHT_2D = MetricField(
    2, [["1", "0", "0"], ["0", "-0.25*(1 + 0.6*x2)^2", "0"], ["0", "0", "-1"]])


def test_chart_route_dn_pins_the_datum_drift():
    """The two routes of test_chart_route_dn_matches_lab_route_2d on a metric
    where transform_dn's datum drift is most of the carried trace: the chart
    field is q w, so the drift multiplies the datum f, and a drift times
    f / q leaves an error of about 0.27 that does not shrink with h."""
    e1 = chart_route_dn_error(DEPTH_WEIGHT_2D, 1 / 16)
    e2 = chart_route_dn_error(DEPTH_WEIGHT_2D, 1 / 20)
    # measured 1.69e-2 and 1.10e-2 (order 1.95); bounds about 15% above
    assert e1 <= 1.95e-2
    assert e2 <= 1.26e-2
    assert math.log(e1 / e2) / math.log(20 / 16) >= 1.5


# g^{01} != 0 and g^{11} varies along x1, so on the face the chart's lateral
# coupling b_1 = g0_plus_j and the lateral slope of q are both order one
LATERAL_WEIGHT_2D = MetricField(
    2, [["1", "0.3", "0"], ["0.3", "-0.25*(1 + 0.5*sin(2*x1))^2", "0"], ["0", "0", "-1"]])


def test_chart_route_dn_pins_the_lateral_drift():
    """The two routes on a metric where transform_dn's b_j d_j q term is
    order one on the face: without that term the error is about 0.375 at
    both spacings."""
    e1 = chart_route_dn_error(LATERAL_WEIGHT_2D, 1 / 16)
    e2 = chart_route_dn_error(LATERAL_WEIGHT_2D, 1 / 20)
    # measured 9.48e-3 and 6.43e-3 (order 1.74); bounds about 15% above
    assert e1 <= 1.09e-2
    assert e2 <= 7.4e-3
    assert math.log(e1 / e2) / math.log(20 / 16) >= 1.5


def test_two_route_agreement_1d():
    """Same data propagated in lab coordinates and in the chart.

    The lab run is pulled onto the rectangle through the chart map, weighted
    and gauged, and compared with the chart run away from the rectangle's
    bottom wall (whose artificial reflection is excluded causally, with a
    margin for the staggered stencil's faster parasites).
    """
    def run(h):
        g = grid1(h)
        ep = solve_eikonal(VAR_METRIC_1D, "+", g, 0.375)
        em = solve_eikonal(VAR_METRIC_1D, "-", g, 0.375)
        ch = build_chart(ep, em, [], 0.0, 2.0)
        op = transform_operator(VAR_METRIC_1D, None, ch)
        yg = ch.y_grid
        f = BoundarySignal(t_center=0.5, t_width=0.3)
        wy = solve_transformed_ibvp(op, f, yg)
        wx = solve_ibvp(VAR_METRIC_1D, None, f, g)
        pulled = sample_field(wx.samples, g, ch.x_at_y)
        expected = ch.g1 ** 0.25 * np.exp(-1j * ch.d_gauge) * pulled
        T = yg.times()[:, None]
        Z = yg.axis(1)[None, :]
        mask = (T + Z) < (0.2 + 2 * yg.extent[0] - 6 * yg.h[0])
        assert np.abs(expected[mask]).max() > 0.1  # non-vacuous comparison
        return float(np.abs(wy.samples - expected)[mask].max())

    e1, e2 = run(1 / 32), run(1 / 64)
    assert e1 <= 6e-4
    assert e2 <= 2e-4
    assert math.log2(e1 / e2) >= 1.5


def test_transformed_zero_data_stays_zero():
    flat = MetricField.minkowski(1)
    _, ch = chart_pipeline_1d(flat, 1 / 32, depth=0.375, t2=2.0)
    op = transform_operator(flat, None, ch)
    wf = solve_transformed_ibvp(op, None, op.grid)
    assert np.all(wf.samples == 0.0)


def test_transformed_solve_rejects_foreign_grid():
    flat = MetricField.minkowski(1)
    _, ch = chart_pipeline_1d(flat, 1 / 32, depth=0.375, t2=2.0)
    op = transform_operator(flat, None, ch)
    with pytest.raises(ValueError):
        solve_transformed_ibvp(op, None, grid1(1 / 32))


def test_transformed_solve_cfl_guard():
    flat = MetricField.minkowski(1)
    _, ch = chart_pipeline_1d(flat, 1 / 32, depth=0.375, t2=2.0)
    op = transform_operator(flat, None, ch)
    with pytest.raises(CFLViolation):
        solve_transformed_ibvp(op, None, op.grid, cfl_fraction=0.01)
    assert transformed_time_step(op) == pytest.approx(0.5 * min(op.grid.h))


def test_transformed_run_checks_every_level():
    # a chart operator that loses g^{00} > 0 at one node of one late level
    flat = MetricField.minkowski(1)
    _, ch = chart_pipeline_1d(flat, 1 / 32, depth=0.375, t2=2.0)
    op = transform_operator(flat, None, ch)
    late = op.grid.nt - 5
    G = op.metric_matrix.copy()
    G[late, 3, 0, 0] = 0.0
    op = dataclasses.replace(op, metric_matrix=G)
    with pytest.raises(NonHyperbolic) as err:
        solve_transformed_ibvp(op, None, op.grid)
    assert err.value.condition == "time coefficient positivity"
    assert err.value.point == (op.grid.times()[late], op.grid.axis(1)[3])


def test_transformed_run_reports_chart_cfl_number():
    h = 1 / 16
    g = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=0.35 * h,
                      t1=0.0, t2=1.4)
    ep = solve_eikonal(VAR_METRIC_2D, "+", g, 0.3125)
    em = solve_eikonal(VAR_METRIC_2D, "-", g, 0.3125)
    ch = build_chart(ep, em, solve_transport_phi(VAR_METRIC_2D, em, g), 0.0, 1.4)
    op = transform_operator(VAR_METRIC_2D, None, ch)
    # the chart operator is faster than unit speed, and the step says so
    assert transformed_time_step(op) < 0.5 * min(op.grid.h) / 1.01
    wf = solve_transformed_ibvp(op, None, op.grid)
    assert wf.cfl_number == max(wf.diagnostics["cfl"])


def test_potential_mismatch_raises():
    flat = MetricField.minkowski(1)
    _, ch = chart_pipeline_1d(flat, 1 / 32, depth=0.375, t2=2.0)
    with pytest.raises(ValueError, match="different potential"):
        transform_operator(flat, ["1", "0"], ch)


def test_transformed_operator_refusals_name_the_value_and_its_bound():
    flat = MetricField.minkowski(1)
    _, ch = chart_pipeline_1d(flat, 1 / 32, depth=0.375, t2=2.0)
    with pytest.raises(ValueError, match=r"different potential: built with \(0, 0\), "
                                         r"given \(1, 0\)$"):
        transform_operator(flat, ["1", "0"], ch)
    focal = dataclasses.replace(ch, _pull={**ch._pull, "focal": ch._pull["focal"] + 0.25})
    with pytest.raises(FocalRegion, match=r"overlaps focal nodes: largest pulled focal weight "
                                          r"0\.25 > 0\.05; reduce y_depth or j_max"):
        transform_operator(flat, None, focal)
    ghpm = ch._pull["ghpm"].copy()
    ghpm[4, 2:5] = [-0.5, 0.0, -0.25]
    lost = dataclasses.replace(ch, _pull={**ch._pull, "ghpm": ghpm})
    with pytest.raises(FocalRegion, match=rf"lost positivity on the rectangle: 3 of {ghpm.size} "
                                          r"nodes have ghpm <= 0, least -0\.5$"):
        transform_operator(flat, None, lost)
    op = transform_operator(flat, None, ch)
    with pytest.raises(ValueError, match=r"chart rectangle SpacetimeGrid\(n=1, extent=\(0\.375,\)"
                                         r".*, got SpacetimeGrid\(n=1, extent=\(1\.0,\)"):
        solve_transformed_ibvp(op, None, ch.grid)


def test_chart_trace_refusal_names_both_grids():
    flat = MetricField.minkowski(1)
    g, ch = chart_pipeline_1d(flat, 1 / 32, depth=0.375, t2=2.0)
    op = transform_operator(flat, None, ch)
    lab = solve_ibvp(flat, None, BoundarySignal(0.2, 0.1), g, store="boundary")
    with pytest.raises(ValueError, match=r"trace grid SpacetimeGrid\(n=1, extent=\(1\.0,\).* must be "
                                         r"the operator's chart rectangle SpacetimeGrid\(n=1, "
                                         r"extent=\(0\.375,\)"):
        dn_trace(lab, op)


def test_boundary_traces_flat_2d():
    flat = MetricField.minkowski(2)
    h = 1 / 16
    g = SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=0.35 * h,
                      t1=0.0, t2=1.4)
    ep = solve_eikonal(flat, "+", g, 0.3125)
    em = solve_eikonal(flat, "-", g, 0.3125)
    phi = solve_transport_phi(flat, em, g)
    ch = build_chart(ep, em, phi, 0.0, 1.4)
    op = transform_operator(flat, None, ch)
    tr = op.boundary_traces()
    assert set(tr) == {"g1", "dg1_dyn", "gh_pm", "g0_plus_j", "A_minus", "A_j"}
    face_shape = (op.grid.nt,) + op.grid.shape[:-1]
    assert tr["g1"].shape == face_shape
    assert np.abs(tr["g1"] - 1.0).max() <= 1e-8
    assert np.abs(tr["dg1_dyn"]).max() <= 1e-6
    assert np.abs(tr["gh_pm"] - 1.0).max() <= 1e-8
    assert np.abs(tr["A_minus"]).max() <= 1e-12
    assert len(tr["g0_plus_j"]) == 1 and len(tr["A_j"]) == 1
    assert np.abs(tr["g0_plus_j"][0]).max() <= 1e-8


# ---------------------------------------------------------------------------
# Sampling and export
# ---------------------------------------------------------------------------

def test_sample_field_cubic_exactness():
    g = SpacetimeGrid(n=1, extent=(0.5,), h=(1 / 16,), dt=1 / 16,
                      t1=0.0, t2=1.0)
    T, Z = np.meshgrid(g.times(), g.axis(1), indexing="ij")
    F = 1.0 + 2 * T - 0.5 * T ** 3 + Z ** 3 - T ** 2 * Z + 3 * T * Z ** 2
    rng = np.random.default_rng(7)
    pts = np.stack([0.1 + 0.8 * rng.random(40),
                    0.08 + 0.35 * rng.random(40)], axis=-1)
    ref = (1.0 + 2 * pts[:, 0] - 0.5 * pts[:, 0] ** 3 + pts[:, 1] ** 3
           - pts[:, 0] ** 2 * pts[:, 1] + 3 * pts[:, 0] * pts[:, 1] ** 2)
    assert np.abs(sample_field(F, g, pts) - ref).max() <= 1e-12


def test_export_chart_csv(tmp_path):
    _, ch = chart_pipeline_1d(MetricField.minkowski(1), 1 / 24,
                              depth=0.25, extent=0.25, t2=1.0)
    path = tmp_path / "chart.csv"
    export_chart_csv(ch, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "y0", "y1", "jacobian", "focal"]
    data = np.asarray(rows[1:], dtype=float)
    assert data.shape[0] == ch.jacobian_det.size
    assert np.allclose(data[:, 2], ch.y_of_x[..., 0].ravel(), atol=1e-15)
    assert np.allclose(data[:, 4], ch.jacobian_det.ravel(), atol=1e-15)


def test_export_operator_npz(tmp_path):
    flat = MetricField.minkowski(1)
    _, ch = chart_pipeline_1d(flat, 1 / 24, depth=0.25, extent=0.25, t2=1.0)
    op = transform_operator(flat, None, ch)
    path = tmp_path / "op.npz"
    export_operator_npz(op, str(path))
    back = np.load(path)
    for key in ("gh_pm", "A_minus", "V1", "g1", "d_gauge",
                "metric_matrix", "potential_vector", "times", "depth_nodes"):
        assert key in back.files
    assert np.array_equal(back["V1"], op.V1)
    assert np.array_equal(back["metric_matrix"], op.metric_matrix)
    # a 2D operator's lateral coefficients, zero-stride views, leave whole
    op2 = chart_stages(VAR_METRIC_2D, CHART_GRID_16, 0.3125)[-1]
    export_operator_npz(op2, str(path))
    back = np.load(path)
    for key, value in (("g0_plus_1", op2.g0_plus_j[0]), ("g0_11", op2.g0_jk[0][0]),
                       ("A_1", op2.A_j[0])):
        assert value.strides[0] == 0
        assert back[key].shape == value.shape and np.array_equal(back[key], value), key
