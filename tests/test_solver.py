"""Forward solver tests.

Oracles, in order of strength: closed-form d'Alembert propagation on the flat
metric, manufactured solutions with symbolically exact forcings (no
discretization error in the data), and conservation / containment laws that
the continuum problem satisfies exactly.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import binary_dilation

from bclab.dn import dn_trace
from bclab.expr import Call, parse_expr
from bclab.geometry import (
    Diffeo,
    GaugeField,
    MetricField,
    NonHyperbolic,
    SpacetimeGrid,
    _Plan,
    apply_conjugation_gauge,
    check_hyperbolicity,
    influence_region,
    max_characteristic_speed,
    pushforward,
)
from bclab.solver import (
    BoundarySignal,
    CFLViolation,
    Instability,
    SampledCoefficients,
    SweepNotConverged,
    WaveField,
    _Stepper,
    apply_operator_symbolic,
    cfl_time_step,
    energy,
    graph_norm_sq,
    solve_ibvp,
)


def grid1(h, t2=0.9, dt=None):
    return SpacetimeGrid(n=1, extent=(1.0,), h=(h,), dt=dt if dt else 0.5 * h,
                         t1=0.0, t2=t2)


def l2(grid, arr):
    w = math.prod(grid.h)
    return math.sqrt(float(np.sum(np.abs(arr) ** 2)) * w)


# exact solution of the flat half-line problem driven by the cos^4 pulse:
# the datum rides along t - x unchanged until it meets the far wall
def traveling_pulse(sig, t, x):
    u = (t - x - sig.t_center) / sig.t_width
    out = np.zeros_like(np.broadcast_to(x, np.broadcast_shapes(np.shape(t), np.shape(x))).astype(float))
    inside = np.abs(u) < 1.0
    out[inside] = np.cos(0.5 * math.pi * u[inside]) ** 4
    return out


# ---------------------------------------------------------------------------
# Basic contracts
# ---------------------------------------------------------------------------

def test_zero_data_stays_zero():
    wf = solve_ibvp(MetricField.minkowski(1), None, None, grid1(1 / 32))
    assert np.all(wf.samples == 0.0)


def test_zero_data_stays_zero_2d():
    g = SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 16, 1 / 16), dt=1 / 64,
                      t1=0.0, t2=0.3)
    wf = solve_ibvp(MetricField.minkowski(2), None, None, g)
    assert np.all(wf.samples == 0.0)


def test_cfl_time_step_flat():
    g = grid1(1 / 64)
    assert cfl_time_step(MetricField.minkowski(1), g) == pytest.approx(0.5 / 64, rel=1e-12)


@pytest.mark.parametrize("g00, value", [("x1 - 0.5", -0.5), ("-1", -1.0)])
def test_cfl_time_step_refuses_a_metric_that_is_not_hyperbolic(g00, value):
    # no speed bound exists where g^{00} <= 0: the step would be nan or
    # divide by zero, so it names the condition, the node and the value
    metric = MetricField(1, [[g00, "0"], ["0", "-1"]])
    with pytest.raises(NonHyperbolic) as err:
        cfl_time_step(metric, grid1(1 / 32))
    assert err.value.condition == "time coefficient positivity"
    assert err.value.point == (0.0, 0.0) and err.value.value == value


def test_cfl_violation_raises():
    bad = SpacetimeGrid(n=1, extent=(1.0,), h=(1 / 32,), dt=1 / 32, t1=0.0, t2=0.5)
    with pytest.raises(CFLViolation):
        solve_ibvp(MetricField.minkowski(1), None, BoundarySignal(0.2, 0.1), bad)


def test_instability_detected_past_cfl():
    # dt 12% over the bound, checks disabled: leapfrog blows up and the
    # data-scale guard must catch it before the run completes
    bad = SpacetimeGrid(n=1, extent=(1.0,), h=(1 / 64,), dt=1.12 / 64, t1=0.0, t2=2.0)
    with pytest.raises(Instability):
        solve_ibvp(MetricField.minkowski(1), None, BoundarySignal(0.3, 0.2), bad,
                   check=False)


@pytest.mark.parametrize("g11, error", [
    ("-1 - 8*sin(8*pi*x0)^2", CFLViolation),  # speed 3 between samples
    ("-1 + 1.5*sin(8*pi*x0)^2", NonHyperbolic),  # g^{11} > 0 between samples
])
def test_every_level_checked_between_samples(g11, error):
    # g^{11} = -1 at the nine levels t = k/8 that max_characteristic_speed
    # samples; check_hyperbolicity walks every level, so it refuses the
    # non-hyperbolic metric, and the run must refuse the first bad level it
    # reaches, before the guard sees any growth
    g = SpacetimeGrid(n=1, extent=(1.0,), h=(1 / 32,), dt=1 / 64, t1=0.0, t2=1.0)
    metric = MetricField(1, [["1", "0"], ["0", g11]])
    assert check_hyperbolicity(metric, g).passed == (error is CFLViolation)
    assert max_characteristic_speed(metric, g) == pytest.approx(1.0)
    with pytest.raises(error) as err:
        solve_ibvp(metric, None, BoundarySignal(0.3, 0.2), g)
    if error is CFLViolation:
        assert "at t = 0.0156" in str(err.value)
    else:
        assert err.value.condition == "spatial ellipticity"
        t = err.value.point[0]
        assert 0.0 < t < 0.125
        assert str(t) in str(err.value)


def test_cfl_step_and_check_read_one_speed():
    # cfl_time_step and the run's CFL check both read _cone's bound, which in
    # 2D lies above the true speed (1.15903 against about 1.1566 here): the
    # step it gives runs at CFL 0.5, and a step 0.1% longer is refused even
    # though the true speed would still allow it
    sig = BoundarySignal(0.1, 0.08, centers=(0.5,), widths=(0.3,))

    def grid(dt):
        return SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 16, 1 / 16), dt=dt,
                             t1=0.0, t2=0.25)

    dt = cfl_time_step(VAR_METRIC_2D, grid(1 / 64))
    bound = max_characteristic_speed(VAR_METRIC_2D, grid(dt))
    wf = solve_ibvp(VAR_METRIC_2D, None, sig, grid(dt))
    assert wf.cfl_number <= 0.5
    assert wf.cfl_number == pytest.approx(dt * bound * 16, rel=1e-12)

    # the static metric's true speed: largest |root| over 4096 unit covectors
    g = VAR_METRIC_2D.eval_g(grid(dt).env_at_time(0.0), shape=grid(dt).shape)
    theta = np.pi * np.arange(4096) / 4096
    xi = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    lin = np.einsum("...j,dj->...d", g[..., 0, 1:], xi)
    quad = np.einsum("dj,...jk,dk->...d", xi, g[..., 1:, 1:], xi)
    sq = np.sqrt(lin * lin - g[..., 0, 0, None] * quad)
    true = float(np.max(np.abs([-lin - sq, -lin + sq]) / g[..., 0, 0, None]))
    longer = 1.001 * dt
    assert longer * true * 16 < 0.5 < longer * bound * 16
    with pytest.raises(CFLViolation, match=r"at t = 0\.0000"):
        solve_ibvp(VAR_METRIC_2D, None, sig, grid(longer))


def test_nan_field_raises_instability():
    # checks off, g^{11} > 0 between the sampled levels: the field turns NaN,
    # which no `peak > bound` comparison catches; the guard must name the time
    g = SpacetimeGrid(n=1, extent=(1.0,), h=(1 / 32,), dt=1 / 64, t1=0.0, t2=1.0)
    metric = MetricField(1, [["1", "0"], ["0", "-1 + 1.5*sin(8*pi*x0)^2"]])
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(Instability, match=r"peak nan .* at t = \d\.\d{4}"):
            solve_ibvp(metric, None, BoundarySignal(0.3, 0.2), g, check=False)


def test_off_cone_level_refused_without_warning():
    # rho is NaN on a level off the cone; only the level check may report it
    g = SpacetimeGrid(n=1, extent=(1.0,), h=(1 / 32,), dt=1 / 64, t1=0.0, t2=1.0)
    metric = MetricField(1, [["1", "0"], ["0", "-1 + 1.5*sin(8*pi*x0)^2"]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonHyperbolic):
            solve_ibvp(metric, None, BoundarySignal(0.3, 0.2), g)
    assert [str(w.message) for w in caught] == []


def test_determinism_bitwise():
    g = grid1(1 / 64)
    sig = BoundarySignal(0.3, 0.2)
    a = solve_ibvp(MetricField.minkowski(1), None, sig, g)
    b = solve_ibvp(MetricField.minkowski(1), None, sig, g)
    assert np.array_equal(a.samples, b.samples)


def test_store_boundary_drops_interior():
    g = grid1(1 / 64, t2=0.5, dt=1 / 128)
    sig = BoundarySignal(0.2, 0.1)
    full = solve_ibvp(MetricField.minkowski(1), None, sig, g)
    tracemalloc.start()
    try:
        slim = solve_ibvp(MetricField.minkowski(1), None, sig, g, store="boundary")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # less than one complex array over every time level
    assert peak < g.nt * math.prod(g.shape) * 16
    assert slim.samples is None
    assert np.array_equal(slim.boundary_layers, full.boundary_layers)
    assert slim.boundary_layers.shape == (g.nt, 3)
    assert np.array_equal(slim.face_trace(), full.samples[:, 0])
    with pytest.raises(ValueError):
        slim.slice(0)


def test_store_rejects_unknown_value():
    g = grid1(1 / 32, t2=0.2)
    with pytest.raises(ValueError, match="'bondary'"):
        solve_ibvp(MetricField.minkowski(1), None, BoundarySignal(0.1, 0.05), g,
                   store="bondary")


def test_sweep_exhaustion_raises():
    # g^{0j} != 0 takes the fixed-point sweep path, which needs several
    # sweeps per step; a budget of one must fail loudly at the first step
    g = SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 16, 1 / 16), dt=1 / 64,
                      t1=0.0, t2=0.1)
    x1, x2 = np.meshgrid(g.axis(1), g.axis(2), indexing="ij")
    u0 = (np.sin(math.pi * x1) * np.sin(math.pi * x2)).astype(complex)
    with pytest.raises(SweepNotConverged, match=r"t = 0\.0156 .* 1 sweeps"):
        solve_ibvp(VAR_METRIC_2D, None, None, g, initial=(u0, u0), max_sweeps=1)
    wf = solve_ibvp(VAR_METRIC_2D, None, None, g, initial=(u0, u0))
    assert np.isfinite(wf.samples).all()


def test_diagnostics_count_sweeps_per_step():
    # g^{0j} != 0 takes several sweeps per step, a metric without it one
    g = SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 16, 1 / 16), dt=1 / 64,
                      t1=0.0, t2=0.25)
    x1, x2 = np.meshgrid(g.axis(1), g.axis(2), indexing="ij")
    u0 = (np.sin(math.pi * x1) * np.sin(math.pi * x2)).astype(complex)
    crossed = [solve_ibvp(metric, None, None, g, initial=(u0, u0))
               for metric in (VAR_METRIC_2D, TIME_CROSS_2D)]
    flat = solve_ibvp(MetricField.minkowski(2), None, None, g, initial=(u0, u0))
    for wf in crossed + [flat]:
        assert wf.diagnostics["sweeps"].shape == (g.nt - 2,)
        assert wf.diagnostics["sweeps"].dtype.kind == "i"
        assert wf.diagnostics["last_update"].shape == (g.nt - 2,)
        assert np.all(wf.diagnostics["last_update"] > 0.0)
        cfl = wf.diagnostics["cfl"]
        assert cfl.shape == (g.nt,) and wf.cfl_number == max(cfl)
    for cross in crossed:
        sweeps = cross.diagnostics["sweeps"]
        assert np.all(sweeps > 1)
        # the cubic start: 91 sweeps over the 15 steps, 105 from a linear one
        assert np.all(sweeps <= 7) and sweeps.sum() <= 91
        # each cross-term step stopped on _SWEEP_TOL
        scale = max(float(np.max(np.abs(cross.samples))), 1.0)
        assert np.all(cross.diagnostics["last_update"] <= 1e-13 * scale)
    assert np.all(flat.diagnostics["sweeps"] == 1)


def test_expression_coefficients_compile_once_per_solve(monkeypatch):
    compiled = []
    init = _Plan.__init__
    monkeypatch.setattr(_Plan, "__init__", lambda plan, table, **kw:
                        compiled.append(table) or init(plan, table, **kw))
    # time-dependent, so every one of the 29 levels is sampled
    metric = MetricField(1, [["1", "0"], ["0", "-1 + 0.1*sin(x0)"]])
    solve_ibvp(metric, None, None, grid1(1 / 16), forcing=parse_expr("sin(x0)*x1"),
               v1=parse_expr("0.1*x0*x1"), store="boundary")
    # g and A as one plan, v1 and the forcing, once each
    assert len(compiled) == 3


def _cross_grid(h=1 / 16):
    return SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(h, h), dt=h / 4, t1=0.0, t2=0.25)


def test_level_coefficients_evaluate_what_reads_no_x0_once(monkeypatch):
    # TIME_CROSS_2D's g and A hold 4 distinct calls without x0 (sin and cos of
    # x1 and x2) and 5 with it; one plan of g and A evaluates the first once
    # per solve, on an env without x0, and the second once per node level
    calls = {False: 0, True: 0}
    evaluate = Call.evaluate

    def counted(e, env):
        calls["x0" in env] += 1
        return evaluate(e, env)

    monkeypatch.setattr(Call, "evaluate", counted)
    g = _cross_grid()
    solve_ibvp(TIME_CROSS_2D, None, None, g, store="boundary")
    assert calls == {False: 4, True: 5 * g.nt}
    monkeypatch.setattr(Call, "evaluate", evaluate)
    # and each node level holds eval_g and eval_A on its env, bitwise
    provider = SampledCoefficients.from_metric(TIME_CROSS_2D, g)
    for t in g.times():
        node, env = provider.at(t), g.env_at_time(t)
        assert node["g"].tobytes() == TIME_CROSS_2D.eval_g(env, g.shape).tobytes()
        assert node["A"].tobytes() == TIME_CROSS_2D.eval_A(env, g.shape).tobytes()


def test_hoisted_coefficients_stay_with_their_solve():
    # the metric keeps no values between solves: a run on grid a, one on
    # grid b, then a again on a gives the first run's samples, bitwise
    def run(g):
        env = g.env_at_time(0.0)
        u0 = (np.sin(math.pi * env["x1"]) * np.sin(math.pi * env["x2"])).astype(complex)
        return solve_ibvp(TIME_CROSS_2D, None, None, g, initial=(u0, u0)).samples

    first = run(_cross_grid())
    assert run(_cross_grid(1 / 12)).shape[1:] == (13, 13)
    assert run(_cross_grid()).tobytes() == first.tobytes()


def test_staggered_coefficients_hold_only_the_rows_a_step_reads():
    # the provider serves node levels; the stepper averages only what it reads
    g = _cross_grid()
    provider = SampledCoefficients.from_metric(TIME_CROSS_2D, g)
    t = g.times()[3]
    stepper = _Stepper(provider, g)
    c = stepper.level(t)
    node, ahead = provider.at(t), provider.at(t + g.dt)
    assert all(node["g"][..., j, k].flags.c_contiguous and node["A"][..., j].flags.c_contiguous
               for j in range(3) for k in range(3))
    with pytest.raises(ValueError, match="is not a grid level"):
        provider.at(t + 0.5 * g.dt)
    band = stepper.band
    # the half level: the time flux's weights from g's row 0, all of A and
    # rho, averaged over the two node levels, on the band
    g0 = 0.5 * (node["g"][..., 0, :] + ahead["g"][..., 0, :])
    A, rho = 0.5 * (node["A"] + ahead["A"]), 0.5 * (node["rho"] + ahead["rho"])
    a = rho * g0[..., 0] / g.dt
    b = -0.5j * rho * sum(g0[..., k] * A[..., k] for k in range(3))
    assert c["new"].tobytes() == (a + b).reshape(-1)[band].tobytes()
    assert (-c["new"].conj()).tobytes() == (b - a).reshape(-1)[band].tobytes()
    assert [w.tobytes() for w in c["cen"]] == [
        (0.25 * rho * g0[..., k] / g.h[k - 1]).reshape(-1)[band].tobytes() for k in (1, 2)]
    # axis j's half nodes: g's row j, A_j and rho of node level m, over the
    # neighbours, each pair of flat nodes one stride apart; the pairs that
    # wrap a row end are never read
    assert len(c["axes"]) == 2
    for j, weights in enumerate(c["axes"], 1):
        axis, h = j - 1, g.h[j - 1]
        gh, Ah, rhoh = (_davg(x, axis)
                        for x in (node["g"][..., j, :], node["A"][..., j], node["rho"]))
        want = {"flux": rhoh * gh[..., j] * (1.0 / h - 0.5j * Ah),
                "time": rhoh * gh[..., 0] / (4.0 * g.dt),
                "cross": rhoh * gh[..., 3 - j] / (4.0 * g.h[2 - j])}
        (k, cross), = weights["cross"]
        assert k == 3 - j
        for name, got in (("flux", weights["flux"]), ("time", weights["time"]), ("cross", cross)):
            laid = _on_half_nodes(stepper, want[name], axis)
            read = ~np.isnan(laid)
            assert got.shape == laid.shape and read.mean() > 0.9
            assert got[read].tobytes() == laid[read].tobytes()
        ahead_node = 1.0 / h - 0.5j * node["A"][..., j]
        assert weights["ahead"].tobytes() == ahead_node.reshape(-1)[band].tobytes()


def _on_half_nodes(stepper, x, axis):
    """x, on axis's half nodes as _davg places them, in the stepper's layout:
    entry p pairs flat node p with the node one stride ahead, from one stride
    before the band to its end.  NaN where the pair wraps a row end."""
    shape = list(x.shape)
    shape[axis] += 1
    full = np.full(shape, np.nan, dtype=x.dtype)
    full[tuple(slice(0, s) for s in x.shape)] = x
    return full.reshape(-1)[stepper.start - stepper.strides[axis]:stepper.band.stop]


def test_forcing_envs_share_one_read_only_mesh():
    meshes = []

    def forcing(env):
        meshes.append(env["x1"])
        with pytest.raises(ValueError, match="read-only"):
            env["x1"][0] = 1.0
        return np.zeros(env["x1"].shape)

    solve_ibvp(MetricField.minkowski(1), None, None, grid1(1 / 16), forcing=forcing)
    assert len(meshes) > 2 and all(mesh is meshes[0] for mesh in meshes)


def test_forcing_callable_may_return_a_broadcastable_value():
    g = SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 8, 1 / 8), dt=1 / 32, t1=0.0, t2=0.25)
    runs = [solve_ibvp(VAR_METRIC_2D, None, None, g, forcing=forcing).samples
            for forcing in (lambda env: 0.5 - 0.1j, lambda env: np.full(g.shape, 0.5 - 0.1j))]
    assert np.any(runs[0] != 0.0) and runs[0].tobytes() == runs[1].tobytes()


TIME_CROSS_2D = MetricField(
    2,
    [["1 + 0.1*sin(x0)*cos(x2)", "0.05*cos(x0)*sin(x2)", "0.1*cos(x1 + x0)"],
     ["0.05*cos(x0)*sin(x2)", "-1 - 0.1*cos(x1)", "0.05*sin(x1)*sin(x2)"],
     ["0.1*cos(x1 + x0)", "0.05*sin(x1)*sin(x2)", "-1 - 0.1*sin(x0 + x2)"]],
    ["0.1*x2*cos(x0)", "0.2*sin(x1 + x0)", "0.1*cos(x2)*sin(x0)"],
)


# ---------------------------------------------------------------------------
# Boundary signal
# ---------------------------------------------------------------------------

def test_signal_rejects_support_before_start():
    g = grid1(1 / 32)
    with pytest.raises(ValueError):
        BoundarySignal(0.1, 0.2).validate(g)  # turns on before t1


def test_signal_rejects_support_past_end():
    g = grid1(1 / 32, t2=0.4)
    with pytest.raises(ValueError):
        BoundarySignal(0.3, 0.2).validate(g)


def test_signal_rejects_lateral_overflow():
    g = SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 16, 1 / 16), dt=1 / 64,
                      t1=0.0, t2=0.8, boundary_patch=((0.25, 0.75),))
    with pytest.raises(ValueError):
        BoundarySignal(0.3, 0.2, centers=(0.7,), widths=(0.2,)).validate(g)
    with pytest.raises(ValueError):
        BoundarySignal(0.3, 0.2).validate(g)  # missing lateral data
    BoundarySignal(0.3, 0.2, centers=(0.5,), widths=(0.2,)).validate(g)


def test_signal_errors_name_the_value_and_its_bound():
    flat = grid1(1 / 32, t2=0.4)
    face = SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 16, 1 / 16), dt=1 / 64,
                         t1=0.0, t2=0.8, boundary_patch=((0.25, 0.75),))
    for signal, grid, message in [
        (BoundarySignal(0.1, 0.2), flat, r"starts at t = -0.1, before t1 = 0"),
        (BoundarySignal(0.3, 0.2), flat, r"ends at t = 0.5, after t2 = 0.4"),
        (BoundarySignal(0.3, 0.2), face, r"axis \(1\), got 0 and 0"),
        (BoundarySignal(0.3, 0.2, centers=(0.7,), widths=(0.2,)), face,
         r"lateral support 0.7 \+- 0.2 = \[0.5, 0.9\] on axis x1 leaves the accessible "
         r"patch \[0.25, 0.75\]"),
    ]:
        with pytest.raises(ValueError, match=message):
            signal.validate(grid)


def test_signal_profile_support_and_peak():
    g = grid1(1 / 64)
    sig = BoundarySignal(0.3, 0.2, amplitude=2.0 - 1.0j)
    vals = sig.samples(g)
    assert vals.shape == (g.nt,)
    t = g.times()
    assert np.all(vals[(t <= 0.1) | (t >= 0.5)] == 0.0)
    assert complex(sig.face_profile(g, 0.3)) == pytest.approx(2.0 - 1.0j, rel=1e-12)
    assert sig.h1_norm_sq(g) > 0.0


# ---------------------------------------------------------------------------
# d'Alembert oracle: flat metric, closed-form propagation
# ---------------------------------------------------------------------------

def test_dalembert_traveling_wave():
    errs = {}
    sig = BoundarySignal(0.3, 0.2)
    for h in (1 / 64, 1 / 128):
        g = grid1(h)
        wf = solve_ibvp(MetricField.minkowski(1), None, sig, g)
        exact = traveling_pulse(sig, g.times()[:, None], g.axis(1)[None, :])
        errs[h] = math.sqrt(float(np.sum(np.abs(wf.samples - exact) ** 2)) * h * g.dt)
    assert errs[1 / 128] <= 1.2e-3
    order = math.log2(errs[1 / 64] / errs[1 / 128])
    assert order >= 1.8


# ---------------------------------------------------------------------------
# Manufactured solutions: symbolically exact forcings
# ---------------------------------------------------------------------------

def manufactured_error(metric, u_re, u_im, h, t2, dt_from_cfl=False,
                       provider_arrays=False, v1=None, first_order=None,
                       extra_forcing=None):
    """March with exact initial/boundary data and return the final-slice L2
    error against the expression solution."""
    n = metric.n
    fre, fim = apply_operator_symbolic(metric, None, u_re,
                                       u_im if u_im is not None else None)
    if extra_forcing is not None:
        fre = fre + extra_forcing[0]
        if extra_forcing[1] is not None:
            fim = fim + extra_forcing[1]
    if dt_from_cfl:
        probe = SpacetimeGrid(n=n, extent=(1.0,) * n, h=(h,) * n, dt=h / 4,
                              t1=0.0, t2=t2)
        dt = cfl_time_step(metric, probe)
    else:
        dt = h / 2
    steps = math.ceil(t2 / dt)
    dt = t2 / steps
    g = SpacetimeGrid(n=n, extent=(1.0,) * n, h=(h,) * n, dt=dt, t1=0.0, t2=t2)

    def exact(t):
        env = g.env_at_time(t)
        out = np.asarray(u_re.evaluate(env), dtype=complex)
        out = np.broadcast_to(out, g.shape).copy()
        if u_im is not None:
            out += 1j * np.broadcast_to(np.asarray(u_im.evaluate(env)), g.shape)
        return out

    provider = None
    if provider_arrays:
        garr = np.stack([metric.eval_g(g.env_at_time(t), shape=g.shape)
                         for t in g.times()])
        aarr = np.stack([metric.eval_A(g.env_at_time(t), shape=g.shape)
                         for t in g.times()])
        provider = SampledCoefficients(g, garr, aarr)

    wf = solve_ibvp(metric, None, None, g, forcing=(fre, fim),
                    provider=provider,
                    initial=(exact(0.0), exact(g.dt)), dirichlet=exact,
                    v1=v1, first_order=first_order)
    return l2(g, wf.samples[-1] - exact(g.times()[-1]))


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

TIME_METRIC_1D = MetricField(
    1,
    [["1 + 0.1*sin(x0)", "0"],
     ["0", "-1 - 0.1*cos(x0)*sin(x1)"]],
    None,
)


# An oracle of one step that shares no code with the stepper: the operator
# formed on whole node grids with plain centred differences and averages, from
# the provider's node levels.

def _shifted(u, axis, gap=1):
    """The views u[gap:] and u[:-gap] along axis."""
    hi = [slice(None)] * u.ndim
    lo = [slice(None)] * u.ndim
    hi[axis] = slice(gap, u.shape[axis])
    lo[axis] = slice(0, u.shape[axis] - gap)
    return u[tuple(hi)], u[tuple(lo)]


def _interior(values, axis):
    """Place values on the interior nodes along axis; boundary entries are zero."""
    shape = list(values.shape)
    shape[axis] += 2
    out = np.zeros(tuple(shape), dtype=values.dtype)
    mid = [slice(None)] * values.ndim
    mid[axis] = slice(1, shape[axis] - 1)
    out[tuple(mid)] = values
    return out


def _dcen(u, axis, h):
    """Centred difference along axis; boundary entries are zero (unused)."""
    hi, lo = _shifted(u, axis, 2)
    return _interior((hi - lo) / (2.0 * h), axis)


def _ddiff(u, axis, h):
    """Forward difference onto half nodes: (u[i+1] - u[i]) / h."""
    hi, lo = _shifted(u, axis)
    return (hi - lo) / h


def _davg(u, axis):
    """Average onto half nodes: (u[i+1] + u[i]) / 2."""
    hi, lo = _shifted(u, axis)
    return 0.5 * (hi + lo)


def _half_diff(w, axis, h):
    """Difference of half-node fluxes back onto interior nodes along axis."""
    return _interior(_ddiff(w, axis, h), axis)


def _half_avg(w, axis):
    """Average of half-node fluxes back onto interior nodes along axis."""
    return _interior(_davg(w, axis), axis)


def residual_oracle(stepper, t, um1, um, up1, forcing=None):
    """The whole residual of the step at level t, zero on the boundary:
    -(1/rho) [(D_0 w_0) + sum_j D_j w_j] + b_j d_j u + v1 u - F, with
    D_k = d_k - i A_k.  w_0 = rho g^{0k} D_k u lives on the half levels
    around t, from the two node levels on each side; w_j on axis j's half
    nodes of level t, where D_0 u = (u^{m+1} - u^{m-1}) / (2 dt) - i A_0 u^m
    and the other D_k u are averaged from the nodes."""
    P, n, dt, h = stepper.provider, stepper.n, stepper.dt, stepper.h

    def time_flux(tt, u_new, u_old):
        lo, hi = P.at(tt - 0.5 * dt), P.at(tt + 0.5 * dt)
        g0 = 0.5 * (lo["g"][..., 0, :] + hi["g"][..., 0, :])
        A, rho = 0.5 * (lo["A"] + hi["A"]), 0.5 * (lo["rho"] + hi["rho"])
        mid = 0.5 * (u_new + u_old)
        w = rho * g0[..., 0] * ((u_new - u_old) / dt - 1j * A[..., 0] * mid)
        for k in range(1, n + 1):
            w = w + rho * g0[..., k] * (_dcen(mid, k - 1, h[k - 1]) - 1j * A[..., k] * mid)
        return w

    node = P.at(t)
    A, rho = node["A"], node["rho"]
    w0q, w0p = time_flux(t - 0.5 * dt, um, um1), time_flux(t + 0.5 * dt, up1, um)
    total = (w0p - w0q) / dt - 0.5j * A[..., 0] * (w0p + w0q)
    dk = [(up1 - um1) / (2.0 * dt) - 1j * A[..., 0] * um]
    dk += [_dcen(um, k - 1, h[k - 1]) - 1j * A[..., k] * um for k in range(1, n + 1)]
    for j in range(1, n + 1):
        axis = j - 1
        gh, rhoh = _davg(node["g"][..., j, :], axis), _davg(rho, axis)
        dj = _ddiff(um, axis, h[axis]) - 1j * _davg(A[..., j], axis) * _davg(um, axis)
        w = gh[..., j] * dj
        for k in range(n + 1):
            if k != j:
                w = w + gh[..., k] * _davg(dk[k], axis)
        w = rhoh * w
        total = total + _half_diff(w, axis, h[axis]) - 1j * A[..., j] * _half_avg(w, axis)
    out = -total / rho
    first, v1 = node["first"], P.zeroth_at(t)
    if first is not None:
        out = out + first[0] * (up1 - um1) / (2.0 * dt)
        for j in range(1, n + 1):
            out = out + first[j] * _dcen(um, j - 1, h[j - 1])
    if v1 is not None:
        out = out + v1 * um
    if forcing is not None:
        out = out - forcing
    inner = (slice(1, -1),) * n
    res = np.zeros(out.shape, dtype=complex)
    res[inner] = out[inner]
    return res


def operator_residual(stepper, t, up1):
    """The terms of one step's residual in u^{m+1}, in operator form: the time
    flux ahead of the step and the g^{j0} cross fluxes of its average onto half
    nodes, differenced back onto the nodes, and the b_0 term."""
    zero = np.zeros_like(up1)
    return residual_oracle(stepper, t, zero, zero, up1)


def _stepper_case(metric, first_order=True):
    """A stepper on a 1/16 grid with v1 and b_j terms, and random complex fields."""
    n = metric.n
    g = SpacetimeGrid(n=n, extent=(1.0,) * n, h=(1 / 16,) * n, dt=1 / 64,
                      t1=0.0, t2=0.25)
    x = [f"x{k}" for k in range(n + 1)]
    v1 = (parse_expr(f"0.5*cos({x[1]})*sin(x0)"), parse_expr(f"0.2*{x[-1]}"))
    first = [parse_expr("0.4 + 0.1*x0*x1"), parse_expr(f"0.3*sin({x[-1]})")] \
        + [(None, parse_expr("0.2*cos(x0)"))] * (n - 1)
    provider = (SampledCoefficients.from_metric(metric, g, v1, first) if first_order
                else SampledCoefficients.from_metric(metric, g))
    rng = np.random.default_rng(5)
    fields = [rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
              for _ in range(4)]
    return g, _Stepper(provider, g), fields


@pytest.mark.parametrize("metric, nodes", [
    (VAR_METRIC_1D, [(1,), (8,), (15,)]),
    (TIME_CROSS_2D, [(1, 1), (1, 8), (8, 15), (7, 9), (15, 15)]),
    (TIME_METRIC_1D, [(1,), (8,), (15,)]),  # no g^{0j}: no arms
], ids=["VAR_METRIC_1D", "TIME_CROSS_2D", "TIME_METRIC_1D"])
def test_stepper_stencil_is_exact(metric, nodes):
    # the residual is affine in u^{m+1}: its finite-difference slope at a node
    # against that node and each neighbour is the stencil's centre and arm
    # times the centre, with every term of the operator on
    n = metric.n
    g, stepper, (um1, um, up1, bump) = _stepper_case(metric)
    t = g.times()[3]
    c = stepper.level(t)
    crossed = metric is not TIME_METRIC_1D
    assert len(c["arms"]) == (n if crossed else 0)
    base = operator_residual(stepper, t, up1)
    eps = 1e-3
    for node in nodes:
        q = int(np.ravel_multi_index(node, g.shape)) - stepper.start  # the node's band entry
        centre = -1.0 / (c["rho"][q] * c["per_centre"][q])
        stencil = [(node, centre)]
        for axis in range(n):
            for gap, side in ((1, 0), (-1, 1)):
                nbr = tuple(i + gap * (k == axis) for k, i in enumerate(node))
                arm = c["arms"][axis][side][q] if crossed else 0.0
                stencil.append((nbr, arm * centre))
        for nbr, coefficient in stencil:
            bumped = up1.copy()
            bumped[nbr] += eps
            slope = (operator_residual(stepper, t, bumped)[node] - base[node]) / eps
            assert abs(slope - coefficient) <= 1e-9 * abs(centre)
    # the sweep's stencil applies those coefficients to the right neighbours
    interior = (slice(1, -1),) * n
    moved = stepper.apply(um1, um, up1 + bump, t) - stepper.apply(um1, um, up1, t)
    exact = operator_residual(stepper, t, up1 + bump) - base
    assert np.max(np.abs(moved[interior] - exact[interior])) <= 1e-9 * np.max(np.abs(exact))


@pytest.mark.parametrize("metric", [TIME_CROSS_2D, VAR_METRIC_1D],
                         ids=["TIME_CROSS_2D", "VAR_METRIC_1D"])
def test_stepper_apply_is_the_whole_residual(metric):
    # apply against the operator formed on whole node grids: each of u^{m-1},
    # u^m, u^{m+1} and the forcing alone, then all four, with and without the
    # b_j and v1 terms; every term of the residual is checked, and each of the
    # b_j and v1 terms moves it by far more than the bound
    g, stepper, (um1, um, up1, forcing) = _stepper_case(metric)
    _, bare, _ = _stepper_case(metric, first_order=False)
    t = g.times()[3]
    zero = np.zeros(g.shape, dtype=complex)
    cases = [(um1, zero, zero, None), (zero, um, zero, None), (zero, zero, up1, None),
             (zero, zero, zero, forcing), (um1, um, up1, forcing)]
    for run in (stepper, bare):
        for um1_, um_, up1_, forcing_ in cases:
            want = residual_oracle(run, t, um1_, um_, up1_, forcing_)
            got = run.apply(um1_, um_, up1_, t, forcing_val=forcing_)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    terms = residual_oracle(stepper, t, um1, um, up1) - residual_oracle(bare, t, um1, um, up1)
    assert np.max(np.abs(terms)) >= 1e-4 * np.max(np.abs(residual_oracle(bare, t, um1, um, up1)))


@pytest.mark.parametrize("metric, A, v1, first_order", [
    (VAR_METRIC_2D, None, None, None),
    (VAR_METRIC_2D, ["0.1*x0*x1", "0.3", "0.2*sin(x2)"], None, None),
    (TIME_METRIC_1D, None, None, None),
    (TIME_METRIC_1D, None, "0.5*cos(x1)*sin(x0)", [None, "0.3*sin(x1) + 0.1*x0"]),
])
def test_expression_run_matches_sampled_arrays(metric, A, v1, first_order):
    # an expression-backed run samples the same node levels as arrays tabulated
    # from eval_g/eval_A, and averages them onto the staggered points alike
    n = metric.n
    g = SpacetimeGrid(n=n, extent=(1.0,) * n, h=(1 / 16,) * n, dt=1 / 64, t1=0.0, t2=0.25)
    env = g.env_at_time(0.0)
    u0 = np.ones(g.shape, dtype=complex)
    for i in range(1, n + 1):
        u0 = u0 * np.sin(math.pi * env[f"x{i}"])
    v1 = None if v1 is None else parse_expr(v1)
    first_order = None if first_order is None else [
        None if b is None else parse_expr(b) for b in first_order]
    expr_run = solve_ibvp(metric, A, None, g, initial=(u0, 1.01 * u0),
                          v1=v1, first_order=first_order)

    sampled = metric if A is None else metric.with_potential(A)

    def nodes(fn):
        return np.stack([fn(g.env_at_time(t)) for t in g.times()])

    def scalar(e):
        if e is None:
            return np.zeros((g.nt,) + g.shape)
        return nodes(lambda env: np.broadcast_to(e.evaluate(env), g.shape))

    provider = SampledCoefficients(
        g, nodes(lambda env: sampled.eval_g(env, shape=g.shape)),
        nodes(lambda env: sampled.eval_A(env, shape=g.shape)),
        v1=None if v1 is None else scalar(v1),
        first_order=None if first_order is None else [scalar(b) for b in first_order])
    array_run = solve_ibvp(metric, None, None, g, initial=(u0, 1.01 * u0), provider=provider)
    scale = np.max(np.abs(array_run.samples))
    assert np.max(np.abs(expr_run.samples - array_run.samples)) <= 1e-12 * scale


@pytest.mark.parametrize("given", [
    {"A": ["0.1", "0"]},
    {"v1": parse_expr("1")},
    {"first_order": [None, parse_expr("1")]},
])
def test_provider_rejects_coefficients_it_would_ignore(given):
    g = grid1(1 / 16, t2=0.2)
    env = g.env_at_time(0.0)
    m = MetricField.minkowski(1)
    provider = SampledCoefficients(g, m.eval_g(env, shape=g.shape), m.eval_A(env, shape=g.shape))
    (name,) = given
    with pytest.raises(ValueError, match=rf"^{name} would be ignored"):
        solve_ibvp(m, f=None, grid=g, provider=provider, **{"A": None, **given})


def test_manufactured_variable_metric_second_order():
    u_re = parse_expr("sin(x0)*cos(pi*x1)")
    errs = {h: manufactured_error(VAR_METRIC_1D, u_re, None, h, 0.5, dt_from_cfl=True)
            for h in (1 / 32, 1 / 64)}
    assert errs[1 / 64] <= 3e-5
    assert math.log2(errs[1 / 32] / errs[1 / 64]) >= 1.8


def test_manufactured_2d_cross_terms_second_order():
    # g^{0j} != 0 forces the implicit sweep path; complex-valued solution
    u_re = parse_expr("sin(x0)*cos(pi*x1)*cos(pi*x2)")
    u_im = parse_expr("0.3*cos(x0)*sin(pi*x1)*sin(pi*x2)")
    errs = {h: manufactured_error(VAR_METRIC_2D, u_re, u_im, h, 0.4, dt_from_cfl=True)
            for h in (1 / 16, 1 / 32)}
    assert errs[1 / 16] <= 1e-3
    assert math.log2(errs[1 / 16] / errs[1 / 32]) >= 1.8


def test_manufactured_time_dependent_metric_second_order():
    u_re = parse_expr("sin(x0)*cos(pi*x1)")
    errs = {h: manufactured_error(TIME_METRIC_1D, u_re, None, h, 0.5, dt_from_cfl=True)
            for h in (1 / 32, 1 / 64)}
    assert math.log2(errs[1 / 32] / errs[1 / 64]) >= 1.8


def test_manufactured_sampled_coefficients_second_order():
    # array-backed coefficients must reproduce the expression path up to the
    # second-order half-node averaging error
    u_re = parse_expr("sin(x0)*cos(pi*x1)")
    errs = {h: manufactured_error(VAR_METRIC_1D, u_re, None, h, 0.5,
                                  dt_from_cfl=True, provider_arrays=True)
            for h in (1 / 32, 1 / 64)}
    assert errs[1 / 64] <= 1e-4
    assert math.log2(errs[1 / 32] / errs[1 / 64]) >= 1.8


def test_first_order_and_zeroth_hooks_second_order():
    m = MetricField.minkowski(1)
    u_re = parse_expr("sin(x0)*cos(pi*x1)")
    b1 = parse_expr("0.3*sin(x1)")
    v1 = parse_expr("0.5*cos(x1)")
    extra = b1 * u_re.diff(1) + v1 * u_re
    errs = {h: manufactured_error(m, u_re, None, h, 0.5, v1=v1,
                                  first_order=[None, b1], extra_forcing=(extra, None))
            for h in (1 / 32, 1 / 64)}
    assert errs[1 / 64] <= 2e-5
    assert math.log2(errs[1 / 32] / errs[1 / 64]) >= 1.8


def test_time_derivative_hook_second_order():
    m = MetricField.minkowski(1)
    u_re = parse_expr("sin(x0)*cos(pi*x1)")
    b0 = parse_expr("0.4")
    extra = b0 * u_re.diff(0)
    errs = {h: manufactured_error(m, u_re, None, h, 0.5,
                                  first_order=[b0, None], extra_forcing=(extra, None))
            for h in (1 / 32, 1 / 64)}
    assert math.log2(errs[1 / 32] / errs[1 / 64]) >= 1.8


# ---------------------------------------------------------------------------
# Structure: linearity, time translation, gauge of the symbolic oracle
# ---------------------------------------------------------------------------

def test_amplitude_homogeneity_exact():
    g = grid1(1 / 32)
    base = solve_ibvp(MetricField.minkowski(1), None, BoundarySignal(0.3, 0.2), g)
    beta = 0.7 - 0.4j
    scaled = solve_ibvp(MetricField.minkowski(1), None,
                        BoundarySignal(0.3, 0.2, amplitude=beta), g)
    assert np.max(np.abs(scaled.samples - beta * base.samples)) <= 1e-13


@settings(max_examples=10, deadline=None)
@given(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
def test_superposition(alpha):
    g = grid1(1 / 16, t2=0.8)
    m = MetricField.minkowski(1)
    s1 = BoundarySignal(0.3, 0.2)
    s2 = BoundarySignal(0.45, 0.15)
    u1 = solve_ibvp(m, None, s1, g)
    u2 = solve_ibvp(m, None, s2, g)

    def combo(t):
        arr = np.zeros(g.shape, dtype=complex)
        arr[0] = s1.face_profile(g, t) + alpha * s2.face_profile(g, t)
        return arr

    u12 = solve_ibvp(m, None, None, g, dirichlet=combo)
    ref = u1.samples + alpha * u2.samples
    assert np.max(np.abs(u12.samples - ref)) <= 1e-12 * max(1.0, abs(alpha))


def test_time_translation_covariance():
    # static coefficients: delaying the datum by k steps delays the field
    g = grid1(1 / 64)
    m = MetricField.minkowski(1)
    sig = BoundarySignal(0.3, 0.2)
    shift_steps = 16
    delta = shift_steps * g.dt
    a = solve_ibvp(m, None, sig, g)
    b = solve_ibvp(m, None, sig.shifted(delta), g)
    assert np.max(np.abs(b.samples[shift_steps:] - a.samples[:g.nt - shift_steps])) <= 1e-13


def test_symbolic_operator_flat_closed_form():
    # -(d_t^2 - d_x^2) sin(t)cos(pi x) = (1 - pi^2) sin(t)cos(pi x)
    m = MetricField.minkowski(1)
    u = parse_expr("sin(x0)*cos(pi*x1)")
    fre, fim = apply_operator_symbolic(m, None, u)
    rng = np.random.default_rng(7)
    for _ in range(20):
        t, x = rng.uniform(0, 1, 2)
        env = {"x0": t, "x1": x}
        assert fre.evaluate(env) == pytest.approx(
            (1 - math.pi ** 2) * math.sin(t) * math.cos(math.pi * x), abs=1e-12)
        assert fim.evaluate(env) == pytest.approx(0.0, abs=1e-12)


def test_symbolic_operator_constant_gauge_closed_form():
    # with A = (a, 0) and u = e^{ikt}: L u = (k - a)^2 u
    k, a = 3.0, 1.25
    m = MetricField.minkowski(1)
    fre, fim = apply_operator_symbolic(
        m, [parse_expr("1.25"), parse_expr("0")],
        parse_expr("cos(3*x0)"), parse_expr("sin(3*x0)"))
    rng = np.random.default_rng(11)
    for _ in range(20):
        t, x = rng.uniform(0, 1, 2)
        env = {"x0": t, "x1": x}
        assert fre.evaluate(env) == pytest.approx((k - a) ** 2 * math.cos(k * t), abs=1e-10)
        assert fim.evaluate(env) == pytest.approx((k - a) ** 2 * math.sin(k * t), abs=1e-10)


# ---------------------------------------------------------------------------
# Finite propagation speed
# ---------------------------------------------------------------------------

def test_support_confined_to_influence_cone_2d():
    m = MetricField.minkowski(2)
    g = SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 32, 1 / 32), dt=1 / 128,
                      t1=0.0, t2=0.6, boundary_patch=((0.2, 0.8),))
    sig = BoundarySignal(0.25, 0.15, centers=(0.5,), widths=(0.25,))
    wf = solve_ibvp(m, None, sig, g)

    seed = np.zeros(g.shape, dtype=bool)
    seed[np.abs(g.axis(1) - 0.5) <= 0.25, 0] = True
    region = influence_region(g, m, seed, "forward", seed_time=0.1)

    a = np.abs(wf.samples)
    assert a.max() == pytest.approx(1.0, abs=0.05)
    # grid-scale precursor decays geometrically away from the cone
    halo = region.mask.copy()
    leak = []
    for _ in range(7):
        leak.append(a[~halo].max())
        halo = binary_dilation(halo)
    assert leak[1] <= 5e-3
    assert leak[3] <= 5e-4
    assert leak[6] <= 1e-5


def test_support_confined_to_influence_cone_1d():
    m = MetricField.minkowski(1)
    g = SpacetimeGrid(n=1, extent=(1.0,), h=(1 / 64,), dt=1 / 128, t1=0.0, t2=0.9)
    sig = BoundarySignal(0.3, 0.2)
    wf = solve_ibvp(m, None, sig, g)
    seed = np.zeros(g.shape, dtype=bool)
    seed[0] = True
    region = influence_region(g, m, seed, "forward", seed_time=0.1)
    a = np.abs(wf.samples)
    halo = binary_dilation(region.mask)
    assert a[~halo].max() <= 2e-3
    halo = binary_dilation(halo, iterations=4)
    assert a[~halo].max() <= 5e-5


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------

def standing_wave_run(h=1 / 128):
    g = SpacetimeGrid(n=1, extent=(1.0,), h=(h,), dt=h / 2, t1=0.0, t2=1.0)
    x = g.axis(1)

    def exact(t):
        return (np.sin(math.pi * t) * np.sin(math.pi * x)).astype(complex)

    m = MetricField.minkowski(1)
    wf = solve_ibvp(m, None, None, g, initial=(exact(0.0), exact(g.dt)),
                    dirichlet=lambda t: exact(t))
    return g, m, wf


def test_energy_zero_field():
    g = grid1(1 / 32)
    wf = solve_ibvp(MetricField.minkowski(1), None, None, g)
    assert energy(wf, g.times()[g.nt // 2], MetricField.minkowski(1)) == 0.0


def test_energy_standing_wave_conserved():
    # u = sin(pi t) sin(pi x): E = (pi^2)/2 exactly, constant in time
    g, m, wf = standing_wave_run()
    samples = [energy(wf, t, m) for t in g.times()[4:-4:16]]
    mean = float(np.mean(samples))
    exact = math.pi ** 2 / 2
    assert abs(mean - exact) / exact <= 1e-3
    assert (max(samples) - min(samples)) / mean <= 1e-3


def test_energy_gauge_conjugation_invariant():
    # multiplying by e^{i phi(x)} and shifting A by phi' preserves the energy
    g, m, wf = standing_wave_run(h=1 / 64)
    phase = np.exp(0.3j * g.axis(1))
    phased = WaveField(samples=wf.samples * phase,
                       boundary_layers=wf.boundary_layers, grid=g,
                       cfl_number=wf.cfl_number)
    t = g.times()[g.nt // 3]
    e0 = energy(wf, t, m)
    e1 = energy(phased, t, m, A=[parse_expr("0"), parse_expr("0.3")])
    assert e1 == pytest.approx(e0, rel=2e-3)


def test_dn_trace_gauge_invariant():
    # c = exp(i phase) is 1 on the face with its derivatives, so the runs with
    # A and with the conjugated potential share their DN trace up to O(h^2)
    c = GaugeField("0.5*x1^3*cos(x0)")
    A = apply_conjugation_gauge(VAR_METRIC_1D.A, c)
    sig = BoundarySignal(0.3, 0.2)
    gaps = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        probe = SpacetimeGrid(n=1, extent=(1.0,), h=(h,), dt=h / 4, t1=0.0, t2=0.9)
        steps = math.ceil(0.9 / cfl_time_step(VAR_METRIC_1D, probe))
        g = SpacetimeGrid(n=1, extent=(1.0,), h=(h,), dt=0.9 / steps, t1=0.0, t2=0.9)
        base = dn_trace(solve_ibvp(VAR_METRIC_1D, None, sig, g), VAR_METRIC_1D)
        gauged = dn_trace(solve_ibvp(VAR_METRIC_1D, A, sig, g), VAR_METRIC_1D, A)
        gaps.append(float(np.max(np.abs(base.values - gauged.values))))
    assert gaps[-1] <= 1e-4
    assert math.log2(gaps[0] / gaps[1]) >= 1.8
    assert math.log2(gaps[1] / gaps[2]) >= 1.8


def test_dn_trace_gauge_invariant_2d_time_cross():
    # the implicit g^{0j} != 0 path end to end: c = exp(i phase) is 1 on the
    # face but its phase has a normal derivative there, so the gauged run's
    # DN trace reads the conjugated potential's normal part; the two traces
    # agree up to the scheme's error, at second order
    c = GaugeField("0.5*x2*cos(x0)*(1 + 0.3*sin(x1))")
    A = apply_conjugation_gauge(TIME_CROSS_2D.A, c)
    sig = BoundarySignal(0.4, 0.3, centers=(0.5,), widths=(0.3,))
    gaps = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        def grid(dt):
            return SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=dt, t1=0.0, t2=0.8,
                                 boundary_patch=((0.2, 0.8),))

        g = grid(0.8 / math.ceil(0.8 / cfl_time_step(TIME_CROSS_2D, grid(h / 4))))
        base = dn_trace(solve_ibvp(TIME_CROSS_2D, None, sig, g, store="boundary"), TIME_CROSS_2D)
        gauged = dn_trace(solve_ibvp(TIME_CROSS_2D, A, sig, g, store="boundary"),
                          TIME_CROSS_2D, A)
        gaps.append(float(np.max(np.abs(base.values - gauged.values))
                          / np.max(np.abs(base.values))))
    # 1.4e-2, 4.1e-3, 1.1e-3
    assert gaps[-1] <= 2e-3
    assert math.log2(gaps[0] / gaps[1]) >= 1.5
    assert math.log2(gaps[1] / gaps[2]) >= 1.5


def test_dn_trace_diffeomorphism_invariant_2d_time_shift():
    # time-shifting slices y0 = x0 + 0.2*x2^2*(1 + 0.5 sin x1) fix the face
    # pointwise and stay space-like; the pushforward carries g^{0j} != 0 cross
    # terms that the lab metric's implicit path must reproduce, so the DN
    # traces of the run and of its pushforward agree at second order
    phi = Diffeo(2, ["x0 + 0.2*x2^2*(1 + 0.5*sin(x1))", "x1", "x2"],
                 ["x0 - 0.2*x2^2*(1 + 0.5*sin(x1))", "x1", "x2"])
    sig = BoundarySignal(0.4, 0.3, centers=(0.5,), widths=(0.3,))
    gaps = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        def grid(dt):
            return SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=dt, t1=0.0, t2=0.8,
                                 boundary_patch=((0.2, 0.8),))

        probe = grid(h / 4)
        assert phi.fixes_boundary_face(probe) and phi.slices_spacelike(TIME_CROSS_2D, probe)
        pushed = pushforward(TIME_CROSS_2D, phi, probe)
        cfl = min(cfl_time_step(TIME_CROSS_2D, probe), cfl_time_step(pushed, probe))
        g = grid(0.8 / math.ceil(0.8 / cfl))
        base = dn_trace(solve_ibvp(TIME_CROSS_2D, None, sig, g, store="boundary"), TIME_CROSS_2D)
        moved = dn_trace(solve_ibvp(pushed, None, sig, g, store="boundary"), pushed)
        gaps.append(float(np.max(np.abs(base.values - moved.values))
                          / np.max(np.abs(base.values))))
    # 1.9e-2, 4.7e-3, 1.2e-3
    assert gaps[-1] <= 2e-3
    assert math.log2(gaps[0] / gaps[1]) >= 1.5
    assert math.log2(gaps[1] / gaps[2]) >= 1.5


def test_dn_trace_diffeomorphism_invariant():
    # y1 = (e^{a x1} - 1)/(e^a - 1) fixes the face pointwise with phi'(0) ~ 0.77,
    # so the normalized traces of the run and of its pushforward agree up to O(h^2)
    a = 0.5
    e = math.exp(a) - 1.0
    phi = Diffeo(1, ["x0", f"(exp({a}*x1) - 1)/{e!r}"], ["x0", f"log(1 + {e!r}*x1)/{a}"])
    sig = BoundarySignal(0.4, 0.3)
    gaps = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        probe = SpacetimeGrid(n=1, extent=(1.0,), h=(h,), dt=h / 4, t1=0.0, t2=0.9)
        assert phi.fixes_boundary_face(probe)
        pushed = pushforward(VAR_METRIC_1D, phi, probe)
        dt = 0.9 * min(cfl_time_step(VAR_METRIC_1D, probe), cfl_time_step(pushed, probe))
        g = SpacetimeGrid(n=1, extent=(1.0,), h=(h,), dt=dt, t1=0.0, t2=0.9)
        base = dn_trace(solve_ibvp(VAR_METRIC_1D, None, sig, g), VAR_METRIC_1D)
        moved = dn_trace(solve_ibvp(pushed, None, sig, g), pushed)
        gaps.append(float(np.max(np.abs(base.values - moved.values))))
    assert math.log2(gaps[0] / gaps[1]) >= 1.8
    assert math.log2(gaps[1] / gaps[2]) >= 1.8


def test_norms_need_full_samples():
    g = grid1(1 / 32, t2=0.5)
    slim = solve_ibvp(MetricField.minkowski(1), None, BoundarySignal(0.2, 0.1), g,
                      store="boundary")
    with pytest.raises(ValueError, match="full samples"):
        graph_norm_sq(slim, 1)
    with pytest.raises(ValueError, match="full samples"):
        energy(slim, g.times()[1], MetricField.minkowski(1))


def test_graph_norm_bound_refinement_stable():
    # max_t ||u||_{H1 x L2}^2 <= C |f|_{H1}^2 with C stable under refinement
    m = MetricField.minkowski(1)
    sig = BoundarySignal(0.3, 0.2)
    ratios = {}
    for h in (1 / 32, 1 / 64):
        g = grid1(h)
        wf = solve_ibvp(m, None, sig, g)
        gmax = max(graph_norm_sq(wf, k) for k in range(g.nt))
        ratios[h] = gmax / sig.h1_norm_sq(g)
    assert 1.0 <= ratios[1 / 64] <= 4.0
    assert abs(ratios[1 / 64] - ratios[1 / 32]) / ratios[1 / 64] <= 0.10
