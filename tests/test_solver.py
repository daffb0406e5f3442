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
from bclab.expr import parse_expr
from bclab.geometry import (
    Diffeo,
    GaugeField,
    MetricField,
    NonHyperbolic,
    SpacetimeGrid,
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
    # g^{11} = -1 at the nine levels t = k/8 that check_hyperbolicity and
    # max_characteristic_speed sample; the run must refuse the first bad
    # level it reaches, before the guard sees any growth
    g = SpacetimeGrid(n=1, extent=(1.0,), h=(1 / 32,), dt=1 / 64, t1=0.0, t2=1.0)
    metric = MetricField(1, [["1", "0"], ["0", g11]])
    assert check_hyperbolicity(metric, g).passed
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
    cross = solve_ibvp(VAR_METRIC_2D, None, None, g, initial=(u0, u0))
    flat = solve_ibvp(MetricField.minkowski(2), None, None, g, initial=(u0, u0))
    for wf in (cross, flat):
        assert wf.diagnostics["sweeps"].shape == (g.nt - 2,)
        assert wf.diagnostics["sweeps"].dtype.kind == "i"
        assert wf.diagnostics["last_update"].shape == (g.nt - 2,)
        assert np.all(wf.diagnostics["last_update"] > 0.0)
        cfl = wf.diagnostics["cfl"]
        assert cfl.shape == (g.nt,) and wf.cfl_number == max(cfl)
    assert np.all(cross.diagnostics["sweeps"] > 1)
    assert np.all(flat.diagnostics["sweeps"] == 1)
    # each cross-term step stopped on _SWEEP_TOL
    scale = max(float(np.max(np.abs(cross.samples))), 1.0)
    assert np.all(cross.diagnostics["last_update"] <= 1e-13 * scale)


TIME_CROSS_2D = MetricField(
    2,
    [["1 + 0.1*sin(x0)*cos(x2)", "0.05*cos(x0)*sin(x2)", "0.1*cos(x1 + x0)"],
     ["0.05*cos(x0)*sin(x2)", "-1 - 0.1*cos(x1)", "0.05*sin(x1)*sin(x2)"],
     ["0.1*cos(x1 + x0)", "0.05*sin(x1)*sin(x2)", "-1 - 0.1*sin(x0 + x2)"]],
    ["0.1*x2*cos(x0)", "0.2*sin(x1 + x0)", "0.1*cos(x2)*sin(x0)"],
)


def test_stepper_diagonal_is_exact():
    # the residual is affine in u^{m+1}: its finite difference at a node is
    # the diagonal the sweep divides by, with every term of the operator on
    g = SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 16, 1 / 16), dt=1 / 64,
                      t1=0.0, t2=0.25)
    v1 = (parse_expr("0.5*cos(x1)*sin(x0)"), parse_expr("0.2*x2"))
    first = [parse_expr("0.4 + 0.1*x0*x1"), parse_expr("0.3*sin(x2)"),
             (None, parse_expr("0.2*cos(x0)"))]
    stepper = _Stepper(SampledCoefficients.from_metric(TIME_CROSS_2D, g, v1, first), g)
    rng = np.random.default_rng(5)
    um1, um, up1 = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
                    for _ in range(3))
    t = g.times()[3]
    base = stepper.apply(um1, um, up1, t)
    diag = stepper.level(t)["diag"]
    eps = 1e-3
    for node in [(1, 1), (1, 8), (8, 15), (7, 9)]:
        bumped = up1.copy()
        bumped[node] += eps
        slope = (stepper.apply(um1, um, bumped, t)[node] - base[node]) / eps
        assert abs(slope - diag[node]) <= 1e-9 * abs(diag[node])


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
