"""Geometry layer tests: grids, hyperbolicity, gauges, diffeos, rays, influence."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bclab import geometry
from bclab.expr import Call, Const, Mul, Var, parse_expr
from bclab.geometry import (
    Diffeo,
    GaugeField,
    MetricField,
    NonHyperbolic,
    NotNull,
    SingularJacobian,
    SpacetimeGrid,
    _cone,
    _det,
    _eval_table,
    _Plan,
    apply_conjugation_gauge,
    apply_gauge,
    check_hyperbolicity,
    influence_region,
    max_characteristic_speed,
    pushforward,
    trace_bicharacteristic,
)


def _grid1(h=1 / 32, t2=1.0):
    return SpacetimeGrid(n=1, extent=(1.0,), h=(h,), dt=h / 2, t1=0.0, t2=t2)


def _grid2(h=1 / 16, t2=0.5):
    return SpacetimeGrid(
        n=2, extent=(1.0, 1.0), h=(h, h), dt=h / 2, t1=0.0, t2=t2,
        boundary_patch=((0.25, 0.75),),
    )


# ===== SpacetimeGrid =========================================================

def test_grid_shapes_and_axes():
    grid = _grid1()
    assert grid.shape == (33,)
    assert grid.nt == 65
    assert grid.times()[0] == 0.0
    assert grid.times()[-1] == pytest.approx(1.0)
    np.testing.assert_allclose(grid.axis(1)[[0, -1]], [0.0, 1.0])


@pytest.mark.parametrize("grid", [
    SpacetimeGrid(n=1, extent=(1.0,), h=(1 / 8,), dt=1 / 16, t1=0.25, t2=1.0),
    SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(1 / 4, 1 / 8), dt=0.1, t1=0.0, t2=0.8),
    # dt = 0.3 does not divide the window [0.1, 1.2]: the last level is t = 1.0
    SpacetimeGrid(n=2, extent=(0.5, 1.0), h=(1 / 8, 1 / 4), dt=0.3, t1=0.1, t2=1.2),
], ids=["n1", "n2", "n2-dt-not-dividing"])
def test_grid_axes_and_steps(grid):
    axes, steps = grid.axes(), grid.steps()
    assert steps == [grid.dt, *grid.h]
    face = grid.face_axes()
    assert len(face) == len(axes) - 1
    assert all(np.array_equal(f, a) for f, a in zip(face, axes))
    assert len(axes[0]) == grid.nt
    assert tuple(map(len, axes[1:])) == grid.shape
    for ax, start, step in zip(axes, [grid.t1] + [0.0] * grid.n, steps):
        assert ax[0] == start
        np.testing.assert_allclose(np.diff(ax), step, rtol=0.0, atol=1e-12)


def test_grid_rejects_bad_inputs():
    # every refusal names what it got and the bound it broke
    with pytest.raises(ValueError, match=r"spatial dimension must be 1 or 2, got 3"):
        SpacetimeGrid(n=3, extent=(1.0,) * 3, h=(0.1,) * 3, dt=0.01, t1=0.0, t2=1.0)
    with pytest.raises(ValueError, match=r"one entry per spatial axis \(2\), got 1 and 2"):
        SpacetimeGrid(n=2, extent=(1.0,), h=(0.1, 0.1), dt=0.01, t1=0.0, t2=1.0)
    with pytest.raises(ValueError, match=r"spacing on x1 must be strictly positive, got -0\.1"):
        SpacetimeGrid(n=1, extent=(1.0,), h=(-0.1,), dt=0.01, t1=0.0, t2=1.0)
    with pytest.raises(ValueError, match=r"extent on x2 must be strictly positive, got 0$"):
        SpacetimeGrid(n=2, extent=(1.0, 0.0), h=(0.1, 0.1), dt=0.01, t1=0.0, t2=1.0)
    with pytest.raises(ValueError, match=r"dt must be strictly positive, got -0\.01"):
        SpacetimeGrid(n=1, extent=(1.0,), h=(0.1,), dt=-0.01, t1=0.0, t2=1.0)
    with pytest.raises(ValueError, match=r"time window \[t1, t2\] = \[1, 1\] must have t2 > t1"):
        SpacetimeGrid(n=1, extent=(1.0,), h=(0.1,), dt=0.01, t1=1.0, t2=1.0)
    with pytest.raises(ValueError, match=r"integer multiple of h: x1 has extent/h = 1/0\.3 = "
                                         r"3\.33333"):
        SpacetimeGrid(n=1, extent=(1.0,), h=(0.3,), dt=0.01, t1=0.0, t2=1.0)  # not integral
    with pytest.raises(ValueError, match=r"one \[lo,hi\] pair per tangential axis \(1\), got 2"):
        SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(0.1, 0.1), dt=0.01, t1=0.0, t2=1.0,
                      boundary_patch=((0.1, 0.9), (0.2, 0.8)))
    with pytest.raises(ValueError, match=r"inside the face: got \[0\.9, 0\.2\] on x1, "
                                         r"face \[0, 1\]"):
        SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(0.1, 0.1), dt=0.01, t1=0.0, t2=1.0,
                      boundary_patch=((0.9, 0.2),))


def test_grid_patch_mask():
    grid = _grid2(h=1 / 4)
    mask = grid.patch_mask_face()
    # x1 in [0.25, 0.75] on a 5-node axis {0, .25, .5, .75, 1}
    np.testing.assert_array_equal(mask, [False, True, True, True, False])


def test_grid_refine_halves_spacings():
    grid = _grid1(h=1 / 8)
    fine = grid.refine()
    assert fine.h == (1 / 16,)
    assert fine.dt == grid.dt / 2
    assert fine.shape == (17,)


# ===== check_hyperbolicity ===================================================

def test_minkowski_passes_with_unit_constants():
    for n, grid in ((1, _grid1()), (2, _grid2())):
        report = check_hyperbolicity(MetricField.minkowski(n), grid)
        assert report.passed
        assert report.c0 == pytest.approx(1.0)
        assert report.c1 == pytest.approx(1.0)
        assert report.boundary_form_max == pytest.approx(-1.0)


def test_vanishing_time_coefficient_rejected():
    # g00 = x1 hits zero at the x1 = 0 node
    metric = MetricField(1, [["x1", "0"], ["0", "-1"]])
    report = check_hyperbolicity(metric, _grid1())
    assert not report.passed
    conditions = [f[0] for f in report.failures]
    assert "time coefficient positivity" in conditions
    with pytest.raises(NonHyperbolic) as err:
        report.raise_if_failed()
    assert err.value.point == (0.0, 0.0)


def test_spatial_ellipticity_rejected():
    metric = MetricField(1, [["1", "0"], ["0", "0.5 - x1"]])  # wrong sign for x1 < .5
    report = check_hyperbolicity(metric, _grid1())
    assert not report.passed
    assert any(f[0] == "spatial ellipticity" for f in report.failures)


def test_boundary_face_must_be_timelike():
    # g^{nn} >= 0 near the face x2 = 0 makes the face non-time-like
    metric = MetricField(2, [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "0.1 - x2"]])
    report = check_hyperbolicity(metric, _grid2())
    assert any(f[0] == "time-like boundary face" for f in report.failures)


def test_discriminant_scan_matches_bruteforce_oracle():
    # oracle: dense exhaustive scan of (g^{01} xi1)^2 - g^{00} g^{11} xi1^2
    # for the metric g00=1, g01=0.2 sin x0, g11=-(1+0.3 sin x0 sin x1)
    x0 = np.linspace(0.0, 1.0, 201)[:, None]
    x1 = np.linspace(0.0, 1.0, 201)[None, :]
    g01 = 0.2 * np.sin(x0) * np.ones_like(x1)
    g11 = -(1.0 + 0.3 * np.sin(x0) * np.sin(x1))
    disc = g01**2 - 1.0 * g11  # xi1 = +-1 give the same value
    oracle_min = float(disc.min())

    metric = MetricField(1, [["1", "0.2*sin(x0)"], ["0.2*sin(x0)", "-(1 + 0.3*sin(x0)*sin(x1))"]])
    report = check_hyperbolicity(metric, _grid1())
    assert report.passed
    assert report.min_discriminant == pytest.approx(oracle_min, abs=1e-6)
    assert oracle_min == pytest.approx(1.0, abs=1e-12)  # attained on the x0 = 0 slice


def test_roots_real_distinct_for_random_covectors():
    # accepted metric implies positive discriminant for arbitrary covectors
    metric = MetricField(
        2,
        [["1 + 0.1*sin(x1)*cos(x2)", "0.05*sin(x0)", "0"],
         ["0.05*sin(x0)", "-1 - 0.05*cos(x1)", "0.02"],
         ["0", "0.02", "-1 - 0.05*sin(x2)"]],
    )
    grid = _grid2()
    assert check_hyperbolicity(metric, grid).passed
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 0.5, size=(24, 3))
    for t, a, b in pts:
        env = {"x0": t, "x1": a, "x2": b}
        g = metric.eval_g(env)
        for direction in rng.normal(size=(50, 2)):
            direction /= np.linalg.norm(direction)
            bq = g[0, 1:] @ direction
            cq = direction @ g[1:, 1:] @ direction
            assert bq * bq - g[0, 0] * cq > 0.0


def test_closed_form_cone_matches_dense_covector_scan():
    # oracle: roots of g00 xi0^2 + 2 (b.xi) xi0 + xi.G.xi over 4096 unit
    # covectors on the half circle (xi and -xi give the same forms and
    # opposite roots), at 200 random hyperbolic 2D nodes
    rng = np.random.default_rng(11)
    count = 200
    g = np.zeros((count, 3, 3))
    g[:, 0, 0] = rng.uniform(0.5, 1.5, count)
    b = rng.uniform(-0.5, 0.5, (count, 2))
    g[:, 0, 1:] = g[:, 1:, 0] = b
    P = rng.uniform(-0.3, 0.3, (count, 2, 2))
    g[:, 1:, 1:] = -(np.eye(2) + 0.5 * (P + P.transpose(0, 2, 1)))
    theta = np.pi * np.arange(4096) / 4096
    xi = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    quad = np.einsum("dj,njk,dk->nd", xi, g[:, 1:, 1:], xi)
    lin = b @ xi.T
    disc = lin * lin - g[:, 0, 0, None] * quad
    roots = np.abs(np.stack([-lin - np.sqrt(disc), -lin + np.sqrt(disc)])) / g[:, 0, 0, None]

    cone = _cone(g)
    np.testing.assert_allclose(cone["ell"], np.min(-quad, axis=1), rtol=0, atol=1e-6)
    np.testing.assert_allclose(cone["disc"], np.min(disc, axis=1), rtol=0, atol=1e-6)
    assert np.all(cone["speed"] >= np.max(roots, axis=(0, 2)) - 1e-12)

    # n = 1: the bound is the exact speed, the largest |root| of
    # g00 xi0^2 + 2 g01 xi1 xi0 + g11 xi1^2 over xi1 = +-1
    g1 = np.empty((count, 2, 2))
    g1[:, 0, 0] = rng.uniform(0.5, 1.5, count)
    g1[:, 0, 1] = g1[:, 1, 0] = rng.uniform(-0.5, 0.5, count)
    g1[:, 1, 1] = rng.uniform(-2.0, -0.3, count)
    a, lin, quad = g1[:, 0, 0], g1[:, 0, 1, None] * [1.0, -1.0], g1[:, 1, 1, None]
    sq = np.sqrt(lin * lin - a[:, None] * quad)
    exact = np.max(np.abs([(-lin - sq) / a[:, None], (-lin + sq) / a[:, None]]), axis=(0, 2))
    np.testing.assert_allclose(_cone(g1)["speed"], exact, rtol=0, atol=1e-14)


# ===== expression tables =====================================================

def _entrywise(table, env, shape):
    """Reference for _eval_table: evaluate and broadcast every entry on its own;
    a zero Const, which derivatives often leave as -0.0, is +0.0."""
    if isinstance(table, list):
        return np.stack([_entrywise(t, env, shape) for t in table], axis=len(shape))
    if isinstance(table, Const) and table.value == 0.0:
        return np.zeros(shape)
    return np.broadcast_to(np.asarray(table.evaluate(env), dtype=float), shape)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def _var_metric_2d():
    g = [["1 + 0.1*sin(x1)*cos(x2)*cos(x0)", "0.05*sin(x2)", "0.1*cos(x1)*sin(x0)"],
         ["0.05*sin(x2)", "-1 - 0.1*cos(x1)", "0.05*sin(x1)*sin(x2)"],
         ["0.1*cos(x1)*sin(x0)", "0.05*sin(x1)*sin(x2)", "-1 - 0.1*sin(x2)"]]
    return MetricField(2, g, ["0.1*x2", "0", "0.1*cos(x2)*x0"])


def test_eval_table_scalar_env():
    metric = _var_metric_2d()
    env = {"x0": 0.3, "x1": 0.7, "x2": 0.2}
    for table in (metric.g, metric.A, metric.grad_g(), metric.g[0][1]):
        _assert_same_bits(_eval_table(table, env, ()), _entrywise(table, env, ()))
        _assert_same_bits(_eval_table(table, env), _entrywise(table, env, ()))


def test_eval_table_broadcastable_env():
    grid = _grid2()
    metric = _var_metric_2d()
    # (time, x1) face env with a scalar depth, as dn_trace builds it
    env = {"x0": grid.times()[:, None], "x1": grid.axis(1)[None, :], "x2": 0.0}
    shape = (grid.nt, grid.shape[0])
    for table in (metric.g, metric.A):
        _assert_same_bits(_eval_table(table, env, shape), _entrywise(table, env, shape))
    # without a shape, the entries' broadcast shape: g's entries span both axes
    _assert_same_bits(_eval_table(metric.g, env), _entrywise(metric.g, env, shape))
    assert _eval_table(metric.A, env).shape == (grid.nt, 1, 3)


def test_eval_table_full_grid_and_grad_table():
    grid = _grid2()
    metric = _var_metric_2d()
    env = grid.env_at_time(0.3)
    for table in (metric.g, metric.A, metric.grad_g()):
        _assert_same_bits(_eval_table(table, env, grid.shape), _entrywise(table, env, grid.shape))
    assert _eval_table(metric.grad_g(), env, grid.shape).shape == grid.shape + (3, 3, 3)
    # the symmetric pairs of g and of its gradient are one object each
    assert metric.g[2][0] is metric.g[0][2]
    assert metric.grad_g()[2][1] is metric.grad_g()[1][2]


def test_eval_table_consts_and_shared_entries(monkeypatch):
    e = parse_expr("sin(x1)*x0")
    table = [[Const(0.0), e, Const(2.5)], [e, parse_expr("cos(x1)"), Const(-1.0)],
             [parse_expr("x0 - sin(x1)"), Var("x1"), parse_expr("sin(x1)*x0")]]
    env = {"x0": np.linspace(0.0, 1.0, 4)[:, None], "x1": np.linspace(0.0, 1.0, 5)[None, :]}
    want = _entrywise(table, env, (4, 5))
    calls = []
    call_evaluate = Call.evaluate
    monkeypatch.setattr(Call, "evaluate",
                        lambda node, en: calls.append(node) or call_evaluate(node, en))
    monkeypatch.setattr(Const, "evaluate", lambda node, en: pytest.fail("Const entry evaluated"))
    got = _eval_table(table, env, (4, 5))
    monkeypatch.undo()
    _assert_same_bits(got, want)
    # sin(x1) once although e fills two slots and two other entries hold
    # their own sin(x1), and cos(x1) once
    assert len(calls) == 2
    _assert_same_bits(_eval_table([Const(-0.0), Const(3.0)], env), np.array([0.0, 3.0]))


def _plan_fixtures():
    """(metric, diffeo) pairs: every metric fixture of this module, and the
    pushforward, whose entries repeat the Jacobian's subtrees many times."""
    pushed = pushforward(_curved_metric_2d(), _bent_diffeo_2d())
    tilted = Diffeo(1, ["x0", "x1*cos(4*x0)"], ["x0", "x1/cos(4*x0)"])
    return [(_var_metric_2d(), _bent_diffeo_2d()), (_curved_metric_2d(), _bent_diffeo_2d(0.3)),
            (pushed, _bent_diffeo_2d()), (_variable_metric_1d(), tilted),
            (MetricField.minkowski(2), Diffeo.identity(2))]


@pytest.mark.parametrize("index", range(5))
def test_plan_matches_tree_walk(index):
    # bitwise, on a full grid level and at one point: the owners' cached
    # plans, and one-off plans of the Jacobian, gradient and Hamiltonian-term
    # tables
    metric, phi = _plan_fixtures()[index]
    grid = _grid2() if metric.n == 2 else _grid1()
    ham = [term[3] for term in metric._ham_terms]
    for env, shape in ((grid.env_at_time(0.3), grid.shape),
                       ({f"x{j}": 0.1 + 0.2 * j for j in range(metric.n + 1)}, ())):
        _assert_same_bits(metric.eval_g(env, shape), _entrywise(metric.g, env, shape))
        _assert_same_bits(metric.eval_A(env, shape), _entrywise(metric.A, env, shape))
        for table in (phi.jacobian, metric.grad_g()) + ((ham,) if ham else ()):
            _assert_same_bits(_eval_table(table, env, shape), _entrywise(table, env, shape))
    assert ham or _eval_table(ham, env, shape).shape == (0,)


def test_plan_shares_subtrees_by_structure_not_by_render():
    x0, x1, x2 = Var("x0"), Var("x1"), Var("x2")
    # each pair renders alike but differs in bits: the association of a
    # product, and a -0.0 beside a 0.0 inside a product
    table = [Mul(Mul(x0, x1), x2), Mul(x0, Mul(x1, x2)),
             Mul(x1, Const(-0.0)), Mul(x1, Const(0.0))]
    assert table[0].render() == table[1].render() and table[2].render() == table[3].render()
    rng = np.random.default_rng(4)
    env = {name: rng.uniform(0.1, 1.0, 64) for name in ("x0", "x1", "x2")}
    want = _entrywise(table, env, (64,))
    assert not np.array_equal(want[:, 0], want[:, 1])
    assert np.signbit(want[:, 2]).all() and not np.signbit(want[:, 3]).any()
    _assert_same_bits(_eval_table(table, env), want)
    # a product held twice is one step, evaluated once
    plan = _Plan([table[0], Mul(Mul(x0, x1), x2) + x0])
    assert len(plan.steps) == 2


def test_owners_compile_each_plan_once(monkeypatch):
    compiled = []
    init = _Plan.__init__
    monkeypatch.setattr(_Plan, "__init__",
                        lambda plan, table: compiled.append(table) or init(plan, table))
    metric, phi = _var_metric_2d(), _bent_diffeo_2d()
    gauge = geometry.GaugeField("x0*x2")
    env = _grid2().env_at_time(0.3)
    p = np.ones(_grid2().shape + (3,))
    for _ in range(3):
        metric.eval_g(env)
        metric.eval_A(env)
        metric.eval_ham(env)[1](p)
        metric.eval_ham(env, count=2)[1](p)
        phi.eval_forward(env)
        gauge.eval_c(env)
    # g, A, g with each of both Hamiltonian term lists, forward map, phase
    assert len(compiled) == 6


# ===== gauges ================================================================

def test_identity_gauge_fixes_potential():
    A = ["0.3*x1", "x0"]
    out = apply_gauge(A, GaugeField("0"))
    env = {"x0": 0.7, "x1": 0.2}
    for given, got in zip(A, out):
        assert got.evaluate(env) == pytest.approx(parse_expr(given).evaluate(env))


def test_gauge_linear_phase_shifts_spatial_component():
    # phase x1: spatial component gains +1, time component unchanged
    out = apply_gauge(["0", "0"], GaugeField("x1"))
    assert out[0].evaluate({}) == 0.0
    assert out[1].evaluate({}) == 1.0


def test_gauge_matches_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    x0, x1, x2 = sympy.symbols("x0 x1 x2", real=True)
    phase = sympy.sin(x1) * x2 + sympy.Rational(1, 2) * x0 * x2
    c = sympy.exp(sympy.I * phase)
    A_sym = [sympy.Rational(1, 10) * x1, sympy.cos(x2), sympy.Rational(1, 5) * x0]
    # spatial components shift by -i c^{-1} dc/dx_j, the time one by +i c^{-1} dc/dx_0
    expected = [
        A_sym[0] + sympy.I * sympy.diff(c, x0) / c,
        A_sym[1] - sympy.I * sympy.diff(c, x1) / c,
        A_sym[2] - sympy.I * sympy.diff(c, x2) / c,
    ]
    got = apply_gauge(["0.1*x1", "cos(x2)", "0.2*x0"], GaugeField("sin(x1)*x2 + 0.5*x0*x2"))
    rng = np.random.default_rng(5)
    for t, a, b in rng.uniform(0.0, 1.0, size=(12, 3)):
        env = {"x0": t, "x1": a, "x2": b}
        subs = {x0: t, x1: a, x2: b}
        for k in range(3):
            want = complex(sympy.simplify(expected[k]).evalf(subs=subs))
            assert abs(want.imag) < 1e-12  # gauge shift of a real potential stays real
            assert got[k].evaluate(env) == pytest.approx(want.real, abs=1e-10)


def test_gauge_group_inverse():
    A = ["0.1*x1", "cos(x2)", "0.2*x0"]
    c = GaugeField("sin(x1)*x2 + 0.3*x0")
    back = apply_gauge(apply_gauge(A, c), c.conj())
    rng = np.random.default_rng(9)
    for t, a, b in rng.uniform(0.0, 1.0, size=(10, 3)):
        env = {"x0": t, "x1": a, "x2": b}
        for k in range(3):
            assert back[k].evaluate(env) == pytest.approx(parse_expr(A[k]).evaluate(env), abs=1e-13)


def test_conjugation_gauge_uniform_sign():
    out = apply_conjugation_gauge(["0", "0"], GaugeField("x0*x1"))
    env = {"x0": 0.3, "x1": 0.8}
    assert out[0].evaluate(env) == pytest.approx(0.8)  # d(x0 x1)/dx0 = x1
    assert out[1].evaluate(env) == pytest.approx(0.3)


def test_gauge_patch_condition():
    grid = _grid2(h=1 / 8)
    assert GaugeField("x2*(1 + x1)").check_on_patch(grid)  # vanishes on x2 = 0
    assert not GaugeField("0.5*x1").check_on_patch(grid)


# ===== pushforward ===========================================================

def test_pushforward_identity():
    metric = MetricField(1, [["1 + 0.1*sin(x1)", "0"], ["0", "-1 - 0.1*x1"]], A=["x1", "0.2"])
    out = pushforward(metric, Diffeo.identity(1))
    rng = np.random.default_rng(2)
    for t, a in rng.uniform(0.0, 1.0, size=(10, 2)):
        env = {"x0": t, "x1": a}
        np.testing.assert_allclose(out.eval_g(env), metric.eval_g(env), atol=1e-14)
        np.testing.assert_allclose(out.eval_A(env), metric.eval_A(env), atol=1e-14)


def test_pushforward_spatial_stretch():
    # y1 = 2 x1 doubles the contravariant component: ghat^{11} = 4 g^{11} = -4
    phi = Diffeo(1, ["x0", "2*x1"], ["x0", "x1/2"])
    out = pushforward(MetricField.minkowski(1), phi)
    env = {"x0": 0.2, "x1": 0.6}
    assert out.g[1][1].evaluate(env) == pytest.approx(-4.0)
    assert out.g[0][0].evaluate(env) == pytest.approx(1.0)


def _curved_metric_2d():
    return MetricField(
        2,
        [["1 + 0.1*sin(x1)*cos(x2)", "0", "0.05*sin(x0)"],
         ["0", "-1 - 0.05*cos(x1)", "0.02"],
         ["0.05*sin(x0)", "0.02", "-1"]],
        A=["0.1*x1", "0.3*cos(x2)", "0.05*x2"],
    )


def _bent_diffeo_2d(a=0.2):
    # depth coordinate bends, boundary face x2 = 0 stays fixed
    return Diffeo(
        2,
        ["x0", "x1", f"x2/(1 - {a}*x2)"],
        ["x0", "x1", f"x2/(1 + {a}*x2)"],
    )


def test_line_element_invariance():
    # covariant line element agrees at 100 random points/directions
    metric = _curved_metric_2d()
    phi = _bent_diffeo_2d()
    pushed = pushforward(metric, phi)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        t, a, b = rng.uniform(0.1, 0.8, size=3)
        env_x = {"x0": t, "x1": a, "x2": b}
        y = [c.evaluate(env_x) for c in phi.forward]
        env_y = {f"x{j}": y[j] for j in range(3)}
        J = _eval_table(phi.jacobian, env_x)
        dx = rng.normal(size=3)
        dy = J @ dx
        g_lo = np.linalg.inv(metric.eval_g(env_x))
        gh_lo = np.linalg.inv(pushed.eval_g(env_y))
        lhs = dy @ gh_lo @ dy
        rhs = dx @ g_lo @ dx
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    assert worst <= 1e-10


def test_pushforward_one_form_identity():
    # potential transforms as a 1-form: Ahat . dy = A . dx
    metric = _curved_metric_2d()
    phi = _bent_diffeo_2d()
    pushed = pushforward(metric, phi)
    rng = np.random.default_rng(23)
    for _ in range(50):
        t, a, b = rng.uniform(0.1, 0.8, size=3)
        env_x = {"x0": t, "x1": a, "x2": b}
        y = [c.evaluate(env_x) for c in phi.forward]
        env_y = {f"x{j}": y[j] for j in range(3)}
        J = _eval_table(phi.jacobian, env_x)
        dx = rng.normal(size=3)
        lhs = pushed.eval_A(env_y) @ (J @ dx)
        rhs = metric.eval_A(env_x) @ dx
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_pushforward_round_trip():
    metric = _curved_metric_2d()
    phi = _bent_diffeo_2d()
    inverse = Diffeo(2, [c.render() for c in phi.inverse], [c.render() for c in phi.forward])
    back = pushforward(pushforward(metric, phi), inverse)
    rng = np.random.default_rng(29)
    for t, a, b in rng.uniform(0.1, 0.8, size=(20, 3)):
        env = {"x0": t, "x1": a, "x2": b}
        np.testing.assert_allclose(back.eval_g(env), metric.eval_g(env), rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(back.eval_A(env), metric.eval_A(env), rtol=1e-8, atol=1e-10)


def test_pushforward_rejects_singular_jacobian():
    grid = _grid2(h=1 / 8)
    phi = Diffeo(2, ["x0", "x1*(1 - x1)", "x2"], ["x0", "x1", "x2"])  # folds at x1 = 1/2
    with pytest.raises(SingularJacobian):
        pushforward(MetricField.minkowski(2), phi, grid=grid)


def test_diffeo_fixes_face_and_spacelike_slices():
    grid = _grid2(h=1 / 8)
    phi = _bent_diffeo_2d()
    assert phi.fixes_boundary_face(grid)
    assert phi.slices_spacelike(MetricField.minkowski(2), grid)
    tilted = Diffeo(2, ["x0 + 2*x1", "x1", "x2"], ["x0 - 2*x1", "x1", "x2"])
    assert not tilted.slices_spacelike(MetricField.minkowski(2), grid)


def test_component_count_refusals_name_the_count():
    with pytest.raises(ValueError, match=r"potential needs n\+1 = 3 components, got 2$"):
        MetricField(2, MetricField.minkowski(2).g, ["0", "0"])
    with pytest.raises(ValueError, match=r"forward map needs n\+1 = 2 components, got 3$"):
        Diffeo(1, ["x0", "x1", "x1"])
    with pytest.raises(ValueError, match=r"inverse map needs n\+1 = 2 components, got 1$"):
        Diffeo(1, ["x0", "2*x1"], ["x0"])


def test_matrix_diffeo_and_seed_refusals_name_the_value_and_its_bound():
    with pytest.raises(ValueError, match=r"sizes 1\.\.3, got a 4 x 4 matrix$"):
        _det(np.eye(4))
    with pytest.raises(ValueError, match=r"closed-form inverse: its n \+ 1 = 2 inverse "
                                         r"components, got none$"):
        pushforward(MetricField.minkowski(1), Diffeo(1, ["x0", "2*x1"]))
    grid = _grid1(h=1 / 16)
    seed = np.zeros(grid.shape, dtype=bool)
    with pytest.raises(ValueError, match=r"'forward' or 'backward', got 'sideways'$"):
        influence_region(grid, MetricField.minkowski(1), seed, "sideways")
    with pytest.raises(ValueError, match=r"cover the spatial grid: shape \(5,\), grid \(17,\)$"):
        influence_region(grid, MetricField.minkowski(1), seed[:5], "forward")
    with pytest.raises(ValueError, match=r"nonempty: 0 of the 17 spatial nodes are seeded$"):
        influence_region(grid, MetricField.minkowski(1), seed, "forward")


def _refuses_fold():
    # det dy/dx = cos(4 x0) changes sign at t = pi/8, between the levels 7/32
    # and 7/16 of a five-level sample; the first level past it is t = 51/128
    grid = SpacetimeGrid(n=1, extent=(1.0,), h=(1 / 32,), dt=1 / 128, t1=0.0, t2=0.9)
    phi = Diffeo(1, ["x0", "x1*cos(4*x0)"], ["x0", "x1/cos(4*x0)"])
    with pytest.raises(SingularJacobian, match=r"at \(0\.3984375, 0\.0\)"):
        pushforward(MetricField.minkowski(1), phi, grid)
    return True


def _refuses_nan_phase():
    with np.errstate(invalid="ignore"):
        return not GaugeField("sqrt(-x0)").check_on_patch(_grid2())


@pytest.mark.parametrize("refuses", [
    lambda: not GaugeField("sin(8*pi*x0)*(1 + x1)").check_on_patch(_grid2(h=1 / 32, t2=1.0)),
    _refuses_fold,
    lambda: not Diffeo(1, ["x0 + 2*sin(8*pi*x0)^2*x1", "x1"]).slices_spacelike(
        MetricField.minkowski(1), _grid1()),
    lambda: not Diffeo(1, ["x0", "x1 + (x0 - 0.5)^2*(1 - x1)"]).fixes_boundary_face(_grid1()),
    _refuses_nan_phase,
], ids=["check_on_patch", "check_nonsingular", "slices_spacelike", "fixes_boundary_face",
        "check_on_patch_nan"])
def test_geometric_checks_walk_every_level(refuses):
    # each of the first four gauges or maps meets its condition at t = k/8,
    # t = k/4 and the middle level, which a sampling check would look at, and
    # fails between them; the last phase is NaN past t = 0
    assert refuses()


def test_level_walks_evaluate_what_reads_no_x0_once(monkeypatch):
    # g holds 4 distinct calls without x0 (sin and cos of x1 and x2) and 4
    # with it; a walk over the time levels evaluates the first once per walk,
    # on an env without x0, and the second once per level it visits
    metric = MetricField(2, [
        ["1 + 0.1*sin(x0)*cos(x2)", "0.05*cos(x0)*sin(x2)", "0.1*cos(x1 + x0)"],
        ["0.05*cos(x0)*sin(x2)", "-1 - 0.1*cos(x1)", "0.05*sin(x1)*sin(x2)"],
        ["0.1*cos(x1 + x0)", "0.05*sin(x1)*sin(x2)", "-1 - 0.1*sin(x0 + x2)"]])
    grid = _grid2()
    calls = {False: 0, True: 0}
    evaluate = Call.evaluate

    def counted(e, env):
        calls["x0" in env] += 1
        return evaluate(e, env)

    def count(walk):
        calls.update({False: 0, True: 0})
        walk()
        return dict(calls)

    monkeypatch.setattr(Call, "evaluate", counted)
    assert count(lambda: check_hyperbolicity(metric, grid)) == {False: 4, True: 4 * grid.nt}
    assert count(lambda: max_characteristic_speed(metric, grid)) == {False: 4, True: 4 * 9}
    # the time gradient (1, 0.1*cos(x1)*x2, 0.1*sin(x1)) reads no x0 either
    phi = Diffeo(2, ["x0 + 0.1*sin(x1)*x2", "x1", "x2"])
    assert count(lambda: phi.slices_spacelike(metric, grid)) == {False: 6, True: 4 * grid.nt}


# ===== bicharacteristics =====================================================

def test_minkowski_ray_is_straight():
    # null covector with eta_n = +1 rides the ray with dx_n/dx_0 = -1
    grid = _grid1()
    metric = MetricField.minkowski(1)
    ray = trace_bicharacteristic(metric, (np.array([0.0, 0.8]), np.array([1.0, 1.0])),
                                 s_max=0.3, grid=grid)
    assert ray.max_drift() <= 1e-14
    x = ray.positions
    slopes = np.diff(x[:, 1]) / np.diff(x[:, 0])
    np.testing.assert_allclose(slopes, -1.0, atol=1e-12)
    np.testing.assert_allclose(ray.covectors[0], ray.covectors[-1], atol=1e-14)


def _variable_metric_1d():
    return MetricField(1, [["1 + 0.1*sin(x0)", "0.1*cos(x1)"], ["0.1*cos(x1)", "-1 - 0.2*sin(x1)"]])


def _null_start_1d(metric, t, x, xi1=1.0):
    env = {"x0": t, "x1": x}
    g = metric.eval_g(env)
    # solve g00 xi0^2 + 2 g01 xi0 xi1 + g11 xi1^2 = 0 for xi0 > 0
    a, b, c = g[0, 0], g[0, 1] * xi1, g[1, 1] * xi1**2
    xi0 = (-b + math.sqrt(b * b - a * c)) / a
    return np.array([t, x]), np.array([xi0, xi1])


def test_hamiltonian_drift_small_and_fourth_order():
    metric = _variable_metric_1d()
    start = _null_start_1d(metric, 0.1, 0.4)
    coarse = trace_bicharacteristic(metric, start, s_max=0.3, steps=128)
    fine = trace_bicharacteristic(metric, start, s_max=0.3, steps=256)
    default = trace_bicharacteristic(metric, start, s_max=0.3)
    assert default.max_drift() <= 1e-8
    ratio = coarse.max_drift() / fine.max_drift()
    assert 8.0 <= ratio <= 32.0  # fourth-order integrator halving gains ~16x


def test_non_null_start_rejected():
    with pytest.raises(NotNull):
        trace_bicharacteristic(MetricField.minkowski(1),
                               (np.array([0.0, 0.5]), np.array([1.0, 0.5])), s_max=0.1)


# ===== influence regions =====================================================

def test_minkowski_influence_from_face_is_unit_cone():
    grid = _grid1()
    metric = MetricField.minkowski(1)
    seed = np.zeros(grid.shape, dtype=bool)
    seed[0] = True  # the face x1 = 0
    region = influence_region(grid, metric, seed, "forward")
    x = grid.axis(1)
    for m, t in enumerate(grid.times()):
        expected = x <= (t - grid.t1) + 1e-12
        np.testing.assert_array_equal(region.mask[m], expected)


def test_influence_runs_to_convergence_1d():
    # the front from x = 0 crosses 128 cells, one relaxation pass each; a
    # capped pass count leaves the far half unreached
    grid = SpacetimeGrid(n=1, extent=(1.0,), h=(1 / 128,), dt=1 / 256, t1=0.0, t2=1.0)
    seed = np.zeros(grid.shape, dtype=bool)
    seed[0] = True
    region = influence_region(grid, MetricField.minkowski(1), seed, "forward")
    np.testing.assert_allclose(region.arrival, grid.axis(1), rtol=0.0, atol=1e-12)
    assert region.mask[-1].all()


def test_influence_monotone_in_seed():
    grid = _grid1(h=1 / 16)
    metric = _variable_metric_1d()
    rng = np.random.default_rng(31)
    for _ in range(20):
        small = np.zeros(grid.shape, dtype=bool)
        small[rng.integers(0, grid.shape[0], size=3)] = True
        extra = np.zeros(grid.shape, dtype=bool)
        extra[rng.integers(0, grid.shape[0], size=3)] = True
        big = small | extra
        r_small = influence_region(grid, metric, small, "forward")
        r_big = influence_region(grid, metric, big, "forward")
        assert np.all(r_big.mask | ~r_small.mask)  # small subset of big


def test_influence_against_quadrature_oracle_1d():
    # speed c(x) = 1 + 0.3 sin(2x): arrival = integral of dx/c, computed densely
    grid = _grid1(h=1 / 64)
    metric = MetricField(1, [["1", "0"], ["0", "-(1 + 0.3*sin(2*x1))^2"]])
    seed = np.zeros(grid.shape, dtype=bool)
    i0 = grid.shape[0] // 2
    seed[i0] = True
    region = influence_region(grid, metric, seed, "forward")

    xs = np.linspace(0.0, 1.0, 20001)
    slowness = 1.0 / (1.0 + 0.3 * np.sin(2 * xs))
    cumulative = np.concatenate([[0.0], np.cumsum((slowness[1:] + slowness[:-1]) / 2 * np.diff(xs))])
    x_seed = grid.axis(1)[i0]
    arrive = np.abs(np.interp(grid.axis(1), xs, cumulative) - np.interp(x_seed, xs, cumulative))

    for m in (16, 32, 48):
        t_el = grid.times()[m] - grid.t1
        exact = arrive <= t_el
        # boundary within one cell: disagreement only next to the front
        disagree = np.flatnonzero(region.mask[m] != exact)
        if disagree.size:
            edges = np.flatnonzero(np.diff(exact.astype(int)) != 0)
            dist = np.min(np.abs(disagree[:, None] - edges[None, :]), axis=1)
            assert np.max(dist) <= 1


def test_influence_reads_speeds_only_where_the_reach_runs():
    # speed 2 - x0 slows down through the window [0, 1]: seeded forward at 0.5
    # the slowest speed the reach meets is 1, at t2, so the arrival time is the
    # distance; reading past t2 (down to speed 0.5 at 1.5) would double it.
    # Backward from 0.5 it meets speed 1.5 at the seed, reading [t1, 0.5] only
    grid = _grid1(h=1 / 16)
    metric = MetricField(1, [["1", "0"], ["0", "-(2 - x0)^2"]])
    seed = np.zeros(grid.shape, dtype=bool)
    seed[4] = True
    distance = np.abs(grid.axis(1) - grid.axis(1)[4])
    forward = influence_region(grid, metric, seed, "forward", seed_time=0.5)
    np.testing.assert_allclose(forward.arrival, distance, rtol=1e-12, atol=1e-12)
    backward = influence_region(grid, metric, seed, "backward", seed_time=0.5)
    np.testing.assert_allclose(backward.arrival, distance / 1.5, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("direction, seed_time", [("forward", 1.25), ("backward", -0.5)])
def test_influence_refuses_a_seed_time_outside_the_window(direction, seed_time):
    grid = _grid1(h=1 / 16)
    seed = np.zeros(grid.shape, dtype=bool)
    seed[0] = True
    with pytest.raises(ValueError, match=rf"seed_time {seed_time} lies outside the window "
                                         rf"\[0.0, 1.0\].*{direction}"):
        influence_region(grid, MetricField.minkowski(1), seed, direction, seed_time=seed_time)


def test_influence_against_ray_oracle_2d():
    # rays of the principal symbol mark the true front; the mask boundary
    # must pass within one cell of each ray's endpoint
    grid = SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(1 / 32, 1 / 32), dt=1 / 64,
                         t1=0.0, t2=0.375)
    metric = MetricField(
        2,
        [["1", "0", "0"],
         ["0", "-(1 + 0.1*sin(3*x1 + 2*x2))^2", "0"],
         ["0", "0", "-(1 + 0.1*sin(3*x1 + 2*x2))^2"]],
    )
    seed = np.zeros(grid.shape, dtype=bool)
    i0 = (grid.shape[0] // 2, grid.shape[1] // 2)
    seed[i0] = True
    region = influence_region(grid, metric, seed, "forward")

    m = grid.nt - 1
    t_star = grid.times()[m]
    mask = region.mask[m]
    interior = mask.copy()
    for axis, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        interior &= np.roll(mask, shift, axis=axis)
    boundary = np.argwhere(mask & ~interior) * grid.h[0]

    x_seed = np.array([grid.axis(1)[i0[0]], grid.axis(2)[i0[1]]])
    c_seed = 1.0 + 0.1 * math.sin(3 * x_seed[0] + 2 * x_seed[1])
    for theta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
        xi_sp = np.array([math.cos(theta), math.sin(theta)]) / c_seed
        start = (np.array([0.0, *x_seed]), np.array([1.0, *xi_sp]))
        ray = trace_bicharacteristic(metric, start, s_max=t_star / 2, grid=grid, steps=256)
        assert ray.max_drift() <= 1e-9
        end = ray.positions[-1]
        assert end[0] == pytest.approx(t_star, abs=1e-9)  # dx0/ds = 2 g00 xi0 = 2
        gaps = np.linalg.norm(boundary - end[1:], axis=1)
        assert gaps.min() <= math.sqrt(2.0) * grid.h[0] + 1e-12


def test_influence_backward_is_time_reflection():
    # static metric: backward region from the last slice mirrors the forward one
    grid = _grid1(h=1 / 32)
    metric = MetricField(1, [["1", "0"], ["0", "-(1 + 0.2*sin(3*x1))^2"]])
    seed = np.zeros(grid.shape, dtype=bool)
    seed[10] = True
    fwd = influence_region(grid, metric, seed, "forward", seed_time=grid.t1)
    bwd = influence_region(grid, metric, seed, "backward", seed_time=grid.t2)
    np.testing.assert_array_equal(fwd.mask, bwd.mask[::-1])


def test_influence_backward_seeds_at_t2_by_default():
    # the front runs back into the window from its end, so by t1 the mask
    # shows every finite arrival
    grid = _grid1(h=1 / 32)
    metric = MetricField(1, [["1", "0"], ["0", "-(1 + 0.2*sin(3*x1) + 0.1*x0)^2"]])
    seed = np.zeros(grid.shape, dtype=bool)
    seed[10] = True
    region = influence_region(grid, metric, seed, "backward")
    given = influence_region(grid, metric, seed, "backward", seed_time=grid.t2)
    np.testing.assert_array_equal(region.mask, given.mask)
    np.testing.assert_array_equal(region.arrival, given.arrival)
    np.testing.assert_array_equal(region.mask[0], np.isfinite(region.arrival))


def test_characteristic_speed_flat():
    grid = _grid1()
    assert max_characteristic_speed(MetricField.minkowski(1), grid) == pytest.approx(1.0)
    # diag(1, -c^2) has speed c
    metric = MetricField(1, [["1", "0"], ["0", "-4"]])
    assert max_characteristic_speed(metric, grid) == pytest.approx(2.0)
