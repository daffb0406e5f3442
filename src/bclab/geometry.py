"""Spacetime grids, metrics, gauges, diffeomorphisms, and causal diagnostics.

Conventions used throughout the laboratory:

* coordinates are x0 (time) and x1..xn (space), n in {1, 2};
* the spatial domain is the box prod_i [0, extent_i], the accessible boundary
  patch sits on the face x_n = 0, and the time window is [t1, t2];
* the inverse metric g^{jk} has signature (+1, -1, ..., -1): g^{00} > 0 and the
  spatial block is negative definite;
* grid arrays are indexed [x1, ..., xn] (last axis is the depth axis x_n) and
  time-resolved fields carry time as the leading axis;
* expressions become arrays in one place, `_eval_table`: an Expr or nested
  lists of them, over an env of arrays, to a float array.  The metric,
  potential, Jacobian and gauge evaluations here, the solver's coefficient
  levels, the fan's RK4 stages, the chart slab and the DN face all call it;
* per-node matrices are at most 3x3 and are factored in closed form here:
  `_det` (cofactor expansion) and `_solve_small` (Cramer's rule on it) for
  determinants and solves, `_sym_eigs` for the cone's 1x1/2x2 eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Const, Expr, Var, parse_expr

__all__ = [
    "SpacetimeGrid",
    "MetricField",
    "GaugeField",
    "Diffeo",
    "Bicharacteristic",
    "HyperbolicityReport",
    "RegionMask",
    "NonHyperbolic",
    "NotNull",
    "SingularJacobian",
    "check_hyperbolicity",
    "apply_gauge",
    "apply_conjugation_gauge",
    "pushforward",
    "trace_bicharacteristic",
    "influence_region",
    "direction_sample",
    "max_characteristic_speed",
    "substitute",
]


class NonHyperbolic(ValueError):
    """A hyperbolicity condition failed; carries which one, where, and the value."""

    def __init__(self, condition: str, point: tuple, value: float):
        super().__init__(f"{condition} violated at {point}: value {value:.6g}")
        self.condition = condition
        self.point = point
        self.value = value


class NotNull(ValueError):
    """Initial covector of a bicharacteristic is not null within tolerance."""


class SingularJacobian(ValueError):
    """Diffeomorphism Jacobian is singular at the reported node."""


# ---------------------------------------------------------------------------
# Expression utilities shared by the field types
# ---------------------------------------------------------------------------

def substitute(expression: Expr, bindings: dict) -> Expr:
    """Replace variables by expressions (used to compose maps symbolically)."""
    from . import expr as _e

    if isinstance(expression, _e.Var):
        return bindings.get(expression.name, expression)
    if isinstance(expression, _e.Const):
        return expression
    if isinstance(expression, _e.Add):
        return substitute(expression.left, bindings) + substitute(expression.right, bindings)
    if isinstance(expression, _e.Sub):
        return substitute(expression.left, bindings) - substitute(expression.right, bindings)
    if isinstance(expression, _e.Mul):
        return substitute(expression.left, bindings) * substitute(expression.right, bindings)
    if isinstance(expression, _e.Div):
        return substitute(expression.left, bindings) / substitute(expression.right, bindings)
    if isinstance(expression, _e.Pow):
        return _e.Pow(substitute(expression.base, bindings), expression.exponent)
    if isinstance(expression, _e.Neg):
        return -substitute(expression.operand, bindings)
    if isinstance(expression, _e.Call):
        return _e.Call(expression.func, substitute(expression.arg, bindings))
    raise TypeError(f"cannot substitute into {expression!r}")


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse_expr(value)
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot interpret {value!r} as a field expression")


def _eval_table(table, env: dict, shape=None) -> np.ndarray:
    """Evaluate an Expr, or nested lists of them, to a float array of shape + table dims.

    Every entry is broadcast to shape, which defaults to the broadcast shape of
    the evaluated entries (() when all are constant).  Const entries are filled
    without evaluating, a zero of either sign as +0.0, and an Expr object held
    by several slots is evaluated once.
    """
    cells = np.array(table, dtype=object)
    values = {}
    for e in cells.flat:
        if not isinstance(e, Const) and id(e) not in values:
            values[id(e)] = np.asarray(e.evaluate(env), dtype=float)
    if shape is None:
        shape = np.broadcast_shapes(*(v.shape for v in values.values()))
    out = np.zeros(tuple(shape) + cells.shape)
    for idx, e in np.ndenumerate(cells):
        if not isinstance(e, Const):
            out[(Ellipsis,) + idx] = values[id(e)]
        elif e.value != 0.0:  # zero slots, most of a grad_g table, stay as allocated
            out[(Ellipsis,) + idx] = e.value
    return out


# ---------------------------------------------------------------------------
# SpacetimeGrid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpacetimeGrid:
    """Tensor grid over [t1,t2] x prod_i [0, extent_i] with patch on x_n = 0.

    h is the per-axis spatial spacing, dt the time step.  boundary_patch gives
    per tangential axis (x1..x_{n-1}) the [lo, hi] bounds of the accessible
    patch on the face x_n = 0; for n=1 the face is a single point and the
    patch tuple is empty.
    """

    n: int
    extent: tuple
    h: tuple
    dt: float
    t1: float
    t2: float
    boundary_patch: tuple = ()

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("spatial dimension must be 1 or 2")
        extent = tuple(float(v) for v in self.extent)
        h = self.h
        if isinstance(h, (int, float)):
            h = (float(h),) * self.n
        h = tuple(float(v) for v in h)
        if len(extent) != self.n or len(h) != self.n:
            raise ValueError("extent and h must have one entry per spatial axis")
        if any(v <= 0 for v in extent) or any(v <= 0 for v in h):
            raise ValueError("extents and spacings must be strictly positive")
        if self.dt <= 0:
            raise ValueError("dt must be strictly positive")
        if not self.t2 > self.t1:
            raise ValueError("time window must satisfy t2 > t1")
        for length, spacing in zip(extent, h):
            ratio = length / spacing
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError("each extent must be an integer multiple of h")
        patch = tuple((float(lo), float(hi)) for lo, hi in self.boundary_patch)
        if len(patch) != max(self.n - 1, 0):
            if patch == ():
                patch = tuple((0.0, extent[i]) for i in range(self.n - 1))
            else:
                raise ValueError("boundary_patch needs one [lo,hi] pair per tangential axis")
        for i, (lo, hi) in enumerate(patch):
            if not (0.0 <= lo < hi <= extent[i]):
                raise ValueError("boundary_patch bounds must be a nonempty interval inside the face")
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "boundary_patch", patch)

    # -- shapes ------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return tuple(int(round(self.extent[i] / self.h[i])) + 1 for i in range(self.n))

    @property
    def nt(self) -> int:
        return int(math.floor((self.t2 - self.t1) / self.dt + 1e-9)) + 1

    # -- coordinates ---------------------------------------------------------
    def times(self) -> np.ndarray:
        return self.t1 + self.dt * np.arange(self.nt)

    def axis(self, i: int) -> np.ndarray:
        """Spatial axis coordinates for x_{i} (i in 1..n)."""
        count = self.shape[i - 1]
        return self.h[i - 1] * np.arange(count)

    def spatial_env(self) -> dict:
        """Meshgrid env {'x1': X1, ...} over the spatial nodes (ij indexing)."""
        axes = [self.axis(i) for i in range(1, self.n + 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return {f"x{i + 1}": mesh[i] for i in range(self.n)}

    def env_at_time(self, t: float) -> dict:
        env = self.spatial_env()
        env["x0"] = np.full(self.shape, float(t))
        return env

    def face_axes(self) -> list:
        """Coordinates of the face x_n = 0 over the window: the times, then x1..x_{n-1}."""
        return [self.times()] + [self.axis(j) for j in range(1, self.n)]

    def face_env(self) -> dict:
        """Env over every time level of the face x_n = 0: arrays that broadcast
        to (nt, *face shape), with x_n the scalar 0."""
        env = {f"x{j}": a.reshape([-1 if i == j else 1 for i in range(self.n)])
               for j, a in enumerate(self.face_axes())}
        env[f"x{self.n}"] = 0.0
        return env

    def patch_mask_face(self) -> np.ndarray:
        """Boolean mask over the x_n = 0 face selecting the accessible patch."""
        face_shape = self.shape[:-1] if self.n > 1 else ()
        if self.n == 1:
            return np.ones((), dtype=bool)
        mask = np.ones(face_shape, dtype=bool)
        for i, (lo, hi) in enumerate(self.boundary_patch):
            coords = self.axis(i + 1)
            sel = (coords >= lo - 1e-12) & (coords <= hi + 1e-12)
            shape = [1] * len(face_shape)
            shape[i] = face_shape[i]
            mask &= sel.reshape(shape)
        return mask

    def refine(self) -> "SpacetimeGrid":
        """Halve the spacings and dt."""
        return SpacetimeGrid(
            n=self.n,
            extent=self.extent,
            h=tuple(v / 2 for v in self.h),
            dt=self.dt / 2,
            t1=self.t1,
            t2=self.t2,
            boundary_patch=self.boundary_patch,
        )


# ---------------------------------------------------------------------------
# MetricField
# ---------------------------------------------------------------------------

def _rows(matrix):
    """matrix as nested rows; an ndarray (..., d, d) gives rows of per-node arrays."""
    if not isinstance(matrix, np.ndarray):
        return matrix
    return [[matrix[..., i, j] for j in range(matrix.shape[-1])]
            for i in range(matrix.shape[-2])]


def _det(matrix):
    """Determinant of a d x d matrix, d <= 3, by cofactor expansion.

    matrix[i][j] is entry (i, j): an Expr, a number or a per-node array.  The
    expansion only multiplies and subtracts, so the result is of the same
    kind.  An ndarray (..., d, d) stands for its per-node matrices.
    """
    matrix = _rows(matrix)
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    if size == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    if size == 3:
        a, b, c = matrix[0]
        d, e, f = matrix[1]
        g, h, i = matrix[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    raise ValueError("determinant implemented for sizes 1..3")


def _solve_small(matrix, rhs):
    """matrix^{-1} rhs per node by Cramer's rule on _det, for d <= 3.

    matrix holds nested rows as for _det and rhs d per-node arrays; the d
    solution components come back as a list.  For an ndarray matrix
    (..., d, d) and rhs (..., d) they come back as an (..., d) array.  An
    exactly singular node divides by zero.
    """
    if isinstance(matrix, np.ndarray):
        return np.stack(_solve_small(_rows(matrix), list(np.moveaxis(rhs, -1, 0))), axis=-1)
    det = _det(matrix)
    return [_det([[*row[:c], r, *row[c + 1:]] for row, r in zip(matrix, rhs)]) / det
            for c in range(len(matrix))]


class MetricField:
    """Inverse metric g^{jk} and real vector potential A_j, expression-backed.

    g_upper is a full symmetric (n+1)x(n+1) matrix of expressions; A has n+1
    components.  All evaluation is vectorized over envs of numpy arrays.
    """

    def __init__(self, n: int, g_upper, A=None):
        self.n = n
        size = n + 1
        g = [[None] * size for _ in range(size)]
        for j in range(size):
            for k in range(size):
                g[j][k] = _as_expr(g_upper[j][k])
        for j in range(size):
            for k in range(j + 1, size):
                if g[j][k].render() != g[k][j].render():
                    raise ValueError(f"g^{{{j}{k}}} and g^{{{k}{j}}} must match")
                g[k][j] = g[j][k]  # one object per symmetric pair, evaluated once
        self.g = g
        if A is None:
            A = [Const(0.0)] * size
        self.A = [_as_expr(a) for a in A]
        if len(self.A) != size:
            raise ValueError("potential needs n+1 components")
        self._rho = None
        self._grad_g = None
        self._ham_terms = None

    @classmethod
    def minkowski(cls, n: int) -> "MetricField":
        size = n + 1
        g = [[Const(0.0)] * size for _ in range(size)]
        g[0][0] = Const(1.0)
        for j in range(1, size):
            g[j][j] = Const(-1.0)
        return cls(n, g)

    def with_potential(self, A) -> "MetricField":
        return MetricField(self.n, self.g, A)

    def det_upper(self) -> Expr:
        return _det(self.g)

    def rho(self) -> Expr:
        """Volume weight sqrt((-1)^n det[g_{jk}]) = ((-1)^n det[g^{jk}])^(-1/2)."""
        if self._rho is None:
            signed = self.det_upper() * ((-1.0) ** self.n)
            from .expr import Call, Pow

            self._rho = Pow(Call("sqrt", signed), Const(-1.0))
        return self._rho

    def grad_g(self):
        """Cached derivative expressions d g^{jk} / d x_p, indexed [j][k][p];
        built for j <= k, and [k][j] is the same list."""
        if self._grad_g is None:
            size = self.n + 1
            grad = [[None] * size for _ in range(size)]
            for j in range(size):
                for k in range(j, size):
                    grad[j][k] = grad[k][j] = [self.g[j][k].diff(f"x{p}") for p in range(size)]
            self._grad_g = grad
        return self._grad_g

    def ham_grad(self, env: dict, p: np.ndarray, shape=None) -> np.ndarray:
        """Position gradient dH_q = sum_{j,k} d g^{jk}/d x_q p_j p_k of the
        principal symbol H = g^{jk} p_j p_k, shaped like the covectors p (..., n+1).

        Sums only the derivative entries that are not a zero Const, over j <= k
        with weight 2 off the diagonal; the term list (j, k, q, derivative) is
        built once per metric and its entries take one _eval_table call.
        """
        if self._ham_terms is None:
            size = self.n + 1
            grad = self.grad_g()
            self._ham_terms = [
                (j, k, q, grad[j][k][q])
                for j in range(size) for k in range(j, size) for q in range(size)
                if not (isinstance(grad[j][k][q], Const) and grad[j][k][q].value == 0.0)
            ]
        values = _eval_table([term[3] for term in self._ham_terms], env, shape)
        dH = np.zeros(p.shape)
        for i, (j, k, q, _) in enumerate(self._ham_terms):
            weight = 1.0 if j == k else 2.0
            dH[..., q] += weight * values[..., i] * p[..., j] * p[..., k]
        return dH

    def eval_g(self, env: dict, shape=None) -> np.ndarray:
        return _eval_table(self.g, env, shape)

    def eval_A(self, env: dict, shape=None) -> np.ndarray:
        return _eval_table(self.A, env, shape)


# ---------------------------------------------------------------------------
# GaugeField / Diffeo
# ---------------------------------------------------------------------------

class GaugeField:
    """Unit-modulus multiplier c = exp(i phase) with phase real, c = 1 on the patch."""

    def __init__(self, phase):
        self.phase = _as_expr(phase)

    def conj(self) -> "GaugeField":
        return GaugeField(-self.phase)

    def eval_c(self, env: dict) -> np.ndarray:
        return np.exp(1j * _eval_table(self.phase, env))

    def check_on_patch(self, grid: SpacetimeGrid) -> bool:
        """c must be 1 on the accessible patch, to 1e-12, at every time level."""
        offset = np.abs(self.eval_c(grid.face_env()) - 1.0)
        return not np.any(~(offset <= 1e-12) & grid.patch_mask_face())  # NaN counts as bad


class Diffeo:
    """Change of variables y = y(x) fixing the accessible boundary face.

    forward: n+1 expressions for y_j(x).  inverse (optional): n+1 expressions
    for x_j written in terms of the TARGET coordinates, again named x0..xn.
    The Jacobian dy/dx is derived symbolically.
    """

    def __init__(self, n: int, forward, inverse=None):
        self.n = n
        size = n + 1
        self.forward = [_as_expr(c) for c in forward]
        if len(self.forward) != size:
            raise ValueError("forward map needs n+1 components")
        self.inverse = None
        if inverse is not None:
            self.inverse = [_as_expr(c) for c in inverse]
            if len(self.inverse) != size:
                raise ValueError("inverse map needs n+1 components")
        self.jacobian = [
            [self.forward[j].diff(f"x{p}") for p in range(size)] for j in range(size)
        ]

    @classmethod
    def identity(cls, n: int) -> "Diffeo":
        comps = [Var(f"x{j}") for j in range(n + 1)]
        return cls(n, comps, comps)

    def eval_forward(self, env: dict) -> np.ndarray:
        """y(x) as an (..., n+1) array."""
        return _eval_table(self.forward, env)

    def eval_jacobian(self, env: dict, shape=None) -> np.ndarray:
        return _eval_table(self.jacobian, env, shape)

    def check_nonsingular(self, grid: SpacetimeGrid):
        """Raise SingularJacobian at the first node, over every time level, where
        det dy/dx is below 1e-12 in magnitude or has the other sign than at the
        first node."""
        axes = [grid.axis(i) for i in range(1, grid.n + 1)]
        first = None
        for t in grid.times():
            det = _det(self.eval_jacobian(grid.env_at_time(t), shape=grid.shape))
            if first is None:
                first = float(det.flat[0])
            bad = ~(math.copysign(1.0, first) * det >= 1e-12)  # NaN counts as bad
            if np.any(bad):
                where = np.unravel_index(int(np.argmax(bad)), grid.shape)
                node = (float(t),) + tuple(float(axes[i][where[i]]) for i in range(grid.n))
                raise SingularJacobian(
                    f"Jacobian determinant {float(det[where]):.6g} at {node} vanishes or "
                    f"has the other sign than {first:.6g} at the first node")

    def slices_spacelike(self, metric: MetricField, grid: SpacetimeGrid) -> bool:
        """Level sets of the new time coordinate must be space-like for the metric.

        The normal covector of {y_0 = const} in the source frame is grad y_0,
        so the criterion is sum g^{pr} (dy0/dx_p)(dy0/dx_r) > 0 at every node
        of every time level.
        """
        for t in grid.times():
            env = grid.env_at_time(t)
            g = metric.eval_g(env, shape=grid.shape)
            grad = _eval_table(self.jacobian[0], env, grid.shape)
            form = np.einsum("...p,...pr,...r->...", grad, g, grad)
            if np.min(form) <= 0.0:
                return False
        return True

    def fixes_boundary_face(self, grid: SpacetimeGrid) -> bool:
        """y(x) = x, to 1e-10, on the face x_n = 0 at every time level."""
        env = grid.face_env()
        ys = self.eval_forward(env)
        return all(np.max(np.abs(ys[..., j] - env[f"x{j}"])) <= 1e-10 for j in range(self.n + 1))


# ---------------------------------------------------------------------------
# Direction sampling and characteristic speeds
# ---------------------------------------------------------------------------

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def direction_sample(n: int) -> np.ndarray:
    """Deterministic spatial unit covector sample: 64 golden-angle directions plus axes."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    dirs = []
    for i in range(64):
        theta = (i + 0.5) * _GOLDEN_ANGLE
        dirs.append((math.cos(theta), math.sin(theta)))
    for axis in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
        dirs.append(axis)
    return np.array(dirs)


def _characteristic_speed(g: np.ndarray) -> float:
    """Max |xi_0| over direction_sample for a sampled (..., n+1, n+1) metric: the
    roots of g^{00} xi_0^2 + 2 b xi_0 + c, b = g^{0j} xi_j and c = g^{jk} xi_j xi_k."""
    n = g.shape[-1] - 1
    a = g[..., 0, 0]
    vmax = 0.0
    for d in direction_sample(n):
        b = c = 0.0
        for j in range(1, n + 1):
            b = b + g[..., 0, j] * d[j - 1]
            for k in range(1, n + 1):
                c = c + g[..., j, k] * d[j - 1] * d[k - 1]
        sq = np.sqrt(np.maximum(b * b - a * c, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            vmax = max(vmax, float(np.max(np.abs((-b - sq) / a))),
                       float(np.max(np.abs((-b + sq) / a))))
    return vmax


def _sym_eigs(entries: list):
    """Least and largest eigenvalue per node of [[a]] or [[a, b], [b, d]], given as
    [a] or [a, b, d]."""
    if len(entries) == 1:
        return entries[0], entries[0]
    a, b, d = entries
    mid, rad = 0.5 * (a + d), np.sqrt(0.25 * (a - d) ** 2 + b * b)
    return mid - rad, mid + rad


def _cone(g: np.ndarray) -> dict:
    """Closed-form cone quantities per node of a sampled (..., n+1, n+1) metric.

    With b = g^{0j} and the spatial block G, the characteristic polynomial
    g^{00} xi_0^2 + 2 (b.xi) xi_0 + xi.G.xi has discriminant xi.M.xi for
    M = b b^T - g^{00} G.  Over unit spatial covectors: `ell` = lambda_min(-G),
    the spatial ellipticity; `disc` = lambda_min(M), the least discriminant;
    `speed` = (|b| + sqrt(lambda_max(M))) / g^{00}, an upper bound on the
    largest root |xi_0| that is exact for n = 1.  Exact over covectors for the
    n <= 2 a SpacetimeGrid allows; solve_ibvp runs it on every node level.
    """
    pairs = [(1, 1)] if g.shape[-1] == 2 else [(1, 1), (1, 2), (2, 2)]
    g00 = g[..., 0, 0]
    G = [g[..., j, k] for j, k in pairs]
    M = [g[..., 0, j] * g[..., 0, k] - g00 * gjk for (j, k), gjk in zip(pairs, G)]
    disc, top = _sym_eigs(M)
    beta = np.sqrt(sum(g[..., 0, j] ** 2 for j in range(1, g.shape[-1])))
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = (beta + np.sqrt(np.maximum(top, 0.0))) / g00
    return {"ell": -_sym_eigs(G)[1], "disc": disc, "speed": speed}


def max_characteristic_speed(metric: MetricField, grid: SpacetimeGrid) -> float:
    """Max |xi_0| over unit spatial covectors: the fastest local phase speed.

    Sampled at nine time levels, evenly strided from t1, and over
    direction_sample; cfl_time_step takes its step from it.
    """
    times = grid.times()
    return max(_characteristic_speed(metric.eval_g(grid.env_at_time(t), shape=grid.shape))
               for t in times[::max(1, (len(times) - 1) // 8)])


# ---------------------------------------------------------------------------
# check_hyperbolicity
# ---------------------------------------------------------------------------

@dataclass
class HyperbolicityReport:
    passed: bool
    c0: float
    c1: float
    min_discriminant: float
    boundary_form_max: float  # max over the whole face x_n = 0 of g^{nn} (must be < 0)
    failures: list = field(default_factory=list)

    def raise_if_failed(self):
        if not self.passed:
            condition, point, value = self.failures[0]
            raise NonHyperbolic(condition, point, value)


def _cone_failures(g: np.ndarray, cone: dict, t: float, axes: list) -> list:
    """(condition, node, value) at the worst node of each cone condition that
    node level t of g fails; cone is _cone(g), axes the level's spatial axes."""
    n = g.shape[-1] - 1

    def worst(values):
        idx = np.unravel_index(int(np.argmin(values)), values.shape)
        idx = idx + (0,) * (n - len(idx))  # the face x_n = 0 lacks the last index
        return (float(t),) + tuple(float(axes[i][idx[i]]) for i in range(n))

    checks = (("time coefficient positivity", g[..., 0, 0], 1.0),
              ("spatial ellipticity", cone["ell"], -1.0),
              ("real distinct characteristic roots", cone["disc"], 1.0),
              ("time-like boundary face", -g[..., 0, n, n], -1.0))
    return [(condition, worst(values), sign * float(np.min(values)))
            for condition, values, sign in checks if np.min(values) <= 0.0]


def check_hyperbolicity(metric: MetricField, grid: SpacetimeGrid) -> HyperbolicityReport:
    """Check the cone conditions in closed form at every time level.

    Checks: g^{00} >= c0 > 0; spatial block negative definite (c1 > 0); the
    two roots of the characteristic polynomial real and distinct for every
    spatial covector (positive discriminant); the whole face x_n = 0
    time-like.  Each level is exact over covectors (`_cone`) and is evaluated
    on its own, so memory stays at one level; solve_ibvp applies the same
    check to every level it steps through.
    """
    axes = [grid.axis(i) for i in range(1, metric.n + 1)]
    c0 = c1 = min_disc = math.inf
    boundary_max = -math.inf
    first = {}  # the first failure of each condition
    for t in grid.times():
        g = metric.eval_g(grid.env_at_time(t), shape=grid.shape)
        cone = _cone(g)
        c0 = min(c0, float(np.min(g[..., 0, 0])))
        c1 = min(c1, float(np.min(cone["ell"])))
        min_disc = min(min_disc, float(np.min(cone["disc"])))
        boundary_max = max(boundary_max, float(np.max(g[..., 0, metric.n, metric.n])))
        for failure in _cone_failures(g, cone, t, axes):
            first.setdefault(failure[0], failure)
    return HyperbolicityReport(passed=not first, c0=c0, c1=c1, min_discriminant=min_disc,
                               boundary_form_max=boundary_max, failures=list(first.values()))


# ---------------------------------------------------------------------------
# Gauge transforms
# ---------------------------------------------------------------------------

def apply_gauge(A, c: GaugeField):
    """Printed-convention gauge shift of the potential.

    With c = exp(i phase): A'_j = A_j + phase_{x_j} for spatial j, while the
    time component moves the other way, A'_0 = A_0 - phase_{x_0}.  See
    apply_conjugation_gauge for the uniform-sign variant that matches exact
    operator conjugation for time-dependent phases.
    """
    A = [_as_expr(a) for a in A]
    phase = c.phase
    out = [A[0] - phase.diff("x0")]
    for j in range(1, len(A)):
        out.append(A[j] + phase.diff(f"x{j}"))
    return out


def apply_conjugation_gauge(A, c: GaugeField):
    """Uniform-sign gauge shift: A'_j = A_j + phase_{x_j} for all j.

    This is the shift under which u' = exp(i phase) u solves the transformed
    problem identically, so boundary traces agree whenever the phase vanishes
    on the accessible patch.
    """
    A = [_as_expr(a) for a in A]
    phase = c.phase
    return [A[j] + phase.diff(f"x{j}") for j in range(len(A))]


# ---------------------------------------------------------------------------
# Pushforward of a metric under a diffeomorphism
# ---------------------------------------------------------------------------

def pushforward(metric: MetricField, phi: Diffeo, grid: SpacetimeGrid | None = None) -> MetricField:
    """Transform (g, A) under y = phi(x), producing expression-backed fields in y.

    The new inverse metric is gh^{jk}(y) = sum_{p,r} g^{pr} dy_j/dx_p dy_k/dx_r
    evaluated at x = phi^{-1}(y); the potential pulls back as a 1-form, so
    Ah_k(y) = sum_j A_j dx_j/dy_k.  Requires the closed-form inverse.  When a
    grid is supplied the Jacobian is checked for singular nodes first.
    """
    if phi.inverse is None:
        raise ValueError("pushforward needs the diffeo's closed-form inverse")
    if grid is not None:
        phi.check_nonsingular(grid)
    size = metric.n + 1
    # compose an x-expression with the inverse map so the result is in y
    inv_bindings = {f"x{j}": phi.inverse[j] for j in range(size)}

    def at_x(e: Expr) -> Expr:
        return substitute(e, inv_bindings)

    g_new = [[None] * size for _ in range(size)]
    for j in range(size):
        for k in range(size):
            total = Const(0.0)
            for p in range(size):
                for r in range(size):
                    term = metric.g[p][r] * phi.jacobian[j][p] * phi.jacobian[k][r]
                    total = total + term
            g_new[j][k] = at_x(total)
    # symmetrize exactly: the renders may differ even though values agree
    for j in range(size):
        for k in range(j + 1, size):
            g_new[k][j] = g_new[j][k]

    # dx_j/dy_k: Jacobian of the inverse map, already in y-variables
    inv_jac = [[phi.inverse[j].diff(f"x{k}") for k in range(size)] for j in range(size)]
    A_new = []
    for k in range(size):
        total = Const(0.0)
        for j in range(size):
            total = total + at_x(metric.A[j]) * inv_jac[j][k]
        A_new.append(total)

    return MetricField(metric.n, g_new, A_new)


# ---------------------------------------------------------------------------
# Bicharacteristics
# ---------------------------------------------------------------------------

@dataclass
class Bicharacteristic:
    samples: np.ndarray  # (steps+1, 2(n+1)): columns x0..xn, xi0..xin
    hamiltonian_values: np.ndarray

    @property
    def positions(self) -> np.ndarray:
        half = self.samples.shape[1] // 2
        return self.samples[:, :half]

    @property
    def covectors(self) -> np.ndarray:
        half = self.samples.shape[1] // 2
        return self.samples[:, half:]

    def max_drift(self) -> float:
        return float(np.max(np.abs(self.hamiltonian_values)))


def _hamiltonian(metric: MetricField, state: np.ndarray) -> float:
    size = metric.n + 1
    env = {f"x{j}": state[j] for j in range(size)}
    g = metric.eval_g(env)
    xi = state[size:]
    return float(xi @ g @ xi)


def _ham_rhs(metric: MetricField, state: np.ndarray) -> np.ndarray:
    size = metric.n + 1
    env = {f"x{j}": state[j] for j in range(size)}
    xi = state[size:]
    return np.concatenate([2.0 * (metric.eval_g(env) @ xi), -metric.ham_grad(env, xi)])


def trace_bicharacteristic(
    metric: MetricField,
    start,
    s_max: float,
    grid: SpacetimeGrid | None = None,
    steps: int = 2048,
) -> Bicharacteristic:
    """Integrate the null Hamiltonian flow of the principal symbol.

    start is (position, covector) with n+1 components each, the covector null
    to 1e-8 |eta|^2.  Classical fourth-order one-step integration with fixed
    step s_max/steps, stopping at s_max or on grid exit when a grid is
    supplied.
    """
    y, eta = start
    y = np.asarray(y, dtype=float)
    eta = np.asarray(eta, dtype=float)
    state = np.concatenate([y, eta])
    h_init = _hamiltonian(metric, state)
    scale = float(eta @ eta)
    if abs(h_init) > 1e-8 * max(scale, 1e-30):
        raise NotNull(
            f"initial covector not null: |L0| = {abs(h_init):.3g} exceeds "
            f"1e-08 * |eta|^2 = {1e-8 * scale:.3g}"
        )

    ds = s_max / steps
    states = [state.copy()]
    hams = [h_init]

    def inside(st: np.ndarray) -> bool:
        if grid is None:
            return True
        if not (grid.t1 - 1e-12 <= st[0] <= grid.t2 + 1e-12):
            return False
        for i in range(grid.n):
            if not (-1e-12 <= st[1 + i] <= grid.extent[i] + 1e-12):
                return False
        return True

    for _ in range(steps):
        k1 = _ham_rhs(metric, state)
        k2 = _ham_rhs(metric, state + 0.5 * ds * k1)
        k3 = _ham_rhs(metric, state + 0.5 * ds * k2)
        k4 = _ham_rhs(metric, state + ds * k3)
        state = state + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not inside(state):
            break
        states.append(state.copy())
        hams.append(_hamiltonian(metric, state))

    return Bicharacteristic(np.array(states), np.array(hams))


# ---------------------------------------------------------------------------
# Influence regions by front propagation
# ---------------------------------------------------------------------------

@dataclass
class RegionMask:
    mask: np.ndarray  # (nt, *spatial) booleans
    arrival: np.ndarray  # (*spatial,) arrival times (inf where unreached)
    grid: SpacetimeGrid


def _neighbor_offsets(n: int) -> list:
    if n == 1:
        return [(-1,), (1,)]
    offsets = []
    for a in range(-2, 3):
        for b in range(-2, 3):
            if (a, b) == (0, 0):
                continue
            if math.gcd(abs(a), abs(b)) != 1:
                continue
            offsets.append((a, b))
    return offsets


def _cone_speed(metric: MetricField, points_env: dict, direction: np.ndarray, t: np.ndarray, sign: int) -> np.ndarray:
    """Forward (sign=+1) or backward (sign=-1) boundary speed of the velocity cone.

    Null velocity vectors (1, w) satisfy g_{00} + 2 g_{0j} w_j + g_{jk} w_j w_k = 0
    in the covariant metric; along a fixed unit direction this is a quadratic in
    the speed whose positive root is the causal propagation rate.
    """
    env = dict(points_env)
    env["x0"] = t
    shape = np.broadcast_shapes(*[np.shape(v) for v in env.values()])
    g_up = metric.eval_g(env, shape=shape)
    n = metric.n
    g_lo = np.stack([_solve_small(g_up, e) for e in np.eye(n + 1)], axis=-1)
    w = direction * sign
    a = np.zeros(shape)
    b = np.zeros(shape)
    for j in range(1, n + 1):
        b += g_lo[..., 0, j] * w[j - 1]
        for k in range(1, n + 1):
            a += g_lo[..., j, k] * w[j - 1] * w[k - 1]
    c = g_lo[..., 0, 0]
    disc = np.maximum(b * b - a * c, 0.0)
    # a < 0 (spatial block of the covariant metric is negative definite too)
    v = (b + np.sqrt(disc)) / (-a)
    return np.maximum(v, 1e-12)


def influence_region(
    grid: SpacetimeGrid,
    metric: MetricField,
    seed_mask: np.ndarray,
    direction: str = "forward",
    seed_time: float | None = None,
) -> RegionMask:
    """Domain-of-influence node mask by deterministic front propagation.

    seed_mask is a boolean array over spatial nodes (the set F); the front
    expands from it at the local maximal characteristic speed, forward or
    backward in time.  Arrival times come from value iteration over a
    16-direction neighbor stencil, run until a pass changes nothing, so the
    mask is within a cell of the true cone for the gentle metrics the
    laboratory targets.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    sign = 1 if direction == "forward" else -1
    seed_mask = np.asarray(seed_mask, dtype=bool)
    if seed_mask.shape != grid.shape:
        raise ValueError("seed mask must cover the spatial grid")
    if not seed_mask.any():
        raise ValueError("seed set must be nonempty")
    t_seed = grid.t1 if seed_time is None else float(seed_time)

    arrival = np.full(grid.shape, np.inf)
    arrival[seed_mask] = 0.0  # elapsed time since seeding

    offsets = _neighbor_offsets(grid.n)
    env0 = grid.spatial_env()
    window = grid.t2 - grid.t1

    # Precompute, per offset, the per-node travel time across that offset.
    # Speeds are sampled at a handful of elapsed-time values and the travel
    # time uses the slowest sampled speed along the step (conservative but
    # within-cell accurate for mildly time-dependent metrics).
    hvec = np.array(grid.h)
    travel_tables = []
    t_samples = np.linspace(0.0, window, 5)
    for off in offsets:
        step = hvec * np.array(off)
        dist = float(np.linalg.norm(step))
        unit = step / dist
        speeds = []
        for dt_elapsed in t_samples:
            t_eval = t_seed + sign * dt_elapsed
            speeds.append(_cone_speed(metric, env0, unit, np.full(grid.shape, t_eval), sign))
        vmin = np.minimum.reduce(speeds)
        travel_tables.append(dist / vmin)

    # Deterministic value iteration (Bellman-Ford over the lattice): with
    # positive travel times it settles within one pass per node, plus one.
    changed = True
    while changed:
        changed = False
        for off, travel in zip(offsets, travel_tables):
            shifted = _shift_with_inf(arrival, off)
            trav_src = _shift_with_inf(travel, off, fill=np.inf)
            candidate = shifted + trav_src
            better = candidate < arrival - 1e-13
            if np.any(better):
                arrival[better] = candidate[better]
                changed = True

    times = grid.times()
    elapsed = (times - t_seed) * sign if direction == "forward" else (t_seed - times)
    mask = arrival[None, ...] <= elapsed.reshape((-1,) + (1,) * grid.n) + 1e-12
    return RegionMask(mask=mask, arrival=arrival, grid=grid)


def _shift_with_inf(array: np.ndarray, offset, fill=np.inf) -> np.ndarray:
    """Shift array by offset, padding with fill: result[i] = array[i - offset]."""
    out = np.full_like(array, fill)
    src = [slice(None)] * array.ndim
    dst = [slice(None)] * array.ndim
    for axis, shift in enumerate(offset):
        if shift > 0:
            src[axis] = slice(0, array.shape[axis] - shift)
            dst[axis] = slice(shift, array.shape[axis])
        elif shift < 0:
            src[axis] = slice(-shift, array.shape[axis])
            dst[axis] = slice(0, array.shape[axis] + shift)
    out[tuple(dst)] = array[tuple(src)]
    return out
