"""Explicit finite-difference solver for the gauge-covariant wave operator.

The operator acts as

    L u = -(1/rho) sum_{j,k} (d_j - i A_j) [ rho g^{jk} (d_k - i A_k) u ]

with rho = ((-1)^n det[g^{jk}])^{-1/2}, on the slab [t1,t2] x box, driven by
Dirichlet data on the face x_n = 0 (zero on the other faces) from rest.  The
scheme is a second-order leapfrog on the divergence form as written: inner
fluxes live on staggered points (time half-levels for the j=0 flux, spatial
half-nodes for j>=1) and the outer covariant derivative is centered.  Mixed
time-space coefficients g^{0j} couple the new level to its neighbors, which a
short fixed-point iteration resolves; the coupling is O(CFL * |g^{0j}|), far
below 1, so a handful of sweeps reaches round-off.

Optional hooks used by the transformed-operator pipeline: a forcing term, a
first-order term sum_j b_j d_j u, a zeroth-order term c u, and coefficient
fields supplied as samples instead of expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import Const, Expr
from .geometry import (
    MetricField,
    SpacetimeGrid,
    check_hyperbolicity,
    max_characteristic_speed,
)

__all__ = [
    "WaveField",
    "BoundarySignal",
    "CFLViolation",
    "Instability",
    "SweepNotConverged",
    "solve_ibvp",
    "energy",
    "graph_norm_sq",
    "apply_operator_symbolic",
    "cfl_time_step",
    "SampledCoefficients",
]


_trapz = getattr(np, "trapezoid", None) or np.trapz


class CFLViolation(ValueError):
    """Time step exceeds the stability bound for this metric and grid."""


class Instability(RuntimeError):
    """Field peak grew beyond the configured factor of the imposed data scale."""


class SweepNotConverged(RuntimeError):
    """Fixed-point sweeps of an implicit step used up max_sweeps above sweep_tol."""


# ---------------------------------------------------------------------------
# Boundary data
# ---------------------------------------------------------------------------

def _bump(u):
    """C^2 compactly supported profile: cos^4 on [-1,1], zero outside."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.cos(0.5 * math.pi * u[inside]) ** 4
    return out


@dataclass(frozen=True)
class BoundarySignal:
    """Separable raised-cosine Dirichlet datum on the accessible patch.

    f(t, x') = amplitude * w((t-t_center)/t_width) * prod_j w((x_j-c_j)/w_j)
    with w the cos^4 bump, so f is C^2, supported in |t-t_center| <= t_width,
    and vanishes with its time derivative at t1 whenever
    t_center - t_width >= t1.
    """

    t_center: float
    t_width: float
    centers: tuple = ()
    widths: tuple = ()
    amplitude: complex = 1.0

    def validate(self, grid: SpacetimeGrid):
        if self.t_center - self.t_width < grid.t1 - 1e-12:
            raise ValueError("signal must vanish at the initial time (support starts after t1)")
        if self.t_center + self.t_width > grid.t2 + 1e-12:
            raise ValueError("signal support must end inside the time window")
        if len(self.centers) != grid.n - 1 or len(self.widths) != grid.n - 1:
            raise ValueError("need one lateral center/width per tangential axis")
        for i, (c, w) in enumerate(zip(self.centers, self.widths)):
            lo, hi = grid.boundary_patch[i]
            if c - w < lo - 1e-12 or c + w > hi + 1e-12:
                raise ValueError("lateral support must stay inside the accessible patch")

    def face_profile(self, grid: SpacetimeGrid, t: float) -> np.ndarray:
        """Complex samples over the x_n = 0 face at time t."""
        value = self.amplitude * _bump((t - self.t_center) / self.t_width)
        if grid.n == 1:
            return np.asarray(value, dtype=complex)
        out = np.full(grid.shape[:-1], value, dtype=complex)
        for i in range(grid.n - 1):
            coords = grid.axis(i + 1)
            out = out * _bump((coords - self.centers[i]) / self.widths[i])
        return out

    def samples(self, grid: SpacetimeGrid) -> np.ndarray:
        return np.stack([self.face_profile(grid, t) for t in grid.times()])

    def shifted(self, delta_t: float) -> "BoundarySignal":
        return BoundarySignal(self.t_center + delta_t, self.t_width,
                              self.centers, self.widths, self.amplitude)

    def h1_norm_sq(self, grid: SpacetimeGrid) -> float:
        """Discrete squared H^1 norm of f over the face x time window."""
        values = self.samples(grid)
        dt_deriv = np.gradient(values, grid.dt, axis=0)
        total = np.abs(values) ** 2 + np.abs(dt_deriv) ** 2
        for i in range(grid.n - 1):
            total = total + np.abs(np.gradient(values, grid.h[i], axis=1 + i)) ** 2
        # trapezoid over time and the face axes
        for axis in reversed(range(total.ndim)):
            step = grid.dt if axis == 0 else grid.h[axis - 1]
            total = _trapz(total, dx=step, axis=axis)
        return float(total)


# ---------------------------------------------------------------------------
# Wave fields
# ---------------------------------------------------------------------------

@dataclass
class WaveField:
    samples: np.ndarray | None  # (nt, *spatial) complex, None if not stored
    boundary_layers: np.ndarray  # (nt, *face_shape, 3): first three depth layers
    grid: SpacetimeGrid
    cfl_number: float
    scheme_order: int = 2

    def slice(self, m: int) -> np.ndarray:
        if self.samples is None:
            raise ValueError("full samples were not stored for this run")
        return self.samples[m]

    def face_trace(self) -> np.ndarray:
        return self.boundary_layers[..., 0]

    def support_mask(self, threshold: float) -> np.ndarray:
        if self.samples is None:
            raise ValueError("full samples were not stored for this run")
        return np.abs(self.samples) > threshold


# ---------------------------------------------------------------------------
# Coefficient providers
# ---------------------------------------------------------------------------

def _env_shift(grid: SpacetimeGrid, t: float, half_axis: int | None):
    """Coordinate env at time t; half_axis j>=1 shifts that axis to midpoints."""
    axes = []
    for i in range(1, grid.n + 1):
        coords = grid.axis(i)
        if half_axis == i:
            coords = 0.5 * (coords[:-1] + coords[1:])
        axes.append(coords)
    mesh = np.meshgrid(*axes, indexing="ij")
    env = {f"x{i + 1}": mesh[i] for i in range(grid.n)}
    shape = tuple(a.size for a in axes)
    env["x0"] = np.full(shape, float(t))
    return env, shape


class _ExprProvider:
    """Evaluates expression-backed coefficients at the staggered points.

    Time-independent coefficient sets are detected and cached after the first
    evaluation of each staggering kind.
    """

    def __init__(self, metric: MetricField, A, grid: SpacetimeGrid,
                 v1=None, first_order=None):
        self.metric = metric
        self.grid = grid
        size = metric.n + 1
        self.A = list(metric.A) if A is None else [_to_expr(a) for a in A]
        if len(self.A) != size:
            raise ValueError("potential needs n+1 components")
        self.rho = metric.rho()
        self.v1 = v1
        self.first_order = first_order
        names = set()
        for row in metric.g:
            for entry in row:
                names |= entry.variables()
        for a in self.A:
            names |= a.variables()
        self.static = "x0" not in names
        self._cache = {}

    def has_time_cross(self) -> bool:
        return any(not _is_zero(self.metric.g[0][k]) for k in range(1, self.metric.n + 1))

    def _evaluate(self, t: float, half_axis: int | None):
        env, shape = _env_shift(self.grid, t, half_axis)
        size = self.metric.n + 1
        g = np.empty(shape + (size, size))
        for j in range(size):
            for k in range(size):
                g[..., j, k] = _bcast(self.metric.g[j][k].evaluate(env), shape)
        A = np.empty(shape + (size,))
        for j in range(size):
            A[..., j] = _bcast(self.A[j].evaluate(env), shape)
        rho = _bcast(self.rho.evaluate(env), shape)
        return {"g": g, "A": A, "rho": rho}

    def at(self, t: float, half_axis: int | None = None) -> dict:
        key = (None if self.static else round(t, 12), half_axis)
        if key not in self._cache:
            if not self.static and len(self._cache) > 8 * (self.grid.n + 2):
                self._cache.clear()
            self._cache[key] = self._evaluate(t, half_axis)
        return self._cache[key]

    def zeroth_at(self, t: float) -> np.ndarray | None:
        if self.v1 is None:
            return None
        env, shape = _env_shift(self.grid, t, None)
        return _complex_eval(self.v1, env, shape)

    def first_order_at(self, t: float):
        if self.first_order is None:
            return None
        env, shape = _env_shift(self.grid, t, None)
        return [_complex_eval(b, env, shape) for b in self.first_order]


class SampledCoefficients:
    """Coefficient provider backed by arrays sampled on the grid's nodes.

    g: (nt, *shape, n+1, n+1) or (*shape, n+1, n+1) when time-independent;
    A and rho follow the same convention.  Half-level and half-node values
    are second-order averages of the node samples.  An optional zeroth-order
    field (complex, same sampling convention) and first-order coefficients
    b_j keep the transformed-operator structure expressible.
    """

    def __init__(self, grid: SpacetimeGrid, g, A, rho=None, v1=None, first_order=None):
        self.grid = grid
        self.g = np.asarray(g, dtype=float)
        self.A = np.asarray(A, dtype=float)
        size = self.g.shape[-1]
        self.n = size - 1
        if rho is None:
            sign = (-1.0) ** self.n
            self.rho = (sign * np.linalg.det(self.g)) ** -0.5
        else:
            self.rho = np.asarray(rho, dtype=float)
        self.v1 = None if v1 is None else np.asarray(v1)
        self.first_order = None if first_order is None else [np.asarray(b) for b in first_order]
        self._cache = {}

    def has_time_cross(self) -> bool:
        return bool(np.any(self.g[..., 0, 1:] != 0.0))

    def _level(self, arr, t: float, extra_dims: int = 0):
        """Pick (or average) the time level; arrays without a leading time
        axis are time-independent and returned as-is."""
        if arr.ndim == self.grid.n + extra_dims:
            return arr
        pos = (t - self.grid.t1) / self.grid.dt
        m = int(round(pos))
        if abs(pos - m) < 1e-9:
            return arr[m]
        lo = int(math.floor(pos))
        return 0.5 * (arr[lo] + arr[lo + 1])

    def _half_axis(self, arr, axis: int):
        lo = [slice(None)] * arr.ndim
        hi = [slice(None)] * arr.ndim
        lo[axis - 1] = slice(0, arr.shape[axis - 1] - 1)
        hi[axis - 1] = slice(1, arr.shape[axis - 1])
        return 0.5 * (arr[tuple(lo)] + arr[tuple(hi)])

    def at(self, t: float, half_axis: int | None = None) -> dict:
        key = (round(t, 12), half_axis)
        if key not in self._cache:
            g = self._level(self.g, t, extra_dims=2)
            A = self._level(self.A, t, extra_dims=1)
            rho = self._level(self.rho, t)
            if half_axis is not None:
                g = self._half_axis(g, half_axis)
                A = self._half_axis(A, half_axis)
                rho = self._half_axis(rho, half_axis)
            self._cache[key] = {"g": g, "A": A, "rho": rho}
            if len(self._cache) > 64:
                first = next(iter(self._cache))
                if first != key:
                    del self._cache[first]
        return self._cache[key]

    def zeroth_at(self, t: float):
        return None if self.v1 is None else self._level(self.v1, t)

    def first_order_at(self, t: float):
        if self.first_order is None:
            return None
        return [self._level(b, t) for b in self.first_order]


def _to_expr(value):
    from .geometry import _as_expr

    return _as_expr(value)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _bcast(value, shape):
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def _complex_eval(field, env, shape):
    """Evaluate an Expr, an (re, im) pair of Exprs, or a callable to complex.

    None (a missing coefficient, or a missing half of a pair) counts as zero.
    """
    if field is None:
        return np.zeros(shape, dtype=complex)
    if callable(field) and not isinstance(field, Expr):
        return np.asarray(field(env), dtype=complex)
    if isinstance(field, tuple):
        re, im = field
        out = np.zeros(shape, dtype=complex)
        if re is not None:
            out += _bcast(re.evaluate(env), shape)
        if im is not None:
            out += 1j * _bcast(im.evaluate(env), shape)
        return out
    return np.asarray(_bcast(field.evaluate(env), shape), dtype=complex)


# ---------------------------------------------------------------------------
# Spatial difference helpers
# ---------------------------------------------------------------------------

def _dcen(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered difference along axis; boundary entries are zero (unused)."""
    out = np.zeros_like(u)
    mid = [slice(None)] * u.ndim
    hi = [slice(None)] * u.ndim
    lo = [slice(None)] * u.ndim
    mid[axis] = slice(1, u.shape[axis] - 1)
    hi[axis] = slice(2, u.shape[axis])
    lo[axis] = slice(0, u.shape[axis] - 2)
    out[tuple(mid)] = (u[tuple(hi)] - u[tuple(lo)]) / (2.0 * h)
    return out


def _ddiff(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Forward difference onto half nodes: (u[i+1] - u[i]) / h."""
    hi = [slice(None)] * u.ndim
    lo = [slice(None)] * u.ndim
    hi[axis] = slice(1, u.shape[axis])
    lo[axis] = slice(0, u.shape[axis] - 1)
    return (u[tuple(hi)] - u[tuple(lo)]) / h


def _davg(u: np.ndarray, axis: int) -> np.ndarray:
    """Average onto half nodes: (u[i+1] + u[i]) / 2."""
    hi = [slice(None)] * u.ndim
    lo = [slice(None)] * u.ndim
    hi[axis] = slice(1, u.shape[axis])
    lo[axis] = slice(0, u.shape[axis] - 1)
    return 0.5 * (u[tuple(hi)] + u[tuple(lo)])


def _half_diff(w: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Difference of half-node fluxes back onto interior nodes along axis."""
    full_shape = list(w.shape)
    full_shape[axis] += 1
    out = np.zeros(tuple(full_shape), dtype=w.dtype)
    mid = [slice(None)] * w.ndim
    mid[axis] = slice(1, full_shape[axis] - 1)
    hi = [slice(None)] * w.ndim
    lo = [slice(None)] * w.ndim
    hi[axis] = slice(1, w.shape[axis])
    lo[axis] = slice(0, w.shape[axis] - 1)
    out[tuple(mid)] = (w[tuple(hi)] - w[tuple(lo)]) / h
    return out


def _half_avg(w: np.ndarray, axis: int) -> np.ndarray:
    """Average of half-node fluxes back onto interior nodes along axis."""
    full_shape = list(w.shape)
    full_shape[axis] += 1
    out = np.zeros(tuple(full_shape), dtype=w.dtype)
    mid = [slice(None)] * w.ndim
    mid[axis] = slice(1, full_shape[axis] - 1)
    hi = [slice(None)] * w.ndim
    lo = [slice(None)] * w.ndim
    hi[axis] = slice(1, w.shape[axis])
    lo[axis] = slice(0, w.shape[axis] - 1)
    out[tuple(mid)] = 0.5 * (w[tuple(hi)] + w[tuple(lo)])
    return out


# ---------------------------------------------------------------------------
# The discrete operator
# ---------------------------------------------------------------------------

class _Stepper:
    def __init__(self, provider, grid: SpacetimeGrid):
        self.provider = provider
        self.grid = grid
        self.n = grid.n
        self.dt = grid.dt
        self.h = grid.h

    def _time_flux(self, coeffs, u_new, u_old):
        """Flux w_0 at a half level from the bracketing levels."""
        n = self.n
        g, A, rho = coeffs["g"], coeffs["A"], coeffs["rho"]
        ubar = 0.5 * (u_new + u_old)
        d0 = (u_new - u_old) / self.dt - 1j * A[..., 0] * ubar
        w = g[..., 0, 0] * d0
        for k in range(1, n + 1):
            dk = 0.5 * (_dcen(u_new, k - 1, self.h[k - 1]) + _dcen(u_old, k - 1, self.h[k - 1]))
            w = w + g[..., 0, k] * (dk - 1j * A[..., k] * ubar)
        return rho * w

    def apply(self, um1, um, up1, t, forcing_val=None):
        """Residual form: value of L_h u (+ first order + zeroth) - F at level m."""
        n = self.n
        dt = self.dt
        P = self.provider
        cm = P.at(t)
        cp = P.at(t + 0.5 * dt)
        cq = P.at(t - 0.5 * dt)

        w0p = self._time_flux(cp, up1, um)
        w0q = self._time_flux(cq, um, um1)
        A0m = cm["A"][..., 0]
        total = (w0p - w0q) / dt - 1j * A0m * 0.5 * (w0p + w0q)

        # node-centered covariant derivatives at level m (for cross terms)
        d0m = (up1 - um1) / (2.0 * dt) - 1j * A0m * um
        dmk = [None] * (n + 1)
        for k in range(1, n + 1):
            dmk[k] = _dcen(um, k - 1, self.h[k - 1]) - 1j * cm["A"][..., k] * um

        for j in range(1, n + 1):
            ch = P.at(t, half_axis=j)
            gh, Ah, rhoh = ch["g"], ch["A"], ch["rho"]
            axis = j - 1
            dj = _ddiff(um, axis, self.h[axis]) - 1j * Ah[..., j] * _davg(um, axis)
            w = gh[..., j, j] * dj
            w = w + gh[..., j, 0] * _davg(d0m, axis)
            for k in range(1, n + 1):
                if k == j:
                    continue
                w = w + gh[..., j, k] * _davg(dmk[k], axis)
            w = rhoh * w
            total = total + _half_diff(w, axis, self.h[axis]) \
                - 1j * cm["A"][..., j] * _half_avg(w, axis)

        out = -total / cm["rho"]

        first = P.first_order_at(t)
        if first is not None:
            out = out + first[0] * d0m_plain(um1, up1, dt)
            for j in range(1, n + 1):
                out = out + first[j] * _dcen(um, j - 1, self.h[j - 1])
        zeroth = P.zeroth_at(t)
        if zeroth is not None:
            out = out + zeroth * um
        if forcing_val is not None:
            out = out - forcing_val
        return out

    def diagonal(self, t) -> np.ndarray:
        """Exact coefficient of u^{m+1}[node] in apply(...); used by the sweep."""
        n = self.n
        dt = self.dt
        P = self.provider
        cm = P.at(t)
        cp = P.at(t + 0.5 * dt)
        g, A, rho = cp["g"], cp["A"], cp["rho"]
        bracket = g[..., 0, 0] * (1.0 / dt - 0.5j * A[..., 0])
        for k in range(1, n + 1):
            bracket = bracket - 0.5j * g[..., 0, k] * A[..., k]
        diag = (1.0 / dt - 0.5j * cm["A"][..., 0]) * rho * bracket

        for j in range(1, n + 1):
            ch = P.at(t, half_axis=j)
            axis = j - 1
            rg = ch["rho"] * ch["g"][..., j, 0] / (4.0 * dt)
            diff_part = _half_diff(rg, axis, self.h[axis]) * self.h[axis]  # rg[+] - rg[-]
            avg_part = _half_avg(rg, axis)
            diag = diag + diff_part / self.h[axis] - 1j * cm["A"][..., j] * avg_part

        out = -diag / cm["rho"]
        first = P.first_order_at(t)
        if first is not None:
            out = out + first[0] / (2.0 * dt)
        return out


def d0m_plain(um1, up1, dt):
    return (up1 - um1) / (2.0 * dt)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def cfl_time_step(metric: MetricField, grid: SpacetimeGrid, fraction: float = 0.5) -> float:
    """Stable time step: fraction * h_min / fastest characteristic speed."""
    vmax = max_characteristic_speed(metric, grid)
    return fraction * min(grid.h) / vmax


def solve_ibvp(
    metric: MetricField,
    A,
    f: BoundarySignal | None,
    grid: SpacetimeGrid,
    forcing=None,
    *,
    provider=None,
    dirichlet=None,
    initial=None,
    v1=None,
    first_order=None,
    check: bool = True,
    cfl_fraction: float = 0.5,
    guard_factor: float | None = 1e3,
    sweep_tol: float = 1e-13,
    max_sweeps: int = 40,
    store: str = "all",
) -> WaveField:
    """March the IBVP from rest.

    f supplies Dirichlet data on the face x_n = 0 (zero elsewhere); a
    `dirichlet` callable t -> full-grid complex array overrides data on every
    face (manufactured-solution runs).  `initial` is an optional pair
    (u at t1, u at t1+dt) of complex arrays; default is the quiescent start.
    `forcing` is an Expr, (re, im) Expr pair, or callable(env) -> array.
    store is "all" (every time level) or "boundary" (the three face layers
    only).  Raises SweepNotConverged when the fixed-point sweeps of a step
    with time cross terms do not meet sweep_tol within max_sweeps.
    """
    if store not in ("all", "boundary"):
        raise ValueError(f"store must be 'all' or 'boundary', got {store!r}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if provider is None:
        provider = _ExprProvider(metric, A, grid, v1=v1, first_order=first_order)
        if check:
            report = check_hyperbolicity(metric, grid)
            report.raise_if_failed()
    vmax = None
    if check and metric is not None:
        vmax = max_characteristic_speed(metric, grid)
        bound = cfl_fraction * min(grid.h) / vmax
        if grid.dt > bound * (1.0 + 1e-9):
            raise CFLViolation(
                f"dt = {grid.dt:.3e} exceeds {cfl_fraction} * h / v_max = {bound:.3e}"
            )
    if f is not None:
        f.validate(grid)

    times = grid.times()
    nt = len(times)
    shape = grid.shape
    stepper = _Stepper(provider, grid)

    def boundary_fill(level: int, u: np.ndarray):
        """Impose Dirichlet values on every face of the box at time index level."""
        t = times[level]
        if dirichlet is not None:
            full = np.asarray(dirichlet(t), dtype=complex)
            for axis in range(grid.n):
                lo = [slice(None)] * grid.n
                hi = [slice(None)] * grid.n
                lo[axis] = 0
                hi[axis] = -1
                u[tuple(lo)] = full[tuple(lo)]
                u[tuple(hi)] = full[tuple(hi)]
            return
        for axis in range(grid.n):
            lo = [slice(None)] * grid.n
            hi = [slice(None)] * grid.n
            lo[axis] = 0
            hi[axis] = -1
            u[tuple(lo)] = 0.0
            u[tuple(hi)] = 0.0
        if f is not None:
            face = [slice(None)] * grid.n
            face[-1] = 0
            u[tuple(face)] = f.face_profile(grid, t)

    interior = tuple(slice(1, s - 1) for s in shape)

    u_prev = np.zeros(shape, dtype=complex)
    u_curr = np.zeros(shape, dtype=complex)
    if initial is not None:
        u_prev = np.asarray(initial[0], dtype=complex).copy()
        u_curr = np.asarray(initial[1], dtype=complex).copy()
    else:
        boundary_fill(0, u_prev)
        boundary_fill(1, u_curr)

    iterate = provider.has_time_cross()

    def forcing_at(t: float):
        if forcing is None:
            return None
        env, eshape = _env_shift(grid, t, None)
        return _complex_eval(forcing, env, eshape)

    samples = np.empty((nt,) + shape, dtype=complex)
    samples[0] = u_prev
    samples[1] = u_curr

    def face_max(u: np.ndarray) -> float:
        worst = 0.0
        for axis in range(grid.n):
            lo = [slice(None)] * grid.n
            hi = [slice(None)] * grid.n
            lo[axis] = 0
            hi[axis] = -1
            worst = max(worst, float(np.max(np.abs(u[tuple(lo)]))),
                        float(np.max(np.abs(u[tuple(hi)]))))
        return worst

    # well-posedness scale: data imposed so far; blow-up past guard_factor x
    # this cannot come from the continuous problem
    span = grid.t2 - grid.t1
    data_scale = max(float(np.max(np.abs(u_prev))), float(np.max(np.abs(u_curr))))

    for m in range(1, nt - 1):
        t = times[m]
        up1 = 2.0 * u_curr - u_prev
        boundary_fill(m + 1, up1)
        diag = stepper.diagonal(t)
        fval = forcing_at(t)
        scale = max(float(np.max(np.abs(u_curr))), 1.0)
        for _ in range(max_sweeps):
            resid = stepper.apply(u_prev, u_curr, up1, t, forcing_val=fval)
            delta = resid[interior] / diag[interior]
            up1[interior] -= delta
            if not iterate:
                break
            update = float(np.max(np.abs(delta)))
            if update <= sweep_tol * scale:
                break
        else:
            raise SweepNotConverged(
                f"fixed-point sweeps at t = {t:.4f} did not converge in {max_sweeps} "
                f"sweeps: last update {update:.3e} > sweep_tol * scale = {sweep_tol * scale:.3e}"
            )

        u_prev, u_curr = u_curr, up1
        samples[m + 1] = u_curr

        if guard_factor is not None:
            data_scale = max(data_scale, face_max(u_curr))
            if fval is not None:
                data_scale = max(data_scale, float(np.max(np.abs(fval))) * span * span)
            peak = float(np.max(np.abs(u_curr)))
            if data_scale > 0.0 and peak > guard_factor * data_scale:
                raise Instability(
                    f"field peak {peak:.3e} exceeded {guard_factor:.0e} x data scale "
                    f"{data_scale:.3e} at t = {times[m + 1]:.4f}"
                )

    face3 = samples[..., 0:3].copy()
    cfl = grid.dt * (vmax if vmax is not None else 1.0) / min(grid.h)
    return WaveField(
        samples=samples if store == "all" else None,
        boundary_layers=face3,
        grid=grid,
        cfl_number=cfl,
    )


# ---------------------------------------------------------------------------
# Energy and norms
# ---------------------------------------------------------------------------

def _time_index(grid: SpacetimeGrid, t: float) -> int:
    pos = (t - grid.t1) / grid.dt
    m = int(round(pos))
    if abs(pos - m) > 1e-6 or not (0 <= m < grid.nt):
        raise ValueError(f"time {t} is not a grid level")
    return m


def energy(u: WaveField, t: float, metric: MetricField, A=None, v1=None) -> float:
    """Slice energy: |D_0 u|^2 - sum g^{jk} D_j u conj(D_k u) + V1 |u|^2.

    Covariant derivatives use the given potential; the V1 term participates
    only for transformed operators (pass the sampled or expression field).
    """
    grid = u.grid
    m = _time_index(grid, t)
    samples = u.samples
    if samples is None:
        raise ValueError("energy needs a fully stored field")
    n = grid.n
    env, shape = _env_shift(grid, t, None)
    A_list = metric.A if A is None else [_to_expr(a) for a in A]
    A_vals = [np.asarray(_bcast(a.evaluate(env), shape)) for a in A_list]
    g = metric.eval_g(env, shape=shape)

    um = samples[m]
    if m == 0:
        du0 = (samples[1] - samples[0]) / grid.dt
    elif m == grid.nt - 1:
        du0 = (samples[m] - samples[m - 1]) / grid.dt
    else:
        du0 = (samples[m + 1] - samples[m - 1]) / (2.0 * grid.dt)
    d0 = du0 - 1j * A_vals[0] * um
    dsp = [np.gradient(um, grid.h[k - 1], axis=k - 1) - 1j * A_vals[k] * um
           for k in range(1, n + 1)]

    integrand = np.abs(d0) ** 2
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            integrand = integrand - np.real(g[..., j, k] * dsp[j - 1] * np.conj(dsp[k - 1]))
    if v1 is not None:
        v1_vals = v1 if isinstance(v1, np.ndarray) else _complex_eval(v1, env, shape)
        integrand = integrand + np.real(v1_vals) * np.abs(um) ** 2

    for axis in reversed(range(n)):
        integrand = _trapz(integrand, dx=grid.h[axis], axis=axis)
    return float(integrand)


def graph_norm_sq(u: WaveField, m: int) -> float:
    """Discrete H1 x L2 graph norm ||u(t)||_1^2 + ||u_t(t)||_0^2 at level m."""
    grid = u.grid
    samples = u.samples
    um = samples[m]
    if m == 0:
        du0 = (samples[1] - samples[0]) / grid.dt
    elif m == grid.nt - 1:
        du0 = (samples[m] - samples[m - 1]) / grid.dt
    else:
        du0 = (samples[m + 1] - samples[m - 1]) / (2.0 * grid.dt)
    total = np.abs(um) ** 2 + np.abs(du0) ** 2
    for axis in range(grid.n):
        total = total + np.abs(np.gradient(um, grid.h[axis], axis=axis)) ** 2
    for axis in reversed(range(grid.n)):
        total = _trapz(total, dx=grid.h[axis], axis=axis)
    return float(total)


# ---------------------------------------------------------------------------
# Symbolic operator application (oracle machinery)
# ---------------------------------------------------------------------------

def apply_operator_symbolic(metric: MetricField, A, u_re: Expr, u_im: Expr | None = None):
    """Exact expressions (re, im) of L u for an expression-backed field u.

    Used to manufacture forcings F = L u* and for residual oracles; the
    differentiation is symbolic, so no discretization error enters.
    """
    n = metric.n
    size = n + 1
    A_list = list(metric.A) if A is None else [_to_expr(a) for a in A]
    rho = metric.rho()
    u_im = Const(0.0) if u_im is None else u_im

    # covariant derivative D_k u = (d_k u_re + A_k u_im) + i (d_k u_im - A_k u_re)
    dre = [u_re.diff(f"x{k}") + A_list[k] * u_im for k in range(size)]
    dim = [u_im.diff(f"x{k}") - A_list[k] * u_re for k in range(size)]

    out_re = Const(0.0)
    out_im = Const(0.0)
    for j in range(size):
        flux_re = Const(0.0)
        flux_im = Const(0.0)
        for k in range(size):
            w = rho * metric.g[j][k]
            flux_re = flux_re + w * dre[k]
            flux_im = flux_im + w * dim[k]
        # D_j flux = (d_j fr + A_j fi) + i (d_j fi - A_j fr)
        out_re = out_re + flux_re.diff(f"x{j}") + A_list[j] * flux_im
        out_im = out_im + flux_im.diff(f"x{j}") - A_list[j] * flux_re

    inv_rho = Const(1.0) / rho
    return (-(inv_rho) * out_re, -(inv_rho) * out_im)
