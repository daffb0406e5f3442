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
below 1, so a handful of sweeps reaches round-off.  Every term without the
new level is evaluated once per step; a sweep recomputes only the time flux
ahead of the step (one centered difference of the new level per axis), the
g^{j0} cross fluxes of its average onto half nodes, and the b_0 term.  The
converged flux ahead of a step is the next step's flux behind it.

One provider, SampledCoefficients, feeds the stepper.  It holds the
coefficients as node samples, one time level at a time: read from arrays, or
evaluated from the metric's expressions when the run is expression-backed.
The staggered values are second-order averages of those samples.  Optional
hooks: a forcing term, a first-order term sum_j b_j d_j u and a zeroth-order
term c u.  The transformed-operator pipeline uses the forcing and the
zeroth-order term (its V1).

Every node level, chart runs included, is checked once when a step first
reads it: the cone conditions in closed form at every node, and the CFL bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Const, Expr
from .geometry import (
    MetricField,
    NonHyperbolic,
    SpacetimeGrid,
    _as_expr,
    _characteristic_speed,
    _cone,
    _cone_failures,
    _det,
    _eval_table,
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
    """Field peak grew beyond _GUARD_FACTOR times the imposed data scale."""


class SweepNotConverged(RuntimeError):
    """Fixed-point sweeps of an implicit step used up max_sweeps above _SWEEP_TOL."""


# a field peak past this multiple of the data imposed so far cannot come from
# the continuous problem
_GUARD_FACTOR = 1e3
# a sweep stops once its largest update is below this times max(|u^m|, 1)
_SWEEP_TOL = 1e-13


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
    # per step: "sweeps" (int) and "last_update", the final max |delta|
    diagnostics: dict = field(default_factory=dict)

    def slice(self, m: int) -> np.ndarray:
        if self.samples is None:
            raise ValueError("full samples were not stored for this run")
        return self.samples[m]

    def face_trace(self) -> np.ndarray:
        return self.boundary_layers[..., 0]


# ---------------------------------------------------------------------------
# Coefficient provider
# ---------------------------------------------------------------------------

class SampledCoefficients:
    """The stepper's coefficient provider: node samples, averaged where staggered.

    Node level m holds g^{jk} (*shape, n+1, n+1), A_j (*shape, n+1), rho, an
    optional complex zeroth-order field v1 and optional first-order
    coefficients b_j, all on the spatial nodes at t1 + m*dt.  The constructor
    takes them as arrays, each either with a leading time axis of length nt
    or time-independent; `from_metric` evaluates them from expressions, one
    node level at a time.  rho is ((-1)^n det g)^(-1/2) of the node samples
    unless given.  Only node levels are cached, those within one level of the
    newest, which are the levels one step reads.  `at` averages g, A and rho
    when asked for a half level (the two bracketing node levels) or for half
    nodes (neighbours along the axis), so both are second order.
    """

    def __init__(self, grid: SpacetimeGrid, g, A, rho=None, v1=None, first_order=None):
        g = np.asarray(g, dtype=float)
        A = np.asarray(A, dtype=float)
        rho = None if rho is None else np.asarray(rho, dtype=float)
        v1 = None if v1 is None else np.asarray(v1)
        first = None if first_order is None else [np.asarray(b) for b in first_order]
        scalars = [arr for arr in [rho, v1] + (first or []) if arr is not None]

        def sample(m):
            def pick(arr, extra=0):
                return arr if arr is None or arr.ndim == grid.n + extra else arr[m]

            return {"g": pick(g, 2), "A": pick(A, 1), "rho": pick(rho), "v1": pick(v1),
                    "first": None if first is None else [pick(b) for b in first]}

        static = (g.ndim == grid.n + 2 and A.ndim == grid.n + 1
                  and all(arr.ndim == grid.n for arr in scalars))
        self._start(grid, g.shape[-1] - 1, sample, static,
                    bool(np.any(g[..., 0, 1:] != 0.0)))

    @classmethod
    def from_metric(cls, metric: MetricField, grid: SpacetimeGrid,
                    v1=None, first_order=None) -> "SampledCoefficients":
        """Provider whose node levels come from metric.eval_g and eval_A.

        v1 and each b_j are an Expr, an (re, im) pair of Exprs, a
        callable(env), or None (zero).
        """
        shape = grid.shape
        spatial = grid.spatial_env()

        def sample(m):
            env = dict(spatial, x0=np.full(shape, grid.t1 + m * grid.dt))
            return {"g": metric.eval_g(env, shape=shape), "A": metric.eval_A(env, shape=shape),
                    "rho": None,
                    "v1": None if v1 is None else _complex_eval(v1, env, shape),
                    "first": None if first_order is None
                    else [_complex_eval(b, env, shape) for b in first_order]}

        fields = [e for row in metric.g for e in row] + metric.A + [v1] + list(first_order or [])
        time_cross = any(not _is_zero(metric.g[0][k]) for k in range(1, metric.n + 1))
        provider = cls.__new__(cls)
        provider._start(grid, metric.n, sample, all(map(_time_free, fields)), time_cross)
        return provider

    def _start(self, grid, n, sample, static, time_cross):
        self.grid = grid
        self.n = n
        self._sample = sample
        self._static = static
        self._time_cross = time_cross
        self._cache = {}

    def has_time_cross(self) -> bool:
        return self._time_cross

    def _index(self, t: float) -> int:
        """Half-level index 2*(t - t1)/dt; 0 for every t when nothing depends on time."""
        if self._static:
            return 0
        return int(round(2.0 * (t - self.grid.t1) / self.grid.dt))

    def _node(self, m: int) -> dict:
        if m not in self._cache:
            value = self._sample(m)
            if value["rho"] is None:
                sign = (-1.0) ** self.n
                # NaN off the cone; the level check and the NaN guard report it
                with np.errstate(invalid="ignore"):
                    value["rho"] = (sign * _det(value["g"])) ** -0.5
            # a step reads node levels m and m + 1
            for stale in [cached for cached in self._cache if abs(cached - m) > 1]:
                del self._cache[stale]
            self._cache[m] = value
        return self._cache[m]

    def at(self, t: float, half_axis: int | None = None) -> dict:
        """g, A and rho at time t (node or half level), on half nodes along
        half_axis (1..n) when given."""
        k = self._index(t)
        if k % 2:
            lo, hi = self._node(k // 2), self._node(k // 2 + 1)
            value = {name: 0.5 * (lo[name] + hi[name]) for name in ("g", "A", "rho")}
        else:
            value = self._node(k // 2)
        if half_axis is not None:
            value = {name: _davg(value[name], half_axis - 1) for name in ("g", "A", "rho")}
        return value

    def zeroth_at(self, t: float):
        return self._node(self._index(t) // 2)["v1"]

    def first_order_at(self, t: float):
        return self._node(self._index(t) // 2)["first"]


def _time_free(field) -> bool:
    """True for None, or an Expr or (re, im) pair of Exprs without x0."""
    if field is None:
        return True
    if isinstance(field, tuple):
        return all(map(_time_free, field))
    return isinstance(field, Expr) and "x0" not in field.variables()


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _complex_eval(field, env, shape):
    """Evaluate an Expr, an (re, im) pair of Exprs, or a callable to complex.

    None (a missing coefficient, or a missing half of a pair) counts as zero.
    """
    if field is None:
        return np.zeros(shape, dtype=complex)
    if callable(field) and not isinstance(field, Expr):
        return np.asarray(field(env), dtype=complex)
    if not isinstance(field, tuple):
        return _eval_table(field, env, shape).astype(complex)
    parts = _eval_table([Const(0.0) if part is None else part for part in field], env, shape)
    out = np.zeros(shape, dtype=complex)
    out += parts[..., 0]
    out += 1j * parts[..., 1]
    return out


# ---------------------------------------------------------------------------
# Spatial difference helpers
# ---------------------------------------------------------------------------

def _shifted(u: np.ndarray, axis: int, gap: int = 1):
    """The views u[gap:] and u[:-gap] along axis."""
    hi = [slice(None)] * u.ndim
    lo = [slice(None)] * u.ndim
    hi[axis] = slice(gap, u.shape[axis])
    lo[axis] = slice(0, u.shape[axis] - gap)
    return u[tuple(hi)], u[tuple(lo)]


def _interior(values: np.ndarray, axis: int) -> np.ndarray:
    """Place values on the interior nodes along axis; boundary entries are zero."""
    shape = list(values.shape)
    shape[axis] += 2
    out = np.zeros(tuple(shape), dtype=values.dtype)
    mid = [slice(None)] * values.ndim
    mid[axis] = slice(1, shape[axis] - 1)
    out[tuple(mid)] = values
    return out


def _dcen(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered difference along axis; boundary entries are zero (unused)."""
    hi, lo = _shifted(u, axis, 2)
    return _interior((hi - lo) / (2.0 * h), axis)


def _ddiff(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Forward difference onto half nodes: (u[i+1] - u[i]) / h."""
    hi, lo = _shifted(u, axis)
    return (hi - lo) / h


def _davg(u: np.ndarray, axis: int) -> np.ndarray:
    """Average onto half nodes: (u[i+1] + u[i]) / 2."""
    hi, lo = _shifted(u, axis)
    return 0.5 * (hi + lo)


def _half_diff(w: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Difference of half-node fluxes back onto interior nodes along axis."""
    return _interior(_ddiff(w, axis, h), axis)


def _half_avg(w: np.ndarray, axis: int) -> np.ndarray:
    """Average of half-node fluxes back onto interior nodes along axis."""
    return _interior(_davg(w, axis), axis)


# ---------------------------------------------------------------------------
# The discrete operator
# ---------------------------------------------------------------------------

class _Stepper:
    """The residual of one leapfrog step, affine in the new level u^{m+1}.

    `level` holds the coefficient arrays of a step: the weights of u^{m+1}
    in w0p and in the cross fluxes, and the map's diagonal; a static
    provider builds them once per run.  `explicit` evaluates, once per step,
    every term without u^{m+1}; `residual` adds the terms in u^{m+1}, which
    is all a sweep recomputes.
    """

    def __init__(self, provider, grid: SpacetimeGrid):
        self.provider = provider
        self.n = grid.n
        self.dt = grid.dt
        self.h = grid.h
        self._fixed = None

    def _flux_weights(self, coeffs):
        """Weights of the time flux at a half level: w_0 = new u_new + old u_old
        + sum_k cen[k] (dcen_k u_new + dcen_k u_old)."""
        g, A, rho = coeffs["g"], coeffs["A"], coeffs["rho"]
        a = rho * g[..., 0, 0] / self.dt
        b = -0.5j * rho * sum(g[..., 0, k] * A[..., k] for k in range(self.n + 1))
        return a + b, b - a, [0.5 * rho * g[..., 0, k] for k in range(1, self.n + 1)]

    def _side(self, weight, cen, u):
        """One bracketing level's part of a time flux."""
        w = weight * u
        for k, p in enumerate(cen):
            w = w + p * _dcen(u, k, self.h[k])
        return w

    def time_flux(self, t, u_new, u_old):
        """Flux w_0 at half level t from the bracketing levels."""
        new, old, cen = self._flux_weights(self.provider.at(t))
        return self._side(new, cen, u_new) + self._side(old, cen, u_old)

    def level(self, t) -> dict:
        """Coefficient arrays of the step at node level t."""
        if self._fixed is not None:
            return self._fixed
        dt, h = self.dt, self.h
        P = self.provider
        cm = P.at(t)
        A = cm["A"]
        new, old, cen = self._flux_weights(P.at(t + 0.5 * dt))
        halves = [P.at(t, half_axis=j) for j in range(1, self.n + 1)]
        cross = [ch["rho"] * ch["g"][..., j, 0] / (2.0 * dt) for j, ch in enumerate(halves, 1)]
        lead = 1.0 / dt - 0.5j * A[..., 0]  # weight of w0p in the time difference
        # davg weighs a node by 1/2 on each side, dcen not at all
        diag = lead * new
        for axis, cw in enumerate(cross):
            diag = diag + _half_diff(0.5 * cw, axis, h[axis]) \
                - 1j * A[..., axis + 1] * _half_avg(0.5 * cw, axis)
        diag = -diag / cm["rho"]
        first = P.first_order_at(t)
        if first is not None:
            diag = diag + first[0] / (2.0 * dt)
        out = {"A": A, "rho": cm["rho"], "halves": halves, "first": first,
               "zeroth": P.zeroth_at(t), "lead": lead, "new": new, "old": old,
               "cen": cen, "cross": cross, "diag": diag}
        if P._static:
            self._fixed = out
        return out

    def explicit(self, c, um1, um, w0q, forcing_val=None):
        """The terms of the residual without u^{m+1}, and the u^m part of w0p."""
        n, dt, h = self.n, self.dt, self.h
        A = c["A"]
        total = (c["lead"] - 2.0 / dt) * w0q

        # node-centered covariant derivatives at level m; d0m lacks its
        # u^{m+1} part, which `residual` adds through the cross weights
        d0m = -um1 / (2.0 * dt) - 1j * A[..., 0] * um
        dmk = [None] + [_dcen(um, k - 1, h[k - 1]) - 1j * A[..., k] * um
                        for k in range(1, n + 1)]
        for j, ch in enumerate(c["halves"], 1):
            gh, Ah, rhoh = ch["g"], ch["A"], ch["rho"]
            axis = j - 1
            dj = _ddiff(um, axis, h[axis]) - 1j * Ah[..., j] * _davg(um, axis)
            w = gh[..., j, j] * dj
            w = w + gh[..., j, 0] * _davg(d0m, axis)
            for k in range(1, n + 1):
                if k == j:
                    continue
                w = w + gh[..., j, k] * _davg(dmk[k], axis)
            w = rhoh * w
            total = total + _half_diff(w, axis, h[axis]) - 1j * A[..., j] * _half_avg(w, axis)
        out = -total / c["rho"]

        first = c["first"]
        if first is not None:
            out = out - first[0] * um1 / (2.0 * dt)
            for j in range(1, n + 1):
                out = out + first[j] * _dcen(um, j - 1, h[j - 1])
        if c["zeroth"] is not None:
            out = out + c["zeroth"] * um
        if forcing_val is not None:
            out = out - forcing_val
        return out, self._side(c["old"], c["cen"], um)

    def w0p(self, c, wum, up1):
        """Flux w_0 at the half level after the step, from u^{m+1} and the u^m part."""
        return self._side(c["new"], c["cen"], up1) + wum

    def residual(self, c, base, wum, up1):
        """base (from `explicit`) plus the terms in u^{m+1}."""
        A = c["A"]
        total = c["lead"] * self.w0p(c, wum, up1)
        for axis, cw in enumerate(c["cross"]):
            w = cw * _davg(up1, axis)
            total = total + _half_diff(w, axis, self.h[axis]) \
                - 1j * A[..., axis + 1] * _half_avg(w, axis)
        out = base - total / c["rho"]
        if c["first"] is not None:
            out = out + c["first"][0] * up1 / (2.0 * self.dt)
        return out

    def apply(self, um1, um, up1, t, forcing_val=None):
        """Residual form: value of L_h u (+ first order + zeroth) - F at level m."""
        w0q = self.time_flux(t - 0.5 * self.dt, um, um1)
        c = self.level(t)
        base, wum = self.explicit(c, um1, um, w0q, forcing_val)
        return self.residual(c, base, wum, up1)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def cfl_time_step(metric: MetricField, grid: SpacetimeGrid, fraction: float = 0.5) -> float:
    """Stable time step: fraction * h_min / the speed sampled at nine levels; solve_ibvp
    checks every level and refuses it on a metric that is faster between samples."""
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
    max_sweeps: int = 40,
    store: str = "all",
) -> WaveField:
    """March the IBVP from rest.

    f supplies Dirichlet data on the face x_n = 0 (zero elsewhere); a
    `dirichlet` callable t -> full-grid complex array overrides data on every
    face (manufactured-solution runs).  `initial` is an optional pair
    (u at t1, u at t1+dt) of complex arrays; default is the quiescent start.
    `forcing` is an Expr, (re, im) Expr pair, or callable(env) -> array.
    Without `provider`, the coefficients come from `metric` (with its
    potential replaced by A when given), v1 and first_order; a `provider`
    (a SampledCoefficients) carries all of them, so passing A, v1 or
    first_order with it raises ValueError.
    store is "all" (every time level) or "boundary" (the three face layers
    only; memory then does not grow with the number of time levels).  Raises
    SweepNotConverged when the fixed-point sweeps of a step with time cross
    terms do not meet _SWEEP_TOL within max_sweeps, and Instability when the
    field peak passes _GUARD_FACTOR times the data scale or is NaN.

    With `check`, each node level is checked before the first step that reads
    it sweeps, raising NonHyperbolic (condition, node, value) or CFLViolation
    (the time).  diagnostics["cfl"] holds dt * v / h per node level, with v the
    closed-form speed bound, or the sampled speed where the bound is over
    cfl_fraction; cfl_number is its maximum.
    """
    if store not in ("all", "boundary"):
        raise ValueError(f"store must be 'all' or 'boundary', got {store!r}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if provider is not None:
        for name, value in (("A", A), ("v1", v1), ("first_order", first_order)):
            if value is not None:
                raise ValueError(f"{name} would be ignored: the provider carries the "
                                 f"coefficients, so build it with {name} instead")
    else:
        if A is not None:
            metric = metric.with_potential(A)
        provider = SampledCoefficients.from_metric(metric, grid, v1=v1, first_order=first_order)
    if f is not None:
        f.validate(grid)

    times = grid.times()
    nt = len(times)
    shape = grid.shape
    stepper = _Stepper(provider, grid)
    # index of the lo and the hi face of every axis, in that order
    faces = [tuple(end if i == axis else slice(None) for i in range(grid.n))
             for axis in range(grid.n) for end in (0, -1)]

    def boundary_fill(level: int, u: np.ndarray):
        """Impose Dirichlet values on every face of the box at time index level."""
        t = times[level]
        if dirichlet is not None:
            full = np.asarray(dirichlet(t), dtype=complex)
            for face in faces:
                u[face] = full[face]
            return
        for face in faces:
            u[face] = 0.0
        if f is not None:
            u[faces[-2]] = f.face_profile(grid, t)  # x_n = 0

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
    axes = [grid.axis(i) for i in range(1, grid.n + 1)]
    courant = grid.dt / min(grid.h)
    cfl = np.empty(nt)
    limit = cfl_fraction * (1.0 + 1e-9)

    def check_level(level: int):
        """Cone and CFL check of a node level the step has read; sets cfl[level]."""
        if provider._static and level:
            cfl[level] = cfl[0]
            return
        t = times[level]
        g = provider.at(t)["g"]
        cone = _cone(g)
        cfl[level] = courant * float(np.max(cone["speed"]))
        if not check:
            return
        failures = _cone_failures(g, cone, t, axes)
        if failures:
            raise NonHyperbolic(*failures[0])
        if cfl[level] > limit:
            # the closed form bounds the speed from above; decide on the sampled one
            vmax = _characteristic_speed(g)
            cfl[level] = courant * vmax
            if cfl[level] > limit:
                raise CFLViolation(
                    f"dt = {grid.dt:.3e} exceeds {cfl_fraction} * h / v_max = "
                    f"{cfl_fraction * min(grid.h) / vmax:.3e} at t = {t:.4f}"
                )

    def forcing_at(t: float):
        if forcing is None:
            return None
        return _complex_eval(forcing, grid.env_at_time(t), shape)

    # the first three depth layers of every level; all levels only on request
    layers = np.empty((nt,) + shape[:-1] + (3,), dtype=complex)
    samples = np.empty((nt,) + shape, dtype=complex) if store == "all" else None

    def keep(level: int, u: np.ndarray):
        layers[level] = u[..., 0:3]
        if samples is not None:
            samples[level] = u

    keep(0, u_prev)
    keep(1, u_curr)

    # well-posedness scale: the data imposed so far
    span = grid.t2 - grid.t1
    data_scale = max(float(np.max(np.abs(u_prev))), float(np.max(np.abs(u_curr))))

    sweeps = np.zeros(nt - 2, dtype=int)
    last_update = np.zeros(nt - 2)
    # the flux at the half level before the step; later steps reuse w0p
    w0q = stepper.time_flux(times[1] - 0.5 * grid.dt, u_curr, u_prev)
    check_level(0)
    check_level(1)
    for m in range(1, nt - 1):
        t = times[m]
        up1 = 2.0 * u_curr - u_prev
        boundary_fill(m + 1, up1)
        fval = forcing_at(t)
        coeffs = stepper.level(t)
        check_level(m + 1)
        base, wum = stepper.explicit(coeffs, u_prev, u_curr, w0q, forcing_val=fval)
        diag = coeffs["diag"][interior]
        scale = max(float(np.max(np.abs(u_curr))), 1.0)
        for sweep in range(1, max_sweeps + 1):
            resid = stepper.residual(coeffs, base, wum, up1)
            delta = resid[interior] / diag
            up1[interior] -= delta
            update = float(np.max(np.abs(delta), initial=0.0))
            if not iterate or update <= _SWEEP_TOL * scale:
                break
        else:
            raise SweepNotConverged(
                f"fixed-point sweeps at t = {t:.4f} did not converge in {max_sweeps} "
                f"sweeps: last update {update:.3e} > {_SWEEP_TOL:.0e} * scale = "
                f"{_SWEEP_TOL * scale:.3e}"
            )
        sweeps[m - 1] = sweep
        last_update[m - 1] = update
        w0q = stepper.w0p(coeffs, wum, up1)

        u_prev, u_curr = u_curr, up1
        keep(m + 1, u_curr)

        data_scale = max([data_scale] + [float(np.max(np.abs(u_curr[face]))) for face in faces])
        if fval is not None:
            data_scale = max(data_scale, float(np.max(np.abs(fval))) * span * span)
        peak = float(np.max(np.abs(u_curr)))
        # negated so that a NaN peak trips the guard too
        if data_scale > 0.0 and not peak <= _GUARD_FACTOR * data_scale:
            raise Instability(
                f"field peak {peak:.3e} exceeded {_GUARD_FACTOR:.0e} x data scale "
                f"{data_scale:.3e} at t = {times[m + 1]:.4f}"
            )

    return WaveField(
        samples=samples,
        boundary_layers=layers,
        grid=grid,
        cfl_number=float(np.max(cfl)),
        diagnostics={"sweeps": sweeps, "last_update": last_update, "cfl": cfl},
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


def _time_derivative(u: WaveField, m: int) -> np.ndarray:
    """d_t u at level m: centred inside the window, one-sided at its ends."""
    dt = u.grid.dt
    if m == 0:
        return (u.slice(1) - u.slice(0)) / dt
    if m == u.grid.nt - 1:
        return (u.slice(m) - u.slice(m - 1)) / dt
    return (u.slice(m + 1) - u.slice(m - 1)) / (2.0 * dt)


def energy(u: WaveField, t: float, metric: MetricField, A=None) -> float:
    """Slice energy: the integral of |D_0 u|^2 - sum g^{jk} D_j u conj(D_k u).

    Covariant derivatives use A when given, else the metric's potential.
    """
    grid = u.grid
    m = _time_index(grid, t)
    um = u.slice(m)
    n = grid.n
    env = grid.env_at_time(t)
    shape = grid.shape
    if A is not None:
        metric = metric.with_potential(A)
    A_vals = metric.eval_A(env, shape=shape)
    g = metric.eval_g(env, shape=shape)

    d0 = _time_derivative(u, m) - 1j * A_vals[..., 0] * um
    dsp = [np.gradient(um, grid.h[k - 1], axis=k - 1) - 1j * A_vals[..., k] * um
           for k in range(1, n + 1)]

    integrand = np.abs(d0) ** 2
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            integrand = integrand - np.real(g[..., j, k] * dsp[j - 1] * np.conj(dsp[k - 1]))

    for axis in reversed(range(n)):
        integrand = _trapz(integrand, dx=grid.h[axis], axis=axis)
    return float(integrand)


def graph_norm_sq(u: WaveField, m: int) -> float:
    """Discrete H1 x L2 graph norm ||u(t)||_1^2 + ||u_t(t)||_0^2 at level m."""
    grid = u.grid
    um = u.slice(m)
    total = np.abs(um) ** 2 + np.abs(_time_derivative(u, m)) ** 2
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
    A_list = list(metric.A) if A is None else [_as_expr(a) for a in A]
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
