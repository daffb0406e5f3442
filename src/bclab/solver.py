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
below 1, so a handful of sweeps reaches round-off.  The sweeps start from
the cubic extrapolation of the last four levels.  Every term without the new
level is evaluated once per step; the new level enters the residual through
a (2n+1)-point stencil, the node and its neighbours +1 and -1 along each
axis, built once per step, which is all a sweep applies.  The converged flux
ahead of a step is the next step's flux behind it.  Every per-step array is
one contiguous band of flat (C-order) nodes, from the first interior node to
the last.  Each per-level factor is folded into its coefficient where that is
formed, so steps and sweeps only multiply and add.  A step forms an axis's
coefficients when it reaches that axis and drops them once applied, so it
holds one axis's at a time; a static provider's are formed once per run.

One provider, SampledCoefficients, feeds the stepper.  It holds the
coefficients as node samples, one time level at a time: read from arrays, or
evaluated from the metric's expressions when the run is expression-backed.
The stepper forms every staggered value it reads as a second-order average
of the two node levels of its step.  Optional hooks: a forcing term, a
first-order term sum_j b_j d_j u and a zeroth-order term c u.  The
transformed-operator pipeline uses the forcing and the zeroth-order term (its V1).

Every node level, chart runs included, is checked once when a step first
reads it: the cone conditions in closed form at every node, and the CFL
number from the same closed-form speed bound that cfl_time_step divides by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Const, Expr
from .geometry import (
    MetricField,
    SpacetimeGrid,
    _as_expr,
    _det,
    _level_speed,
    _Plan,
    _rows,
    _time_levels,
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


def _integrate(values: np.ndarray, steps) -> float:
    """Trapezoid rule of values over all of its axes, the last axis first."""
    trapz = getattr(np, "trapezoid", None) or np.trapz
    for axis in reversed(range(values.ndim)):
        values = trapz(values, dx=steps[axis], axis=axis)
    return float(values)


class CFLViolation(ValueError):
    """dt times _cone's speed bound over h exceeds the CFL fraction at a level."""


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
        start, end = self.t_center - self.t_width, self.t_center + self.t_width
        if start < grid.t1 - 1e-12:
            raise ValueError(f"signal support starts at t = {start:g}, before t1 = {grid.t1:g}")
        if end > grid.t2 + 1e-12:
            raise ValueError(f"signal support ends at t = {end:g}, after t2 = {grid.t2:g}")
        if len(self.centers) != grid.n - 1 or len(self.widths) != grid.n - 1:
            raise ValueError(f"need one lateral center/width per tangential axis ({grid.n - 1}), "
                             f"got {len(self.centers)} and {len(self.widths)}")
        for i, (c, w) in enumerate(zip(self.centers, self.widths)):
            lo, hi = grid.boundary_patch[i]
            if c - w < lo - 1e-12 or c + w > hi + 1e-12:
                raise ValueError(f"lateral support {c:g} +- {w:g} = [{c - w:g}, {c + w:g}] on "
                                 f"axis x{i + 1} leaves the accessible patch [{lo:g}, {hi:g}]")

    def face_profile(self, grid: SpacetimeGrid, t: float) -> np.ndarray:
        """Complex samples over the x_n = 0 face at time t."""
        value = self.amplitude * _bump((t - self.t_center) / self.t_width)
        face = grid.face_env()
        for j, (c, w) in enumerate(zip(self.centers, self.widths), start=1):
            value = value * _bump((face[f"x{j}"][0] - c) / w)
        return np.asarray(value, dtype=complex)

    def samples(self, grid: SpacetimeGrid) -> np.ndarray:
        return np.stack([self.face_profile(grid, t) for t in grid.times()])

    def shifted(self, delta_t: float) -> "BoundarySignal":
        return BoundarySignal(self.t_center + delta_t, self.t_width,
                              self.centers, self.widths, self.amplitude)

    def h1_norm_sq(self, grid: SpacetimeGrid) -> float:
        """Discrete squared H^1 norm of f over the face x time window."""
        values = self.samples(grid)
        steps = grid.steps()[:-1]
        total = np.abs(values) ** 2
        for axis, step in enumerate(steps):
            total = total + np.abs(np.gradient(values, step, axis=axis)) ** 2
        return _integrate(total, steps)  # over time and the face axes


# ---------------------------------------------------------------------------
# Wave fields
# ---------------------------------------------------------------------------

@dataclass
class WaveField:
    samples: np.ndarray | None  # (nt, *spatial) complex, None if not stored
    boundary_layers: np.ndarray  # (nt, *face_shape, 3): first three depth layers
    grid: SpacetimeGrid
    cfl_number: float
    # per step: "sweeps" (int) and "last_update", the final max |delta|;
    # per node level: "cfl", dt * v / h with v _cone's speed bound
    diagnostics: dict = field(default_factory=dict)

    def slice(self, m: int) -> np.ndarray:
        if self.samples is None:
            raise ValueError(f"full samples were not stored for this run, so level {m} cannot "
                             'be read; solve with store="all"')
        return self.samples[m]

    def face_trace(self) -> np.ndarray:
        return self.boundary_layers[..., 0]


# ---------------------------------------------------------------------------
# Coefficient provider
# ---------------------------------------------------------------------------

class SampledCoefficients:
    """The stepper's coefficient provider: a store of node levels.

    Node level m holds g^{jk} as nested rows g[j][k] and A_j as a row A[j]
    of per-node arrays (geometry._rows), rho, an optional complex
    zeroth-order field v1 and optional first-order coefficients b_j, all on
    the spatial nodes at t1 + m*dt.  The constructor takes them as arrays,
    each either with a leading time axis of length nt or time-independent,
    and serves each entry of g and A as one C-contiguous copy per sampled
    level (the stepper's flat reads are then views), the rest as views;
    `from_metric` evaluates them from expressions
    (geometry._time_levels): an entry without x0 is one shared read-only
    array, g's twins g[j][k] and g[k][j] are one array, and only the entries
    that read x0 are formed for each level.  rho is
    ((-1)^n det g)^(-1/2) of the node samples unless given.  `at` serves node
    levels only, caching those within one of the newest (the two a step
    reads); the stepper averages them onto its staggered points.  `static`
    (no level depends on time: every array is time-independent or has a zero
    time stride, _levels) and `time_cross` (some g^{0j} is nonzero) are fixed
    when the provider is built; a static provider serves every level from
    level 0.
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

            # each entry one C-contiguous array, so a flat read of it is a view
            return {"g": [[np.ascontiguousarray(e) for e in row] for row in _rows(pick(g, 2))],
                    "A": [np.ascontiguousarray(a) for a in np.moveaxis(pick(A, 1), -1, 0)],
                    "rho": pick(rho), "v1": pick(v1),
                    "first": None if first is None else [pick(b) for b in first]}

        static = (_level_free(g, grid.n + 2) and _level_free(A, grid.n + 1)
                  and all(_level_free(arr, grid.n) for arr in scalars))
        self._start(grid, g.shape[-1] - 1, sample, static,
                    bool(np.any(_levels(g)[..., 0, 1:] != 0.0)))

    @classmethod
    def from_metric(cls, metric: MetricField, grid: SpacetimeGrid,
                    v1=None, first_order=None) -> "SampledCoefficients":
        """Provider whose node levels hold metric.eval_g and eval_A, bitwise, from
        one plan whose subtrees without x0 run once, here.  v1 and each b_j are
        an Expr, an (re, im) pair of Exprs, a callable(env), or None (zero)."""
        shape = grid.shape
        g_and_A = _time_levels([*metric.g, metric.A], grid)  # A as a row
        v1_at = None if v1 is None else _complex_evaluator(v1)
        first_at = None if first_order is None else [_complex_evaluator(b) for b in first_order]

        def sample(m):
            t = grid.t1 + m * grid.dt
            *g, A = g_and_A(t)
            env = grid.env_at_time(t) if v1_at or first_at else None
            return {"g": g, "A": A, "rho": None,
                    "v1": None if v1_at is None else v1_at(env, shape),
                    "first": None if first_at is None else [b(env, shape) for b in first_at]}

        fields = [e for row in metric.g for e in row] + metric.A + [v1] + list(first_order or [])
        time_cross = any(not _is_zero(metric.g[0][k]) for k in range(1, metric.n + 1))
        provider = cls.__new__(cls)
        provider._start(grid, metric.n, sample, all(map(_time_free, fields)), time_cross)
        return provider

    def _start(self, grid, n, sample, static, time_cross):
        self.grid = grid
        self.n = n
        self.static = static
        self.time_cross = time_cross
        self._sample = sample
        self._cache = {}

    def _node(self, m: int) -> dict:
        m = 0 if self.static else m  # every level is level 0
        if m not in self._cache:
            # a step reads node levels m and m + 1: the rest go before m is sampled
            for stale in [cached for cached in self._cache if abs(cached - m) > 1]:
                del self._cache[stale]
            value = self._sample(m)
            if value["rho"] is None:
                sign = (-1.0) ** self.n
                # NaN off the cone; the level check and the NaN guard report it
                with np.errstate(invalid="ignore"):
                    value["rho"] = (sign * _det(value["g"])) ** -0.5
            self._cache[m] = value
        return self._cache[m]

    def at(self, t: float) -> dict:
        """Node level t; ValueError when t is not one."""
        return self._node(_time_index(self.grid, t))

    def zeroth_at(self, t: float):
        return self._node(_time_index(self.grid, t))["v1"]


def _levels(a: np.ndarray) -> np.ndarray:
    """a's distinct time levels: a[:1] when its leading (time) stride is 0,
    as np.broadcast_to gives, else a.  That zero stride is the one mark of an
    array that is the same on every level, so a reduction over levels reads
    the distinct ones."""
    return a[:1] if a.strides[0] == 0 else a


def _level_free(arr: np.ndarray, ndim: int) -> bool:
    """True for an array of ndim axes without a time axis, or one with a zero
    time stride (_levels)."""
    return arr.ndim == ndim or arr.strides[0] == 0


def _time_free(field) -> bool:
    """True for None, or an Expr or (re, im) pair of Exprs without x0."""
    if field is None:
        return True
    if isinstance(field, tuple):
        return all(map(_time_free, field))
    return isinstance(field, Expr) and "x0" not in field.variables()


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _complex_evaluator(field):
    """(env, shape) -> complex array of an Expr, an (re, im) pair of Exprs, or
    a callable(env); an expression field compiles its plan once, here.

    None (a missing coefficient, or a missing half of a pair) counts as zero.
    """
    if field is None:
        return lambda env, shape: np.zeros(shape, dtype=complex)
    if callable(field) and not isinstance(field, Expr):
        return lambda env, shape: np.broadcast_to(np.asarray(field(env), dtype=complex), shape)
    if not isinstance(field, tuple):
        plan = _Plan(field)
        return lambda env, shape: plan(env, shape).astype(complex)
    plan = _Plan([Const(0.0) if part is None else part for part in field])

    def evaluate(env, shape):
        parts = plan(env, shape)
        out = np.zeros(shape, dtype=complex)
        out += parts[..., 0]
        out += 1j * parts[..., 1]
        return out

    return evaluate


# ---------------------------------------------------------------------------
# The discrete operator
# ---------------------------------------------------------------------------

def _pair(x: np.ndarray, gap: int):
    """The views x[gap:] and x[:-gap] of a flat array: each entry and the one gap behind it."""
    return x[gap:], x[:x.size - gap]


def _side(cen, steps):
    """The centred-difference part of a time flux, sum_k cen_k (u(+s) - u(-s))."""
    w = cen[0] * steps[0]
    for p, step in zip(cen[1:], steps[1:]):
        w += p * step
    return w


class _Stepper:
    """One leapfrog step as an affine map of the new level u^{m+1}, on the band.

    A neighbour along axis a is the band shifted by the axis's flat stride,
    and a half node pairs a node with the one a stride ahead: `_pair` is the
    one slice rule.  In 2D the band's two edge columns pair nodes across a
    row end; they are never read, since `delta` zeroes them.

    `level` forms the step's coefficients that no axis owns from node levels
    m and m+1, averaging only the rows a step reads: the time flux's weights
    `new` (-conj(new) for the level behind) and `cen` over u(+s) - u(-s);
    `lead`, the weight of w0p in the time difference (-conj(lead) that of
    w0q); and the first- and zeroth-order terms.  `explicit` evaluates, once
    per step, every term without u^{m+1} over the stencil's centre, one axis
    at a time.  `_axis` forms an axis's factors when explicit reaches it:
    rho_h times g's row j on its half nodes with the spacings folded in
    (`flux`, `cross`, `time`) and `ahead`, 1/h - i A_j / 2, weighing the flux
    ahead of a node (its conjugate the flux behind).  It adds the axis's share
    to the centre's weight and to the arms of u^{m+1}'s (2n+1)-point stencil,
    and its factors die once applied.  `_centre` then forms `per_centre`,
    -1/(rho centre), and scales the arms to it.  A static provider's
    coefficients and factors are formed once per run by the same code, and
    kept.  Every factor is folded where it is formed, so `explicit`, `delta`
    and `w0p` only multiply and add; `delta` adds the stencil, which is all a
    sweep computes.
    """

    def __init__(self, provider, grid: SpacetimeGrid):
        self.provider = provider
        self.n = grid.n
        self.dt = grid.dt
        self.h = grid.h
        self._fixed = None
        size, width = math.prod(grid.shape), grid.shape[-1]
        self.strides = [math.prod(grid.shape[a + 1:]) for a in range(grid.n)]  # to a neighbour
        self.start = sum(self.strides)  # the first interior node
        self.band = slice(self.start, size - self.start)
        column = np.arange(self.start, size - self.start) % width
        self._edges = np.flatnonzero((column == 0) | (column == width - 1))

    def _span(self, x, margin=0):
        """Flat x, a whole level, over the band widened by margin nodes at each end."""
        x = x.ravel()
        return x[self.start - margin:x.size - self.start + margin]

    def _steps(self, u):
        """u(+s) - u(-s) along each axis, on the band."""
        return [np.subtract(*_pair(self._span(u, s), 2 * s)) for s in self.strides]

    def _flux_weights(self, lo, hi):
        """Weights of the time flux at the half level between node samples lo and
        hi, on the band: w_0 = new u_new - conj(new) u_old + _side(cen, u_new + u_old)."""
        span = self._span

        def mid(x, y):  # the half level's value of node samples x and y
            out = span(x) + span(y)
            out *= 0.5
            return out

        g0 = [mid(x, y) for x, y in zip(lo["g"][0], hi["g"][0])]  # g's row 0
        rho = mid(lo["rho"], hi["rho"])
        new = -0.5j * rho
        new *= sum(g * mid(x, y) for g, x, y in zip(g0, lo["A"], hi["A"]))
        a = rho * g0[0]
        a /= self.dt
        new += a
        for k in range(1, self.n + 1):
            g0[k] *= 0.25 * rho
            g0[k] /= self.h[k - 1]
        return new, g0[1:]

    def time_flux(self, t, u_new, u_old):
        """Flux w_0 at half level t from the bracketing levels, on the band."""
        half, P, span = 0.5 * self.dt, self.provider, self._span
        new, cen = self._flux_weights(P.at(t - half), P.at(t + half))
        w = _side(cen, self._steps(u_new + u_old))
        w += new * span(u_new) - new.conj() * span(u_old)
        return w

    def level(self, t) -> dict:
        """The coefficients of the step at node level t that no axis owns; a
        static provider's once per run, each axis's factors in it as formed."""
        if self._fixed is not None:
            return self._fixed
        span, P = self._span, self.provider
        cm = P.at(t)
        new, cen = self._flux_weights(cm, P.at(t + self.dt))
        rho = span(cm["rho"])
        lead = 0.5j * span(cm["A"][0])
        np.subtract(1.0 / self.dt, lead, out=lead)  # weight of w0p in the time difference
        first, zeroth = cm["first"], P.zeroth_at(t)
        if first is not None:
            first = [rho * span(b) / (2.0 * step) for b, step in zip(first, (self.dt,) + self.h)]
        if zeroth is not None:
            zeroth = rho * span(zeroth)
        # weight: of u^{m+1} at the node, -rho times the centre, until _centre
        # inverts it; the axes' time factors add to it and to the arms
        out = {"node": cm, "A": [a.ravel() for a in cm["A"]],
               "rho": rho, "new": new, "cen": cen, "lead": lead, "weight": lead * new,
               "axes": [], "arms": [], "first": first, "zeroth": zeroth}
        if P.static:
            self._fixed = out
        return out

    def _axis(self, c, axis) -> dict:
        """The factors of one axis at c's node level, formed when `explicit`
        reaches the axis: rho_h times g's row j on its half nodes with the
        spacings folded in (`flux`, `cross`, `time`) and `ahead`; the time
        factors add the axis's share to c's weight and arms.  A static
        provider's are formed once and kept in c; any other's die once applied."""
        if axis < len(c["axes"]):
            return c["axes"][axis]
        span, s, h, j = self._span, self.strides[axis], self.h, axis + 1
        cm = c["node"]
        g, A = cm["g"], cm["A"]

        def half(x):  # average onto the axis's half nodes
            out = np.add(*_pair(span(x, s), s))
            out *= 0.5
            return out

        flux = 0.5j * half(A[j])
        np.subtract(1.0 / h[axis], flux, out=flux)
        rhoh = half(cm["rho"])
        time, *row = (half(x) for x in g[j])
        for x in (time, *row):
            np.multiply(rhoh, x, out=x)  # rho_h g's row j
        weights = {"flux": np.multiply(row.pop(axis), flux, out=flux),
                   "ahead": np.subtract(1.0 / h[axis], 0.5j * span(A[j])),
                   "cross": list(zip([k for k in range(1, self.n + 1) if k != j], row))}
        for k, x in weights["cross"]:
            x /= 4.0 * h[k - 1]
        if self.provider.time_cross:
            # u^{m+1} enters w0p through the centred differences, and the
            # cross flux rho_h g^{j0} / (2 dt) through its half-node average
            time /= 4.0 * self.dt
            weights["time"] = time
            ahead, behind = _pair(time, s)
            up = ahead * weights["ahead"]
            down = weights["ahead"].conj()
            np.multiply(behind, down, out=down)
            c["weight"] += up
            c["weight"] -= down
            slope = c["lead"] * c["cen"][axis]
            c["arms"].append((np.add(slope, up, out=up), np.add(slope, down, out=down)))
        if self.provider.static:
            c["axes"].append(weights)
        return weights

    def _centre(self, c):
        """-1/(rho centre), once every axis has added its share; the arms of
        u^{m+1}'s (2n+1)-point stencil are then scaled to it, in place."""
        if "per_centre" not in c:
            weight = c.pop("weight")
            if c["first"] is not None:
                weight -= c["first"][0]
            per_centre = c["per_centre"] = np.divide(1.0, weight, out=weight)
            behind = per_centre * -1.0
            for plus, minus in c["arms"]:
                plus *= per_centre
                minus *= behind
        return c["per_centre"]

    def _add_axis(self, c, axis, um, d0, total):
        """Add to total the axis's part of the residual: the flux on its half
        nodes at level m, weighed ahead of each node and behind it.  The axis's
        factors are reached here and, unless kept by a static provider, live
        only as long as this call, as does each term of the flux."""
        span, s, weights = self._span, self.strides[axis], self._axis(c, axis)
        u = span(um, s)
        ahead, behind = _pair(u, s)
        w = weights["flux"] * ahead
        term = weights["flux"].conj()
        w -= np.multiply(term, behind, out=term)
        if d0 is not None:
            term = np.add(*_pair(span(d0, s), s))
            w -= np.multiply(weights["time"], term, out=term)
        for k, weight in weights["cross"]:
            term = span(c["A"][k], s) * u
            term *= 2j * self.h[k - 1]
            sk = self.strides[k - 1]
            term -= np.subtract(*_pair(span(um, s + sk), 2 * sk))
            term = np.add(*_pair(term, s))
            w -= np.multiply(weight, term, out=term)
        up, down = _pair(w, s)
        total += up * weights["ahead"]
        # down overlaps up, which is added already
        total -= np.multiply(down, weights["ahead"].conj(), out=down)

    def explicit(self, c, um1, um, w0q, forcing_val=None):
        """r0, the terms of the residual without u^{m+1} over the stencil's
        centre on the band, and wum, the u^m part of w0p.  r0 is formed in
        w0q's array, which the step reads no more.  Each axis's factors are
        formed when the loop reaches the axis, so c gets its centre and arms
        here."""
        span, dt = self._span, self.dt
        A, ub = c["A"], span(um)
        wum = _side(c["cen"], self._steps(um))
        wum -= c["new"].conj() * ub
        total = np.multiply(c["lead"].conj(), w0q, out=w0q)
        np.subtract(c["lead"] * wum, total, out=total)

        # node-centred covariant derivatives at level m, times -2 dt and -2 h_k;
        # d0 lacks its u^{m+1} part, which the stencil's arms carry
        d0 = None
        if self.provider.time_cross:
            d0 = A[0] * um.ravel()
            d0 *= 2j * dt
            d0 += um1.ravel()
        for axis in range(self.n):
            self._add_axis(c, axis, um, d0, total)

        first = c["first"]
        if first is not None:
            total += first[0] * span(um1)
            for b, step in zip(first[1:], self._steps(um)):
                total -= b * step
        if c["zeroth"] is not None:
            total -= c["zeroth"] * ub
        if forcing_val is not None:
            total += c["rho"] * span(forcing_val)
        return np.multiply(self._centre(c), total, out=total), wum

    def delta(self, c, r0, up1):
        """The residual at up1 over the stencil's centre, on the band: r0 + up1
        + sum over axes of the arms times the neighbours; zero on the edge columns."""
        out = r0 + self._span(up1)
        for (plus, minus), s in zip(c["arms"], self.strides):
            ahead, behind = _pair(self._span(up1, s), 2 * s)
            out += plus * ahead
            out += minus * behind
        out[self._edges] = 0.0
        return out

    def w0p(self, c, wum, up1):
        """Flux w_0 at the half level after the step, from u^{m+1} and the u^m part."""
        w = _side(c["cen"], self._steps(up1))
        w += c["new"] * self._span(up1)
        w += wum
        return w

    def apply(self, um1, um, up1, t, forcing_val=None):
        """Residual form: value of L_h u (+ first order + zeroth) - F at level m
        on the interior nodes; zero on the boundary."""
        c = self.level(t)
        r0, _ = self.explicit(c, um1, um, self.time_flux(t - 0.5 * self.dt, um, um1), forcing_val)
        out = np.zeros(up1.size, dtype=complex)
        out[self.band] = self.delta(c, r0, up1) / (-c["rho"] * c["per_centre"])  # times the centre
        return out.reshape(up1.shape)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def cfl_time_step(metric: MetricField, grid: SpacetimeGrid, fraction: float = 0.5) -> float:
    """Stable time step: fraction * h_min / max_characteristic_speed, the cone bound
    at nine levels; solve_ibvp checks the same bound at every level and refuses the
    step on a metric that is faster between those nine.  Raises NonHyperbolic at a
    level of the nine that fails a cone condition, where no bound exists."""
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
    only; memory then does not grow with the number of time levels).  With
    time cross terms each step sweeps from the cubic extrapolation of the
    last four levels (quadratic, then linear, while fewer exist) and raises
    SweepNotConverged when the sweeps do not meet _SWEEP_TOL within
    max_sweeps; without them one sweep solves the step.  Raises Instability
    when the field peak passes _GUARD_FACTOR times the data scale or is NaN.

    With `check`, each node level is checked before the first step that reads
    it sweeps, raising NonHyperbolic (condition, node, value) or CFLViolation
    (the time).  diagnostics["cfl"] holds dt * v / h per node level, with v
    _cone's closed-form speed bound, the speed cfl_time_step reads;
    cfl_number is its maximum.
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

    u_prev = np.zeros(shape, dtype=complex)
    u_curr = np.zeros(shape, dtype=complex)
    if initial is not None:
        u_prev = np.asarray(initial[0], dtype=complex).copy()
        u_curr = np.asarray(initial[1], dtype=complex).copy()
    else:
        boundary_fill(0, u_prev)
        boundary_fill(1, u_curr)

    iterate = provider.time_cross
    axes = grid.axes()[1:]
    courant = grid.dt / min(grid.h)
    cfl = np.empty(nt)
    limit = cfl_fraction * (1.0 + 1e-9)

    def check_level(level: int):
        """Cone and CFL check of a node level the step has read; sets cfl[level]."""
        if provider.static and level:
            cfl[level] = cfl[0]
            return
        t = times[level]
        vmax = _level_speed(provider.at(t)["g"], t, axes, check)
        cfl[level] = courant * vmax
        if check and cfl[level] > limit:
            raise CFLViolation(
                f"dt = {grid.dt:.3e} exceeds {cfl_fraction} * h / v_max = "
                f"{cfl_fraction * min(grid.h) / vmax:.3e} at t = {t:.4f}"
            )

    force = spatial = None
    if forcing is not None:
        # every level's forcing env shares the spatial axes, broadcast to the
        # grid's shape: no mesh is stored, and a callable cannot write to them
        force = _complex_evaluator(forcing)
        spatial = {f"x{i}": np.broadcast_to(ax, shape)
                   for i, ax in enumerate(np.ix_(*axes), start=1)}

    def forcing_at(t: float):
        if force is None:
            return None
        return force(dict(spatial, x0=np.full(shape, float(t))), shape)

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
    # u^{m-2} and u^{m-3}, newest first, for the sweeps' start; held only
    # when the steps sweep more than once
    older = []
    peak = float(np.max(np.abs(u_curr)))
    for m in range(1, nt - 1):
        t = times[m]
        # extrapolate through every level held: cubic once four exist
        if len(older) == 2:
            up1 = u_curr + older[0]
            up1 *= 4.0
            up1 -= 6.0 * u_prev
            up1 -= older[1]
        elif older:
            up1 = u_curr - u_prev
            up1 *= 3.0
            up1 += older[0]
        else:
            up1 = 2.0 * u_curr
            up1 -= u_prev
        if iterate:  # u^{m-3} is read no more
            older = [u_prev] + older[:1]
        boundary_fill(m + 1, up1)
        fval = forcing_at(t)
        # before the step forms its coefficients from it: off the cone, rho is NaN
        check_level(m + 1)
        coeffs = stepper.level(t)
        r0, wum = stepper.explicit(coeffs, u_prev, u_curr, w0q, forcing_val=fval)
        scale = max(peak, 1.0)
        for sweep in range(1, max_sweeps + 1):
            delta = stepper.delta(coeffs, r0, up1)
            up1.ravel()[stepper.band] -= delta
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
        # freed before the next step's `level` builds its arrays
        coeffs = r0 = wum = delta = None

        u_prev, u_curr = u_curr, up1
        keep(m + 1, u_curr)

        data_scale = max([data_scale] + [float(np.max(np.abs(u_curr[face]))) for face in faces])
        if fval is not None:
            data_scale = max(data_scale, float(np.max(np.abs(fval))) * span * span)
        peak = float(np.max(np.abs(u_curr)))  # the next step's scale, too
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

    return _integrate(integrand, grid.h)


def graph_norm_sq(u: WaveField, m: int) -> float:
    """Discrete H1 x L2 graph norm ||u(t)||_1^2 + ||u_t(t)||_0^2 at level m."""
    grid = u.grid
    um = u.slice(m)
    total = np.abs(um) ** 2 + np.abs(_time_derivative(u, m)) ** 2
    for axis in range(grid.n):
        total = total + np.abs(np.gradient(um, grid.h[axis], axis=axis)) ** 2
    return _integrate(total, grid.h)


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
