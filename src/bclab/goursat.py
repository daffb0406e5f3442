"""Null-phase charts near the controlled face and the normalized operator.

The pipeline turns the variable-coefficient wave operator on a slab
0 <= x_n <= depth into a unit-speed normal form on a rectangle in chart
coordinates:

    solve_eikonal        two families of null phase functions seeded on the
                         face, one advancing with time ('+') and one receding
                         ('-'), integrated along their own characteristics
    solve_transport_phi  lateral coordinates frozen along the receding
                         family's characteristic curves
    build_chart          the boundary-normal chart (time, lateral, depth)
                         built from the phase pair and the receding field's
                         lateral coordinates, with the gauge phase that
                         removes the outgoing potential component and the
                         lateral volume factor
    transform_operator   coefficients of the operator rewritten in the chart,
                         with unit speeds in the (time, depth) plane
    solve_transformed_ibvp  forward run of the normalized operator

Arrays follow the package layout [time, lateral..., depth]; the controlled
face sits at depth zero and the chart restricts to the identity there.
Characteristic launches are independent per boundary node and integrate as
one vectorized batch, so results are deterministic regardless of how the
work is scheduled.

Every move between a characteristic fan and a tensor grid goes through one
n-axis 4-point Lagrange stencil, _Stencil, at fractional grid indices; a
stencil is located once and applied to every array it reads.  Fans move onto
tensor nodes one depth row at a time: each row is a fold-free image of the
regular launch lattice, so the launch indices of the ray through every node
come from Newton on the row's interpolant, warm-started from the row above.
The phase and the lateral coordinates are affine in those indices; the
converged row's stencil gives the covector slots.  solve_eikonal inverts the
fan on the grid's window only.  build_chart first places the pull's virtual
receding rays, launched on the chart's own lattice, on each row of the
trimmed receding fan, then inverts both fans again on the read box: the
nodes of the fans' coverage overlap that those rays' stencils, the slab
differences and the window read.  It samples every slab field there once,
one stencil per fan row for all fields.  Along each ray the pull's depth
lookup and row values use the 1-axis form of the same stencil, _row_lagrange,
one fractional row per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .expr import Call, Const, Expr
from .geometry import MetricField, SpacetimeGrid, _as_expr, _cone, _det, _solve_small
from .solver import SampledCoefficients, WaveField, solve_ibvp

__all__ = [
    "CharacteristicCrossing",
    "FocalRegion",
    "EikonalField",
    "GoursatChart",
    "TransformedOperator",
    "solve_eikonal",
    "solve_transport_phi",
    "build_chart",
    "transform_operator",
    "solve_transformed_ibvp",
    "transformed_time_step",
    "find_chart_depth",
    "potential_term",
    "potential_symbolic",
    "sample_field",
    "export_chart_csv",
    "export_operator_npz",
]


def __getattr__(name: str):
    # bench/tracing.py still wraps these scipy names here when it traces a run;
    # this goes with the bench change that empties its _INTERP_NAMES
    if name in ("Delaunay", "CloughTocher2DInterpolator", "RectBivariateSpline", "CubicSpline"):
        import scipy.interpolate
        import scipy.spatial
        return getattr(scipy.spatial if name == "Delaunay" else scipy.interpolate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CharacteristicCrossing(RuntimeError):
    """Characteristics launched from the face fold over before the requested depth."""


class FocalRegion(RuntimeError):
    """Requested chart values land where the coordinate map degenerates."""


# ---------------------------------------------------------------------------
# Characteristic fans
# ---------------------------------------------------------------------------

def _normal_root(g: np.ndarray, ptan: np.ndarray):
    """Depth component completing a tangential covector to a null one.

    Takes the branch with the plus sign in front of the radical; since
    g^{nn} < 0 this is the branch whose two phases have strictly negative
    slope sum at the face.  Returns (root, radicand).
    """
    n = g.shape[-1] - 1
    a = g[..., n, n]
    b = sum(g[..., n, j] * ptan[..., j] for j in range(n))
    c = sum(g[..., j, k] * ptan[..., j] * ptan[..., k] for j in range(n) for k in range(n))
    radicand = b * b - a * c
    root = (-b + np.sqrt(np.maximum(radicand, 0.0))) / a
    return root, radicand


def _fan_env(n: int, pos: np.ndarray, z: float) -> dict:
    env = {f"x{i}": pos[..., i] for i in range(n)}
    env[f"x{n}"] = np.array(float(z))  # one depth per row; the plan broadcasts it
    return env


@dataclass
class _Fan:
    """One characteristic family, integrated in depth from a padded face lattice."""

    axes: tuple            # launch coordinate arrays (time, lateral...)
    depth_nodes: np.ndarray
    pos: np.ndarray        # (nz+1, *lattice, n) tangential positions
    p: np.ndarray          # (nz+1, *lattice, n+1) covector, depth component last


def _fan_row(metric: MetricField, pos: np.ndarray, ptan: np.ndarray, z: float):
    """(dH, g, pn) of a fan row at depth z: the Hamiltonian gradient along
    the face and the metric at the row's points, from one plan
    (MetricField.eval_ham), and the null depth covector component.  Raises
    CharacteristicCrossing where no real root exists."""
    g, dH = metric.eval_ham(_fan_env(metric.n, pos, z), pos.shape[:-1], count=metric.n)
    pn, radicand = _normal_root(g, ptan)
    if np.any(radicand <= 0.0):
        raise CharacteristicCrossing(
            f"face foliation degenerates near depth {z:.4f} (radicand <= 0)"
        )
    return dH, g, pn


def _fan_flow(metric: MetricField, row: tuple, ptan: np.ndarray):
    """Depth-parameterized characteristic flow of the null-phase graph at a
    row from _fan_row: the depth derivatives of the positions and of ptan.

    The velocity is 2 g p and the covector force -dH, the metric's sparse
    Hamiltonian gradient along the face only (MetricField.eval_ham, shared
    with the ray tracer in geometry), both divided by the depth velocity.
    """
    n = metric.n
    ham_grad, g, pn = row
    pfull = np.concatenate([ptan, pn[..., None]], axis=-1)
    v = 2.0 * sum(g[..., k] * pfull[..., k, None] for k in range(n + 1))
    vn = v[..., n]
    dH = ham_grad(pfull)
    dpos = v[..., :n] / vn[..., None]
    dptan = -dH / vn[..., None]
    return dpos, dptan


def _fan_rhs(metric: MetricField, pos: np.ndarray, ptan: np.ndarray, z: float):
    return _fan_flow(metric, _fan_row(metric, pos, ptan, z), ptan)


def _check_fold(pos_row: np.ndarray, side: str, z: float):
    if pos_row.shape[-1] == 1:
        if np.any(np.diff(pos_row[..., 0]) <= 0.0):
            raise CharacteristicCrossing(
                f"'{side}' family folds over by depth {z:.4f}"
            )
    else:
        d00 = np.gradient(pos_row[..., 0], axis=0)
        d01 = np.gradient(pos_row[..., 0], axis=1)
        d10 = np.gradient(pos_row[..., 1], axis=0)
        d11 = np.gradient(pos_row[..., 1], axis=1)
        if np.any(d00 * d11 - d01 * d10 <= 0.0):
            raise CharacteristicCrossing(
                f"'{side}' family folds over by depth {z:.4f}"
            )


def _slope_bound(metric: MetricField, grid: SpacetimeGrid) -> float:
    """Largest tangential drift per unit depth of either family at the face."""
    pos = np.stack(np.meshgrid(*grid.face_axes(), indexing="ij"), axis=-1)
    worst = 0.0
    for sign in (1.0, -1.0):
        ptan = np.zeros(pos.shape)
        ptan[..., 0] = sign
        dpos, _ = _fan_rhs(metric, pos, ptan, 0.0)
        worst = max(worst, float(np.max(np.abs(dpos))))
    return worst


def _integrate_fan(metric, side, grid, depth, pad_time, pad_lat) -> _Fan:
    n = grid.n
    dt = grid.dt
    hz = grid.h[-1]
    nz = int(round(depth / hz))
    if nz < 3:
        raise ValueError("slab depth must cover at least three depth steps")

    m_pad = int(math.ceil(pad_time / dt)) + 2
    axes = [grid.t1 + dt * np.arange(-m_pad, grid.nt + m_pad)]
    for i in range(1, n):
        h = grid.h[i - 1]
        k_pad = int(math.ceil(pad_lat / h)) + 2
        axes.append(h * np.arange(-k_pad, grid.shape[i - 1] + k_pad))
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = mesh[0].shape

    pos = np.empty((nz + 1,) + lattice + (n,))
    p = np.empty((nz + 1,) + lattice + (n + 1,))
    cur_pos = np.stack(mesh, axis=-1)
    cur_p = np.zeros(lattice + (n,))
    cur_p[..., 0] = 1.0 if side == "+" else -1.0

    zs = hz * np.arange(nz + 1)
    for m in range(nz + 1):
        row = _fan_row(metric, cur_pos, cur_p, zs[m])
        pos[m], p[m, ..., :n], p[m, ..., n] = cur_pos, cur_p, row[2]
        _check_fold(pos[m], side, zs[m])
        if m == nz:
            break
        k1 = _fan_flow(metric, row, cur_p)
        k2 = _fan_rhs(metric, cur_pos + 0.5 * hz * k1[0], cur_p + 0.5 * hz * k1[1], zs[m] + 0.5 * hz)
        k3 = _fan_rhs(metric, cur_pos + 0.5 * hz * k2[0], cur_p + 0.5 * hz * k2[1], zs[m] + 0.5 * hz)
        k4 = _fan_rhs(metric, cur_pos + hz * k3[0], cur_p + hz * k3[1], zs[m] + hz)
        cur_pos = cur_pos + (hz / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        cur_p = cur_p + (hz / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])

    return _Fan(tuple(axes), zs, pos, p)


# ---------------------------------------------------------------------------
# Fan -> tensor-slab resampling (row by row)
# ---------------------------------------------------------------------------

def _coverage_axes(fan: _Fan, grid: SpacetimeGrid):
    """Grid-aligned (time, lateral) axes of the box every fan row covers.

    For each direction the bound comes from the boundary slice of the launch
    lattice: the box lies to the right of every image of the first slice and
    to the left of every image of the last one, which keeps it inside the
    fold-free rows.  The box must contain the grid's own window.
    """
    n = grid.n
    spacings = grid.steps()[:-1]
    origins = [ax[0] for ax in grid.face_axes()]
    spans = [(grid.t1, grid.t2)] + [(0.0, grid.extent[i - 1]) for i in range(1, n)]
    inset = 1 if n > 1 else 0
    axes = []
    for d in range(n):
        comp = fan.pos[..., d]
        lo = float(np.max(np.take(comp, 0, axis=d + 1)))
        hi = float(np.min(np.take(comp, -1, axis=d + 1)))
        step, org = spacings[d], origins[d]
        i_lo = int(math.ceil((lo - org) / step - 1e-9)) + inset
        i_hi = int(math.floor((hi - org) / step + 1e-9)) - inset
        have = (org + i_lo * step, org + i_hi * step)
        if have[0] > spans[d][0] + 1e-12 or have[1] < spans[d][1] - 1e-12:
            raise ValueError(
                f"characteristic fan covers [{have[0]:.4f}, {have[1]:.4f}] on x{d}, but the "
                f"slab window needs [{spans[d][0]:.4f}, {spans[d][1]:.4f}]; "
                "increase pad_time/pad_lat"
            )
        axes.append(org + step * np.arange(i_lo, i_hi + 1))
    return tuple(axes)


_NEWTON_STEPS = 20


def _grid_indices(points: np.ndarray, axes) -> np.ndarray:
    """Fractional indices of points[..., d] on the regular axes[d]."""
    return (points - [ax[0] for ax in axes]) / [ax[1] - ax[0] for ax in axes]


def _resample_rows(fan: _Fan, target_axes: tuple, cover_axes: tuple):
    """Launch coordinates and covector slots of the ray through each target node.

    Every fan row is a fold-free image of the regular launch lattice, so
    pos[m](indices) = node has one solution in the lattice.  Newton on the
    row's Lagrange interpolant finds it: row 0 is the lattice itself, where
    the affine guess is exact, and each later row starts from the previous
    row's solution.  Each step locates one _Stencil and takes its slopes only
    when the residual check fails; a step inverts the 1x1 or 2x2 Jacobian in
    closed form (_solve_small), since a launch lattice has at most two axes.
    The converged stencil also gives the row's slots, and the launch
    coordinates are affine in the indices.  The tolerance scales with the
    fan's coverage box cover_axes, not with the targets, so a node takes the
    same steps on any target box that holds it.

    Returns (launch, slots) shaped (*target_counts, nrows, n) and
    (*target_counts, nrows, n+1), the depth row index before the component.
    Raises ValueError naming the row when a node does not converge or lands
    off the lattice.
    """
    target = np.stack(np.meshgrid(*target_axes, indexing="ij"), axis=-1)
    tol = 1e-13 * max(1.0, *(abs(float(ax[i])) for ax in cover_axes for i in (0, -1)))
    lattice = fan.pos.shape[1:-1]
    top = np.array(lattice) - 1.0
    idx = _grid_indices(target, fan.axes)
    nrows, n = fan.pos.shape[0], fan.pos.shape[-1]
    launch = np.empty(idx.shape[:-1] + (nrows, n))
    slots = np.empty(idx.shape[:-1] + (nrows, n + 1))
    for row, pos in enumerate(fan.pos):
        for step in range(_NEWTON_STEPS + 1):
            stencil = _Stencil(idx, lattice)
            res = stencil(pos) - target
            norm = np.max(np.abs(res), axis=-1)
            if np.all(norm <= tol) or step == _NEWTON_STEPS:
                break
            idx = idx - _solve_small(stencil.slopes(), res)
        bad = ~(norm <= tol) | np.any((idx < -1e-9) | (idx > top + 1e-9), axis=-1)
        if np.any(bad):
            raise ValueError(
                f"fan row {row} (depth {fan.depth_nodes[row]:.4f}): {int(np.sum(bad))} target "
                f"nodes do not invert inside the launch lattice (worst residual "
                f"{float(np.max(norm[bad])):.2e}, tolerance {tol:.2e}); increase pad_time/pad_lat"
            )
        launch[..., row, :] = idx
        slots[..., row, :] = stencil(fan.p[row])
    for d, ax in enumerate(fan.axes):
        launch[..., d] = ax[0] + (ax[1] - ax[0]) * launch[..., d]
    return launch, slots


def _phase_on(fan: _Fan, side: str, grid: SpacetimeGrid, target_axes: tuple,
              cover_axes: tuple):
    """(psi, grad, lateral launch coordinates) of one family on the target
    nodes times the depth rows: the phase is the launch time shifted to the
    window, and grad the ray's covector slots (_resample_rows)."""
    launch, grad = _resample_rows(fan, target_axes, cover_axes)
    psi = launch[..., 0] - grid.t1 if side == "+" else grid.t2 - launch[..., 0]
    return psi, grad, [launch[..., j] for j in range(1, grid.n)]


def _slab_env(*axes) -> dict:
    """Meshgrid env {'x0': ..., 'xn': ...} over the axes (time, lateral..., depth)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return {f"x{i}": m for i, m in enumerate(mesh)}


# ---------------------------------------------------------------------------
# Eikonal fields
# ---------------------------------------------------------------------------

@dataclass
class EikonalField:
    """One null phase family sampled on the slab 0 <= x_n <= depth.

    psi holds the phase, grad its spacetime gradient with the depth component
    recomputed from the null constraint along each ray.  Both live on the
    grid's (time, lateral) window times the slab depth nodes, depth last.
    The field keeps its fan and the fan's coverage box (_cover_axes), the
    grid-aligned (time, lateral) box every fan row covers, so build_chart can
    invert the fan again on the nodes it reads; a '-' field also keeps the
    launch lateral coordinates on the window (_phi).
    """

    psi: np.ndarray
    side: str
    grad: np.ndarray
    grid: SpacetimeGrid
    depth: float
    depth_nodes: np.ndarray
    metric: MetricField
    _fan: _Fan
    _cover_axes: tuple
    _phi: list

    def residual(self) -> np.ndarray:
        """Null-constraint defect of the cached gradient at every slab node."""
        g = self.metric.eval_g(self._env(), self.psi.shape)
        return np.einsum("...jk,...j,...k->...", g, self.grad, self.grad)

    def residual_fd(self) -> np.ndarray:
        """Null-constraint defect with the gradient re-taken by differences."""
        parts = np.gradient(self.psi, *self.grid.steps(), edge_order=2)
        grad = np.stack(parts, axis=-1)
        g = self.metric.eval_g(self._env(), self.psi.shape)
        return np.einsum("...jk,...j,...k->...", g, grad, grad)

    def _env(self) -> dict:
        return _slab_env(*self.grid.face_axes(), self.depth_nodes)

    def boundary_slope(self) -> np.ndarray:
        """Depth derivative of the phase on the face x_n = 0."""
        return self.grad[..., 0, self.grid.n]


def solve_eikonal(metric: MetricField, side: str, grid: SpacetimeGrid, depth: float,
                  *, pad_time: float | None = None, pad_lat: float | None = None) -> EikonalField:
    """Integrate one null phase family from the face down to the given depth.

    side '+' seeds the phase advancing with time, '-' the receding one.  The
    phase is frozen along each characteristic; rays launch from a padded face
    lattice, and every depth row of the fan is inverted for the launch point
    of the ray through each node of the grid's window (see the module notes).
    The phase is the launch time shifted to the window; a '-' field also keeps
    the launch lateral coordinates, which solve_transport_phi returns.
    Raises CharacteristicCrossing when the family folds over before reaching
    the depth, and ValueError when the fan's coverage box misses the window or
    a row does not invert inside the padded lattice.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    if not 0.0 < depth:
        raise ValueError("depth must be positive")
    if pad_time is None or pad_lat is None:
        default_time, default_lat = _default_pads(grid, depth, _slope_bound(metric, grid))
        pad_time = default_time if pad_time is None else pad_time
        pad_lat = default_lat if pad_lat is None else pad_lat

    fan = _integrate_fan(metric, side, grid, depth, pad_time, pad_lat)
    cover = _coverage_axes(fan, grid)
    window = tuple(ax[s] for ax, s in zip(cover, _window_slices(cover, grid.face_axes())))
    psi, grad, phi = _phase_on(fan, side, grid, window, cover)
    return EikonalField(
        psi=psi,
        side=side,
        grad=grad,
        grid=grid,
        depth=fan.depth_nodes[-1],
        depth_nodes=fan.depth_nodes,
        metric=metric,
        _fan=fan,
        _cover_axes=cover,
        _phi=phi if side == "-" else [],
    )


def _default_pads(grid: SpacetimeGrid, depth: float, slope: float) -> tuple:
    """(pad_time, pad_lat) launch margins for a fan reaching the given depth."""
    drift = 1.6 * depth * slope
    return drift + 0.5 * (grid.t2 - grid.t1) + 4.0 * grid.dt, drift + 4.0 * max(grid.h)


def _window_slices(axes, window_axes) -> tuple:
    """Slices of the regular axes that select window_axes, a window on the same lattice."""
    sl = []
    for ax, win in zip(axes, window_axes):
        i0 = int(round((win[0] - ax[0]) / (ax[1] - ax[0])))
        if not np.isclose(ax[i0], win[0], atol=1e-9):
            raise AssertionError("axes misaligned with the window")
        sl.append(slice(i0, i0 + len(win)))
    return tuple(sl)


def solve_transport_phi(metric: MetricField, psi_minus: EikonalField,
                        grid: SpacetimeGrid) -> list:
    """Lateral coordinates carried along the receding family's characteristics.

    Each field equals its launch value on the face and is constant along the
    rays of psi_minus, which realizes the defining first-order transport
    equation exactly at ray points.  solve_eikonal already inverted the fan
    on the grid's window for those launch values, so this returns the n-1
    window arrays it kept; neither metric nor grid is read.
    """
    if psi_minus.side != "-":
        raise ValueError("transport runs along the receding ('-') family")
    return list(psi_minus._phi)


# ---------------------------------------------------------------------------
# Cubic Lagrange stencils (fan resampling and the chart pulls)
# ---------------------------------------------------------------------------

def _lagrange_weights(t: np.ndarray):
    wm1 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w0 = (t * t - 1.0) * (t - 2.0) / 2.0
    wp1 = -t * (t + 1.0) * (t - 2.0) / 2.0
    wp2 = t * (t * t - 1.0) / 6.0
    return wm1, w0, wp1, wp2


def _lagrange_dweights(t: np.ndarray):
    dm1 = -(3.0 * t * t - 6.0 * t + 2.0) / 6.0
    d0 = (3.0 * t * t - 4.0 * t - 1.0) / 2.0
    dp1 = -(3.0 * t * t - 2.0 * t - 2.0) / 2.0
    dp2 = (3.0 * t * t - 1.0) / 6.0
    return dm1, d0, dp1, dp2


def _row_lagrange(F: np.ndarray, r: np.ndarray, weights) -> np.ndarray:
    """4-point Lagrange evaluation along axis 0 of F (nrows, *cols) at one
    fractional row r[cols] per column; weights is _lagrange_weights for values
    or _lagrange_dweights for slopes.  Near an edge the stencil clamps."""
    i0 = np.clip(np.floor(r).astype(int), 1, F.shape[0] - 3)
    out = np.zeros(i0.shape, dtype=F.dtype)
    for off, w in zip((-1, 0, 1, 2), weights(r - i0)):
        out += w * np.take_along_axis(F, (i0 + off)[None, ...], axis=0)[0]
    return out


def _contract(cells: list, weights) -> list:
    """Contract the last stencil axis of a lexicographic list of gathers."""
    return [sum(w * c for w, c in zip(weights, cells[i:i + 4]))
            for i in range(0, len(cells), 4)]


class _Stencil:
    """The 4-point Lagrange stencil of fractional indices on a grid, located once.

    fracs[..., d] indexes axis d of a grid of the given shape; near an edge
    the stencil clamps to the four edge nodes.  The stencil keeps each
    point's flat cell base and value weights, and applies them to any array
    on that grid: calling it on F (*shape, k) returns the (..., k) values.
    slopes() then returns their (..., k, d) derivatives along each axis from
    the same gather.  Sum-factorized: one flat gather per stencil node, then
    one contraction per axis, last axis first.
    """

    def __init__(self, fracs: np.ndarray, shape: tuple):
        ndim = len(shape)
        strides = [int(np.prod(shape[d + 1:])) for d in range(ndim)]
        self.base, self.ts = 0, []
        for d in range(ndim):
            i0 = np.clip(np.floor(fracs[..., d]).astype(int), 1, shape[d] - 3)
            self.base = self.base + strides[d] * i0
            self.ts.append(fracs[..., d] - i0)
        self.offsets = [int(np.dot(offs, strides)) for offs in product((-1, 0, 1, 2), repeat=ndim)]
        self.weights = [_lagrange_weights(t) for t in self.ts]
        self._partial = None

    def __call__(self, F: np.ndarray) -> np.ndarray:
        # components first, so the weights broadcast over the trailing point axes
        planes = np.moveaxis(F, -1, 0).reshape(F.shape[-1], -1)
        # partial[j]: the last j axes contracted with value weights
        partial = [[planes.take(self.base + off, axis=1) for off in self.offsets]]
        for w in reversed(self.weights):
            partial.append(_contract(partial[-1], w))
        self._partial = partial
        return np.moveaxis(partial[-1][0], 0, -1)

    def slopes(self) -> np.ndarray:
        """Derivatives of the last call's values along each grid axis."""
        ndim = len(self.ts)
        jac = []
        for d in range(ndim):
            part = _contract(self._partial[ndim - 1 - d], _lagrange_dweights(self.ts[d]))
            for e in reversed(range(d)):
                part = _contract(part, self.weights[e])
            jac.append(part[0])
        return np.moveaxis(np.stack(jac, axis=-1), 0, -2)


# ---------------------------------------------------------------------------
# Chart construction
# ---------------------------------------------------------------------------

@dataclass
class GoursatChart:
    """Boundary-normal chart assembled from a null phase pair.

    Slab arrays (psi fields, y_of_x, jacobian_det, focal_mask) live on the
    grid window times depth nodes.  Chart-space arrays (d_gauge, g1, x_at_y
    and the pulled coefficient fields) live on y_grid, whose depth axis is
    the distance to the face in chart coordinates.
    """

    psi_plus: EikonalField
    psi_minus: EikonalField
    phi: list
    y_of_x: np.ndarray
    jacobian_det: np.ndarray
    focal_mask: np.ndarray
    d_gauge: np.ndarray
    g1: np.ndarray
    y_grid: SpacetimeGrid
    x_at_y: np.ndarray
    T1: float
    T2: float
    metric: MetricField
    grid: SpacetimeGrid
    depth_nodes: np.ndarray
    j_max: float
    _pull: dict

    # the linear half of the chart: (s, tau) -> (y0, yn)
    @staticmethod
    def pair_to_normal(s, tau, T1, T2):
        y0 = 0.5 * (s - tau) + 0.5 * (T2 + T1)
        yn = 0.5 * (T2 - T1 - s - tau)
        return y0, yn

    @staticmethod
    def normal_to_pair(y0, yn, T1, T2):
        return y0 - yn - T1, T2 - y0 - yn

    @staticmethod
    def pair_jacobian() -> float:
        """|d(yn, y0)/d(s, tau)| of the linear half; 1/2 by construction."""
        return abs(_det([[-0.5, -0.5], [0.5, -0.5]]))


def build_chart(psi_plus: EikonalField, psi_minus: EikonalField, phi: list,
                T1: float, T2: float, *, y_depth: float | None = None,
                j_max: float = 1e3) -> GoursatChart:
    """Assemble the boundary-normal chart from the phase pair.

    The chart coordinates are y0 (time), the transported lateral fields, and
    the depth yn; y0 and yn are linear in the two phases, and on the face the
    map restricts to the identity.  phi must be what solve_transport_phi
    returned for psi_minus and is only checked for shape and kept on the
    chart.  Coefficient fields of the transformed operator are computed on
    the slab, sampled once along virtual receding rays launched from the
    chart's time lattice (_virtual_rays, _pull_to_chart), and re-gridded onto
    a rectangle in chart coordinates whose depth step is three times its time
    step (the forward run then sits safely inside the stability bound).

    The slab fields live on the read box (_read_box): the part of the two
    fans' coverage overlap that the virtual rays' stencils and the window
    read.  Both fans are inverted again there, so every stencil and
    difference sees the values it would on the whole overlap.  The refusals
    below, and the focal mask, cover only those nodes.

    y_depth caps the chart depth; the default takes what the fan coverage
    supports.  Nodes where the Jacobian leaves [1/j_max, j_max], or where the
    phase-pair normalization loses positivity, are flagged in focal_mask.
    Raises FocalRegion where the one-form system for the hatted potentials is
    singular at a node of the read box.
    """
    if psi_plus.side != "+" or psi_minus.side != "-":
        raise ValueError("build_chart expects ('+', '-') phase fields in that order")
    grid = psi_plus.grid
    if psi_minus.grid is not grid and psi_minus.grid != grid:
        raise ValueError("phase fields live on different grids")
    if abs(T1 - grid.t1) > 1e-12 or abs(T2 - grid.t2) > 1e-12:
        raise ValueError("chart window must match the grid's time window")
    if len(phi) != grid.n - 1:
        raise ValueError("need one transported lateral field per lateral axis")
    for p in phi:
        if p.shape != psi_minus.psi.shape:
            raise ValueError("transported fields must share the phase slab shape")
    metric = psi_plus.metric
    n = grid.n
    hz = grid.h[-1]
    depth_nodes = psi_plus.depth_nodes
    if len(depth_nodes) != len(psi_minus.depth_nodes) or abs(psi_plus.depth - psi_minus.depth) > 1e-12:
        raise ValueError("phase fields sampled to different depths")

    # overlap of the two coverage boxes (same lattice)
    overlap = []
    for ax_p, ax_m, step in zip(psi_plus._cover_axes, psi_minus._cover_axes, grid.steps()[:-1]):
        lo = max(ax_p[0], ax_m[0])
        hi = min(ax_p[-1], ax_m[-1])
        k0 = int(round((lo - ax_p[0]) / step))
        k1 = int(round((hi - ax_p[0]) / step))
        overlap.append(ax_p[k0:k1 + 1])
    overlap = tuple(overlap)

    # the pull's virtual rays, and the box of overlap nodes they and the window read
    rays = _virtual_rays(_trim_fan(psi_minus._fan, overlap), grid, T1, T2, y_depth)
    fracs = _grid_indices(rays.pos, overlap)
    box = _read_box(fracs, overlap, grid.face_axes())
    box_axes = tuple(ax[s] for ax, s in zip(overlap, box))
    psi_p, grad_p, _ = _phase_on(psi_plus._fan, "+", grid, box_axes, psi_plus._cover_axes)
    psi_m, grad_m, phi_box = _phase_on(psi_minus._fan, "-", grid, box_axes, psi_minus._cover_axes)

    dphi = [np.stack(np.gradient(p, *grid.steps(), edge_order=2), axis=-1) for p in phi_box]

    env = _slab_env(*box_axes, depth_nodes)
    slab_shape = psi_p.shape
    g = metric.eval_g(env, slab_shape)

    ghpm = -0.5 * np.einsum("...jk,...j,...k->...", g, grad_p, grad_m)
    ghpj = [0.5 * np.einsum("...jk,...j,...k->...", g, grad_p, dphi[j]) for j in range(n - 1)]
    ghjk = [[np.einsum("...jk,...j,...k->...", g, dphi[a], dphi[b]) for b in range(n - 1)]
            for a in range(n - 1)]
    g1_x = 1.0 / np.abs(_det(ghjk)) if ghjk else np.ones(slab_shape)

    # chart map and its Jacobian on the slab
    y0, yn = GoursatChart.pair_to_normal(psi_p, psi_m, T1, T2)
    y_comps = [y0] + phi_box + [yn]
    jac_rows = [0.5 * (grad_p - grad_m)] + dphi + [-0.5 * (grad_p + grad_m)]
    jac_det = _det([[row[..., k] for k in range(n + 1)] for row in jac_rows])
    focal = (np.abs(jac_det) > j_max) | (np.abs(jac_det) < 1.0 / j_max) | (ghpm <= 0.0)

    # hatted potentials from the one-form transformation rule: M hat = A for
    # the columns -grad psi+, -grad psi-, grad phi_j; det M = +-2 jac_det
    cols = [-grad_p, -grad_m] + dphi
    M = [[col[..., i] for col in cols] for i in range(n + 1)]
    A_x = metric.eval_A(env, slab_shape)
    det_m = _det(M)
    if not np.all(det_m):
        where = np.unravel_index(int(np.argmin(np.abs(det_m))), slab_shape)
        node = tuple(float(ax[k]) for ax, k in zip(box_axes + (depth_nodes,), where))
        raise FocalRegion(f"one-form system singular at slab node {node}: det {det_m[where]:.3g}")
    Ap_x, Am_x, *Aj_x = _solve_small(M, [A_x[..., i] for i in range(n + 1)])

    window = _window_slices(box_axes, grid.face_axes())
    y_of_x = np.stack([c[window] for c in y_comps], axis=-1)

    # ---- pull the coefficient fields onto a chart-space rectangle ----------
    slab_fields = {"s": psi_p, "ghpm": ghpm, "g1": g1_x,
                   "Ap": Ap_x, "Am": Am_x, "focal": focal.astype(float)}
    for j in range(n - 1):
        slab_fields[f"ghp{j}"] = ghpj[j]
        slab_fields[f"Aj{j}"] = Aj_x[j]
        for k in range(n - 1):
            slab_fields[f"gh{j}{k}"] = ghjk[j][k]

    # shifting by the box's whole-node offset is exact, so every weight is the overlap's
    y_grid, pulled, row_index = _pull_to_chart(
        rays, fracs - [sl.start for sl in box], slab_fields, grid, T1, T2)
    x_at_y = np.stack(
        [pulled[f"x{d}"] for d in range(n)] + [row_index * hz], axis=-1)

    return GoursatChart(
        psi_plus=psi_plus,
        psi_minus=psi_minus,
        phi=list(phi),
        y_of_x=y_of_x,
        jacobian_det=jac_det[window],
        focal_mask=focal[window],
        d_gauge=pulled["d"],
        g1=pulled["g1"],
        y_grid=y_grid,
        x_at_y=x_at_y,
        T1=float(T1),
        T2=float(T2),
        metric=metric,
        grid=grid,
        depth_nodes=depth_nodes,
        j_max=float(j_max),
        _pull=pulled,
    )


def _trim_fan(fan: _Fan, axes: tuple) -> _Fan:
    """Drop outer rays whose positions ever leave the box of the (time,
    lateral) axes."""
    n_tan = fan.pos.shape[-1]
    slices = []
    for d in range(n_tan):
        lo, hi = axes[d][0], axes[d][-1]
        red = tuple(a for a in range(fan.pos.ndim - 1) if a != d + 1)
        inside = (fan.pos[..., d].min(axis=red) >= lo - 1e-12) & \
                 (fan.pos[..., d].max(axis=red) <= hi + 1e-12)
        idx = np.nonzero(inside)[0]
        if idx.size < 8:
            raise ValueError(
                f"only {idx.size} of {inside.size} rays along launch axis {d} stay inside "
                f"the slab's [{lo:.4f}, {hi:.4f}], need 8; increase pads")
        slices.append(slice(idx[0], idx[-1] + 1))
    take = (slice(None),) + tuple(slices)
    return _Fan(tuple(ax[s] for ax, s in zip(fan.axes, slices)), fan.depth_nodes,
                fan.pos[take], fan.p[take])


def _read_box(fracs: np.ndarray, axes: tuple, window_axes) -> tuple:
    """Slices of the regular axes holding every node the chart reads.

    fracs[..., d] are fractional indices on axes[d].  Per axis, the hull of
    their cells is widened by the stencil's reach (-1 to +2 nodes), then by
    one node for np.gradient's edge stencil, joined with the window
    (window_axes) widened by one node, and clipped to the axes.  On the box,
    every stencil at fracs minus the box's offset clamps, weighs and reads as
    on the whole axes, and every difference at those nodes and on the window
    is a centred one wherever it is on the whole axes.
    """
    window = _window_slices(axes, window_axes)
    box = []
    for d, (ax, win) in enumerate(zip(axes, window)):
        cells = np.floor(fracs[..., d])
        lo = min(int(cells.min()) - 2, win.start - 1)   # reach -1, then the edge node
        hi = max(int(cells.max()) + 3, win.stop)        # reach +2, then the edge node
        box.append(slice(max(lo, 0), min(hi, len(ax) - 1) + 1))
    return tuple(box)


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of y over x along axis 0, from row 0 (zero) on."""
    out = np.zeros_like(y)
    np.cumsum(np.diff(x, axis=0) * (y[1:] + y[:-1]) / 2.0, axis=0, out=out[1:])
    return out


@dataclass
class _Rays:
    """Virtual receding rays of the chart pull, placed on every fan row."""

    pos: np.ndarray        # (nrows, launches, *lateral, n) tangential positions
    dty: float             # the chart's time step
    nt_y: int              # the chart's time levels
    nq_cap: int            # chart depth steps the launches support


def _virtual_rays(fan: _Fan, grid: SpacetimeGrid, T1: float, T2: float, y_depth) -> _Rays:
    """Stage one of the chart pull: rays launched on the chart's own time
    lattice and the grid's lateral nodes, placed on each row of the trimmed
    receding fan by one _Stencil located once for all rows.

    The chart's time step divides the window into the fewest steps that keep
    it within a third of the finest lateral spacing (the depth spacing for
    n = 1), and its depth step is three times that.  The launches run on
    past T2 as far as the chart depth needs, capped by y_depth and half the
    window.  Raises ValueError when the fan's launches miss the window or
    support fewer than four chart depth steps.
    """
    n = grid.n
    window = T2 - T1
    href = min(grid.h[:-1]) if n > 1 else grid.h[-1]
    steps = int(math.ceil(window / (href / 3.0)))
    dty = window / steps
    dz = 3.0 * dty
    nt_y = steps + 1

    if fan.axes[0][0] > T1 + 1e-12:
        raise ValueError(f"trimmed fan launches from t = {fan.axes[0][0]:.4f}, after the "
                         f"window start {T1:.4f}; increase pad_time")
    for i in range(1, n):
        have, need = (fan.axes[i][0], fan.axes[i][-1]), (0.0, grid.extent[i - 1])
        if have[0] > need[0] + 1e-12 or have[1] < need[1] - 1e-12:
            raise ValueError(f"trimmed fan launches span [{have[0]:.4f}, {have[1]:.4f}] on "
                             f"x{i}, the chart needs [{need[0]:.4f}, {need[1]:.4f}]; "
                             "increase pad_lat")

    cap = 0.5 * window if y_depth is None else min(float(y_depth), 0.5 * window)
    nq_cap = int(math.floor(cap / dz + 1e-9))
    xi_hi = min(T2 + nq_cap * dz, fan.axes[0][-1])
    n_star = int(math.floor((xi_hi - T1) / dty + 1e-9)) + 1
    nq_cap = min(nq_cap, (n_star - nt_y) // 3)
    if nq_cap < 4:
        raise ValueError(f"fan launch coverage too narrow for the chart: launches end at "
                         f"t = {fan.axes[0][-1]:.4f}, {nq_cap} chart depth steps of {dz:.4f} "
                         f"past T2 = {T2:.4f}, need 4; increase pad_time")
    xi_star = T1 + dty * np.arange(n_star)

    nodes = np.stack(np.meshgrid(xi_star, *grid.face_axes()[1:], indexing="ij"), axis=-1)
    launches = _Stencil(_grid_indices(nodes, fan.axes), fan.pos.shape[1:-1])
    return _Rays(np.stack([launches(row) for row in fan.pos]), dty, nt_y, nq_cap)


def _pull_to_chart(rays: _Rays, fracs: np.ndarray, slab_fields: dict, grid: SpacetimeGrid,
                   T1: float, T2: float):
    """Re-grid slab fields onto the chart rectangle along the virtual rays.

    Stage one samples every slab field (*box, depth rows) at the rays'
    points, fracs (nrows, launches, *lateral, n) fractional indices on the
    box: one _Stencil per fan row, located once for all fields.  The rays'
    positions become the x{d} rows.  slab_fields must hold the advancing
    phase "s" and the outgoing hatted potential "Ap"; "Ap" leaves as the
    gauge phase "d" = -int Ap ds, zero on the face and integrated along each
    virtual ray, where (tau, y') are frozen.  Stage two inverts the advancing
    phase along each virtual ray (two Newton steps on the 4-point row
    interpolant from a linear bracket) to land on the requested chart depth
    nodes, and raises ValueError when a node still misses its phase value by
    more than 1e-9 * dty.  Returns (y_grid, pulled fields, fractional row
    index).
    """
    n = grid.n
    dty, nt_y, dz = rays.dty, rays.nt_y, 3.0 * rays.dty
    nrows = rays.pos.shape[0]
    stage1 = {name: np.empty(rays.pos.shape[:-1]) for name in slab_fields}
    for m in range(nrows):
        stencil = _Stencil(fracs[m], slab_fields["s"].shape[:-1])
        for name, field in slab_fields.items():
            stage1[name][m] = stencil(field[..., m, None])[..., 0]
    stage1.update({f"x{d}": rays.pos[..., d] for d in range(n)})
    stage1["d"] = _cumulative_trapezoid(-stage1.pop("Ap"), stage1["s"])
    lat_shape = rays.pos.shape[2:-1]

    # feasible chart depth: every virtual ray must reach its deepest target
    S = stage1["s"]
    nq = rays.nq_cap
    while nq > 0:
        i_idx = np.arange(nt_y)
        cols = i_idx + 3 * nq
        s_star = dty * (i_idx - 3.0 * nq)
        deepest = S[-1, cols].reshape(nt_y, -1).max(axis=-1)
        if np.all(deepest <= s_star + 1e-12):
            break
        nq -= 1
    if nq < 4:
        raise ValueError(f"chart depth coverage too shallow: the rays reach {nq} chart depth "
                         f"steps of {dz:.4f}, need 4; deepen the slab")

    i_grid, q_grid = np.meshgrid(np.arange(nt_y), np.arange(nq + 1), indexing="ij")
    cols = (i_grid + 3 * q_grid).ravel()
    s_star = (dty * (i_grid - 3.0 * q_grid)).ravel()[(...,) + (None,) * len(lat_shape)]

    S_t = S[:, cols]
    SS = -S_t
    ss = -s_star
    k = np.sum(SS < ss, axis=0)
    k = np.clip(k, 1, nrows - 1)
    lo = np.take_along_axis(SS, (k - 1)[None], axis=0)[0]
    hi = np.take_along_axis(SS, k[None], axis=0)[0]
    theta = np.where(hi > lo, (ss - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0)
    r = np.clip(k - 1 + theta, 0.0, nrows - 1.0)
    for _ in range(2):
        fval = _row_lagrange(S_t, r, _lagrange_weights)
        slope = _row_lagrange(S_t, r, _lagrange_dweights)
        slope = np.where(np.abs(slope) < 1e-14, -1e-14, slope)
        r = np.clip(r - (fval - s_star) / slope, 0.0, nrows - 1.0)

    def to_y_shape(flat):
        return np.moveaxis(flat.reshape((nt_y, nq + 1) + lat_shape), 1, -1)

    extent = tuple(grid.extent[:-1]) + (nq * dz,)
    h = tuple(grid.h[:-1]) + (dz,)
    y_grid = SpacetimeGrid(n=n, extent=extent, h=h, dt=dty, t1=T1, t2=T2,
                           boundary_patch=grid.boundary_patch)

    miss = to_y_shape(np.abs(_row_lagrange(S_t, r, _lagrange_weights) - s_star))
    bad = miss > 1e-9 * dty
    if np.any(bad):
        worst = np.unravel_index(np.argmax(miss), miss.shape)
        node = [ax[i] for ax, i in zip(y_grid.axes(), worst)]
        raise ValueError(
            f"chart pull: {int(np.sum(bad))} chart nodes miss the advancing phase after "
            f"two Newton steps (worst residual {float(miss[worst]):.2e} at chart node "
            f"y = ({', '.join(f'{c:.4f}' for c in node)})); refine the slab depth step"
        )

    pulled = {name: to_y_shape(_row_lagrange(rows[:, cols], r, _lagrange_weights))
              for name, rows in stage1.items()}
    row_index = to_y_shape(r)
    return y_grid, pulled, row_index


# ---------------------------------------------------------------------------
# The transformed operator
# ---------------------------------------------------------------------------

@dataclass
class TransformedOperator:
    """Unit-speed normal form of the wave operator on the chart rectangle.

    The time and depth slots both carry speed one and the shared potential
    component A_minus; the outgoing potential component is identically zero
    by the gauge choice.  metric_matrix/potential_vector/rho are the sampled
    arrays a forward run consumes; V1 is the zeroth-order remainder from the
    lateral volume normalization.
    """

    g0_plus_j: list
    g0_jk: list
    A_minus: np.ndarray
    A_j: list
    V1: np.ndarray
    gh_pm: np.ndarray
    grid: SpacetimeGrid
    metric_matrix: np.ndarray
    potential_vector: np.ndarray
    rho: np.ndarray
    g1: np.ndarray
    d_gauge: np.ndarray
    chart: GoursatChart

    def provider(self) -> SampledCoefficients:
        """Sampled-coefficient view consumed by the forward stepper."""
        v1 = self.V1 if np.any(self.V1 != 0.0) else None
        return SampledCoefficients(self.grid, self.metric_matrix,
                                   self.potential_vector, rho=self.rho, v1=v1)

    def boundary_traces(self) -> dict:
        """Face values used by the flux-map transformation: g1, its depth
        slope (one-sided second order), the normalization, and the lateral
        couplings."""
        dz = self.grid.h[-1]
        g1f = self.g1[..., 0]
        dg1 = (-3.0 * self.g1[..., 0] + 4.0 * self.g1[..., 1] - self.g1[..., 2]) / (2.0 * dz)
        return {
            "g1": g1f,
            "dg1_dyn": dg1,
            "gh_pm": self.gh_pm[..., 0],
            "g0_plus_j": [b[..., 0] for b in self.g0_plus_j],
            "A_minus": self.A_minus[..., 0],
            "A_j": [a[..., 0] for a in self.A_j],
        }


def potential_term(g1: np.ndarray, g0_plus_j: list, g0_jk: list,
                   grid: SpacetimeGrid) -> np.ndarray:
    """Zeroth-order remainder of the lateral volume normalization, sampled.

    Derivatives are centered differences on the chart grid; the in/outgoing
    derivative combinations are formed from the time and depth axes.
    """
    n = grid.n
    shape = (grid.nt,) + grid.shape
    if n == 1:
        return np.zeros(shape)
    steps = grid.steps()
    A = 0.25 * np.log(g1)
    dA = list(np.gradient(A, *steps, edge_order=2))
    A_s = 0.5 * (dA[0] - dA[n])
    A_tau = -0.5 * (dA[0] + dA[n])
    d2_00 = np.gradient(dA[0], steps[0], axis=0, edge_order=2)
    d2_nn = np.gradient(dA[n], steps[n], axis=n, edge_order=2)
    A_stau = -0.25 * (d2_00 - d2_nn)

    V = -4.0 * A_stau - 4.0 * A_s * A_tau
    for j in range(1, n):
        for k in range(1, n):
            gjk = g0_jk[j - 1][k - 1]
            V = V + gjk * dA[j] * dA[k]
            V = V + np.gradient(gjk * dA[j], steps[k], axis=k, edge_order=2)
        bj = g0_plus_j[j - 1]
        V = V + 4.0 * bj * A_s * dA[j]
        flux = bj * dA[j]
        ds_flux = 0.5 * (np.gradient(flux, steps[0], axis=0, edge_order=2)
                         - np.gradient(flux, steps[n], axis=n, edge_order=2))
        dyj = np.gradient(bj * A_s, steps[j], axis=j, edge_order=2)
        V = V + 2.0 * (ds_flux + dyj)
    return V


def potential_symbolic(g1: Expr, g0_plus_j=None, g0_jk=None, n: int = 2) -> Expr:
    """Closed-form zeroth-order remainder for expression-backed chart data.

    Chart expressions reuse the positional slot names x0..x{n}, here meaning
    (chart time, lateral..., chart depth).  Exact differentiation; useful when
    the volume factor is known analytically.  Defaults: no in/out lateral
    coupling and an orthonormal lateral block.
    """
    xn = f"x{n}"

    def d_s(e):
        return (e.diff("x0") - e.diff(xn)) / Const(2.0)

    def d_tau(e):
        return (e.diff("x0") + e.diff(xn)) / Const(-2.0)

    zero = Const(0.0)
    lat = n - 1
    g0_plus_j = list(g0_plus_j) if g0_plus_j else [zero] * lat
    if g0_jk is None:
        g0_jk = [[Const(-1.0) if j == k else zero for k in range(lat)] for j in range(lat)]

    A = Const(0.25) * Call("log", g1)
    A_s = d_s(A)
    A_tau = d_tau(A)
    V = Const(-4.0) * d_s(d_tau(A)) - Const(4.0) * A_s * A_tau
    for j in range(lat):
        Aj = A.diff(f"x{j + 1}")
        for k in range(lat):
            Ak = A.diff(f"x{k + 1}")
            V = V + g0_jk[j][k] * Aj * Ak
            V = V + (g0_jk[j][k] * Aj).diff(f"x{k + 1}")
        V = V + Const(4.0) * g0_plus_j[j] * A_s * Aj
        V = V + Const(2.0) * (d_s(g0_plus_j[j] * Aj) + (g0_plus_j[j] * A_s).diff(f"x{j + 1}"))
    return V


def transform_operator(metric: MetricField, A, chart: GoursatChart) -> TransformedOperator:
    """Coefficients of the wave operator in the chart, unit-speed normal form.

    Raises FocalRegion when the chart rectangle overlaps flagged nodes.  The
    potential argument must be the one the chart was built with (pass None to
    take it from the metric).  The zeroth-order term V1 is potential_term of
    the chart's sampled volume factor.
    """
    if A is None:
        A = metric.A
    built = [a.render() for a in chart.metric.A]
    given = [_as_expr(a).render() for a in A]
    if built != given:
        raise ValueError("chart was built for a different potential")

    pulled = chart._pull
    if float(np.max(pulled["focal"])) > 0.05:
        raise FocalRegion(
            "chart rectangle overlaps focal nodes; reduce y_depth or j_max"
        )

    n = chart.grid.n
    y_grid = chart.y_grid
    ghpm = pulled["ghpm"]
    if np.any(ghpm <= 0.0):
        raise FocalRegion("phase-pair normalization lost positivity on the rectangle")

    g0_plus_j = [pulled[f"ghp{j}"] / ghpm for j in range(n - 1)]
    g0_jk = [[pulled[f"gh{j}{k}"] / ghpm for k in range(n - 1)] for j in range(n - 1)]

    shape = (y_grid.nt,) + y_grid.shape
    steps = y_grid.steps()
    d = chart.d_gauge
    d_y0 = np.gradient(d, steps[0], axis=0, edge_order=2)
    d_yn = np.gradient(d, steps[n], axis=n, edge_order=2)
    d_tau = -0.5 * (d_y0 + d_yn)
    A_minus = pulled["Am"] + d_tau
    A_j = [pulled[f"Aj{j}"] - np.gradient(d, steps[j + 1], axis=j + 1, edge_order=2)
           for j in range(n - 1)]

    V1 = potential_term(chart.g1, g0_plus_j, g0_jk, y_grid)

    G = np.zeros(shape + (n + 1, n + 1))
    G[..., 0, 0] = 1.0
    G[..., n, n] = -1.0
    for j in range(1, n):
        G[..., 0, j] = g0_plus_j[j - 1]
        G[..., j, 0] = g0_plus_j[j - 1]
        G[..., n, j] = -g0_plus_j[j - 1]
        G[..., j, n] = -g0_plus_j[j - 1]
        for k in range(1, n):
            G[..., j, k] = g0_jk[j - 1][k - 1]

    A_vec = np.zeros(shape + (n + 1,))
    A_vec[..., 0] = A_minus
    A_vec[..., n] = A_minus
    for j in range(1, n):
        A_vec[..., j] = A_j[j - 1]

    return TransformedOperator(
        g0_plus_j=g0_plus_j,
        g0_jk=g0_jk,
        A_minus=A_minus,
        A_j=A_j,
        V1=V1,
        gh_pm=ghpm,
        grid=y_grid,
        metric_matrix=G,
        potential_vector=A_vec,
        rho=np.ones(y_grid.shape),
        g1=chart.g1,
        d_gauge=chart.d_gauge,
        chart=chart,
    )


def transformed_time_step(op: TransformedOperator) -> float:
    """Half the CFL-limited step of the operator's chart rectangle, at the
    closed-form cone speed bound that solve_ibvp checks every level against."""
    return 0.5 * min(op.grid.h) / float(np.max(_cone(op.metric_matrix)["speed"]))


def solve_transformed_ibvp(op: TransformedOperator, f, grid: SpacetimeGrid,
                           forcing=None, **kwargs) -> WaveField:
    """Forward run of the normalized operator on its chart rectangle.

    f is face data in chart coordinates (identical to face data in the
    original coordinates, since the chart restricts to the identity there).
    Remaining keyword arguments pass through to the forward solver, which
    checks every level and reports the realised CFL.
    """
    if grid != op.grid:
        raise ValueError("grid must be the operator's chart rectangle")
    return solve_ibvp(None, None, f, grid, forcing, provider=op.provider(), **kwargs)


# ---------------------------------------------------------------------------
# Utilities
# ---------------------------------------------------------------------------

def find_chart_depth(metric: MetricField, grid: SpacetimeGrid, cap: float) -> float:
    """Largest slab depth (multiple of the depth spacing) both families reach.

    Bisects on the crossing error.  Each probe only integrates the two fans
    with solve_eikonal's default pads and checks folds, radicands and
    coverage; nothing is resampled.  Those are the checks where
    solve_eikonal refuses a fold, so both agree on the depth.  The positivity
    of the phase-pair normalization is enforced later by the chart's focal
    mask.
    """
    hz = grid.h[-1]
    nz_cap = int(math.floor(cap / hz + 1e-9))
    if nz_cap < 3:
        raise ValueError("cap must allow at least three depth steps")

    slope = _slope_bound(metric, grid)

    def clean(nz: int) -> bool:
        pads = _default_pads(grid, nz * hz, slope)
        try:
            for side in ("+", "-"):
                _coverage_axes(_integrate_fan(metric, side, grid, nz * hz, *pads), grid)
            return True
        except CharacteristicCrossing:
            return False

    if clean(nz_cap):
        return nz_cap * hz
    lo, hi = 3, nz_cap
    if not clean(lo):
        raise CharacteristicCrossing("families fold within three depth steps")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if clean(mid):
            lo = mid
        else:
            hi = mid
    return lo * hz


def sample_field(samples: np.ndarray, grid: SpacetimeGrid, points: np.ndarray) -> np.ndarray:
    """Cubic tensor-product evaluation of (nt, *shape) samples at spacetime points.

    points[..., :] = (t, x1, ..., xn).  Clamps the stencil at edges; callers
    keep points inside the domain.
    """
    fracs = (points - [ax[0] for ax in grid.axes()]) / grid.steps()
    return _Stencil(fracs, samples.shape)(samples[..., None])[..., 0]


def export_chart_csv(chart: GoursatChart, path: str) -> None:
    """Write the slab nodes with their chart images and Jacobian to CSV."""
    grid = chart.grid
    n = grid.n
    mesh = np.meshgrid(*grid.face_axes(), chart.depth_nodes, indexing="ij")
    cols = [m.ravel() for m in mesh]
    for c in range(n + 1):
        cols.append(chart.y_of_x[..., c].ravel())
    cols.append(chart.jacobian_det.ravel())
    cols.append(chart.focal_mask.astype(float).ravel())
    names = [f"x{i}" for i in range(n + 1)] + [f"y{i}" for i in range(n + 1)] \
        + ["jacobian", "focal"]
    data = np.column_stack(cols)
    np.savetxt(path, data, delimiter=",", header=",".join(names), comments="",
               fmt="%.17g")


def export_operator_npz(op: TransformedOperator, path: str) -> None:
    """Dump the transformed coefficient arrays for external inspection."""
    payload = {
        "gh_pm": op.gh_pm,
        "A_minus": op.A_minus,
        "V1": op.V1,
        "g1": op.g1,
        "d_gauge": op.d_gauge,
        "metric_matrix": op.metric_matrix,
        "potential_vector": op.potential_vector,
        "times": op.grid.times(),
        "depth_nodes": op.grid.axis(op.grid.n),
    }
    for j, b in enumerate(op.g0_plus_j):
        payload[f"g0_plus_{j + 1}"] = b
    for j, row in enumerate(op.g0_jk):
        for k, a in enumerate(row):
            payload[f"g0_{j + 1}{k + 1}"] = a
    for j, a in enumerate(op.A_j):
        payload[f"A_{j + 1}"] = a
    np.savez(path, **payload)
