"""Null-phase charts near the controlled face and the normalized operator.

The pipeline turns the variable-coefficient wave operator on a slab
0 <= x_n <= depth into a unit-speed normal form on a rectangle in chart
coordinates:

    solve_eikonal        two families of null phase functions seeded on the
                         face, one advancing with time ('+') and one receding
                         ('-'), marched in depth, with their characteristics
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

Two views of one family.  Its fan (_integrate_fan) carries the rays from a
padded face lattice down to the slab depth, one depth row at a time
(_ray_rows), and keeps no row: it checks each for folds and degenerate
roots, folds its edge slices into the bounds of the box the family covers
(_coverage) and keeps the family's largest time drift, which is all
find_chart_depth and the chart pull read.  The pull's virtual rays are
integrated by the same kernel from their own launches.  The family's phase
is marched on the tensor nodes instead (_march): the null constraint
g(dpsi, dpsi) = 0, read as an evolution in depth, is
d psi/dz = _normal_root(g, grad_tan psi), stepped by RK4 on the fan's launch
lattice with fourth-order tangential differences (_difference), enough
substeps per depth row to keep RK4 stable at the family's face drift
(_substeps).  The '-' family carries its lateral launch coordinates xi with
it, d xi/dz = -(v_tan / v_n) . grad_tan xi, the transport along its rays.
Each EikonalField marches once, on first read, and keeps the phase's
departure from t - t1 (resp. t2 - t), the covector slots and xi on its
coverage box, stored depth row first so one row is contiguous; the window
(psi, grad, solve_transport_phi) and the chart's read box are slices of
that one march.

The time symmetry.  Every RK4 stage of a ray reads its time only through g,
so when g has no x0 (_distinct_rays) every launch-time slice of a fan is the
first shifted in time, and only that slice is integrated.  The march then
runs on one time row, where d psi/dt is +-1 and d xi/dt is 0 exactly, and
stores that row broadcast over the box's time rows with a zero stride
(np.broadcast_to).  When A has no x0 either (_one_level), every chart-time
level is the middle one shifted in x0: the pull samples that level alone
and returns each chart-space field with a zero time stride, shifting only
x0.  From the march to the run, that stride is the one mark of an array that
is the same at every time.  Every per-level reduction (the operator's
derivatives and V1, the cone bound, the provider's scans) reads an array's
distinct levels (solver._levels), where a y0 difference of one level is
exactly zero, as it is on the middle level of a broadcast field; a provider
of such arrays is static.  A time-dependent g or A runs the same code on
every level.

Each fan launches from a face lattice padded to what its rays reach
(_default_pads): per end of the window, from both families' time drift at
the face and the chart pull's reach past T2; laterally, from the lateral
drift.  The pads are coupled across the families, because the pull refuses
a receding ray that leaves both fans' coverage overlap.

build_chart first integrates the pull's virtual receding rays, launched on
the chart's own lattice up to the slab's reach (_virtual_rays): for every
chart-time level, or for the middle one alone when neither g nor A reads
x0; when g has no x0 the kernel integrates one launch slice.  It then reads
both marches on the read box: the nodes of the fans' coverage overlap that
those rays' stencils, the slab differences and the window read; for one
level that is the window and its edge nodes.  It samples every slab field
there once, with one n-axis 4-point Lagrange stencil, _Stencil, per slab
depth row for all fields, reading each row in place.  Every such box is a
tuple of node ranges on the grid's face lattice (_coverage).  Along each
ray the pull's depth lookup and row values use the 1-axis form of the same
stencil, _RowStencil, one fractional row per target: located once per
Newton step, then once at the converged rows for every field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .expr import Call, Const, Expr
from .geometry import MetricField, SpacetimeGrid, _as_expr, _cone, _det, _solve_small
from .solver import SampledCoefficients, WaveField, _levels, _time_free, solve_ibvp

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
    """One characteristic family's fan, integrated in depth from a padded
    face lattice (_ray_rows) and checked one depth row at a time: it keeps
    the launch axes, the depth nodes, the bounds of the box every row covers
    and the family's largest time drift, not the rays' positions.  The launch
    lattice is also the lattice the family's phase is marched on (_march).
    """

    axes: tuple            # launch coordinate arrays (time, lateral...)
    depth_nodes: np.ndarray
    bounds: tuple          # per (time, lateral) axis, the (lo, hi) every row covers (_coverage)
    drift: float           # largest time drift by the last row: forward '+', backward '-'


def _null_root(g: np.ndarray, ptan: np.ndarray, z: float) -> np.ndarray:
    """_normal_root on a row of the launch lattice at depth z; raises
    CharacteristicCrossing where no real root exists."""
    pn, radicand = _normal_root(g, ptan)
    if np.any(radicand <= 0.0):
        where = tuple(int(i) for i in np.unravel_index(np.argmin(radicand), radicand.shape))
        raise CharacteristicCrossing(
            f"face foliation degenerates near depth {z:.4f}: least radicand "
            f"{radicand[where]:.3g} <= 0 at lateral launch node {where[1:]}")
    return pn


def _fan_row(metric: MetricField, pos: np.ndarray, ptan: np.ndarray, z: float):
    """(dH, g, pn) of a fan row at depth z: the Hamiltonian gradient along
    the face and the metric at the row's points, from one plan
    (MetricField.eval_ham), and the null depth covector component
    (_null_root)."""
    g, dH = metric.eval_ham(_fan_env(metric.n, pos, z), pos.shape[:-1], count=metric.n)
    return dH, g, _null_root(g, ptan, z)


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


def _check_fold(pos_row: np.ndarray, side: str, z: float, rays: slice):
    if pos_row.shape[-1] == 1:
        jac = np.diff(pos_row[..., 0])
    else:
        if rays == slice(0, 1):
            # x1 is constant along launch time, so the Jacobian is exactly dt/di *
            # dx1/dj, which (rounding is monotone) the least factors' product bounds
            least = (np.min(np.gradient(pos_row[..., 0], axis=0)),
                     np.min(np.gradient(pos_row[rays, :, 1], axis=1)))
            if least[0] > 0.0 and least[0] * least[1] > 0.0:
                return
        # row c: component c's gradient along the (time, lateral) launch axes
        jac = _det([[np.gradient(pos_row[..., c], axis=a) for a in (0, 1)] for c in (0, 1)])
    if np.any(jac <= 0.0):
        where = tuple(int(i) for i in np.unravel_index(np.argmin(jac), jac.shape))
        raise CharacteristicCrossing(f"'{side}' family folds over by depth {z:.4f}: least "
                                     f"Jacobian {jac[where]:.3g} <= 0 at launch node {where}")


def _distinct_rays(metric: MetricField) -> slice:
    """Launch-time slices whose rays differ: the first alone when g has no x0
    (the time symmetry, module notes)."""
    return slice(0, 1) if _time_free(tuple(e for row in metric.g for e in row)) else slice(None)


def _face_drift(metric: MetricField, grid: SpacetimeGrid) -> dict:
    """Each family's drift per unit depth at the face, on the distinct
    launch-time slices (_distinct_rays): side -> (largest forward time drift,
    largest backward time drift, largest lateral drift), each at least 0."""
    pos = np.stack(np.meshgrid(*grid.face_axes(), indexing="ij"), axis=-1)[_distinct_rays(metric)]
    drift = {}
    for side in ("+", "-"):
        ptan = np.zeros(pos.shape)
        ptan[..., 0] = 1.0 if side == "+" else -1.0
        dpos, _ = _fan_rhs(metric, pos, ptan, 0.0)
        drift[side] = (max(0.0, float(np.max(dpos[..., 0]))),
                       max(0.0, -float(np.min(dpos[..., 0]))),
                       float(np.max(np.abs(dpos[..., 1:]), initial=0.0)))
    return drift


def _ray_rows(metric, side, axes, hz, nz):
    """RK4 in depth of one family's rays launched on the mesh of the (time,
    lateral...) axes, on its distinct launch-time slices (_distinct_rays):
    each step's increments broadcast over launch times and are added
    elementwise, so every slice is bitwise what its own RK4 gives.  Yields
    (z, positions (*mesh, n)) on each depth row z = m hz, m = 0..nz, once the
    row's null root is checked (_null_root); each row is a new array."""
    pos = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    rays = _distinct_rays(metric)
    p = np.zeros(pos[rays].shape)
    p[..., 0] = 1.0 if side == "+" else -1.0
    zs = hz * np.arange(nz + 1)
    for m in range(nz + 1):
        ray_pos = pos[rays]
        row = _fan_row(metric, ray_pos, p, zs[m])
        yield zs[m], pos
        if m == nz:
            break
        k1 = _fan_flow(metric, row, p)
        k2 = _fan_rhs(metric, ray_pos + 0.5 * hz * k1[0], p + 0.5 * hz * k1[1], zs[m] + 0.5 * hz)
        k3 = _fan_rhs(metric, ray_pos + 0.5 * hz * k2[0], p + 0.5 * hz * k2[1], zs[m] + 0.5 * hz)
        k4 = _fan_rhs(metric, ray_pos + hz * k3[0], p + hz * k3[1], zs[m] + hz)
        pos = pos + (hz / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        p = p + (hz / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])


def _integrate_fan(metric, side, grid, depth, pad_time, pad_lat) -> _Fan:
    """One family's fan from the padded launch lattice (_ray_rows), keeping
    no row: each is checked for folds on the full lattice (_check_fold) and
    folded into the bounds of the box its edge slices leave (_coverage), and
    the last gives the largest time drift.  pad_time is one margin for both
    ends of the window, or a pair (before t1, after t2).  Raises ValueError
    for fewer than three depth steps."""
    n = grid.n
    dt = grid.dt
    hz = grid.h[-1]
    nz = int(round(depth / hz))
    if nz < 3:
        raise ValueError(f"slab depth {depth:.4f} is {nz} depth steps of h_n = {hz:.4f}; "
                         "need at least 3")

    before, after = (int(math.ceil(pad / dt)) + 2 for pad in np.broadcast_to(pad_time, 2))
    axes = [grid.t1 + dt * np.arange(-before, grid.nt + after)]
    for i in range(1, n):
        h = grid.h[i - 1]
        k_pad = int(math.ceil(pad_lat / h)) + 2
        axes.append(h * np.arange(-k_pad, grid.shape[i - 1] + k_pad))

    rays = _distinct_rays(metric)
    lo, hi = [-math.inf] * n, [math.inf] * n
    for z, row in _ray_rows(metric, side, axes, hz, nz):
        _check_fold(row, side, z, rays)
        for d in range(n):
            edge = (slice(None),) * d   # the first and last launch slices along axis d
            lo[d] = max(lo[d], float(np.max(row[edge + (0, ..., d)])))
            hi[d] = min(hi[d], float(np.min(row[edge + (-1, ..., d)])))
    launch = axes[0].reshape((-1,) + (1,) * (n - 1))
    drift = float(np.max(row[..., 0] - launch if side == "+" else launch - row[..., 0]))
    return _Fan(tuple(axes), hz * np.arange(nz + 1), tuple(zip(lo, hi)), drift)


# ---------------------------------------------------------------------------
# Boxes on the face lattice
# ---------------------------------------------------------------------------

def _coverage(fan: _Fan, grid: SpacetimeGrid) -> tuple:
    """The box every fan row covers, as inclusive node ranges ((lo, hi), ...)
    per (time, lateral) axis of the grid's lattice, node 0 the window's first.

    For each direction the bound comes from the boundary slice of the launch
    lattice: the box lies to the right of every image of the first slice and
    to the left of every image of the last one, which keeps it inside the
    fold-free rows; the fan folds those bounds in row by row (_Fan.bounds).
    The box must contain the grid's own window.
    """
    n = grid.n
    spacings = grid.steps()[:-1]
    origins = [ax[0] for ax in grid.face_axes()]
    spans = [(grid.t1, grid.t2)] + [(0.0, grid.extent[i - 1]) for i in range(1, n)]
    inset = 1 if n > 1 else 0
    box = []
    for d, (lo, hi) in enumerate(fan.bounds):
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
        box.append((i_lo, i_hi))
    return tuple(box)


def _lattice(grid: SpacetimeGrid, box: tuple) -> tuple:
    """(time, lateral) axes of a box of node ranges on the grid's face lattice."""
    return tuple(ax[0] + step * np.arange(lo, hi + 1)
                 for ax, step, (lo, hi) in zip(grid.face_axes(), grid.steps(), box))


def _grid_indices(points: np.ndarray, axes) -> np.ndarray:
    """Fractional indices of points[..., d] on the regular axes[d]."""
    return (points - [ax[0] for ax in axes]) / [ax[1] - ax[0] for ax in axes]


# ---------------------------------------------------------------------------
# The depth march of a null phase
# ---------------------------------------------------------------------------

# RK4's reach along the imaginary axis, 2 sqrt(2), over the largest eigenvalue
# of the fourth-order central difference, 1.372 / h: the stable Courant number
_RK4_REACH = 2.06

# five-point one-sided differences at the first two nodes of an axis, fourth
# order, acting on f[1:5] - f[0]
_EDGE = np.array([[48.0, -36.0, 16.0, -3.0], [-10.0, 18.0, -6.0, 1.0]]) / 12.0


def _difference(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """d/dx of f along axis, fourth order: five-point central differences,
    and one-sided ones (_EDGE) at the two edge nodes of each end.  Formed
    from differences of f, so exactly zero where f is constant; along an axis
    of one node (the time symmetry) exactly zero."""
    f = np.moveaxis(f, axis, 0)
    out = np.zeros_like(f)
    if len(f) > 1:
        out[2:-2] = (8.0 * (f[3:-1] - f[1:-3]) - (f[4:] - f[:-4])) / (12.0 * h)
        out[:2] = np.tensordot(_EDGE, f[1:5] - f[0], 1) / h
        out[-2:] = -np.tensordot(_EDGE[::-1], f[-2:-6:-1] - f[-1], 1) / h
    return np.moveaxis(out, 0, axis)


def _substeps(grid: SpacetimeGrid, drift: tuple) -> int:
    """RK4 substeps per depth row of the march: the fewest that keep the
    Courant number of a substep, at one side's face drift (_face_drift) over
    each tangential spacing, within _RK4_REACH."""
    fwd, bwd, lat = drift
    courant = grid.h[-1] * (max(fwd, bwd) / grid.dt + sum(lat / h for h in grid.h[:-1]))
    return max(1, math.ceil(courant / _RK4_REACH))


def _march(metric: MetricField, side: str, grid: SpacetimeGrid, fan: _Fan, box: tuple):
    """One family's phase, covector slots and, for '-', lateral launch
    coordinates on every depth row, marched in depth on the fan's launch
    lattice and kept on the box (node ranges on the face lattice, _coverage).

    With psi = +-(t - t_ref) + delta, the phase's departure delta is 0 on the
    face and evolves as d delta/dz = _normal_root(g, grad_tan psi), the null
    constraint read as an evolution in depth.  A lateral launch coordinate
    xi_j = x_j + eta_j is constant along the rays, d xi_j/dz = -(v_tan / v_n)
    . grad_tan xi_j with v = 2 g p, p the full covector (_fan_flow).  The
    tangential derivatives are fourth-order differences (_difference) and the
    march is RK4 with _substeps substeps per depth row, the metric evaluated
    once per distinct stage depth.  Under the time symmetry (_distinct_rays)
    the lattice has one time row: d psi/dt is +-1 and d xi/dt is 0 exactly.
    The slots are (grad_tan psi, the root) at each row.

    Returns (delta, slots, xi) shaped (rows, *box), (rows, *box, n+1) and
    n-1 (rows, *box) arrays ('+' has none), read-only and, under the time
    symmetry, with a zero time stride.  Raises CharacteristicCrossing where a
    node of the lattice has no real root.
    """
    n = grid.n
    sign = 1.0 if side == "+" else -1.0
    steps = grid.steps()[:-1]
    axes = (fan.axes[0][_distinct_rays(metric)],) + fan.axes[1:]
    pos = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    lattice = pos.shape[:-1]
    # the box's nodes on the lattice; its one time row under the symmetry
    origin = [int(round((ax[0] - face[0]) / step))
              for ax, face, step in zip(fan.axes, grid.face_axes(), steps)]
    take = tuple(slice(lo - o, hi - o + 1) for (lo, hi), o in zip(box, origin))
    take = (take[0] if lattice[0] > 1 else slice(None),) + take[1:]
    lateral = n - 1 if side == "-" else 0

    def metric_at(z):
        return metric.eval_g(_fan_env(n, pos, z), lattice)

    def slope(g, state, z):   # (d state/dz, the covector (grad_tan psi, root))
        d = [_difference(state, step, axis + 1) for axis, step in enumerate(steps)]
        ptan = np.stack([sign + d[0][0]] + [dk[0] for dk in d[1:]], axis=-1)
        p = np.concatenate([ptan, _null_root(g, ptan, z)[..., None]], axis=-1)
        rates = [p[..., n]]
        if lateral:
            v = 2.0 * sum(g[..., k] * p[..., k, None] for k in range(n + 1))
            rates += [-sum(v[..., k] * (d[k][1 + j] + (k == 1 + j)) for k in range(n)) / v[..., n]
                      for j in range(lateral)]
        return np.stack(rates), p

    zs, substeps = fan.depth_nodes, _substeps(grid, _face_drift(metric, grid)[side])
    kept = np.empty((1 + lateral, len(zs)) + pos[take].shape[:-1])   # delta, then each eta_j
    slots = np.empty(kept.shape[1:] + (n + 1,))
    state = np.zeros((1 + lateral,) + lattice)
    g = metric_at(zs[0])
    for m, z in enumerate(zs):
        k1, p = slope(g, state, z)
        kept[:, m], slots[m] = state[(slice(None),) + take], p[take]
        if m == len(zs) - 1:
            break
        depths = np.linspace(z, zs[m + 1], 2 * substeps + 1)   # the stage depths
        hs = (zs[m + 1] - z) / substeps
        for q in range(0, 2 * substeps, 2):
            if q:
                k1 = slope(g, state, depths[q])[0]
            mid, g = metric_at(depths[q + 1]), metric_at(depths[q + 2])
            k2 = slope(mid, state + 0.5 * hs * k1, depths[q + 1])[0]
            k3 = slope(mid, state + 0.5 * hs * k2, depths[q + 1])[0]
            k4 = slope(g, state + hs * k3, depths[q + 2])[0]
            state = state + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    full = (len(zs),) + tuple(hi - lo + 1 for lo, hi in box)
    xi = [pos[take][..., 1 + j] + eta for j, eta in enumerate(kept[1:])]
    return (np.broadcast_to(kept[0], full), np.broadcast_to(slots, full + (n + 1,)),
            [np.broadcast_to(x, full) for x in xi])


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

    psi holds the phase, grad its spacetime gradient, whose depth component
    closes it to a null covector.  Both live on the grid's (time, lateral)
    window times the slab depth nodes, depth last; a '-' field's _phi holds
    the lateral launch coordinates there.  The field keeps its fan and the
    fan's coverage box (_coverage).  The first read of psi, grad or _phi, or
    build_chart, marches the phase once on the fan's launch lattice (_march)
    and keeps it on the coverage box, from which every box read is a slice.
    grad and _phi are read-only views, with a zero time stride under the time
    symmetry (module notes).
    """

    side: str
    grid: SpacetimeGrid
    depth_nodes: np.ndarray
    metric: MetricField
    _fan: _Fan
    _box: tuple

    @cached_property
    def _marched(self) -> tuple:
        return _march(self.metric, self.side, self.grid, self._fan, self._box)

    def _on(self, box: tuple) -> tuple:
        """(psi, slots, lateral launch coordinates) on a box inside the
        coverage box, depth row first: psi a new array, the rest views of the
        march."""
        delta, slots, xi = self._marched
        take = (slice(None),) + tuple(slice(lo - c, hi - c + 1)
                                      for (lo, hi), (c, _) in zip(box, self._box))
        times = _lattice(self.grid, box)[0].reshape((-1,) + (1,) * (self.grid.n - 1))
        base = times - self.grid.t1 if self.side == "+" else self.grid.t2 - times
        return base + delta[take], slots[take], [x[take] for x in xi]

    @cached_property
    def _window(self) -> tuple:
        n = self.grid.n
        psi, grad, phi = self._on(tuple((0, len(ax) - 1) for ax in self.grid.face_axes()))
        return np.moveaxis(psi, 0, n), np.moveaxis(grad, 0, n), [np.moveaxis(p, 0, n) for p in phi]

    psi = property(lambda self: self._window[0])
    grad = property(lambda self: self._window[1])
    _phi = property(lambda self: self._window[2])

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
    phase is frozen along each characteristic, and equals t - t1 ('+') or
    t2 - t ('-') on the face.  The family's rays launch from a padded face
    lattice, and its fan checks folds and the coverage of the window one
    depth row at a time, keeping no ray positions (_integrate_fan).  By
    default the lattice's margins (_default_pads) are sized per end and per
    axis to the two families' drift and to the chart pull's reach; pad_time
    (both ends of the window) and pad_lat (both ends of every lateral axis)
    override them.  The phase itself is not formed here: the field's first
    read marches it in depth on that lattice (_march, module notes).  A '-'
    field also carries the lateral launch coordinates, which
    solve_transport_phi returns.
    Raises CharacteristicCrossing when the family folds over before reaching
    the depth, and ValueError when the fan's coverage box misses the window.
    The march raises CharacteristicCrossing where a lattice node has no null
    root.
    """
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    if not 0.0 < depth:
        raise ValueError(f"depth must be positive, got {depth!r}")
    if pad_time is None or pad_lat is None:
        default_time, default_lat = _default_pads(grid, depth, _face_drift(metric, grid), side)
        pad_time = default_time if pad_time is None else pad_time
        pad_lat = default_lat if pad_lat is None else pad_lat

    fan = _integrate_fan(metric, side, grid, depth, pad_time, pad_lat)
    return EikonalField(side, grid, fan.depth_nodes, metric, fan, _coverage(fan, grid))


def _default_pads(grid: SpacetimeGrid, depth: float, drift: dict, side: str) -> tuple:
    """((before t1, after t2), lateral) launch margins of the side's fan for
    the given depth.  Each drift is a _face_drift rate times 1.6 * depth; the
    margins add 4 dt in time and 4 h laterally.

    The margins are coupled across the families.  The pull's receding rays
    must stay inside both fans' coverage overlap (_virtual_rays refuses one
    that leaves it), and the pull launches them from T1 to its reach past T2
    (_depth_steps, at the '+' forward plus the '-' backward drift).  So every
    fan covers the times from T1 less the '-' backward drift to the reach
    plus the '-' forward drift, and the lateral span widened by the '-'
    lateral drift; each end is widened again by the fan's own drift into the
    window.
    """
    fwd, bwd, lat = (1.6 * depth * rate for rate in drift[side])
    fwd_m, bwd_m, lat_m = (1.6 * depth * rate for rate in drift["-"])
    dz = 3.0 * _chart_steps(grid)[0]
    reach = dz * _depth_steps(grid.t2 - grid.t1, dz, None, 1.6 * depth * drift["+"][0] + bwd_m)
    margin = 4.0 * grid.dt
    return (fwd + bwd_m + margin, bwd + fwd_m + reach + margin), lat + lat_m + 4.0 * max(grid.h)


def solve_transport_phi(metric: MetricField, psi_minus: EikonalField,
                        grid: SpacetimeGrid) -> list:
    """Lateral coordinates carried along the receding family's characteristics.

    Each field equals its launch value on the face and is constant along the
    rays of psi_minus: the first-order transport equation, marched in depth
    with psi_minus's phase (_march).  This returns the n-1 window arrays of
    psi_minus._phi, read-only views of that one march; neither metric nor
    grid is read.
    """
    if psi_minus.side != "-":
        raise ValueError("transport runs along the receding ('-') family, got side "
                         f"{psi_minus.side!r}")
    return list(psi_minus._phi)


# ---------------------------------------------------------------------------
# Cubic Lagrange stencils (the chart pull)
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


class _RowStencil:
    """The 4-point Lagrange stencil along axis 0 of fields shaped (nrows, *row),
    at one fractional row r[p] per point, located once.

    at[p] is the flat index within one row of point p's column.  Calling the
    stencil on F gathers F's four rows there from its flat view (a copy only
    when F is not C-contiguous) and returns the values shaped like r; weights
    is _lagrange_weights (the default) or _lagrange_dweights for the
    derivative along the rows.  Near an edge the stencil clamps.
    """

    def __init__(self, r: np.ndarray, at: np.ndarray, shape: tuple):
        size = math.prod(shape[1:])
        i0 = np.clip(np.floor(r).astype(int), 1, shape[0] - 3)
        self.t = r - i0
        self.index = [(i0 + off) * size + at for off in (-1, 0, 1, 2)]
        self.values = _lagrange_weights(self.t)

    def __call__(self, F: np.ndarray, weights=None) -> np.ndarray:
        flat = F.reshape(-1)
        out = np.zeros(self.t.shape, dtype=F.dtype)
        for index, w in zip(self.index, self.values if weights is None else weights(self.t)):
            out += w * flat.take(index)
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
    Sum-factorized: one flat gather per stencil node, then one contraction
    per axis, last axis first, each dropping the gathers it contracts.  The
    gathers read F's flat view in place (a copy only when F is not
    C-contiguous) and land components first, so every contraction runs along
    the points.
    """

    def __init__(self, fracs: np.ndarray, shape: tuple):
        ndim = len(shape)
        strides = [int(np.prod(shape[d + 1:])) for d in range(ndim)]
        self.base, self.weights = 0, []
        for d in range(ndim):
            i0 = np.clip(np.floor(fracs[..., d]).astype(int), 1, shape[d] - 3)
            self.base = self.base + strides[d] * i0
            self.weights.append(_lagrange_weights(fracs[..., d] - i0))
        self.offsets = [int(np.dot(offs, strides)) for offs in product((-1, 0, 1, 2), repeat=ndim)]

    def __call__(self, F: np.ndarray) -> np.ndarray:
        k = F.shape[-1]
        flat = F.reshape(-1)
        # flat index of component c of each point's base node, components first
        first = k * self.base + np.arange(k).reshape((k,) + (1,) * np.ndim(self.base))
        cells = [flat.take(first + k * off) for off in self.offsets]
        for w in reversed(self.weights):
            cells = _contract(cells, w)
        return np.moveaxis(cells[0], 0, -1)


# ---------------------------------------------------------------------------
# Chart construction
# ---------------------------------------------------------------------------

@dataclass
class GoursatChart:
    """Boundary-normal chart assembled from a null phase pair.

    Slab arrays (y_of_x, jacobian_det, focal_mask) live on the grid window
    times depth nodes.  Chart-space arrays (d_gauge, g1, x_at_y and the
    pulled coefficient fields) live on y_grid, whose depth axis is the
    distance to the face in chart coordinates.  d_gauge, g1 and the pulled
    coefficient fields are read-only views, with a zero time stride under the
    time symmetry (module notes).  It keeps no phase field.
    """

    y_of_x: np.ndarray
    jacobian_det: np.ndarray
    focal_mask: np.ndarray
    d_gauge: np.ndarray
    g1: np.ndarray
    y_grid: SpacetimeGrid
    x_at_y: np.ndarray
    metric: MetricField
    grid: SpacetimeGrid
    depth_nodes: np.ndarray
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
    returned for psi_minus: the count of fields and each one's shape, the
    grid's window times the depth nodes, are checked, and its values are not
    read.  Coefficient fields
    of the transformed operator are computed on the slab, sampled once along
    virtual receding rays launched from the chart's time lattice
    (_virtual_rays, _pull_to_chart), and re-gridded onto a rectangle in chart
    coordinates whose depth step is three times its time step (the forward
    run then sits safely inside the stability bound).  Under the time
    symmetry (module notes) the rays serve the middle chart-time level alone.

    The slab fields live on the read box (_read_box): the part of the two
    fans' coverage overlap that the virtual rays' stencils and the window
    read.  Each phase field's one march (_march) serves that box as a slice,
    so every stencil and difference sees the values it would on the whole
    overlap.  The slab's pointwise algebra is formed one depth row at a time
    (_slab_fields), and the pull drops the slab fields once it has sampled
    them.  The fans keep no ray positions, so the chart's peak holds the
    marches, the virtual rays, and either the slab fields on the read box
    with one row's intermediates, or the pull's samples.  The refusals
    below, and the focal mask, cover only those nodes.

    y_depth caps the chart depth; the default takes what the slab reaches.
    The virtual rays launch only as far past T2 as the two fans' time drifts
    let the chart reach (_virtual_rays), and a chart that reaches every
    launch while the slab may reach deeper raises ValueError (increase
    pad_time) instead of coming out shallower.  A virtual ray that leaves
    the two fans' coverage overlap raises ValueError (increase pad_time or
    pad_lat).  Nodes where the Jacobian leaves [1/j_max, j_max], or where
    the phase-pair normalization loses positivity, are flagged in
    focal_mask.  Raises FocalRegion where the one-form system for the
    hatted potentials is singular at a node of the read box.
    """
    if psi_plus.side != "+" or psi_minus.side != "-":
        raise ValueError("build_chart expects ('+', '-') phase fields in that order, got "
                         f"({psi_plus.side!r}, {psi_minus.side!r})")
    grid = psi_plus.grid
    if psi_minus.grid is not grid and psi_minus.grid != grid:
        raise ValueError(f"phase fields live on different grids: {grid} and {psi_minus.grid}")
    if abs(T1 - grid.t1) > 1e-12 or abs(T2 - grid.t2) > 1e-12:
        raise ValueError(f"chart window [{T1}, {T2}] must match the grid's time window "
                         f"[{grid.t1}, {grid.t2}]")
    if len(phi) != grid.n - 1:
        raise ValueError(f"got {len(phi)} transported lateral fields, need one per lateral "
                         f"axis, n - 1 = {grid.n - 1}")
    slab = tuple(len(ax) for ax in grid.face_axes()) + (len(psi_minus.depth_nodes),)
    for p in phi:
        if p.shape != slab:
            raise ValueError(f"transported field shape {p.shape} must share the phase slab "
                             f"shape {slab}")
    metric = psi_plus.metric
    n = grid.n
    hz = grid.h[-1]
    depth_nodes, other = psi_plus.depth_nodes, psi_minus.depth_nodes
    if len(depth_nodes) != len(other) or abs(depth_nodes[-1] - other[-1]) > 1e-12:
        raise ValueError(f"phase fields sampled to different depths: {len(depth_nodes)} rows "
                         f"to {depth_nodes[-1]:.6g} and {len(other)} rows to {other[-1]:.6g}")

    overlap = tuple((max(p[0], m[0]), min(p[1], m[1]))
                    for p, m in zip(psi_plus._box, psi_minus._box))
    overlap_axes = _lattice(grid, overlap)

    # the pull's virtual rays, and the box of overlap nodes they and the window read;
    # the advancing phase falls along a virtual ray by at most drop (_virtual_rays)
    drop = psi_minus._fan.drift + psi_plus._fan.drift
    rays = _virtual_rays(metric, grid, overlap_axes, len(depth_nodes), y_depth, drop,
                         one_level=_one_level(metric))
    fracs = _grid_indices(rays.pos, overlap_axes)
    box = _read_box(fracs, overlap, grid)
    # the slab's intermediates die with their depth row, before the pull
    slab = list(_slab_fields(psi_plus, psi_minus, box, T1, T2, j_max))

    # ---- pull the coefficient fields onto a chart-space rectangle ----------
    # shifting by the box's whole-node offset is exact, so every weight is the
    # overlap's; the pull holds the slab fields' last reference
    y_grid, pulled, row_index = _pull_to_chart(
        rays, fracs - [b[0] - o[0] for b, o in zip(box, overlap)], slab.pop(0), grid, T1, T2)
    y_of_x, jac_det, focal = slab
    x_at_y = np.stack(
        [pulled[f"x{d}"] for d in range(n)] + [row_index * hz], axis=-1)

    return GoursatChart(
        y_of_x=y_of_x,
        jacobian_det=jac_det,
        focal_mask=focal,
        d_gauge=pulled["d"],
        g1=pulled["g1"],
        y_grid=y_grid,
        x_at_y=x_at_y,
        metric=metric,
        grid=grid,
        depth_nodes=depth_nodes,
        _pull=pulled,
    )


def _row_gradient(f: np.ndarray, r: int, steps: tuple) -> np.ndarray:
    """Row r of the gradient of f (rows, time, lateral...), with steps and
    the components ordered (time, lateral..., rows): np.gradient's
    second-order differences, bitwise row r of the whole stack's.  Along the
    rows it differences the three rows around r (clamped at the ends), so
    numpy's own interior and edge formulas apply."""
    lo = min(max(r - 1, 0), len(f) - 3)
    return np.stack([*np.gradient(f[r], *steps[:-1], edge_order=2),
                     np.gradient(f[lo:lo + 3], steps[-1], axis=0, edge_order=2)[r - lo]],
                    axis=-1)


def _slab_fields(psi_plus: EikonalField, psi_minus: EikonalField, box: tuple,
                 T1: float, T2: float, j_max: float):
    """The chart's slab quantities on the read box: (the fields the pull
    samples, then y_of_x, the Jacobian determinant and the focal mask on the
    grid's window).  Both phase fields are read on the box as slices of their
    marches (EikonalField._on).  Every quantity is stored depth row first,
    (rows, *box), so each depth row is C-contiguous; the fields leave as
    (*box, rows) views, and the pull's stencils read a row in place.  The
    pointwise algebra is formed one depth row at a time into those arrays, so
    its intermediates die with their row: each row reads its slots as one
    contiguous row (a copy of a strided or zero-stride one) and forms its
    lateral coordinates' gradients from its neighbour rows (_row_gradient).
    What stays whole on the box is the phases and the outputs; the slots and
    the lateral launch coordinates are views of the marches (one time row
    under the time symmetry).  Raises FocalRegion at the first depth row
    whose one-form system is singular."""
    grid, metric, depth_nodes = psi_plus.grid, psi_plus.metric, psi_plus.depth_nodes
    n = grid.n
    box_axes = _lattice(grid, box)

    def rows_last(a):   # (rows, *box, ...) -> (*box, rows, ...), a view
        return np.moveaxis(a, 0, n)

    psi_p, grad_p, _ = psi_plus._on(box)
    psi_m, grad_m, phi_box = psi_minus._on(box)
    steps = grid.steps()

    lat = range(n - 1)
    names = ["ghpm", "g1", "Ap", "Am", "focal"] + [
        name for j in lat for name in (f"ghp{j}", f"Aj{j}", *(f"gh{j}{k}" for k in lat))]
    slab_fields = {"s": psi_p, **{name: np.empty(psi_p.shape) for name in names}}
    window = (slice(None),) + tuple(slice(-lo, len(ax) - lo)   # rows first
                                    for ax, (lo, _) in zip(grid.face_axes(), box))
    jac_det = np.empty(psi_p[window].shape)
    face = np.meshgrid(*box_axes, indexing="ij")

    def form_row(r, z):   # its intermediates die on return
        env = {f"x{i}": m for i, m in enumerate([*face, np.full(face[0].shape, z)])}
        g = metric.eval_g(env, face[0].shape)
        # one contiguous row each: a copy only of a zero-stride row
        gp, gm = np.ascontiguousarray(grad_p[r]), np.ascontiguousarray(grad_m[r])
        dp = [_row_gradient(p, r, steps) for p in phi_box]
        row = {"ghpm": -0.5 * np.einsum("...jk,...j,...k->...", g, gp, gm)}
        ghjk = [[np.einsum("...jk,...j,...k->...", g, dp[a], dp[b]) for b in lat] for a in lat]
        row["g1"] = 1.0 / np.abs(_det(ghjk)) if ghjk else 1.0
        for j in lat:
            row[f"ghp{j}"] = 0.5 * np.einsum("...jk,...j,...k->...", g, gp, dp[j])
            row.update({f"gh{j}{k}": ghjk[j][k] for k in lat})

        # the chart map's Jacobian
        jac_rows = [0.5 * (gp - gm)] + dp + [-0.5 * (gp + gm)]
        det = _det([[jr[..., k] for k in range(n + 1)] for jr in jac_rows])
        jac_det[r] = det[window[1:]]
        row["focal"] = (np.abs(det) > j_max) | (np.abs(det) < 1.0 / j_max) | (row["ghpm"] <= 0.0)

        # hatted potentials from the one-form transformation rule: M hat = A for
        # the columns -grad psi+, -grad psi-, grad phi_j; det M = +-2 jac_det.
        # The row is checked before it is solved, which would divide by zero
        cols = [-gp, -gm] + dp
        M = [[col[..., i] for col in cols] for i in range(n + 1)]
        det_m = _det(M)
        if not np.all(det_m):
            where = np.unravel_index(int(np.argmin(np.abs(det_m))), det_m.shape)
            node = tuple(float(ax[k]) for ax, k in zip(box_axes, where)) + (float(z),)
            raise FocalRegion(f"one-form system singular at slab node {node}: "
                              f"det {det_m[where]:.3g}")
        A_x = metric.eval_A(env, face[0].shape)
        row["Ap"], row["Am"], *Aj = _solve_small(M, [A_x[..., i] for i in range(n + 1)])
        row.update({f"Aj{j}": Aj[j] for j in lat})
        for name, value in row.items():
            slab_fields[name][r] = value

    for r, z in enumerate(depth_nodes):
        form_row(r, z)
    y0, yn = GoursatChart.pair_to_normal(psi_p[window], psi_m[window], T1, T2)
    y_of_x = np.stack([rows_last(c) for c in [y0, *(p[window] for p in phi_box), yn]], axis=-1)
    return ({name: rows_last(f) for name, f in slab_fields.items()}, y_of_x,
            rows_last(jac_det), rows_last(slab_fields["focal"][window]) == 1.0)


def _read_box(fracs: np.ndarray, overlap: tuple, grid: SpacetimeGrid) -> tuple:
    """Node ranges (as _coverage's) of every node the chart reads.

    fracs[..., d] are fractional indices on the overlap box's axis d.  Per
    axis, the hull of their cells is widened by the stencil's reach (-1 to +2
    nodes), then by one node for np.gradient's edge stencil, joined with the
    window widened by one node, and clipped to the overlap.  On the box,
    every stencil at fracs minus the box's offset clamps, weighs and reads as
    on the whole overlap, and every difference at those nodes and on the
    window is a centred one wherever it is on the whole overlap.
    """
    box = []
    for d, ((o_lo, o_hi), ax) in enumerate(zip(overlap, grid.face_axes())):
        cells = np.floor(fracs[..., d])
        lo = min(o_lo + int(cells.min()) - 2, -1)        # reach -1, then the edge node
        hi = max(o_lo + int(cells.max()) + 3, len(ax))   # reach +2, then the edge node
        box.append((max(lo, o_lo), min(hi, o_hi)))
    return tuple(box)


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of y over x along axis 0, from row 0 (zero) on."""
    out = np.zeros_like(y)
    np.cumsum(np.diff(x, axis=0) * (y[1:] + y[:-1]) / 2.0, axis=0, out=out[1:])
    return out


@dataclass
class _Rays:
    """Virtual receding rays of the chart pull, integrated on every slab
    depth row (_virtual_rays)."""

    pos: np.ndarray        # (nrows, launches, *lateral, n) tangential positions
    first: int             # the first level the rays serve, launched at T1 + first dty
    count: int             # the levels they serve: 1, or nt_y from level 0
    nq_cap: int            # chart depth steps the pull tries first
    short: bool            # the launches end before the depth the chart may reach


def _chart_steps(grid: SpacetimeGrid) -> tuple:
    """(dty, nt_y): the chart's time step and levels.  The step divides the
    window into the fewest steps that keep it within a third of the finest
    lateral spacing (the depth spacing for n = 1); the chart's depth step is
    three times it."""
    window = grid.t2 - grid.t1
    href = min(grid.h[:-1]) if grid.n > 1 else grid.h[-1]
    steps = int(math.ceil(window / (href / 3.0)))
    return window / steps, steps + 1


def _one_level(metric: MetricField) -> bool:
    """True when neither g nor A reads x0: the pull then serves the middle
    chart-time level alone (the time symmetry, module notes)."""
    return _time_free((*(e for row in metric.g for e in row), *metric.A))


def _depth_steps(window: float, dz: float, y_depth, drop) -> int:
    """Chart depth steps of dz the pull may try: within y_depth and half the
    window, and, for a drop, at most one past drop / (2 dz), the deepest a
    virtual ray along which the advancing phase falls by drop can reach
    (_virtual_rays)."""
    cap = 0.5 * window if y_depth is None else min(float(y_depth), 0.5 * window)
    steps = int(math.floor(cap / dz + 1e-9))
    return steps if drop is None else min(steps, int(math.floor(drop / (2.0 * dz))) + 1)


def _virtual_rays(metric: MetricField, grid: SpacetimeGrid, cover: tuple, rows: int,
                  y_depth, drop=None, one_level=False) -> _Rays:
    """Stage one of the chart pull: receding rays launched on the chart's own
    time lattice (_chart_steps) and the grid's lateral nodes, integrated in
    depth over the slab's rows by the fans' kernel (_ray_rows).  Under the
    time symmetry the kernel integrates one launch slice.

    Chart level i at depth step q reads the ray launched at T1 + (i + 3q) dty.
    The rays serve every level, or with one_level (_one_level) the middle
    one, nt_y // 2, alone: then only its 1 + 3 nq_cap launches are integrated.
    The launches run on past the last level served as far as the chart depth
    can reach: capped by y_depth and half the window and, given drop, by the
    slab's reach.  The launches that the fans' coverage overlap (cover, its
    (time, lateral) axes) supports are counted past T2 either way, so both
    give the same depth cap.  On row 0 the advancing phase along the ray
    launched at xi is xi - T1; on the last row it is lower by that receding
    ray's backward time drift plus the forward drift of the advancing ray
    through its end, at most drop (both fans' largest drifts).  The pull's
    depth test at nq steps of dz needs a fall of 2 nq dz, so it cannot pass
    past drop / (2 dz) (_depth_steps).
    Raises ValueError when the overlap supports fewer than four chart depth
    steps past T2, or when a ray leaves the overlap, where the pull's
    stencils would clamp.  The rays are marked short when the launches end
    before the depth the chart may reach, which the pull then refuses if its
    chart reaches them all.
    """
    T1, T2 = grid.t1, grid.t2
    dty, nt_y = _chart_steps(grid)
    dz = 3.0 * dty

    nq_cap = _depth_steps(T2 - T1, dz, y_depth, None)
    launched = (int(math.floor((cover[0][-1] - T1) / dty + 1e-9)) + 1 - nt_y) // 3
    if min(nq_cap, launched) < 4:
        raise ValueError(f"fan coverage overlap too narrow for the chart: launches end at "
                         f"t = {cover[0][-1]:.4f}, {min(nq_cap, launched)} chart depth steps "
                         f"of {dz:.4f} past T2 = {T2:.4f}, need 4; increase pad_time")
    reach = _depth_steps(T2 - T1, dz, y_depth, drop)
    nq_cap = min(reach, launched)
    first, count = (nt_y // 2, 1) if one_level else (0, nt_y)
    launches = (T1 + dty * (first + np.arange(count + 3 * nq_cap)), *grid.face_axes()[1:])
    pos = np.stack([row for _, row in _ray_rows(metric, "-", launches, grid.h[-1], rows - 1)])
    for d, ax in enumerate(cover):
        outside = np.maximum(ax[0] - pos[..., d], pos[..., d] - ax[-1])
        if np.max(outside) > 1e-12:
            m, *at = np.unravel_index(np.argmax(outside), outside.shape)
            launch = ", ".join(f"{a[k]:.4f}" for a, k in zip(launches, at))
            raise ValueError(
                f"virtual receding ray launched at ({launch}) reaches x{d} = "
                f"{pos[(m, *at, d)]:.4f} on depth row {m}, outside the fans' coverage "
                f"overlap [{ax[0]:.4f}, {ax[-1]:.4f}]; increase "
                f"{'pad_time' if d == 0 else 'pad_lat'}")
    return _Rays(pos, first, count, nq_cap, launched < reach)


def _pull_to_chart(rays: _Rays, fracs: np.ndarray, slab_fields: dict, grid: SpacetimeGrid,
                   T1: float, T2: float):
    """Re-grid slab fields onto the chart rectangle along the virtual rays.

    Stage one samples every slab field (*box, depth rows) at the rays'
    points, fracs (nrows, launches, *lateral, n) fractional indices on the
    box: one _Stencil per fan row, located once for all fields.  A field
    stored depth row first, as _slab_fields' are, is read in place; a caller
    that keeps no reference to slab_fields frees them after stage one.  The
    rays' positions become the x{d} rows.  slab_fields must hold the advancing
    phase "s" and the outgoing hatted potential "Ap"; "Ap" leaves as the
    gauge phase "d" = -int Ap ds, zero on the face and integrated along each
    virtual ray, where (tau, y') are frozen.  Stage two inverts the advancing
    phase along each virtual ray (two Newton steps on the 4-point row
    interpolant from a linear bracket) to land on the requested chart depth
    nodes, the targets s* = dty (i - 3q) at the absolute level i; the
    converged rows locate one _RowStencil, which gives the miss check, its
    one read of "s", and reads every other field's rows at the targets'
    launches in place, each sample dropped once it is read.  It raises
    ValueError when a node still misses its phase value by more than
    1e-9 * dty.  When the rays are short (_virtual_rays) and the chart
    reaches all the depth steps their launches support, it raises ValueError
    rather than return a chart that more launches might deepen.
    Returns (y_grid, pulled fields, fractional row index) on the chart's
    nt_y levels, the index and the fields read-only views.  For rays that
    serve one level, that level is broadcast over the others with a zero
    time stride, and "x0" (a new array) is shifted by (i - first) dty at
    level i.
    """
    n = grid.n
    dty, nt_y = _chart_steps(grid)
    dz = 3.0 * dty
    nrows = rays.pos.shape[0]
    stage1 = {name: np.empty(rays.pos.shape[:-1]) for name in slab_fields}
    for m in range(nrows):
        stencil = _Stencil(fracs[m], slab_fields["s"].shape[:-1])
        for name, field in slab_fields.items():
            stage1[name][m] = stencil(field[..., m, None])[..., 0]
    del slab_fields   # the last reference: the slab goes with it
    S = stage1.pop("s")
    stage1.update({f"x{d}": rays.pos[..., d] for d in range(n)})
    stage1["d"] = _cumulative_trapezoid(-stage1.pop("Ap"), S)
    lat_shape = rays.pos.shape[2:-1]

    # feasible chart depth: every virtual ray must reach its deepest target
    first, count = rays.first, rays.count
    nq = rays.nq_cap
    while nq > 0:
        i_idx = np.arange(count)
        cols = i_idx + 3 * nq
        s_star = dty * (first + i_idx - 3.0 * nq)
        deepest = S[-1, cols].reshape(count, -1).max(axis=-1)
        if np.all(deepest <= s_star + 1e-12):
            break
        nq -= 1
    if nq < 4:
        raise ValueError(f"chart depth coverage too shallow: the rays reach {nq} chart depth "
                         f"steps of {dz:.4f}, need 4; deepen the slab")
    if rays.short and nq == rays.nq_cap:
        raise ValueError(f"chart pull: the rays reach all {nq} chart depth steps of {dz:.4f} "
                         f"that the launches support, and the slab may reach deeper; "
                         "increase pad_time")

    i_grid, q_grid = np.meshgrid(np.arange(count), np.arange(nq + 1), indexing="ij")
    cols = (i_grid + 3 * q_grid).ravel()
    s_star = (dty * (first + i_grid - 3.0 * q_grid)).ravel()[(...,) + (None,) * len(lat_shape)]
    # the flat index of each target's column in one row (launches, *lateral)
    lat_size = math.prod(lat_shape)
    at = (cols * lat_size).reshape((-1,) + (1,) * len(lat_shape)) \
        + np.arange(lat_size).reshape(lat_shape)

    # S falls with the row: bracket each target between rows k-1 and k
    S_t = S[:, cols]
    k = np.clip(np.sum(S_t > s_star, axis=0), 1, nrows - 1)
    lo = np.take_along_axis(S_t, (k - 1)[None], axis=0)[0]
    hi = np.take_along_axis(S_t, k[None], axis=0)[0]
    del S_t
    theta = np.where(lo > hi, (lo - s_star) / np.where(lo > hi, lo - hi, 1.0), 0.0)
    r = np.clip(k - 1 + theta, 0.0, nrows - 1.0)
    for _ in range(2):
        stencil = _RowStencil(r, at, S.shape)
        fval, slope = stencil(S), stencil(S, _lagrange_dweights)
        slope = np.where(np.abs(slope) < 1e-14, -1e-14, slope)
        r = np.clip(r - (fval - s_star) / slope, 0.0, nrows - 1.0)
    # located once at the converged rows, for the miss check and every field
    stencil = _RowStencil(r, at, S.shape)

    def to_y_shape(flat):   # (count, nq+1, *lat) -> (nt_y, *lat, nq+1), a broadcast view
        levels = np.moveaxis(flat.reshape((count, nq + 1) + lat_shape), 1, -1)
        return np.broadcast_to(levels, (nt_y,) + levels.shape[1:])

    extent = tuple(grid.extent[:-1]) + (nq * dz,)
    h = tuple(grid.h[:-1]) + (dz,)
    y_grid = SpacetimeGrid(n=n, extent=extent, h=h, dt=dty, t1=T1, t2=T2,
                           boundary_patch=grid.boundary_patch)

    miss = to_y_shape(np.abs(stencil(S) - s_star))
    bad = miss > 1e-9 * dty
    if np.any(bad):
        worst = np.unravel_index(np.argmax(miss), miss.shape)
        node = [ax[i] for ax, i in zip(y_grid.axes(), worst)]
        raise ValueError(
            f"chart pull: {int(np.sum(bad))} chart nodes miss the advancing phase after "
            f"two Newton steps (worst residual {float(miss[worst]):.2e} at chart node "
            f"y = ({', '.join(f'{c:.4f}' for c in node)})); refine the slab depth step"
        )

    # each sample goes once it is pulled
    pulled = {name: to_y_shape(stencil(stage1.pop(name))) for name in list(stage1)}
    x0 = pulled["x0"]
    if x0.strides[0] == 0:   # level i is the pulled one shifted by i - first chart time steps
        pulled["x0"] = x0 + dty * (np.arange(nt_y) - first).reshape((nt_y,) + (1,) * (x0.ndim - 1))
    return y_grid, pulled, to_y_shape(r)


# ---------------------------------------------------------------------------
# The transformed operator
# ---------------------------------------------------------------------------

@dataclass
class TransformedOperator:
    """Unit-speed normal form of the wave operator on the chart rectangle.

    The time and depth slots both carry speed one and the shared potential
    component A_minus; the outgoing potential component is identically zero
    by the gauge choice.  metric_matrix/potential_vector are the sampled
    arrays a forward run consumes, with unit volume weight; V1 is the
    zeroth-order remainder from the lateral volume normalization.
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
    g1: np.ndarray
    d_gauge: np.ndarray

    def provider(self) -> SampledCoefficients:
        """Sampled-coefficient view consumed by the forward stepper."""
        v1 = self.V1 if np.any(_levels(self.V1) != 0.0) else None
        return SampledCoefficients(self.grid, self.metric_matrix,
                                   self.potential_vector, rho=np.ones(self.grid.shape), v1=v1)

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


def _diff(a: np.ndarray, steps: list, axis: int) -> np.ndarray:
    """Centered difference of a along axis, second order at the ends; along
    the time axis of one distinct level (_levels) exactly zero."""
    if axis == 0 and len(a) == 1:
        return np.zeros_like(a)
    return np.gradient(a, steps[axis], axis=axis, edge_order=2)


def potential_term(g1: np.ndarray, g0_plus_j: list, g0_jk: list,
                   grid: SpacetimeGrid) -> np.ndarray:
    """Zeroth-order remainder of the lateral volume normalization, sampled
    on g1's levels: every chart-time level, or one (_diff).

    Derivatives are centered differences on the chart grid; the in/outgoing
    derivative combinations are formed from the time and depth axes.
    """
    n = grid.n
    if n == 1:
        return np.zeros(g1.shape)
    steps = grid.steps()
    A = 0.25 * np.log(g1)
    dA = [_diff(A, steps, axis) for axis in range(n + 1)]
    A_s = 0.5 * (dA[0] - dA[n])
    A_tau = -0.5 * (dA[0] + dA[n])
    A_stau = -0.25 * (_diff(dA[0], steps, 0) - _diff(dA[n], steps, n))

    V = -4.0 * A_stau - 4.0 * A_s * A_tau
    for j in range(1, n):
        for k in range(1, n):
            gjk = g0_jk[j - 1][k - 1]
            V = V + gjk * dA[j] * dA[k]
            V = V + _diff(gjk * dA[j], steps, k)
        bj = g0_plus_j[j - 1]
        V = V + 4.0 * bj * A_s * dA[j]
        flux = bj * dA[j]
        ds_flux = 0.5 * (_diff(flux, steps, 0) - _diff(flux, steps, n))
        V = V + 2.0 * (ds_flux + _diff(bj * A_s, steps, j))
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
    the chart's sampled volume factor.  Every coefficient array is a read-only
    view, formed on the pulled fields' distinct levels and broadcast over
    chart time (the time symmetry, module notes): for a one-level chart the
    provider is static, so the transformed run builds its coefficients and
    checks its cone once.
    """
    if A is None:
        A = metric.A
    built = [a.render() for a in chart.metric.A]
    given = [_as_expr(a).render() for a in A]
    if built != given:
        raise ValueError(f"chart was built for a different potential: built with "
                         f"({', '.join(built)}), given ({', '.join(given)})")

    pulled = chart._pull
    focal = float(np.max(pulled["focal"]))
    if focal > 0.05:
        raise FocalRegion(f"chart rectangle overlaps focal nodes: largest pulled focal weight "
                          f"{focal:.3g} > 0.05; reduce y_depth or j_max")

    n = chart.grid.n
    y_grid = chart.y_grid
    ghpm = pulled["ghpm"]
    if np.any(ghpm <= 0.0):
        raise FocalRegion(f"phase-pair normalization lost positivity on the rectangle: "
                          f"{int(np.sum(ghpm <= 0.0))} of {ghpm.size} nodes have ghpm <= 0, "
                          f"least {float(np.min(ghpm)):.3g}")

    # every coefficient is formed on the pulled fields' distinct levels
    lv = {name: _levels(value) for name, value in pulled.items()}
    ghpm = lv["ghpm"]
    g0_plus_j = [lv[f"ghp{j}"] / ghpm for j in range(n - 1)]
    g0_jk = [[lv[f"gh{j}{k}"] / ghpm for k in range(n - 1)] for j in range(n - 1)]

    shape = (y_grid.nt,) + y_grid.shape
    steps = y_grid.steps()
    d = lv["d"]
    A_minus = lv["Am"] - 0.5 * (_diff(d, steps, 0) + _diff(d, steps, n))
    A_j = [lv[f"Aj{j}"] - _diff(d, steps, j + 1) for j in range(n - 1)]
    V1 = potential_term(lv["g1"], g0_plus_j, g0_jk, y_grid)

    G = np.zeros(A_minus.shape + (n + 1, n + 1))
    G[..., 0, 0] = 1.0
    G[..., n, n] = -1.0
    for j in range(1, n):
        G[..., 0, j] = g0_plus_j[j - 1]
        G[..., j, 0] = g0_plus_j[j - 1]
        G[..., n, j] = -g0_plus_j[j - 1]
        G[..., j, n] = -g0_plus_j[j - 1]
        for k in range(1, n):
            G[..., j, k] = g0_jk[j - 1][k - 1]

    A_vec = np.zeros(A_minus.shape + (n + 1,))
    A_vec[..., 0] = A_minus
    A_vec[..., n] = A_minus
    for j in range(1, n):
        A_vec[..., j] = A_j[j - 1]

    def every(a):   # the distinct levels on every chart-time level, a read-only view
        return np.broadcast_to(a, shape + a.shape[len(shape):])

    return TransformedOperator(
        g0_plus_j=[every(b) for b in g0_plus_j],
        g0_jk=[[every(a) for a in row] for row in g0_jk],
        A_minus=every(A_minus),
        A_j=[every(a) for a in A_j],
        V1=every(V1),
        gh_pm=every(ghpm),
        grid=y_grid,
        metric_matrix=every(G),
        potential_vector=every(A_vec),
        g1=chart.g1,
        d_gauge=chart.d_gauge,
    )


def transformed_time_step(op: TransformedOperator) -> float:
    """Half the CFL-limited step of the operator's chart rectangle, at the
    closed-form cone speed bound that solve_ibvp checks every level against."""
    return 0.5 * min(op.grid.h) / float(np.max(_cone(_levels(op.metric_matrix))["speed"]))


def solve_transformed_ibvp(op: TransformedOperator, f, grid: SpacetimeGrid,
                           forcing=None, **kwargs) -> WaveField:
    """Forward run of the normalized operator on its chart rectangle.

    f is face data in chart coordinates (identical to face data in the
    original coordinates, since the chart restricts to the identity there).
    Remaining keyword arguments pass through to the forward solver, which
    checks every level and reports the realised CFL.
    """
    if grid != op.grid:
        raise ValueError(f"grid must be the operator's chart rectangle {op.grid}, got {grid}")
    return solve_ibvp(None, None, f, grid, forcing, provider=op.provider(), **kwargs)


# ---------------------------------------------------------------------------
# Utilities
# ---------------------------------------------------------------------------

def find_chart_depth(metric: MetricField, grid: SpacetimeGrid, cap: float) -> float:
    """Largest slab depth (multiple of the depth spacing) both families reach.

    Bisects on the crossing error.  Each probe only integrates the two fans
    with solve_eikonal's default pads at the probed depth (_default_pads,
    per family and per end) and checks folds, radicands and coverage row by
    row; no fan keeps its rows and nothing is marched.  Those are the checks
    where solve_eikonal refuses a fold, so both agree on the depth.  The
    positivity of the phase-pair normalization is enforced later by the
    chart's focal mask.
    """
    hz = grid.h[-1]
    nz_cap = int(math.floor(cap / hz + 1e-9))
    if nz_cap < 3:
        raise ValueError(f"cap {cap:.4f} allows {nz_cap} depth steps of h_n = {hz:.4f}; "
                         f"need at least 3 * h_n = {3 * hz:.4f}")

    drift = _face_drift(metric, grid)

    def crossing(nz: int):  # (side, refusal) of the first family that crosses, or None
        for side in ("+", "-"):
            pads = _default_pads(grid, nz * hz, drift, side)
            try:
                _coverage(_integrate_fan(metric, side, grid, nz * hz, *pads), grid)
            except CharacteristicCrossing as err:
                return side, err
        return None

    if crossing(nz_cap) is None:
        return nz_cap * hz
    lo, hi = 3, nz_cap
    first = crossing(lo)
    if first is not None:
        raise CharacteristicCrossing(
            f"the '{first[0]}' family folds within three depth steps: {first[1]}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if crossing(mid) is None:
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
