"""Spacetime grids, metrics, gauges, diffeomorphisms, and causal diagnostics.

Conventions used throughout the laboratory:

* coordinates are x0 (time) and x1..xn (space), n in {1, 2};
* the spatial domain is the box prod_i [0, extent_i], the accessible boundary
  patch sits on the face x_n = 0, and the time window is [t1, t2];
* the inverse metric g^{jk} has signature (+1, -1, ..., -1): g^{00} > 0 and the
  spatial block is negative definite;
* grid arrays are indexed [x1, ..., xn] (last axis is the depth axis x_n) and
  time-resolved fields carry time as the leading axis;
* expressions become arrays in one place, a `_Plan`: an Expr or nested
  lists of them, lowered once into let-bindings so that a subtree shared
  between entries is evaluated once, then run over an env of arrays to a
  float array.  MetricField, Diffeo and GaugeField keep the plans of the
  tables they own; `_eval_table` runs a one-off table such as the DN face
  rows, and `_time_levels` a table walked level by level (the checks, the
  solver's g and A).  A level is nested rows of per-node arrays, the form
  `_rows` gives, and holds only what varies: its part without x0 runs once,
  each entry without x0 is one read-only array that every level shares,
  an entry and its transposed twin are one array, and x0 is one number;
* per-node matrices are at most 3x3 and are factored in closed form here:
  `_det` (cofactor expansion) and `_solve_small` (Cramer's rule on it) for
  determinants and solves, `_sym_eigs` for the cone's 1x1/2x2 eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import Add, Call, Const, Div, Expr, Mul, Neg, Pow, Sub, Var, parse_expr

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
    if isinstance(expression, Var):
        return bindings.get(expression.name, expression)
    if isinstance(expression, Const):
        return expression
    if isinstance(expression, Add):
        return substitute(expression.left, bindings) + substitute(expression.right, bindings)
    if isinstance(expression, Sub):
        return substitute(expression.left, bindings) - substitute(expression.right, bindings)
    if isinstance(expression, Mul):
        return substitute(expression.left, bindings) * substitute(expression.right, bindings)
    if isinstance(expression, Div):
        return substitute(expression.left, bindings) / substitute(expression.right, bindings)
    if isinstance(expression, Pow):
        return Pow(substitute(expression.base, bindings), expression.exponent)
    if isinstance(expression, Neg):
        return -substitute(expression.operand, bindings)
    if isinstance(expression, Call):
        return Call(expression.func, substitute(expression.arg, bindings))
    raise TypeError(f"cannot substitute into {expression!r}")


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse_expr(value)
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot interpret {value!r} as a field expression")


def _parts(e: Expr) -> tuple:
    """(label, children) of a node: with its type, what makes a subtree itself."""
    if isinstance(e, (Add, Sub, Mul, Div)):
        return None, (e.left, e.right)
    if isinstance(e, Pow):
        return repr(e.exponent.value), (e.base,)
    if isinstance(e, Neg):
        return None, (e.operand,)
    if isinstance(e, Call):
        return e.func, (e.arg,)
    if isinstance(e, Var):
        return e.name, ()
    return repr(e.value), ()


def _rebuild(e: Expr, kids: list) -> Expr:
    """e with its children replaced by kids; e itself when none changed."""
    if all(new is old for new, old in zip(kids, _parts(e)[1])):
        return e
    if isinstance(e, Pow):
        return Pow(kids[0], e.exponent)
    if isinstance(e, Call):
        return Call(e.func, kids[0])
    return type(e)(*kids)


class _Plan:
    """An Expr, or nested lists of them, lowered once into let-bindings.

    Subtrees are shared by structure: two are one when they have the same node
    types, function names, variable names and constants, the constants told
    apart by repr (so -0.0 is not 0.0); a*b*c and a*(b*c) stay two.  Every
    compound subtree that occurs more than once in the table, and every
    non-Const entry, becomes one step: an ordinary Expr whose shared children
    are Vars naming earlier steps ("%0", "%1", ..., names no parsed
    expression can use).  A call runs each step once with Expr.evaluate, so
    every value comes from the same numpy operations, in the same order, as
    walking each entry's tree, and is bitwise equal to it.  Each entry of a
    call's output, out[..., j, k], is contiguous.  With `varying` names, each
    largest compound subtree without them is a step too, which `fix` runs
    once; the table it returns is nested rows of arrays.
    """

    def __init__(self, table, varying=()):
        cells = np.array(table, dtype=object)
        keys, nodes, refs, seen, free = {}, [], [], {}, []

        def intern(e):  # hash-consing: one id per distinct subtree
            if id(e) not in seen:
                label, children = _parts(e)
                kids = [intern(c) for c in children]
                key = (type(e), label, *kids)
                if key not in keys:
                    keys[key] = len(nodes)
                    nodes.append((e, kids))
                    refs.append(0)
                    free.append(e.variables().isdisjoint(varying))
                    for kid in kids:
                        refs[kid] += 1
                seen[id(e)] = keys[key]
            return seen[id(e)]

        entries = {idx: intern(e) for idx, e in np.ndenumerate(cells) if not isinstance(e, Const)}
        roots = {uid: i for i, uid in enumerate(dict.fromkeys(entries.values()))}
        for uid in roots:
            refs[uid] += 1
        bound = set(roots) | {uid for uid, (_, kids) in enumerate(nodes) if kids and refs[uid] > 1}
        bound |= {kid for uid, (_, kids) in enumerate(nodes) if not free[uid]
                  for kid in kids if free[kid] and nodes[kid][1]}
        self.steps, names = [], {}

        def emit(uid):
            if uid in names:
                return Var(names[uid])
            e, kids = nodes[uid]
            e = _rebuild(e, [emit(kid) for kid in kids])
            if uid not in bound:
                return e
            names[uid] = f"%{len(self.steps)}"
            self.steps.append((names[uid], e))
            return Var(names[uid])

        for uid in roots:
            emit(uid)
        self.roots = [names[uid] for uid in roots]
        self.fixed = {names[uid] for uid in bound if free[uid]}
        self.dims = cells.shape
        self.slots = [(idx, roots[uid]) for idx, uid in entries.items()]
        # zero slots, most of a grad_g table, stay as allocated: a zero of either sign is +0.0
        self.fills = [(idx, e.value) for idx, e in np.ndenumerate(cells)
                      if isinstance(e, Const) and e.value != 0.0]

    def __call__(self, env: dict, shape=None) -> np.ndarray:
        """The table's float array of shape + table dims over env.

        Every entry is broadcast to shape, which defaults to the broadcast
        shape of the evaluated entries (() when all are constant)."""
        local = dict(env)
        for name, step in self.steps:
            local[name] = step.evaluate(local)
        values = [np.asarray(local[name], dtype=float) for name in self.roots]
        if shape is None:
            shape = np.broadcast_shapes(*(v.shape for v in values))
        out = np.zeros(self.dims + tuple(shape))
        for idx, i in self.slots:
            out[idx] = values[i]
        for idx, value in self.fills:
            out[idx] = value
        return np.moveaxis(out, tuple(range(len(self.dims))), tuple(range(-len(self.dims), 0)))

    def fix(self, env: dict, shape: tuple):
        """Run the steps without `varying` names over env once, here; returns
        (env of the varying names) -> the table as nested rows of C-contiguous
        float arrays of shape, which runs the rest.  An entry without them,
        a constant one included, is one read-only array that every call
        returns; entries that are one subtree (g's twins) are one array.  Of
        env and the fixed values, it keeps only those the rest reads."""
        local = dict(env)
        for name, step in self.steps:
            if name in self.fixed:
                local[name] = step.evaluate(local)
        rest = [step for step in self.steps if step[0] not in self.fixed]

        def shaped(value):  # value itself when it is a C-contiguous float array of shape
            value = np.asarray(value, dtype=float)
            if value.shape == shape and value.flags.c_contiguous:
                return value
            return np.broadcast_to(value, shape).copy()

        def frozen(value):  # np.broadcast_to gives a read-only view
            return np.broadcast_to(shaped(value), shape)

        held = [frozen(local[name]) if name in self.fixed else None for name in self.roots]
        fills, cells = dict(self.fills), np.empty(self.dims, dtype=object)
        for idx in set(np.ndindex(self.dims)).difference(idx for idx, _ in self.slots):
            cells[idx] = frozen(fills.get(idx, 0.0))  # a zero of either sign is +0.0
        read = set().union(*(step.variables() for _, step in rest))
        local = {name: value for name, value in local.items() if name in read}

        def level(varying: dict) -> list:
            values = dict(local, **varying)
            for name, step in rest:
                values[name] = step.evaluate(values)
            roots = [shaped(values[name]) if h is None else h
                     for name, h in zip(self.roots, held)]
            out = cells.copy()
            for idx, i in self.slots:
                out[idx] = roots[i]
            return out.tolist()

        return level


def _eval_table(table, env: dict, shape=None) -> np.ndarray:
    """Compile table into a _Plan and run it once, for tables evaluated once.

    A table evaluated again and again belongs to an owner that keeps its plan:
    MetricField (g, A, the Hamiltonian-gradient terms), Diffeo (forward map,
    Jacobian), GaugeField (phase) and the solver's coefficient evaluators.
    """
    return _Plan(table)(env, shape)


def _time_levels(table, grid: SpacetimeGrid):
    """t -> the table on grid's spatial mesh at x0 = t as nested rows of
    per-node arrays, bitwise as evaluated on grid.env_at_time(t).  Its
    subtrees without x0 run once, here, and of those only the values a level
    reads are kept; an entry without x0 is the same read-only array at every
    level.  x0 is one number per level, held as a (1, ..., 1) array so that a
    subtree of x0 alone is evaluated once per level, by the numpy functions a
    full mesh would use (Call.evaluate sends a numpy scalar to math)."""
    at = _Plan(table, varying=("x0",)).fix(grid.spatial_env(), grid.shape)
    return lambda t: at({"x0": np.full((1,) * grid.n, float(t))})


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
            raise ValueError(f"spatial dimension must be 1 or 2, got {self.n}")
        extent = tuple(float(v) for v in self.extent)
        h = self.h
        if isinstance(h, (int, float)):
            h = (float(h),) * self.n
        h = tuple(float(v) for v in h)
        if len(extent) != self.n or len(h) != self.n:
            raise ValueError(f"extent and h must have one entry per spatial axis ({self.n}), "
                             f"got {len(extent)} and {len(h)}")
        for name, values in (("extent", extent), ("spacing", h)):
            for i, v in enumerate(values):
                if v <= 0:
                    raise ValueError(f"{name} on x{i + 1} must be strictly positive, got {v:g}")
        if self.dt <= 0:
            raise ValueError(f"dt must be strictly positive, got {self.dt:g}")
        if not self.t2 > self.t1:
            raise ValueError(f"time window [t1, t2] = [{self.t1:g}, {self.t2:g}] must have t2 > t1")
        for i, (length, spacing) in enumerate(zip(extent, h)):
            ratio = length / spacing
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(f"each extent must be an integer multiple of h: x{i + 1} has "
                                 f"extent/h = {length:g}/{spacing:g} = {ratio:.6g}")
        patch = tuple((float(lo), float(hi)) for lo, hi in self.boundary_patch)
        if len(patch) != max(self.n - 1, 0):
            if patch == ():
                patch = tuple((0.0, extent[i]) for i in range(self.n - 1))
            else:
                raise ValueError(f"boundary_patch needs one [lo,hi] pair per tangential axis "
                                 f"({self.n - 1}), got {len(patch)}")
        for i, (lo, hi) in enumerate(patch):
            if not (0.0 <= lo < hi <= extent[i]):
                raise ValueError(f"boundary_patch bounds must be a nonempty interval inside the "
                                 f"face: got [{lo:g}, {hi:g}] on x{i + 1}, face [0, {extent[i]:g}]")
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

    def axes(self) -> list:
        """Coordinates of every grid axis: the times, then x1..x_n."""
        return [self.times()] + [self.axis(i) for i in range(1, self.n + 1)]

    def steps(self) -> list:
        """Spacing of every grid axis, in the order of axes(): dt, then h1..h_n."""
        return [self.dt] + list(self.h)

    def spatial_env(self) -> dict:
        """Meshgrid env {'x1': X1, ...} over the spatial nodes (ij indexing)."""
        mesh = np.meshgrid(*self.axes()[1:], indexing="ij")
        return {f"x{i + 1}": mesh[i] for i in range(self.n)}

    def env_at_time(self, t: float) -> dict:
        env = self.spatial_env()
        env["x0"] = np.full(self.shape, float(t))
        return env

    def face_axes(self) -> list:
        """Coordinates of the face x_n = 0 over the window: the times, then x1..x_{n-1}."""
        return self.axes()[:-1]

    def face_env(self) -> dict:
        """Env over every time level of the face x_n = 0: arrays that broadcast
        to (nt, *face shape), with x_n the scalar 0."""
        env = {f"x{j}": a.reshape([-1 if i == j else 1 for i in range(self.n)])
               for j, a in enumerate(self.face_axes())}
        env[f"x{self.n}"] = 0.0
        return env

    def patch_mask_face(self) -> np.ndarray:
        """Boolean mask over the x_n = 0 face selecting the accessible patch."""
        face = self.face_env()
        mask = np.ones((), dtype=bool)
        for j, (lo, hi) in enumerate(self.boundary_patch, start=1):
            x = face[f"x{j}"][0]
            mask = mask & (x >= lo - 1e-12) & (x <= hi + 1e-12)
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
    raise ValueError(f"determinant implemented for sizes 1..3, got a {size} x {size} matrix")


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
        g = [[_as_expr(g_upper[j][k]) for k in range(size)] for j in range(size)]
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
            raise ValueError(f"potential needs n+1 = {size} components, got {len(self.A)}")
        self._rho = None
        self._grad_g = None
        self._ham_plans = {}

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

    @cached_property
    def _ham_terms(self) -> list:
        """(j, k, q, d g^{jk}/d x_q) over j <= k, for every derivative that is
        not a zero Const."""
        size = self.n + 1
        grad = self.grad_g()
        return [(j, k, q, grad[j][k][q])
                for j in range(size) for k in range(j, size) for q in range(size)
                if not (isinstance(grad[j][k][q], Const) and grad[j][k][q].value == 0.0)]

    def eval_ham(self, env: dict, shape=None, count=None) -> tuple:
        """(g, dH) over env from one plan, built once per count: g, and dH(p)
        the gradient dH_q = sum_{j,k} d g^{jk}/d x_q p_j p_k of H = g^{jk} p_j
        p_k for q < count (default n + 1), over the derivatives that are not
        a zero Const, as (..., count) for covectors p (..., n+1)."""
        count, size = self.n + 1 if count is None else count, self.n + 1
        if count not in self._ham_plans:
            terms = [term for term in self._ham_terms if term[2] < count]
            table = [e for row in self.g for e in row] + [term[3] for term in terms]
            self._ham_plans[count] = terms, _Plan(table)
        terms, plan = self._ham_plans[count]
        values = plan(env, shape)

        def dH(p):
            out = np.zeros(p.shape[:-1] + (count,))
            for i, (j, k, q, _) in enumerate(terms, size * size):
                out[..., q] += (1.0 if j == k else 2.0) * values[..., i] * p[..., j] * p[..., k]
            return out

        return values[..., :size * size].reshape(values.shape[:-1] + (size, size)), dH

    @cached_property
    def _A_plan(self) -> _Plan:
        return _Plan(self.A)

    def eval_g(self, env: dict, shape=None) -> np.ndarray:
        return self.eval_ham(env, shape, count=0)[0]  # no gradient terms

    def eval_A(self, env: dict, shape=None) -> np.ndarray:
        return self._A_plan(env, shape)


# ---------------------------------------------------------------------------
# GaugeField / Diffeo
# ---------------------------------------------------------------------------

class GaugeField:
    """Unit-modulus multiplier c = exp(i phase) with phase real, c = 1 on the patch."""

    def __init__(self, phase):
        self.phase = _as_expr(phase)

    def conj(self) -> "GaugeField":
        return GaugeField(-self.phase)

    @cached_property
    def _phase_plan(self) -> _Plan:
        return _Plan(self.phase)

    def eval_c(self, env: dict) -> np.ndarray:
        return np.exp(1j * self._phase_plan(env))

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
            raise ValueError(f"forward map needs n+1 = {size} components, got {len(self.forward)}")
        self.inverse = None
        if inverse is not None:
            self.inverse = [_as_expr(c) for c in inverse]
            if len(self.inverse) != size:
                raise ValueError(f"inverse map needs n+1 = {size} components, "
                                 f"got {len(self.inverse)}")
        self.jacobian = [
            [self.forward[j].diff(f"x{p}") for p in range(size)] for j in range(size)
        ]

    @classmethod
    def identity(cls, n: int) -> "Diffeo":
        comps = [Var(f"x{j}") for j in range(n + 1)]
        return cls(n, comps, comps)

    @cached_property
    def _forward_plan(self) -> _Plan:
        return _Plan(self.forward)

    def eval_forward(self, env: dict) -> np.ndarray:
        """y(x) as an (..., n+1) array."""
        return self._forward_plan(env)

    def check_nonsingular(self, grid: SpacetimeGrid):
        """Raise SingularJacobian at the first node, over every time level, where
        det dy/dx is below 1e-12 in magnitude or has the other sign than at the
        first node."""
        axes = grid.axes()[1:]
        first, jacobian = None, _time_levels(self.jacobian, grid)
        for t in grid.times():
            det = _det(jacobian(t))
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
        g_at, time_gradient = _time_levels(metric.g, grid), _time_levels(self.jacobian[0], grid)
        for t in grid.times():
            grad, g = time_gradient(t), g_at(t)
            form = sum(gp * g[p][r] * gr for p, gp in enumerate(grad) for r, gr in enumerate(grad))
            if np.min(form) <= 0.0:
                return False
        return True

    def fixes_boundary_face(self, grid: SpacetimeGrid) -> bool:
        """y(x) = x, to 1e-10, on the face x_n = 0 at every time level."""
        env = grid.face_env()
        ys = self.eval_forward(env)
        return all(np.max(np.abs(ys[..., j] - env[f"x{j}"])) <= 1e-10 for j in range(self.n + 1))


# ---------------------------------------------------------------------------
# Characteristic cone
# ---------------------------------------------------------------------------

def _sym_eigs(entries: list):
    """Least and largest eigenvalue per node of [[a]] or [[a, b], [b, d]], given as
    [a] or [a, b, d]."""
    if len(entries) == 1:
        return entries[0], entries[0]
    a, b, d = entries
    mid, rad = 0.5 * (a + d), np.sqrt(0.25 * (a - d) ** 2 + b * b)
    return mid - rad, mid + rad


def _cone(g) -> dict:
    """Closed-form cone quantities per node of a sampled metric: nested rows of
    per-node arrays, or an ndarray (..., n+1, n+1) that _rows normalises.

    With b = g^{0j} and the spatial block G, the characteristic polynomial
    g^{00} xi_0^2 + 2 (b.xi) xi_0 + xi.G.xi has discriminant xi.M.xi for
    M = b b^T - g^{00} G.  Over unit spatial covectors: `ell` = lambda_min(-G),
    the spatial ellipticity; `disc` = lambda_min(M), the least discriminant;
    `speed` = (|b| + sqrt(lambda_max(M))) / g^{00}, an upper bound on the
    largest root |xi_0| that is exact for n = 1: the lab's one characteristic
    speed, from which cfl_time_step, transformed_time_step and solve_ibvp's CFL
    check all read.  `ell` and `disc` are exact over covectors for the n <= 2
    a SpacetimeGrid allows; solve_ibvp runs it on every node level.
    """
    g = _rows(g)
    pairs = [(1, 1)] if len(g) == 2 else [(1, 1), (1, 2), (2, 2)]
    g00 = g[0][0]
    G = [g[j][k] for j, k in pairs]
    M = [g[0][j] * g[0][k] - g00 * gjk for (j, k), gjk in zip(pairs, G)]
    disc, top = _sym_eigs(M)
    beta = np.sqrt(sum(g[0][j] ** 2 for j in range(1, len(g))))
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = (beta + np.sqrt(np.maximum(top, 0.0))) / g00
    return {"ell": -_sym_eigs(G)[1], "disc": disc, "speed": speed}


def max_characteristic_speed(metric: MetricField, grid: SpacetimeGrid) -> float:
    """Max over nine time levels, evenly strided from t1, of _cone's speed: an
    upper bound on the fastest local phase speed |xi_0| over unit spatial
    covectors, exact for n = 1.  cfl_time_step takes its step from it, and
    solve_ibvp refuses a level in between whose bound is faster.  Raises
    NonHyperbolic at a level of the nine that fails a cone condition.
    """
    times, axes, g_at = grid.times(), grid.axes()[1:], _time_levels(metric.g, grid)
    return max(_level_speed(g_at(t), t, axes) for t in times[::max(1, (len(times) - 1) // 8)])


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


def _cone_failures(g, cone: dict, t: float, axes: list) -> list:
    """(condition, node, value) at the worst node of each cone condition that
    node level t of g, nested rows of per-node arrays, fails; cone is
    _cone(g), axes the level's spatial axes."""
    n = len(g) - 1

    def worst(values):
        idx = np.unravel_index(int(np.argmin(values)), values.shape)
        idx = idx + (0,) * (n - len(idx))  # the face x_n = 0 lacks the last index
        return (float(t),) + tuple(float(axes[i][idx[i]]) for i in range(n))

    checks = (("time coefficient positivity", g[0][0], 1.0),
              ("spatial ellipticity", cone["ell"], -1.0),
              ("real distinct characteristic roots", cone["disc"], 1.0),
              ("time-like boundary face", -g[n][n][..., 0], -1.0))
    return [(condition, worst(values), sign * float(np.min(values)))
            for condition, values, sign in checks if np.min(values) <= 0.0]


def _level_speed(g, t: float, axes: list, check: bool = True) -> float:
    """Max of _cone's speed on level t of g; with check, NonHyperbolic if it fails."""
    cone = _cone(g)
    failures = _cone_failures(g, cone, t, axes) if check else []
    if failures:
        raise NonHyperbolic(*failures[0])
    return float(np.max(cone["speed"]))


def check_hyperbolicity(metric: MetricField, grid: SpacetimeGrid) -> HyperbolicityReport:
    """Check the cone conditions in closed form at every time level.

    Checks: g^{00} >= c0 > 0; spatial block negative definite (c1 > 0); the
    two roots of the characteristic polynomial real and distinct for every
    spatial covector (positive discriminant); the whole face x_n = 0
    time-like.  Each level is exact over covectors (`_cone`) and is evaluated
    on its own, so memory stays at one level; solve_ibvp applies the same
    check to every level it steps through.
    """
    axes, g_at = grid.axes()[1:], _time_levels(metric.g, grid)
    c0 = c1 = min_disc = math.inf
    boundary_max = -math.inf
    first = {}  # the first failure of each condition
    for t in grid.times():
        g = g_at(t)
        cone = _cone(g)
        c0 = min(c0, float(np.min(g[0][0])))
        c1 = min(c1, float(np.min(cone["ell"])))
        min_disc = min(min_disc, float(np.min(cone["disc"])))
        boundary_max = max(boundary_max, float(np.max(g[metric.n][metric.n][..., 0])))
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
        raise ValueError(f"pushforward needs the diffeo's closed-form inverse: its n + 1 = "
                         f"{phi.n + 1} inverse components, got none")
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
    g, dH = metric.eval_ham(env)
    return np.concatenate([2.0 * (g @ xi), -dH(xi)])


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


def _cone_speed(g_lo: list, direction: np.ndarray, sign: int) -> np.ndarray:
    """Forward (sign=+1) or backward (sign=-1) boundary speed of the velocity cone.

    Null velocity vectors (1, w) satisfy g_{00} + 2 g_{0j} w_j + g_{jk} w_j w_k = 0
    in the sampled covariant metric g_lo, nested rows of per-node arrays;
    along a fixed unit direction this is a quadratic in the speed whose
    positive root is the causal propagation rate.
    """
    n = len(g_lo) - 1
    w = direction * sign
    a = np.zeros(g_lo[0][0].shape)
    b = np.zeros(g_lo[0][0].shape)
    for j in range(1, n + 1):
        b += g_lo[0][j] * w[j - 1]
        for k in range(1, n + 1):
            a += g_lo[j][k] * w[j - 1] * w[k - 1]
    c = g_lo[0][0]
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
    backward in time from seed_time in [t1, t2], by default t1 forward and t2
    backward.  Arrival times come from value iteration over a 16-direction
    neighbor stencil, run until a pass changes nothing.  Each step's speed is
    the slowest of those read at five times evenly spread over the reach,
    [seed_time, t2] or [t1, seed_time], so on a metric that is faster
    between those times the mask under-reports the reach.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    sign = 1 if direction == "forward" else -1
    seed_mask = np.asarray(seed_mask, dtype=bool)
    if seed_mask.shape != grid.shape:
        raise ValueError(f"seed mask must cover the spatial grid: shape {seed_mask.shape}, "
                         f"grid {grid.shape}")
    if not seed_mask.any():
        raise ValueError(f"seed set must be nonempty: 0 of the {seed_mask.size} spatial nodes "
                         "are seeded")
    if seed_time is None:
        seed_time = grid.t1 if sign > 0 else grid.t2
    t_seed = float(seed_time)
    if not grid.t1 - 1e-12 <= t_seed <= grid.t2 + 1e-12:
        raise ValueError(f"seed_time {t_seed} lies outside the window "
                         f"[{grid.t1}, {grid.t2}] of the {direction} reach")

    arrival = np.full(grid.shape, np.inf)
    arrival[seed_mask] = 0.0  # elapsed time since seeding

    offsets = _neighbor_offsets(grid.n)
    reach = max(grid.t2 - t_seed if sign > 0 else t_seed - grid.t1, 0.0)

    # The covariant metric at five elapsed times, evaluated once; each
    # offset's travel time uses the slowest speed read at them, which misses
    # a metric that is faster in between.
    covariant, g_at = [], _time_levels(metric.g, grid)
    for elapsed in np.linspace(0.0, reach, 5):
        g = g_at(t_seed + sign * elapsed)
        columns = [_solve_small(g, list(e)) for e in np.eye(grid.n + 1)]
        covariant.append(list(zip(*columns)))  # rows of the inverse
    hvec = np.array(grid.h)
    travel_tables = []
    for off in offsets:
        step = hvec * np.array(off)
        dist = float(np.linalg.norm(step))
        vmin = np.minimum.reduce([_cone_speed(g_lo, step / dist, sign) for g_lo in covariant])
        travel_tables.append(dist / vmin)

    # Deterministic value iteration (Bellman-Ford over the lattice): with
    # positive travel times it settles within one pass per node, plus one.
    changed = True
    while changed:
        changed = False
        for off, travel in zip(offsets, travel_tables):
            shifted = _shift_with_inf(arrival, off)
            trav_src = _shift_with_inf(travel, off)
            candidate = shifted + trav_src
            better = candidate < arrival - 1e-13
            if np.any(better):
                arrival[better] = candidate[better]
                changed = True

    times = grid.times()
    elapsed = sign * (times - t_seed)
    mask = arrival[None, ...] <= elapsed.reshape((-1,) + (1,) * grid.n) + 1e-12
    return RegionMask(mask=mask, arrival=arrival, grid=grid)


def _shift_with_inf(array: np.ndarray, offset) -> np.ndarray:
    """Shift array by offset, padding with inf: result[i] = array[i - offset]."""
    out = np.full_like(array, np.inf)
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
