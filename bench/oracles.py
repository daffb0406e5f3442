"""Exact references derived with sympy, independent of bclab's numerics.

The operator is the gauge-covariant wave operator bclab solves,

    L u = -(1/rho) sum_{j,k} (d_j - i A_j) [ rho g^{jk} (d_k - i A_k) u ],
    rho = ((-1)^n det[g^{jk}])^(-1/2),

and the conormal trace on the face x_n = 0 is

    N u = -sum_j g^{jn} (d_j - i A_j) u / sqrt(-g^{nn}).

Metric, potential and field come in as the same strings the program inputs
are built from; sympy parses and differentiates them on its own, and
`lambdify(..., cse=True)` turns the results into numpy functions of
(x0, x1, x2).
"""

import numpy as np
import sympy as sp

X = sp.symbols("x0 x1 x2", real=True)


def _parse(text: str):
    return sp.sympify(text, locals={f"x{i}": X[i] for i in range(3)})


def _lambdify(expr):
    fn = sp.lambdify(X, expr, modules="numpy", cse=True)

    def evaluate(x0, x1, x2):
        shape = np.broadcast_shapes(np.shape(x0), np.shape(x1), np.shape(x2))
        return np.broadcast_to(np.asarray(fn(x0, x1, x2), dtype=complex), shape)

    return evaluate


class Manufactured:
    """A complex field u = u_re + i u_im, its operator image and face trace."""

    def __init__(self, g_upper, A, u):
        size = len(A)
        n = size - 1
        g = sp.Matrix(size, size, lambda j, k: _parse(g_upper[j][k]))
        pot = [_parse(a) for a in A]
        field = _parse(u[0]) + sp.I * _parse(u[1])
        cov = [sp.diff(field, X[k]) - sp.I * pot[k] * field for k in range(size)]
        rho = ((-1) ** n * g.det()) ** sp.Rational(-1, 2)
        image = 0
        for j in range(size):
            flux = rho * sum(g[j, k] * cov[k] for k in range(size))
            image += sp.diff(flux, X[j]) - sp.I * pot[j] * flux
        image = -image / rho
        trace = -sum(g[j, n] * cov[j] for j in range(size)) / sp.sqrt(-g[n, n])
        self.field = _lambdify(field)
        self.image = _lambdify(image)
        self.trace = _lambdify(trace.subs(X[n], 0))
