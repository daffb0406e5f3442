"""Dirichlet-to-Neumann traces and high-frequency boundary probing.

The trace of a forward run is the conormal derivative on the accessible face,
normalized by the face value of the depth coefficient so that it is invariant
under changes of variables fixing the face pointwise.  For runs on a chart
rectangle the unit-speed normal form makes the trace a plain normal
derivative plus lateral couplings.

Probing drives the solver with localized oscillatory data and reads the
boundary coefficients off the leading, frequency-proportional part of the
response: in the elliptic cone of the face symbol the solution is evanescent
in depth and the trace responds like (face normalization)^(1/2) times the
square root of the symbol's depth discriminant.  Sweeping the time frequency
at fixed tangential direction and fitting a quadratic recovers the
normalization, the time-tangential coupling, and the tangential block.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import SpacetimeGrid, _as_expr, _eval_table
from .goursat import TransformedOperator
from .solver import WaveField, _bump

__all__ = [
    "DNTrace",
    "SymbolEstimate",
    "MissingBoundaryData",
    "NotElliptic",
    "PoorFit",
    "dn_trace",
    "transform_dn",
    "probe_symbol",
    "export_dn_csv",
    "symbol_report",
]


class MissingBoundaryData(ValueError):
    """Trace transformation lacks a required face coefficient."""


class NotElliptic(ValueError):
    """Probe covector lies outside the elliptic cone of the face symbol."""


class PoorFit(UserWarning):
    """Frequency sweep fit exceeded the residual threshold; values reported anyway."""


@dataclass
class DNTrace:
    """Neumann response on the accessible face, one value per face node.

    values is complex with shape (nt,) + face shape; normal_order is the
    accuracy order of the one-sided depth stencil that produced it.
    """

    values: np.ndarray
    normal_order: int
    grid: SpacetimeGrid


@dataclass
class SymbolEstimate:
    """Boundary coefficients recovered from a frequency sweep.

    estimates holds the recovered face values (keys gh_pm, g0_plus_j, g0_jk);
    samples records one entry per probed covector with the raw demodulated
    responses, the fitted slope, and the relative fit residual.  poor_fit
    flags a residual above the caller's threshold; the values are still
    reported.
    """

    covector: tuple
    frequencies: tuple
    estimates: dict
    residual: float
    poor_fit: bool
    samples: list


def dn_trace(u: WaveField, metric, A=None) -> DNTrace:
    """Neumann trace of a forward run on the accessible face, on u.grid.

    The trace is the conormal derivative -sum_j g^{jn} (d_j - i A_j) u,
    normalized by (-g^{nn})^(-1/2) at the face, with the depth derivative
    one-sided second order.  g and A are the metric's expressions with the
    potential A when given, or the face rows of a TransformedOperator's
    arrays, for which the normalization is one.
    """
    grid = u.grid
    n = grid.n
    layers = u.boundary_layers
    face = layers[..., 0]
    du_n = (-3.0 * layers[..., 0] + 4.0 * layers[..., 1] - layers[..., 2]) / (2.0 * grid.h[-1])
    steps = grid.steps()

    if isinstance(metric, TransformedOperator):
        if grid != metric.grid:
            raise ValueError(f"trace grid {grid} must be the operator's chart rectangle "
                             f"{metric.grid}")
        g_n = metric.metric_matrix[..., 0, :, n]
        pot = metric.potential_vector[..., 0, :]
    else:
        pot = metric.A if A is None else [_as_expr(a) for a in A]
        # rows: g^{jn} and A_j on the face
        coeffs = _eval_table([[metric.g[j][n] for j in range(n + 1)], pot],
                             grid.face_env(), face.shape)
        g_n, pot = coeffs[..., 0, :], coeffs[..., 1, :]
    values = np.zeros(face.shape, dtype=complex)
    for j in range(n + 1):
        gjn = g_n[..., j]
        if not np.any(gjn):
            continue
        dj = du_n if j == n else np.gradient(face, steps[j], axis=j, edge_order=2)
        values = values - gjn * (dj - 1j * pot[..., j] * face)
    values = values / np.sqrt(-g_n[..., n])
    return DNTrace(values=values, normal_order=2, grid=grid)


def transform_dn(dn: DNTrace, boundary_coeffs: dict, f=None) -> DNTrace:
    """Trace of the normal-form problem from the measured trace.

    Given the face trace of the original problem (equal to the chart-frame
    trace, since the chart and gauge restrict to the identity on the face)
    and the face coefficients, produces the trace of the volume-normalized
    problem whose Dirichlet datum is g1^(1/4) f.  Algebraic in the trace and
    the datum; the only derivatives taken are of the face coefficients.
    f holds the datum samples on the face at the trace's nodes; omitting it
    asserts a vanishing datum, which kills the drift term.  With q = g1^(1/4)
    and b_j = g0_plus_j, the result is q gh_pm^(-1/2) trace + (d_n q +
    sum_j b_j d_j q) f, with d_j q over the lateral axes of the face: the
    normal-form field is q w, so d_n (q w) = q d_n w + (d_n q) w, and w = f
    on the face.
    """
    required = ("g1", "dg1_dyn", "gh_pm", "g0_plus_j")
    missing = [key for key in required if key not in boundary_coeffs]
    if missing:
        raise MissingBoundaryData(
            "missing face coefficients: " + ", ".join(missing))

    g1 = np.asarray(boundary_coeffs["g1"], dtype=float)
    dg1 = np.asarray(boundary_coeffs["dg1_dyn"], dtype=float)
    ghpm = np.asarray(boundary_coeffs["gh_pm"], dtype=float)
    q = g1 ** 0.25
    values = q * ghpm ** (-0.5) * dn.values
    if f is not None:
        f = np.asarray(f, dtype=complex)
        if f.shape != dn.values.shape:
            raise ValueError(f"datum samples of shape {f.shape} must match the trace shape "
                             f"{dn.values.shape}")
        dq_n = 0.25 * g1 ** (-0.75) * dg1
        drift = np.zeros_like(dn.values, dtype=float) + dq_n
        steps = dn.grid.steps()
        for j in range(1, dn.grid.n):
            bj = np.asarray(boundary_coeffs["g0_plus_j"][j - 1], dtype=float)
            dq_j = np.gradient(np.broadcast_to(q, dn.values.shape),
                               steps[j], axis=j, edge_order=2)
            drift = drift + bj * dq_j
        values = values + drift * f
    return DNTrace(values=values, normal_order=dn.normal_order, grid=dn.grid)


# ---------------------------------------------------------------------------
# Symbol probing
# ---------------------------------------------------------------------------

def _elliptic_q(covector, coeffs) -> float:
    """Depth discriminant of the face symbol; negative inside the cone."""
    etap = np.asarray(covector[1:], dtype=float)
    b = float(np.asarray(coeffs["g0_plus_j"], dtype=float) @ etap)
    lat = float(etap @ np.asarray(coeffs["g0_jk"], dtype=float) @ etap)
    return (covector[0] + b) ** 2 + lat


def probe_symbol(pipeline, boundary_point, covector, k_list, *,
                 grid: SpacetimeGrid | None = None,
                 boundary_coeffs: dict | None = None,
                 delta: float = 0.3,
                 t_width: float = 0.15,
                 lat_width: float = 0.2,
                 ellipticity_margin: float = 0.05,
                 fit_threshold: float = 0.2,
                 ppw_min: float = 10.0) -> SymbolEstimate:
    """Recover face coefficients from a localized frequency sweep.

    pipeline(face_data) must run the forward problem with the given Dirichlet
    face profile (a callable t -> complex face array) and return its DNTrace.
    The probe drives it with a bump at boundary_point carrying the plane
    phase k*(eta0*y0 + eta'*y'), for the base covector and two time-frequency
    shifts of size delta, at every k in k_list.  Each response is demodulated
    against its own data and fitted to slope*k; the squared slopes against
    the shifted eta0 make a downward parabola whose curvature, vertex, and
    value yield the face normalization, the time-tangential couplings, and
    the tangential block in the probed direction.

    boundary_coeffs (face values g0_plus_j, g0_jk at the probe point) arms
    the elliptic-cone precondition; without them the covector is taken on
    trust, except for structural failures (no tangential directions, or a
    vanishing tangential part).  Raises NotElliptic accordingly.
    """
    covector = tuple(float(c) for c in covector)
    n = len(covector)
    if n < 2:
        raise NotElliptic(
            f"covector {covector} has no tangential part: the face carries no tangential "
            "directions for n = 1, so the face symbol is never elliptic; probe a face of "
            "a grid with n >= 2")
    etap = np.asarray(covector[1:], dtype=float)
    scale = float(np.sqrt(etap @ etap))
    if scale == 0.0:
        raise NotElliptic(f"tangential part of the covector {covector} vanishes, so it "
                          "gives no probe direction; give a nonzero lateral component")
    base = tuple(c / scale for c in covector)
    probes = [(base[0] + m * delta,) + base[1:] for m in (-1, 0, 1)]
    if boundary_coeffs is not None:
        for p in probes:
            q_val = _elliptic_q(p, boundary_coeffs)
            if q_val > -ellipticity_margin:
                raise NotElliptic(
                    f"covector {tuple(round(c, 6) for c in p)} has depth "
                    f"discriminant {q_val:.4f}; need < -{ellipticity_margin}")

    if grid is None:
        raise ValueError(f"the probe needs the run grid to shape its data, got grid={grid}; "
                         "pass grid=, the grid that pipeline solves on")
    if len(covector) != grid.n or len(boundary_point) != grid.n:
        raise ValueError(
            f"covector has {len(covector)} and boundary point {len(boundary_point)} "
            f"components; the grid needs {grid.n}")
    k_list = tuple(float(k) for k in k_list)
    kmax = max(k_list)
    worst = max(abs(c) * kmax * s for c, s in zip(base, grid.steps()[:-1]))
    if worst > 0 and 2.0 * math.pi / worst < ppw_min:
        raise ValueError(
            f"largest frequency resolves {2.0 * math.pi / worst:.1f} "
            f"points per wavelength; need at least {ppw_min}")

    widths = (t_width,) + (lat_width,) * (n - 1)
    samples = []
    magnitudes = []
    for p in probes:
        responses = {}
        for k in k_list:
            trace = _run_probe(pipeline, boundary_point, p, k, widths, grid)
            responses[k] = _demodulate(trace, boundary_point, p, k, widths)
        ks = np.asarray(k_list)
        rs = np.asarray([responses[k] for k in k_list])
        slope = complex(np.sum(ks * rs) / np.sum(ks * ks))
        misfit = float(np.linalg.norm(rs - slope * ks) / np.linalg.norm(rs))
        samples.append({
            "covector": p,
            "responses": responses,
            "slope": slope,
            "magnitude": abs(slope),
            "residual": misfit,
        })
        magnitudes.append(abs(slope))

    x = np.asarray([p[0] for p in probes])
    s_vals = np.asarray(magnitudes) ** 2
    c2, c1, c0 = np.polyfit(x, s_vals, 2)
    worst = max(s["residual"] for s in samples)
    bad = bool(worst > fit_threshold or c2 >= 0.0)  # a numpy bool would not serialize
    if bad:
        warnings.warn(PoorFit(
            f"worst relative fit residual {worst:.3g} "
            f"(threshold {fit_threshold}), curvature {c2:.3g}"))
    with np.errstate(divide="ignore", invalid="ignore"):
        gh_pm = -float(c2)
        b = float(c1 / (2.0 * c2))
        lat = float(c0 / c2 - b * b)
    e1 = base[1]
    return SymbolEstimate(
        covector=base,
        frequencies=k_list,
        estimates={"gh_pm": gh_pm, "g0_plus_j": [b / e1], "g0_jk": [[lat / (e1 * e1)]]},
        residual=worst,
        poor_fit=bad,
        samples=samples,
    )


def _probe_wave(coords, point, covector, k: float, widths) -> np.ndarray:
    """Bump-windowed plane wave prod_j chi((x_j - point_j) / widths_j)
    exp(i k covector_j x_j), with coords, point, covector and widths running
    over the same face axes; over a subset of the axes it gives their factor.

    The window is real and the phase has modulus one, so demodulating a trace
    against the wave f, sum conj(f) trace / sum |f|^2, is the window-weighted
    projection onto the phase, sum w conj(z) trace / sum w^2.
    """
    wave = 1.0
    for x, p, c, w in zip(coords, point, covector, widths):
        wave = wave * (_bump((x - p) / w) * np.exp(1j * k * c * x))
    return wave


def _run_probe(pipeline, point, covector, k, widths, grid):
    face = grid.face_env()
    lateral = _probe_wave([face[f"x{j}"][0] for j in range(1, grid.n)],
                          point[1:], covector[1:], k, widths[1:])

    def face_data(t):
        return _probe_wave([t], point[:1], covector[:1], k, widths[:1]) * lateral

    return pipeline(face_data)


def _demodulate(trace: DNTrace, point, covector, k, widths):
    face = trace.grid.face_env()
    f = _probe_wave([face[f"x{j}"] for j in range(trace.grid.n)], point, covector, k, widths)
    return complex(np.sum(np.conj(f) * trace.values) / np.sum(np.abs(f) ** 2))


def export_dn_csv(trace: DNTrace, path: str) -> None:
    """Write the trace as one row per face node: coordinates, Re, Im."""
    grid = trace.grid
    header = ",".join([f"y{j}" for j in range(grid.n)] + ["re", "im"])
    cols = [m.ravel() for m in np.meshgrid(*grid.face_axes(), indexing="ij")]
    data = np.column_stack(cols + [trace.values.real.ravel(), trace.values.imag.ravel()])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def symbol_report(est: SymbolEstimate) -> str:
    """Structured-text report of a probe, with per-value provenance."""
    prov = {
        "gh_pm": "negative curvature of the quadratic fit of squared "
                 "response slopes against the shifted time frequency",
        "g0_plus_j": "parabola vertex offset divided by the tangential "
                     "component",
        "g0_jk": "parabola value at its vertex divided by the squared "
                 "tangential component",
    }
    body = {
        "covector": list(est.covector),
        "frequencies": list(est.frequencies),
        "estimates": {
            key: {"value": value, "provenance": prov.get(key, "")}
            for key, value in est.estimates.items()
        },
        "fit": {
            "residual": est.residual,
            "poor_fit": est.poor_fit,
            "probes": [
                {
                    "covector": list(s["covector"]),
                    "magnitude": s["magnitude"],
                    "residual": s["residual"],
                    "responses": {
                        str(k): [r.real, r.imag]
                        for k, r in s["responses"].items()
                    },
                }
                for s in est.samples
            ],
        },
    }
    return json.dumps(body, indent=2)
