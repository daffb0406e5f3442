"""Program inputs of the bench workloads, built through bclab's public API.

Run as a script this is the set-up probe behind `setup_s`: a fresh
interpreter imports bclab, builds one workload's inputs and prints, as its
last line, the seconds from its first statement to inputs ready.

    PYTHONPATH=src python3 bench/inputs.py <workload> <seed> [full|quick]
"""

import time

_T0 = time.perf_counter()

import math  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import bclab  # noqa: E402

WORKLOADS = ("fwd_td_cross", "chart_2d", "probe_flat")

# VAR_METRIC_2D of the solver tests with cos(x0)/sin(x0) factors in g^00,
# g^01, g^02, g^22 and A_1: time-dependent, with g^{0j} != 0, so the solver
# takes the fixed-point sweep path and re-evaluates coefficients every level.
TD_CROSS_G = (
    ("1 + 0.1*sin(x1)*cos(x2)*cos(x0)", "0.05*sin(x2)*cos(x0)", "0.1*cos(x1)*sin(x0)"),
    ("0.05*sin(x2)*cos(x0)", "-1 - 0.1*cos(x1)", "0.05*sin(x1)*sin(x2)"),
    ("0.1*cos(x1)*sin(x0)", "0.05*sin(x1)*sin(x2)", "-1 - 0.1*sin(x2)*(1 + 0.5*sin(x0))"),
)
TD_CROSS_A = ("0.1*x2", "0.2*sin(x1)*cos(x0)", "0.1*cos(x2)")

# the goursat tests' VAR_METRIC_2D: static, cross terms, a potential
VAR_G = (
    ("1 + 0.1*sin(x1)*cos(x2)", "0.05*sin(x2)", "0.1*cos(x1)"),
    ("0.05*sin(x2)", "-1 - 0.1*cos(x1)", "0.05*sin(x1)*sin(x2)"),
    ("0.1*cos(x1)", "0.05*sin(x1)*sin(x2)", "-1 - 0.1*sin(x2)"),
)
VAR_A = ("0.1*x2", "0.2*sin(x1)", "0.1*cos(x2)")

# depth speed 1 + 0.4*cos(2 pi x1): the slow lane at x1 = 0.5 focuses
# downward rays, first crossing near depth 0.184
WAVEGUIDE_G = (
    ("1", "0", "0"),
    ("0", "-1", "0"),
    ("0", "0", "-1.08 - 0.8*cos(6.283185307179586*x1) - 0.08*cos(12.566370614359172*x1)"),
)
WAVEGUIDE_FOLD_DEPTH = 0.184

# "quick" is the self-check size: same pipelines, smaller grids
SIZES = {
    "full": {"fwd_h": 1 / 64, "chart_h": 1 / 20, "depth_h": 1 / 16,
             "probe_h": 1 / 64, "probe_k": (19.2, 28.8, 38.4)},
    "quick": {"fwd_h": 1 / 16, "chart_h": 1 / 16, "depth_h": 1 / 16,
              "probe_h": 1 / 48, "probe_k": (14.4, 21.6, 28.8)},
}


def _offsets(seed: int, count: int, width: float) -> list:
    rng = np.random.default_rng(seed)
    return [float(v) for v in rng.uniform(0.0, width, size=count)]


def fwd_td_cross(seed: int, size: str) -> dict:
    h = SIZES[size]["fwd_h"]
    metric = bclab.MetricField(2, TD_CROSS_G, TD_CROSS_A)
    t2 = 1.0
    probe = bclab.SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(h, h), dt=h / 4, t1=0.0, t2=t2)
    dt = bclab.cfl_time_step(metric, probe, 0.5)
    steps = math.ceil(t2 / dt)
    grid = bclab.SpacetimeGrid(n=2, extent=(1.0, 1.0), h=(h, h), dt=t2 / steps, t1=0.0, t2=t2)
    a, b, c = _offsets(seed, 3, 0.05)
    return {
        "metric": metric,
        "grid": grid,
        "g": TD_CROSS_G,
        "A": TD_CROSS_A,
        "u": (f"sin(x0 + {a!r})*cos(pi*x1 + {b!r})*cos(pi*x2)",
              f"0.3*cos(x0 + {c!r})*sin(pi*x1)*sin(pi*x2 + 0.5)"),
    }


def chart_2d(seed: int, size: str) -> dict:
    s = SIZES[size]
    hd = s["depth_h"]
    waveguide = bclab.MetricField(2, WAVEGUIDE_G)
    depth_grid = bclab.SpacetimeGrid(n=2, extent=(1.0, 0.25), h=(hd, hd), dt=0.3 * hd,
                                     t1=0.0, t2=0.8)
    h = s["chart_h"]
    metric = bclab.MetricField(2, VAR_G, VAR_A)
    grid = bclab.SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=0.35 * h, t1=0.0, t2=1.4)
    a, b = _offsets(seed, 2, 0.05)
    return {
        "waveguide": waveguide,
        "depth_grid": depth_grid,
        "depth_cap": 0.5,
        "fold_depth": WAVEGUIDE_FOLD_DEPTH,
        "metric": metric,
        "grid": grid,
        # whole depth steps closest to the tests' 0.3125
        "depth": h * round(0.3125 / h),
        "g": VAR_G,
        "A": VAR_A,
        "u": (f"sin(x0 + {a!r})*cos(x1)*cos(2*x2)",
              f"0.4*cos(2*x0 + {b!r})*sin(x1)*sin(x2)"),
    }


def probe_flat(seed: int, size: str) -> dict:
    s = SIZES[size]
    h = s["probe_h"]
    metric = bclab.MetricField.minkowski(2)
    grid = bclab.SpacetimeGrid(n=2, extent=(1.0, 0.5), h=(h, h), dt=h / 2, t1=0.0, t2=0.8)
    if grid.dt > bclab.cfl_time_step(metric, grid, 0.5) * (1.0 + 1e-9):
        raise ValueError("probe grid violates the CFL bound")
    dt_center, dx_center = (v - 0.5 for v in _offsets(seed, 2, 1.0))
    return {
        "metric": metric,
        "grid": grid,
        "point": (0.4 + 0.04 * dt_center, 0.5 + 0.1 * dx_center),
        "covector": (0.25, 1.0),
        "k_list": s["probe_k"],
        "width": 0.3,
        # closed-form face symbol of the flat metric
        "exact": {"gh_pm": 1.0, "g0_plus_j": 0.0, "g0_jk": -1.0},
    }


def build(workload: str, seed: int, size: str = "full") -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[workload](seed, size)


if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    build(name, seed, sys.argv[3] if len(sys.argv) > 3 else "full")
    print(repr(time.perf_counter() - _T0))
