"""The bench workloads: what each iteration runs, times and checks.

Every program call goes through a Ledger, which times it, counts it as one
operation and turns an unexpected exception into a failure.  The time
between program calls is the bench's own (oracle look-ups, error norms) and
is not part of `wall_s`.  Each iteration ends with a check of the program's
output against a reference that does not come from bclab's numerics.
"""

import time

import numpy as np

import bclab
import hostspeed
from oracles import Manufactured

# Correctness bounds per workload and size: about twice the error the
# program reaches at the seed commit, so that a change which gets faster by
# getting less accurate fails the check instead of passing silently.
ERR_BOUNDS = {
    "fwd_td_cross": {"full": 2e-3, "quick": 3e-2},
    "chart_2d": {"full": 6e-5, "quick": 1.2e-4},
    "probe_flat": {"full": 0.2, "quick": 0.45},
}
# the chart run's DN trace against the exact lab-frame trace carried over by
# transform_dn: 3.1e-3 at h = 1/20 and 4.6e-3 at h = 1/16 at the seed commit
CHART_DN_BOUNDS = {"full": 6e-3, "quick": 9e-3}


class Failure(Exception):
    """A program call raised where the workload expects it to succeed."""


class Ledger:
    """Operations attempted and failed in one iteration, and the program's time.

    With a `meter` (hostspeed.kernel), the kernel runs before the first and
    after every outermost call, and `scale`, the call's factor from raw to
    reference seconds, comes from the two runs around it; nested calls share
    their outermost call's scale.  Without a meter, times are raw."""

    def __init__(self, meter=None):
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.program_s = 0.0
        self.raw_program_s = 0.0
        self.last_s = 0.0
        self.scale = 1.0
        self.calls = []
        self._kernel_s = None
        self._depth = 0

    def call(self, fn, *args, **kwargs):
        """Run one program call as an operation; nested calls count, but only
        the outermost adds to program_s.  last_s is the call's raw time."""
        self.attempted += 1
        outer = self._depth == 0
        if outer and self.meter and self._kernel_s is None:
            self._kernel_s = self.meter()
        self._depth += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Failure:
            raise
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{fn.__qualname__}: {type(exc).__name__}: {exc}")
            raise Failure(self.failures[-1]) from exc
        finally:
            self.last_s = time.perf_counter() - start
            self._depth -= 1
            if outer:
                if self.meter:
                    before, self._kernel_s = self._kernel_s, self.meter()
                    self.scale = hostspeed.REF_S / (0.5 * (before + self._kernel_s))
                    self.calls.append((self.last_s, before, self._kernel_s))
                self.raw_program_s += self.last_s
                self.program_s += self.last_s * self.scale

    def refusal(self, expected, fn, *args, **kwargs):
        """Run a call that must refuse with `expected`; refusing is success."""
        self.attempted += 1
        try:
            fn(*args, **kwargs)
        except expected:
            return
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{fn.__qualname__}: {type(exc).__name__}: {exc}")
            return
        self.failed += 1
        self.failures.append(f"{fn.__qualname__}: expected {expected.__name__}, returned")

    def check(self, name, value, bound):
        self.attempted += 1
        if not value <= bound:
            self.failed += 1
            self.failures.append(f"check {name}: {value!r} exceeds {bound!r}")


def _level(grid, t: float) -> int:
    return int(round((t - grid.t1) / grid.dt))


def _rel_max(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class Workload:
    def prepare(self, ledger: Ledger):
        """Bench set-up that needs program calls; runs once, untimed."""


class FwdTdCross(Workload):
    """2D manufactured solve with a time-dependent cross-term metric, then its
    DN trace.  Exact field, forcing and conormal trace are tabulated in set-up."""

    def __init__(self, inp: dict, size: str):
        self.inp = inp
        self.bound = ERR_BOUNDS["fwd_td_cross"][size]
        grid = inp["grid"]
        ref = Manufactured(inp["g"], inp["A"], inp["u"])
        times = grid.times()
        env = grid.spatial_env()
        self.u = np.stack([ref.field(t, env["x1"], env["x2"]) for t in times])
        self.f = np.stack([ref.image(t, env["x1"], env["x2"]) for t in times])
        self.trace = ref.trace(times[:, None], grid.axis(1)[None, :], 0.0)

    def sizes(self) -> dict:
        grid = self.inp["grid"]
        return {"grid": list(grid.shape), "time_levels": grid.nt, "dt": grid.dt}

    def iterate(self, ledger: Ledger) -> dict:
        metric, grid = self.inp["metric"], self.inp["grid"]

        def dirichlet(t):
            return self.u[_level(grid, t)]

        def forcing(env):
            return self.f[_level(grid, float(env["x0"].flat[0]))]

        wf = ledger.call(bclab.solve_ibvp, metric, None, None, grid, forcing=forcing,
                         dirichlet=dirichlet, initial=(self.u[0], self.u[1]),
                         store="boundary")
        solve_s = ledger.last_s * ledger.scale
        dn = ledger.call(bclab.dn_trace, wf, metric)
        err = _rel_max(dn.values, self.trace)
        ledger.check("fwd_td_cross.err", err, self.bound)
        return {"ms_per_step": 1e3 * solve_s / (grid.nt - 2), "err": err}


class Chart2d(Workload):
    """(a) chart depth search on the waveguide, through fold refusals;
    (b) the full chart pipeline on VAR_METRIC_2D, then a forced run of the
    transformed operator on the conjugated manufactured field w_c =
    g1^(1/4) e^(-i d) w, whose error certifies every pulled coefficient."""

    def __init__(self, inp: dict, size: str):
        self.inp = inp
        self.size = size
        self.bound = ERR_BOUNDS["chart_2d"][size]
        self.ref = Manufactured(inp["g"], inp["A"], inp["u"])
        self._chart = None
        self._tables = None

    def sizes(self) -> dict:
        grid, dg = self.inp["grid"], self.inp["depth_grid"]
        out = {"depth_grid": list(dg.shape), "depth_time_levels": dg.nt,
               "grid": list(grid.shape), "time_levels": grid.nt,
               "slab_depth": self.inp["depth"]}
        if self._chart is not None:
            yg = self._chart.y_grid
            out["chart_grid"] = list(yg.shape)
            out["chart_time_levels"] = yg.nt
        return out

    def _oracle(self, chart, op):
        """Conjugated field, forcing and DN data at the chart's points; built
        again only when the chart differs from the one they were built for."""
        if self._chart is not None and all(
                np.array_equal(getattr(chart, k), getattr(self._chart, k))
                for k in ("x_at_y", "g1", "d_gauge")) \
                and np.array_equal(op.gh_pm, self._gh_pm):
            return self._tables
        x = chart.x_at_y
        w = self.ref.field(x[..., 0], x[..., 1], x[..., 2])
        F = self.ref.image(x[..., 0], x[..., 1], x[..., 2])
        scale = chart.g1 ** 0.25 * np.exp(-1j * chart.d_gauge)
        face = x[..., 0, :]
        lab_trace = self.ref.trace(face[..., 0], face[..., 1], 0.0)
        self._tables = {"w": scale * w, "rhs": scale * F / op.gh_pm,
                        "face": w[..., 0], "lab_trace": lab_trace}
        self._chart, self._gh_pm = chart, op.gh_pm
        return self._tables

    def _chart_stages(self, ledger: Ledger):
        metric, grid, depth = self.inp["metric"], self.inp["grid"], self.inp["depth"]
        ep = ledger.call(bclab.solve_eikonal, metric, "+", grid, depth)
        em = ledger.call(bclab.solve_eikonal, metric, "-", grid, depth)
        phi = ledger.call(bclab.solve_transport_phi, metric, em, grid)
        chart = ledger.call(bclab.build_chart, ep, em, phi, grid.t1, grid.t2)
        return chart, ledger.call(bclab.transform_operator, metric, None, chart)

    def prepare(self, ledger: Ledger):
        """Build the oracle tables from one untimed chart, before any pass."""
        self._oracle(*self._chart_stages(ledger))

    def iterate(self, ledger: Ledger) -> dict:
        inp = self.inp
        hd = inp["depth_grid"].h[-1]
        got = ledger.call(bclab.find_chart_depth, inp["waveguide"], inp["depth_grid"],
                          inp["depth_cap"])
        depth_search_s = ledger.last_s * ledger.scale
        # bisection lands on a whole depth step next to the continuous fold
        ledger.check("chart_2d.depth_steps", abs(got / hd - round(got / hd)), 1e-9)
        ledger.check("chart_2d.depth_vs_fold",
                     abs(got - inp["fold_depth"]) / hd, 2.0)

        before = ledger.program_s
        chart, op = self._chart_stages(ledger)
        chart_s = ledger.program_s - before

        tab = self._oracle(chart, op)
        yg = op.grid

        def dirichlet(t):
            return tab["w"][_level(yg, t)]

        def forcing(env):
            return tab["rhs"][_level(yg, float(env["x0"].flat[0]))]

        wf = ledger.call(bclab.solve_transformed_ibvp, op, None, yg, forcing=forcing,
                         dirichlet=dirichlet, initial=(tab["w"][0], tab["w"][1]))
        solve_s = ledger.last_s * ledger.scale
        dn = ledger.call(bclab.dn_trace, wf, op)
        coeffs = ledger.call(op.boundary_traces)
        lab = bclab.DNTrace(values=tab["lab_trace"], normal_order=2, grid=yg)
        carried = ledger.call(bclab.transform_dn, lab, coeffs, f=tab["face"])

        err = _rel_max(wf.samples, tab["w"])
        ledger.check("chart_2d.err", err, self.bound)
        ledger.check("chart_2d.dn_vs_lab", _rel_max(dn.values, carried.values),
                     CHART_DN_BOUNDS[self.size])
        return {"ms_per_step": 1e3 * solve_s / (yg.nt - 2), "err": err,
                "chart_s": chart_s, "depth_search_s": depth_search_s}


class ProbeFlat(Workload):
    """Frequency sweep of probe_symbol on the flat metric: nine short static
    solves with a face Dirichlet datum, each read out through dn_trace."""

    def __init__(self, inp: dict, size: str):
        self.inp = inp
        self.bound = ERR_BOUNDS["probe_flat"][size]

    def sizes(self) -> dict:
        grid = self.inp["grid"]
        return {"grid": list(grid.shape), "time_levels": grid.nt,
                "solves": 3 * len(self.inp["k_list"])}

    def iterate(self, ledger: Ledger) -> dict:
        inp = self.inp
        metric, grid = inp["metric"], inp["grid"]
        solves_s = []

        def pipeline(face_data):
            def dirichlet(t):
                full = np.zeros(grid.shape, dtype=complex)
                full[:, 0] = face_data(t)
                return full

            wf = ledger.call(bclab.solve_ibvp, metric, None, None, grid,
                             dirichlet=dirichlet, store="boundary")
            solves_s.append(ledger.last_s)
            return ledger.call(bclab.dn_trace, wf, metric)

        est = ledger.call(bclab.probe_symbol, pipeline, inp["point"], inp["covector"],
                          inp["k_list"], grid=grid, t_width=inp["width"],
                          lat_width=inp["width"])
        exact = inp["exact"]
        got = est.estimates
        err = max(abs(got["gh_pm"] - exact["gh_pm"]),
                  abs(got["g0_plus_j"][0] - exact["g0_plus_j"]),
                  abs(got["g0_jk"][0][0] - exact["g0_jk"]))
        ledger.check("probe_flat.err", err, self.bound)
        # the solves ran inside probe_symbol and share its scale
        ms_per_step = 1e3 * sum(solves_s) * ledger.scale / (len(solves_s) * (grid.nt - 2))
        return {"ms_per_step": ms_per_step, "err": err}


WORKLOADS = {"fwd_td_cross": FwdTdCross, "chart_2d": Chart2d, "probe_flat": ProbeFlat}
