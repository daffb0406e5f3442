"""bclab benchmark: one workload, timed, checked, and reported as JSON.

    python3 bench/run.py --workload fwd_td_cross --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --selfcheck

Run from the root of a checkout; bclab is imported from src/.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1.  The lines before it print
provenance and every metric with its unit, and the full result (provenance,
input sizes, per-iteration samples) is written to .bench_out/.

Each run is a closed loop: one process pinned to one CPU, one iteration at a
time, BLAS pinned to one thread.  Times are reported at a reference host
speed, from a calibration kernel run next to each program call (see
hostspeed.py); the raw times are saved beside them.  The seed only perturbs
generated inputs (manufactured phase offsets, the probe point); the program
sees nothing but those inputs.

--selfcheck runs every workload once at reduced size, with all correctness
checks, both output schemas validated against BENCHMARK.json, the sympy
oracle compared with bclab's own symbolic forcing, and expected refusals.
"""

import os

# pin BLAS before numpy loads; inherited by the set-up probes
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


def _git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable: unresolved ref " + ref[5:]


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bclab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, pinned: str) -> dict:
    import numpy
    import scipy

    import hostspeed

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads_cap": BLAS_THREADS,
        "pinned": pinned,
        "hostspeed_ref_s": hostspeed.REF_S,
        "machine": platform.machine(),
        "seed": seed,
    }


def setup_seconds(workload: str, seed: int, size: str, repeats: int) -> tuple:
    """Set-up time of fresh interpreters: import bclab and build the inputs.

    One untimed probe first fills the bytecode caches, which users pay once.
    The probes inherit the bench's CPU and run between kernel runs; returns
    (reference-speed seconds, raw seconds) per timed probe.
    """
    import hostspeed

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(BENCH / "inputs.py"), workload, str(seed), size]
    ref, raw = [], []
    after = hostspeed.kernel()
    for i in range(repeats + 1):
        before = after
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        after = hostspeed.kernel()
        if i:
            raw.append(float(proc.stdout.strip().splitlines()[-1]))
            ref.append(raw[-1] * hostspeed.REF_S / (0.5 * (before + after)))
    return ref, raw


def run_iteration(work, failures: list, meter=None):
    """One workload iteration under its own ledger; (ledger, record or None)."""
    import workloads

    ledger = workloads.Ledger(meter)
    record = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            record = work.iterate(ledger)
        except workloads.Failure:
            pass
    failures.extend(ledger.failures)
    return ledger, record


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload for `seconds` and return the full result."""
    import hostspeed
    import inputs
    import tracing
    import workloads

    pinned = hostspeed.pin()
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size, "provenance": provenance(seed, pinned)}
    if not trace:
        result["setup_samples_s"], result["raw_setup_samples_s"] = setup_seconds(
            workload, seed, size, setup_repeats)

    work = workloads.WORKLOADS[workload](inputs.build(workload, seed, size), size)
    failures = []
    ledger = workloads.Ledger()
    try:
        work.prepare(ledger)
    except workloads.Failure:
        pass
    failures.extend(ledger.failures)
    ledgers = [ledger]
    walls, raw_walls, calls, records = [], [], [], []

    if not trace:
        # the memory pass is also the warm-up: lazy imports and caches fill;
        # bench-owned tables already exist before tracing starts
        tracemalloc.start()
        ledger, _ = run_iteration(work, failures)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        ledgers.append(ledger)
        result["peak_alloc_bytes"] = peak

        start = time.perf_counter()
        while True:
            ledger, record = run_iteration(work, failures, hostspeed.kernel)
            ledgers.append(ledger)
            walls.append(ledger.program_s)
            raw_walls.append(ledger.raw_program_s)
            calls.append(ledger.calls)
            if record is not None:
                records.append(record)
            if time.perf_counter() - start >= seconds:
                break
    else:
        ledger, _ = run_iteration(work, failures)  # warm-up
        ledgers.append(ledger)
        tracer = tracing.Tracer()
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            ledger, record = run_iteration(work, failures)
            ledgers.append(ledger)
            if record is not None:
                plain.append(ledger.program_s)
            tracer.begin_iteration()
            tracer.install()
            try:
                ledger, record = run_iteration(work, failures)
            finally:
                tracer.uninstall()
            ledgers.append(ledger)
            if record is not None:
                traced.append(ledger.program_s)
            if time.perf_counter() - start >= seconds:
                break
        result["plain_wall_samples_s"] = plain
        result["traced_wall_samples_s"] = traced
        overhead = statistics.median(traced) - statistics.median(plain) if plain and traced \
            else 0.0
        result["tracer"] = tracer

    result["sizes"] = work.sizes()
    result["attempted"] = sum(led.attempted for led in ledgers)
    result["failed"] = sum(led.failed for led in ledgers)
    result["failures"] = failures
    result["iterations"] = len(ledgers) - 1

    if trace:
        result["metrics"] = tracer.metrics(overhead)
        return result

    # an iteration that failed still counts its time up to the failure; with
    # no completed iteration there is no solve time and err reads 1
    steps = [r["ms_per_step"] for r in records]
    result["wall_samples_s"] = walls
    result["raw_wall_samples_s"] = raw_walls
    result["calls"] = calls
    result["metrics"] = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(result["setup_samples_s"]),
        "peak_alloc_mb": result["peak_alloc_bytes"] / 2 ** 20,
        "err": max((r["err"] for r in records), default=1.0),
        "pass_frac": 1.0 - result["failed"] / result["attempted"],
    }
    # printed and saved, but not bounded: raw times; the solve time per step,
    # too short a call on chart_2d to repeat within a bound; the stage times
    # of chart_2d
    extra = result["extra_metrics"] = {
        "ms_per_step": statistics.median(steps) if steps else 0.0,
        "raw_wall_s": statistics.median(raw_walls),
        "raw_setup_s": statistics.median(result["raw_setup_samples_s"]),
    }
    for key in ("chart_s", "depth_search_s"):
        vals = [r[key] for r in records if key in r]
        if vals:
            extra[key] = statistics.median(vals)
    return result


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_alloc_mb": "MB", "err": "1", "pass_frac": "1"}
EXTRA_UNITS = {"ms_per_step": "ms", "raw_wall_s": "s", "raw_setup_s": "s", "chart_s": "s",
               "depth_search_s": "s"}


def units(trace: bool) -> dict:
    import tracing

    return tracing.PER_LAYER_UNITS if trace else E2E_UNITS


def final_line(result: dict) -> dict:
    """The contract's result line; a non-finite value (a solver that returned
    NaN) is reported as the largest float, since JSON has no NaN."""
    unit_of = units(bool(result["trace"]))
    values = {name: result["metrics"][name] for name in unit_of}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v if math.isfinite(v) else sys.float_info.max,
                           "unit": unit_of[name]} for name, v in values.items()},
    }


def report(result: dict, line: dict) -> None:
    """Human-readable lines before the result line; full result to .bench_out."""
    print("# provenance " + json.dumps(result["provenance"], sort_keys=True))
    print("# sizes " + json.dumps(result["sizes"], sort_keys=True))
    print(f"# iterations {result['iterations']}, operations {result['attempted']}, "
          f"failed {result['failed']}")
    for msg in result["failures"]:
        print("# failure " + msg)
    for name, m in line["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    for name, value in result.get("extra_metrics", {}).items():
        print(f"{name:36s} {value:.6g} {EXTRA_UNITS[name]}  (not bounded)")
    if result["trace"]:
        print("# solver.sweeps_per_step counts sampled-coefficient runs only; the "
              "expression provider's sweeps wait for WaveField.diagnostics (ROADMAP item 5)")
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    saved = {k: v for k, v in result.items() if k != "tracer"}
    saved["line"] = line
    (OUT / f"result-{stem}.json").write_text(json.dumps(saved, indent=1, default=str))
    if "tracer" in result:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(result["tracer"].dump()))


def validate(line: dict, trace: bool) -> list:
    """Problems of a result line against the output contract."""
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"top-level keys {sorted(line)}")
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1:
        problems.append("attempted must be an integer >= 1")
    if not isinstance(line.get("failed"), int):
        problems.append("failed must be an integer")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = line.get("metrics", {})
    if set(got) != set(expected):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(expected))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m.get("unit") != expected.get(name):
            problems.append(f"metric {name}: {m}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} is not a finite number: {m['value']}")
    json.loads(json.dumps(line, allow_nan=False))
    return problems


def selfcheck() -> int:
    """Each workload once at reduced size: checks, refusals, schemas, oracle."""
    import numpy as np

    import bclab
    import inputs
    import oracles
    import workloads

    problems = []

    # the sympy oracle against bclab's own symbolic forcing, at two levels
    inp = inputs.build("fwd_td_cross", 0, "quick")
    ref = oracles.Manufactured(inp["g"], inp["A"], inp["u"])
    pi = repr(math.pi)
    fre, fim = bclab.apply_operator_symbolic(
        inp["metric"], None, bclab.parse_expr(inp["u"][0].replace("pi", pi)),
        bclab.parse_expr(inp["u"][1].replace("pi", pi)))
    grid = inp["grid"]
    for t in (grid.times()[1], grid.times()[-2]):
        env = grid.env_at_time(t)
        ours = ref.image(env["x0"], env["x1"], env["x2"])
        theirs = np.asarray(fre.evaluate(env)) + 1j * np.asarray(fim.evaluate(env))
        gap = float(np.max(np.abs(ours - theirs)) / np.max(np.abs(theirs)))
        print(f"selfcheck oracle vs apply_operator_symbolic at t={t:.4f}: {gap:.2e}")
        if not gap <= 1e-12:
            problems.append(f"oracle disagrees with apply_operator_symbolic: {gap:.2e}")

    # refusals the program must make: an expected refusal is a success
    ledger = workloads.Ledger()
    chart = inputs.build("chart_2d", 0, "quick")
    ledger.refusal(bclab.CharacteristicCrossing, bclab.solve_eikonal,
                   chart["waveguide"], "-", chart["depth_grid"], 0.3125)
    probe = inputs.build("probe_flat", 0, "quick")
    ledger.refusal(bclab.NotElliptic, bclab.probe_symbol, lambda face: None,
                   probe["point"], (2.0, 1.0), probe["k_list"], grid=probe["grid"],
                   boundary_coeffs={"g0_plus_j": [0.0], "g0_jk": [[-1.0]]})
    print(f"selfcheck refusals: {ledger.attempted - ledger.failed}/{ledger.attempted} as expected")
    problems.extend(ledger.failures)

    for name in inputs.WORKLOADS:
        for trace in (False, True):
            result = measure(name, 0, 0.0, trace, size="quick", setup_repeats=1)
            line = final_line(result)
            report(result, line)
            print(json.dumps(line))
            bad = validate(line, trace) + result["failures"]
            print(f"selfcheck {name} trace={int(trace)}: "
                  f"{'ok' if not bad else 'FAILED'} ({result['attempted']} operations)")
            problems.extend(f"{name} trace={int(trace)}: {p}" for p in bad)

    print(f"selfcheck: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    for p in problems:
        print("  " + p)
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("fwd_td_cross", "chart_2d", "probe_flat"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required unless --selfcheck is given")

    if not (SRC / "bclab" / "__init__.py").is_file():
        print(f"error: no bclab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.selfcheck:
        return selfcheck()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = final_line(result)
    report(result, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
