"""shapeseg benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload disk_free --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

``--trace 0`` times closed-loop runs of one workload with no instrumentation
and reports the end-to-end metrics. ``--trace 1`` alternates untraced runs
with runs in which every layer's public functions are wrapped in spans, and
reports the per-layer metrics plus the tracing overhead. ``--workload all``
does both for every workload and prints every metric. Human-readable lines
come first; the last line of standard output is one JSON object. Full
results and the traced spans are written under ``perfbench/out/``.
"""

import os

# The package is single-threaded NumPy; extra BLAS threads only add noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
try:
    import numpy as np
    import scipy
    from shapeseg import contours, descent, energy, field, io, shape_prior, synth
    import workloads
    from tracer import Tracer
except ImportError as exc:      # reported by main(): the benchmark needs src/
    IMPORT_ERROR = exc
else:
    IMPORT_ERROR = None

MIN_RUNS = 3            # untraced runs per invocation, however long each takes
SETUP_BATCH_S = 0.1     # each run's set-up repeats for this long (at least once)
PROBE_EVERY = 10        # steps between zero-crossing probes in traced runs
PROBE_AGREE_PX = 0.01   # allowed gap between the probe and extract_contours

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "step_ms": "ms",
    "iters": "count",
    "contour_err_px": "px",
    "final_energy": "1",
    "peak_alloc_mb": "MiB",
}

# layers timed as self time per call, in ms
LAYER_MS = (
    "descent.evaluate", "descent.grad_phi_total", "descent.grad_params",
    "descent.prior_field", "descent.solve_smooth_approximant", "descent.reinitialize",
    "energy.total_energy", "energy.heaviside_eps", "energy.dirac_eps",
    "energy.dirac_eps_prime", "field.grad", "field.divergence", "field.bilinear_sample",
    "field.read_sfld", "field.write_sfld", "shape_prior.warp",
    "shape_prior.synthesize_shape", "shape_prior.sdf_from_mask",
    "shape_prior.build_shape_model", "shape_prior.read_smdl", "shape_prior.write_smdl",
    "contours.extract_contours", "io.read_pgm", "io.write_pgm", "io.contours_to_csv",
    "io.trace_to_csv", "cli.synth", "cli.build-model", "cli.segment", "cli.energy",
    "cli.reinit",
)
# layers also counted per descent step
LAYER_PER_STEP = ("descent.evaluate", "descent.grad_params", "descent.prior_field",
                  "descent.solve_smooth_approximant", "field.grad")
# metric -> (span name, unit); work per second of the span's inclusive time
THROUGHPUT = {
    "descent.solve_smooth_approximant.mpix_sweeps_per_s":
        ("descent.solve_smooth_approximant", "Mpix/s"),
    "field.bilinear_sample.msamples_per_s": ("field.bilinear_sample", "Msample/s"),
    "synth.gaussian_noise.msamples_per_s": ("synth.gaussian_noise", "Msample/s"),
}
COUNTS = {
    "descent.steps": "count",
    "descent.phi_accepted": "count",
    "descent.param_accepted": "count",
    "descent.phi_accept_frac": "1",
    "descent.param_accept_frac": "1",
    "contours.extract_contours.vertices": "count",
    "iters_to_2px": "count",
    "trace.overhead_frac": "1",
}
PER_LAYER = {
    **{f"{n}.ms": "ms" for n in LAYER_MS},
    **{f"{n}.calls_per_step": "count" for n in LAYER_PER_STEP},
    **{k: unit for k, (_span, unit) in THROUGHPUT.items()},
    **COUNTS,
}


def trace_targets():
    """(module, attribute[, work]) for every wrapped function."""
    mods = {"descent": descent, "energy": energy, "field": field, "io": io,
            "shape_prior": shape_prior, "contours": contours}
    work = {
        "descent.solve_smooth_approximant":
            lambda a, r: a["image"].size * a["sweeps"] / 1e6,
        "field.bilinear_sample": lambda a, r: math.prod(getattr(a["x"], "shape", ())) / 1e6,
        "contours.extract_contours": lambda a, r: sum(len(c.vertices) for c in r),
    }
    targets = [(descent, "segment"), (descent, "step"),
               (synth, "gaussian_noise", lambda a, r: a["count"] / 1e6)]
    for name in LAYER_MS:
        mod, attr = name.split(".", 1)
        if mod != "cli":
            targets.append((mods[mod], attr, *([work[name]] if name in work else [])))
    return targets


# ---------------------------------------------------------------------------
# statistics and reporting


def tail_note(samples) -> str:
    """Sample count plus the highest percentile with at least ten samples above it."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            return f"p{p}={q:.6g}, n={n}"
    return f"n={n}"


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "processes": 1}


class Tally:
    """Attempted and failed operations of one invocation, with the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons.extend(failures)


# ---------------------------------------------------------------------------
# running workloads


def timed_setup(wl, times):
    """Set the workload up, repeating for SETUP_BATCH_S; appends each set-up's seconds.

    Every run gets its own batch, so the set-up is sampled across the whole
    invocation, like the runs, rather than only at its start.
    """
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        inputs = wl.setup()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 - start >= SETUP_BATCH_S:
            return inputs


def execute(wl, inputs, span=None):
    """One timed run; returns (seconds, raw result, abort message or None)."""
    t0 = time.perf_counter()
    try:
        raw, error = wl.run(inputs, span), None
    except descent.NumericalAbort as exc:
        raw, error = None, f"numerical abort: {exc}"
    return time.perf_counter() - t0, raw, error


def judge(wl, inputs, raw, error, reference):
    """Read back one run and check it; returns (outcome or None, failures)."""
    if error is not None:
        return None, [error]
    outcome = wl.collect(inputs, raw)
    return outcome, workloads.check(outcome, reference)


def quality(wl, outcome):
    """Contour error and the checks made once per seed on the reference run."""
    err = wl.contour_err(outcome.phi)
    failures = []
    if wl.accuracy_px is not None and not err <= wl.accuracy_px:
        failures.append(f"contour error {err:.4g} px above {wl.accuracy_px} px")
    probe = workloads.circle_distance(workloads.zero_crossings(outcome.phi), wl.circle)
    marched = workloads.circle_distance(workloads.contour_vertices(outcome.phi), wl.circle)
    if not abs(probe - marched) <= PROBE_AGREE_PX:
        failures.append(f"probe reads {probe:.4f} px, extract_contours {marched:.4f} px")
    return err, failures


def closed_loop(seconds, body, min_runs):
    """Call ``body`` until ``seconds`` have passed and it has run ``min_runs`` times."""
    deadline = time.perf_counter() + seconds
    n = 0
    while n < min_runs or time.perf_counter() < deadline:
        body()
        n += 1


def run_untraced(wl, seconds):
    tally = Tally()
    setup_times = []
    wl.warmup(timed_setup(wl, setup_times))
    runs = {"run_s": [], "step_ms": [], "ref": None, "err": None, "inputs": None}

    def once():
        inputs = runs["inputs"] = timed_setup(wl, setup_times)
        sec, raw, error = execute(wl, inputs)
        outcome, failures = judge(wl, inputs, raw, error, runs["ref"])
        if not failures and runs["ref"] is None:
            runs["err"], failures = quality(wl, outcome)
            runs["ref"] = outcome
        tally.add(failures)
        if not failures:
            runs["run_s"].append(sec)
            runs["step_ms"].append(1e3 * outcome.descent_s / outcome.iters)

    closed_loop(seconds, once, MIN_RUNS)
    ref, inputs = runs["ref"], runs["inputs"]
    if ref is None:
        return None, tally, {}
    tracemalloc.start()
    try:
        sec, raw, error = execute(wl, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.add(judge(wl, inputs, raw, error, ref)[1])
    metrics = {
        "run_s": statistics.median(runs["run_s"]),
        "setup_s": statistics.median(setup_times),
        "step_ms": statistics.median(runs["step_ms"]),
        "iters": ref.iters,
        "contour_err_px": runs["err"],
        "final_energy": ref.totals[-1],
        "peak_alloc_mb": peak / 2 ** 20,
    }
    notes = {"run_s": tail_note(runs["run_s"]), "setup_s": tail_note(setup_times),
             "step_ms": tail_note(runs["step_ms"]), "peak_alloc_mb": "one tracemalloc pass"}
    return metrics, tally, notes


@contextmanager
def observed_steps(tracer, circle):
    """Wrap descent.step to compare each step's input and output state.

    Yields counts of the steps taken, of those whose phi or (lambda, pose)
    changed, and the first step, probed every PROBE_EVERY steps, whose zero
    crossings lie within 2 px of the true ``circle`` on average (0 if none
    does). The observer's own work is its own span, so no layer is charged
    for it.
    """
    counts = {"steps": 0, "phi": 0, "param_steps": 0, "param": 0, "to_2px": 0}
    inner = descent.step

    def step(state, *args, **kwargs):
        out = inner(state, *args, **kwargs)
        with tracer.span("bench.observe"):
            counts["steps"] += 1
            counts["phi"] += not np.array_equal(out.phi, state.phi)
            if state.lam is not None:
                counts["param_steps"] += 1
                counts["param"] += not (np.array_equal(out.lam, state.lam) and np.array_equal(
                    out.pose.as_vector(), state.pose.as_vector()))
            if counts["to_2px"] == 0 and (out.iter == 1 or out.iter % PROBE_EVERY == 0):
                if workloads.circle_distance(workloads.zero_crossings(out.phi), circle) <= 2.0:
                    counts["to_2px"] = out.iter
        return out

    descent.step = step
    try:
        yield counts
    finally:
        descent.step = inner


def run_traced(wl, seconds):
    tracer = Tracer()
    targets = trace_targets()
    tally = Tally()
    with tracer.installed(targets), tracer.span("bench.setup"):
        inputs = wl.setup()
    wl.warmup(inputs)
    runs = {"plain": [], "traced": [], "ref": None, "counts": []}

    def pair():
        sec, raw, error = execute(wl, inputs)
        outcome, failures = judge(wl, inputs, raw, error, runs["ref"])
        if not failures and runs["ref"] is None:
            failures = quality(wl, outcome)[1]
            runs["ref"] = outcome
        tally.add(failures)
        if failures:
            return
        runs["plain"].append(sec)
        with tracer.installed(targets), observed_steps(tracer, wl.circle) as counts, \
                tracer.span("bench.run"):
            sec, raw, error = execute(wl, inputs, tracer.span)
        failures = judge(wl, inputs, raw, error, runs["ref"])[1]
        runs["counts"].append(counts)
        if counts != runs["counts"][0]:
            failures.append("step observations differ between traced runs")
        tally.add(failures)
        if not failures:
            runs["traced"].append(sec)

    closed_loop(seconds, pair, 1)
    if not runs["traced"]:
        return None, tally, {}
    OUT.mkdir(exist_ok=True)
    tracer.write_csv(OUT / f"spans-{wl.name}.csv")

    # times and per-step calls pool every traced run; counts are per run
    stats = tracer.layer_stats("descent.step")
    steps = stats["descent.step"]["calls"]
    metrics, notes = {}, {}
    for name in LAYER_MS:
        s = stats.get(name)
        metrics[f"{name}.ms"] = s["self_ns"] / s["calls"] / 1e6 if s else 0.0
        notes[f"{name}.ms"] = f"{s['calls'] if s else 0} calls"
    for name in LAYER_PER_STEP:
        s = stats.get(name)
        metrics[f"{name}.calls_per_step"] = s["in_step"] / steps if s and steps else 0.0
        notes[f"{name}.calls_per_step"] = f"{s['in_step'] if s else 0}/{steps}"
    for key, (name, _unit) in THROUGHPUT.items():
        s = stats.get(name)
        metrics[key] = tracer.work[name] / (s["total_ns"] / 1e9) if s else 0.0
    ext = stats.get("contours.extract_contours")
    metrics["contours.extract_contours.vertices"] = (
        tracer.work["contours.extract_contours"] / ext["calls"] if ext else 0.0)
    counts = runs["counts"][0]
    metrics["descent.steps"] = counts["steps"]
    metrics["descent.phi_accepted"] = counts["phi"]
    metrics["descent.param_accepted"] = counts["param"]
    metrics["descent.phi_accept_frac"] = counts["phi"] / counts["steps"] if counts["steps"] else 0.0
    notes["descent.phi_accept_frac"] = f"{counts['phi']}/{counts['steps']}"
    metrics["descent.param_accept_frac"] = (
        counts["param"] / counts["param_steps"] if counts["param_steps"] else 0.0)
    notes["descent.param_accept_frac"] = f"{counts['param']}/{counts['param_steps']}"
    metrics["iters_to_2px"] = counts["to_2px"]
    notes["iters_to_2px"] = f"probe every {PROBE_EVERY} steps; 0 = never within 2 px"
    plain, traced = statistics.median(runs["plain"]), statistics.median(runs["traced"])
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    notes["trace.overhead_frac"] = (f"traced {traced:.4g} s ({tail_note(runs['traced'])}) "
                                    f"vs untraced {plain:.4g} s ({tail_note(runs['plain'])})")
    step_ns = [t1 - t0 for name, t0, t1, _p in tracer.spans if name == "descent.step"]
    if step_ns:
        notes["descent.steps"] = (f"traced step p50={statistics.median(step_ns) / 1e6:.4g} ms, "
                                  + tail_note([t / 1e6 for t in step_ns]))
    return metrics, tally, notes


# ---------------------------------------------------------------------------
# entry point


def measure(name, seed, seconds, trace, facts):
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, OUT / "work")
    metrics, tally, notes = (run_traced if trace else run_untraced)(wl, seconds)
    units = PER_LAYER if trace else END_TO_END
    print(f"# {name} seed={seed} seconds={seconds} trace={trace} attempted={tally.attempted} "
          f"failed={tally.failed} failed_frac={tally.failed / tally.attempted:.4g}")
    for reason in sorted(set(tally.reasons)):
        print(f"#   failure: {reason}")
    if metrics is None:
        return None
    for key, unit in units.items():
        note = notes.get(key, "")
        print(f"{name:10s} {key:56s} {metrics[key]:>14.6g} {unit:10s} {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    detail = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace,
                  machine=facts, notes=notes, failures=sorted(set(tally.reasons)))
    (OUT / f"result-{name}-trace{trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("disk_free", "arc_model", "pipeline", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "shapeseg"
    if IMPORT_ERROR is not None:
        print(f"error: cannot import shapeseg from {package}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if Path(descent.__file__).resolve().parent != package:
        print(f"error: imported shapeseg from {descent.__file__}, not {package}", file=sys.stderr)
        return 2

    facts = machine_facts()
    print("# machine " + json.dumps(facts))
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, args.trace, facts)
        if result is None:
            print("error: no run of this workload succeeded", file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0

    combined = {}
    for name in ("disk_free", "arc_model", "pipeline"):
        for trace in (0, 1):
            combined[f"{name}/trace{trace}"] = measure(name, args.seed, args.seconds, trace, facts)
    ok = all(r is not None and r["correct"] for r in combined.values())
    print(json.dumps({"correct": ok, "results": combined}))
    return 0 if all(r is not None for r in combined.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
