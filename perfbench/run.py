"""Study benchmark for spdefd.

    python3 perfbench/run.py --workload ensemble-1d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--workload all`` runs the four workloads in one process.

``--trace 0`` measures the end-to-end metrics with no wrapper installed:
setup time in fresh processes, the median wall time of repeated full
studies, the peak resident set, and the observed order of the study.  The
two times are paced: rescaled to a reference machine speed, sampled while
the timed work runs (see ``pace.py``).
``--trace 1`` gives the per-layer metrics instead: it times a few untraced
studies, then the same study with the outside-in tracer of ``tracer.py``
installed, and reports the self time per layer, the layer counters and the
tracing overhead.  Spans of the first traced study are written to
``.bench_out/trace-<workload>.jsonl``.

Metric names and units come from ``BENCHMARK.json``.  Human-readable lines
go to standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# At most two threads: the BLAS pools stay single-threaded, and only the
# threads=2 check starts a worker pool.  Must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# numpy, spdefd and the modules that import them are imported inside the
# functions: the set-up probe times those imports in a fresh process.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_STUDIES = 3
SELF_TIME_TOLERANCE = 1e-3     # relative; self times must sum to the study span


def locate_package() -> None:
    if not (SRC / "spdefd" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'spdefd'} not found; run from a checkout of "
                 "the repository")
    sys.path.insert(0, str(SRC))


def load_metric_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


# -- set-up time ---------------------------------------------------------------

def setup_probe(name: str, seed: int, small: bool) -> None:
    """Child process: time ``import spdefd`` plus building the inputs, and
    print the wall and the paced time."""
    import pace
    with pace.Sampler() as sampler:
        import workloads
        workloads.WORKLOADS[name](seed, small).setup()
    print(repr(sampler.wall_s), repr(sampler.paced_s))


def measure_setup(name: str, seed: int, small: bool, repeats: int) -> list:
    """Wall and paced set-up times of ``repeats`` fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--small"] if small else [])
    times = []
    for k in range(repeats + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        if k:                    # the first run fills the bytecode caches
            wall, paced = done.stdout.strip().splitlines()[-1].split()
            times.append((float(wall), float(paced)))
    return times


# -- runs ----------------------------------------------------------------------

class Run:
    """Tallies of one workload run: attempted and failed studies."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.failures = []

    def record(self, failure: str) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(failure)

    def say(self, text: str) -> None:
        print(f"{self.name:16s} {text}", flush=True)


def timed_studies(run: Run, workload, seconds: float, minimum: int):
    """Repeat the study for ``seconds`` (at least ``minimum`` times) after one
    untimed warm-up; every repeat must reproduce the warm-up's outputs.

    Returns the wall times, the paced times and the warm-up's outcome."""
    import pace
    import tracer
    import workloads
    if tracer.leftover_wrappers():
        raise RuntimeError("untraced study with tracing wrappers installed")
    _, first, failure = workloads.run_study(workload, SCRATCH)
    run.record(failure)
    times, paced = [], []
    start = time.perf_counter()
    while len(times) < minimum or time.perf_counter() - start < seconds:
        sampler = pace.Sampler()
        _, outcome, failure = workloads.run_study(workload, SCRATCH,
                                                  sampler=sampler)
        if not failure and outcome != first:
            failure = "outputs changed between repeats of the same study"
        run.record(failure)
        times.append(sampler.wall_s)
        paced.append(sampler.paced_s)
    return times, paced, first


def untraced(name: str, seed: int, seconds: float, small: bool) -> tuple[Run, dict]:
    import workloads
    run = Run(name)
    workload = workloads.WORKLOADS[name](seed, small)
    setup = measure_setup(name, seed, small, 1 if small else SETUP_REPEATS)
    times, paced, first = timed_studies(run, workload, seconds,
                                        1 if small else MIN_STUDIES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"study_s": statistics.median(paced),
               "setup_s": statistics.median(p for _, p in setup),
               "peak_rss_mb": rss_mb,
               "observed_order": first.order}
    run.say(f"study_s      median {metrics['study_s']:.4f} s paced  (n={len(paced)}, "
            f"min {min(paced):.4f}, max {max(paced):.4f}); wall median "
            f"{statistics.median(times):.4f} s")
    run.say(f"setup_s      median {metrics['setup_s']:.4f} s paced  (n={len(setup)}, "
            "fresh process: import spdefd + build inputs); wall median "
            f"{statistics.median(w for w, _ in setup):.4f} s")
    run.say(f"peak_rss_mb  {rss_mb:.1f} MiB")
    run.say(f"observed_order {first.order:.6f}  order_gap "
            f"{abs(first.order - workloads.EXPECTED_ORDER):.6f}  (bound: {workload.bound})")
    run.say(f"fail_frac    {len(run.failures)}/{run.attempted} = "
            f"{len(run.failures) / run.attempted:.3f}")
    return run, metrics


def layer_metrics(t) -> dict:
    """Per-layer numbers of one traced study."""
    import numpy as np
    steps_ms = [1e3 * d for d in t.durations("stepper.implicit_step")]
    c = t.counters
    selfs = t.self_times()
    gmres_calls = c.get("stepper.gmres_calls", 0)
    gmres_iters = c.get("stepper.gmres_iters", 0)
    out = {
        "wiener.sample_s": t.total("wiener.sample_increments"),
        "wiener.sample_calls": t.calls("wiener.sample_increments"),
        "stepper.space_time_s": t.total("stepper.run_space_time_scheme",
                                        outside="stepper.run_reference_time_scheme"),
        "stepper.steps": len(steps_ms),
        "stepper.step_ms_p50": float(np.percentile(steps_ms, 50)) if steps_ms else 0.0,
        "stepper.step_ms_p99": float(np.percentile(steps_ms, 99)) if steps_ms else 0.0,
        "stepper.solve_s": t.total("stepper.ImplicitOperator.solve"),
        "stepper.solve_calls": t.calls("stepper.ImplicitOperator.solve"),
        "stepper.apply_M_s": t.total("stepper.apply_M"),
        "stepper.assemble_factor_s": t.total("stepper.ImplicitOperator"),
        "stepper.factorizations": c.get("stepper.factorizations", 0),
        "stepper.lu_nnz": c.get("stepper.lu_nnz", 0),
        "stepper.apply_L_s": t.total("stepper.apply_L"),
        "stepper.gmres_calls": gmres_calls,
        "stepper.gmres_iters": gmres_iters,
        "stepper.gmres_iters_per_solve": gmres_iters / gmres_calls if gmres_calls else 0.0,
        "stepper.reference_s": t.total("stepper.run_reference_time_scheme"),
        "stepper.spectral_solve_s": t.total("stepper.SpectralOperators.solve_implicit"),
        "stepper.spectral_apply_M_s": t.total("stepper.SpectralOperators.apply_M"),
        "grids.gridfield_inits": c.get("grids.gridfield_inits", 0),
        "grids.norms_s": t.total("grids.grid_norms"),
        "grids.norms_calls": t.calls("grids.grid_norms"),
        "grids.subsample_s": t.total("grids.subsample"),
        "richardson.combine_s": t.total("richardson.richardson_combine"),
        "richardson.estimate_order_s": t.total("richardson.estimate_order"),
        "correctors.system_s": t.total("correctors.run_corrector_system"),
        "correctors.operator_L_s": t.total("correctors.corrector_operator_L"),
        "correctors.operator_M_s": t.total("correctors.corrector_operator_M"),
        "correctors.residual_s": t.total("correctors.expansion_residual"),
        "problems.build_s": t.layer_total("problems"),
        "experiments.emit_s": t.total("experiments.emit_outputs"),
        "trace.study_s": t.total("bench.study"),
        "trace.spans": len(t.names),
    }
    for layer in ("bench", "problems", "wiener", "grids", "stepper", "scipy",
                  "richardson", "correctors", "experiments"):
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return out


def traced(name: str, seed: int, seconds: float, small: bool) -> tuple[Run, dict]:
    import tracer
    import workloads
    run = Run(name)
    workload = workloads.WORKLOADS[name](seed, small)
    plain, _, _ = timed_studies(run, workload, seconds / 2, 1)
    per_study = []
    start = time.perf_counter()
    while not per_study or time.perf_counter() - start < seconds / 2:
        t = tracer.Tracer()
        t.install()
        try:
            _, _, failure = workloads.run_study(workload, SCRATCH, tracer=t)
        finally:
            t.uninstall()
        left = tracer.leftover_wrappers()
        if left:
            failure = failure or f"wrappers left after the traced run: {left}"
        numbers = layer_metrics(t)
        gap = abs(sum(t.self_times().values()) - numbers["trace.study_s"])
        if gap > SELF_TIME_TOLERANCE * numbers["trace.study_s"]:
            failure = failure or f"self times miss the study span by {gap:.3g} s"
        run.record(failure)
        if not per_study:
            t.write_jsonl(SCRATCH / f"trace-{name}.jsonl")
        per_study.append(numbers)
    metrics = {}
    for key in per_study[0]:
        values = [p[key] for p in per_study]
        if isinstance(values[0], int):      # a count: must repeat exactly
            if len(set(values)) > 1:
                run.record(f"{key} differs between traced studies: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_frac"] = (metrics["trace.study_s"]
                                      / statistics.median(plain) - 1.0)

    ratios, failure = workloads.crossover_ratios(seed, small)
    run.record(failure)
    for points, ratio in ratios.items():
        metrics[f"stepper.direct_over_gmres.{points}"] = ratio
    metrics["experiments.thread_speedup"], failure = workloads.thread_check(
        seed, SCRATCH, small)
    run.record(failure)

    run.say(f"traced studies {len(per_study)}, untraced {len(plain)}; tracing "
            f"overhead {100 * metrics['trace.overhead_frac']:.1f}% of "
            f"{statistics.median(plain):.3f} s")
    for key in sorted(metrics):
        run.say(f"{key:34s} {metrics[key]:.6g}")
    return run, metrics


def result_line(runs: list, metrics: dict, units: dict) -> str:
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing "
                           f"{missing}, unlisted {extra}")
    failed = sum(len(r.failures) for r in runs)
    for r in runs:
        for failure in r.failures:
            r.say(f"FAILED: {failure}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced problem sizes, for the self-tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    locate_package()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.small)
        return 0
    table = load_metric_table()
    names = table["workloads"] if args.workload == "all" else [args.workload]
    if not set(names) <= set(table["workloads"]):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{table['workloads'] + ['all']}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    SCRATCH.mkdir(exist_ok=True)
    measure = traced if args.trace else untraced
    units = table["per_layer"] if args.trace else table["end_to_end"]
    runs, metrics, all_units = [], {}, {}
    for name in names:
        run, got = measure(name, args.seed, args.seconds, args.small)
        runs.append(run)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in got.items()})
        all_units.update({prefix + k: u for k, u in units.items()})
    print(result_line(runs, metrics, all_units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
