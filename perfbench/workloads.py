"""The four study workloads: inputs derived from the seed, one full study,
and the checks that decide whether a study failed.

A study is what a user of the package runs end to end: for the three harness
workloads ``run_convergence_experiment`` (or ``run_corrector_experiment``)
plus ``emit_outputs``; for ``gmres-2d`` the same pipeline composed from the
public calls, because the harness only builds 1-d problems by name.
"""

import contextlib
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spdefd
from spdefd import experiments
from spdefd.experiments import ExperimentSpec

# Level-1, base-4 extrapolation of the centred scheme cancels h^2, so every
# extrapolated study (and the k = 3 expansion residual) should show order 4.
EXPECTED_ORDER = 4.0

STOCH_TRANSPORT = (("beta", 0.3), ("extra_diffusion", 0.05))


def wiener_seeds(seed: int, count: int) -> tuple:
    """Wiener seeds of a workload seed: distinct seeds give disjoint sets."""
    return tuple(1000 * seed + k for k in range(1, count + 1))


@dataclass(frozen=True)
class Outcome:
    """What one study produced, reduced to what the benchmark checks."""

    order: float
    errors: tuple
    outputs: dict          # file name -> bytes; empty for gmres-2d
    failure: str = ""


class Workload:
    name = ""
    bound = ""

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small

    def setup(self):
        """Build problem, scheme, grids and increments (what a CLI
        invocation pays before its first solve)."""
        raise NotImplementedError

    def study(self, out_dir: Path) -> Outcome:
        raise NotImplementedError

    def order_ok(self, order: float) -> bool:
        return abs(order - EXPECTED_ORDER) <= 0.5

    def check(self, outcome: Outcome) -> str:
        """Empty when the study passed, else the reason it failed."""
        if outcome.failure:
            return outcome.failure
        if not all(math.isfinite(e) for e in outcome.errors):
            return "non-finite error"
        if not math.isfinite(outcome.order) or not self.order_ok(outcome.order):
            return f"order {outcome.order:.4f} outside bound ({self.bound})"
        return ""


class HarnessWorkload(Workload):
    """A study run through the experiment harness from an ExperimentSpec."""

    kind = "accelerate"

    def spec(self) -> ExperimentSpec:
        raise NotImplementedError

    def setup(self):
        spec = self.spec()
        problem = experiments.build_problem(spec)
        scheme = experiments.build_scheme(spec, problem)
        extra = spec.level if self.kind == "accelerate" else 0
        grids = experiments.ladder_grids(spec, problem, extra=extra)
        tau = problem.T / spec.n
        increments = [spdefd.sample_increments(spec.n, problem.d1, tau, s)
                      for s in spec.seeds] if problem.d1 > 0 else []
        return problem, scheme, grids, increments

    def study(self, out_dir: Path, spec: ExperimentSpec | None = None) -> Outcome:
        spec = spec or self.spec()
        if self.kind == "correctors":
            result = experiments.run_corrector_experiment(spec)
        else:
            result = experiments.run_convergence_experiment(spec, accelerate=True)
        paths = experiments.emit_outputs(result, out_dir)
        outputs = {p.name: p.read_bytes() for p in paths}
        if result.failed:
            return Outcome(math.nan, (), outputs, failure=result.failure)
        errors = tuple(e for rows in result.per_rung_errors.values()
                       for _, sup, l2h in rows for e in (sup, l2h))
        return Outcome(result.report.ls_order, errors, outputs)


class Ensemble1d(HarnessWorkload):
    name = "ensemble-1d"
    bound = "|order-4| <= 0.5"

    def spec(self, threads: int = 1) -> ExperimentSpec:
        if self.small:
            return ExperimentSpec(problem="stoch-transport",
                                  problem_params=STOCH_TRANSPORT, n=32,
                                  points0=16, rungs=3, level=1,
                                  reference_mode="spectral",
                                  seeds=wiener_seeds(self.seed, 2),
                                  threads=threads)
        return ExperimentSpec(problem="stoch-transport",
                              problem_params=STOCH_TRANSPORT, n=256, points0=16,
                              rungs=4, level=1, reference_mode="spectral",
                              seeds=wiener_seeds(self.seed, 8), threads=threads)


class VarcoefFineref(HarnessWorkload):
    name = "varcoef-fineref"
    bound = "none, known reference-limited defect"

    def spec(self) -> ExperimentSpec:
        if self.small:
            return ExperimentSpec(problem="var-coef1d", n=32, points0=8,
                                  rungs=3, level=1, seeds=(self.seed,))
        return ExperimentSpec(problem="var-coef1d", n=256, points0=16, rungs=5,
                              level=1, seeds=(self.seed,))

    def order_ok(self, order: float) -> bool:
        return True


class CorrectorsK3(HarnessWorkload):
    name = "correctors-k3"
    bound = "residual order >= 3.6"
    kind = "correctors"

    def spec(self) -> ExperimentSpec:
        if self.small:
            return ExperimentSpec(problem="stoch-transport",
                                  problem_params=STOCH_TRANSPORT, n=16,
                                  points0=16, rungs=3, correctors_k=3,
                                  reference_mode="spectral",
                                  seeds=wiener_seeds(self.seed, 1))
        return ExperimentSpec(problem="stoch-transport",
                              problem_params=STOCH_TRANSPORT, n=256, points0=16,
                              rungs=4, correctors_k=3,
                              reference_mode="spectral",
                              seeds=wiener_seeds(self.seed, 1))

    def order_ok(self, order: float) -> bool:
        return order >= 3.6


def gmres_problem() -> spdefd.DifferentialProblem:
    """2-d constant-coefficient problem with one Wiener process; 2a - bb^T is
    diag(0.06, 0.09), so it is parabolic but not strongly so."""
    return spdefd.DifferentialProblem(
        d=2, d1=1, T=0.25,
        a={(1, 1): 0.05, (2, 2): 0.05, (1, 2): 0.01, (2, 1): 0.01},
        b={(1, 1): 0.2, (2, 1): 0.1},
        u0=lambda x: (np.cos(2.0 * np.pi * x[..., 0])
                      * np.cos(2.0 * np.pi * (x[..., 0] + x[..., 1]))),
        constant_coefficients=True, name="gmres-2d")


class Gmres2d(Workload):
    name = "gmres-2d"
    bound = "|order-4| <= 0.5"

    def sizes(self):
        # (time steps, coarsest points per axis, rungs); the finest rung
        # plus the extrapolation partner is above the direct-solve limit
        return (4, 16, 3) if self.small else (32, 32, 3)

    def setup(self):
        n, points0, rungs = self.sizes()
        problem = gmres_problem()
        scheme = spdefd.build_scheme_example1(problem)
        grids = [spdefd.make_torus_grid(2, [1.0, 1.0], [points0 * 2 ** j] * 2)
                 for j in range(rungs + 1)]
        increments = spdefd.sample_increments(n, problem.d1, problem.T / n,
                                              wiener_seeds(self.seed, 1)[0])
        return problem, scheme, grids, increments

    def study(self, out_dir: Path) -> Outcome:
        n, _, rungs = self.sizes()
        problem, scheme, grids, increments = self.setup()
        weights = spdefd.vandermonde_weights(1, 4)
        try:
            solutions = [spdefd.run_space_time_scheme(problem, scheme, g, n,
                                                      increments)
                         for g in grids]
            reference = spdefd.run_reference_time_scheme(
                problem, grids[-1], n, increments, mode="spectral-const-coef")
        except spdefd.SolveFailure as exc:
            return Outcome(math.nan, (), {}, failure=str(exc))
        sups, l2hs = [], []
        for j in range(rungs):
            candidate = spdefd.richardson_combine(solutions[j:j + 2], weights)
            ref_j = reference.restricted(grids[-1].shape[0]
                                         // candidate.grid.shape[0])
            norms = [spdefd.grid_norms(a - b)
                     for a, b in zip(candidate.fields, ref_j.fields)]
            sups.append(max(s for s, _ in norms))
            l2hs.append(max(l for _, l in norms))
        report = spdefd.estimate_order([g.h for g in grids[:rungs]], sups,
                                       l2h_errors=l2hs)
        return Outcome(report.ls_order, tuple(sups + l2hs), {})


WORKLOADS = {cls.name: cls for cls in (Ensemble1d, Gmres2d, VarcoefFineref,
                                       CorrectorsK3)}


def run_study(workload: Workload, scratch: Path, tracer=None, sampler=None,
              **kwargs):
    """One timed study into a fresh output directory under ``scratch``; with a
    tracer, the study runs inside its root span ``bench.study``, and with a
    ``pace.Sampler``, under that sampler.

    Returns (seconds, outcome, failure reason)."""
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        span = tracer.span("bench.study") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with sampler or contextlib.nullcontext(), span:
            outcome = workload.study(out_dir, **kwargs)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(out_dir)
    return elapsed, outcome, workload.check(outcome)


def crossover_ratios(seed: int, small: bool = False) -> tuple[dict, str]:
    """Direct over GMRES wall time of one ``run_space_time_scheme`` on the
    gmres-2d problem at 64^2, 96^2 and 128^2 (keyed by those sizes), the
    median of three timings each, and a failure reason if the two solver
    modes disagree beyond the GMRES tolerance.  The reduced sizes only
    exercise the code."""
    sizes, n, repeats = ((32, 48, 64), 4, 1) if small else ((64, 96, 128), 32, 3)
    problem = gmres_problem()
    scheme = spdefd.build_scheme_example1(problem)
    increments = spdefd.sample_increments(n, 1, problem.T / n,
                                          wiener_seeds(seed, 1)[0])
    ratios, failure = {}, ""
    for label, points in zip((64, 96, 128), sizes):
        grid = spdefd.make_torus_grid(2, [1.0, 1.0], [points, points])
        samples = []
        for _ in range(repeats):
            times, finals = {}, {}
            for mode in ("direct", "iterative"):
                t0 = time.perf_counter()
                traj = spdefd.run_space_time_scheme(problem, scheme, grid, n,
                                                    increments, solver_mode=mode)
                times[mode] = time.perf_counter() - t0
                finals[mode] = traj.fields[-1].values
            gap = float(np.max(np.abs(finals["direct"] - finals["iterative"])))
            if gap > 1e-8:
                failure = f"direct and GMRES differ by {gap:.2e} at {points}^2"
            samples.append(times["direct"] / times["iterative"])
        ratios[label] = statistics.median(samples)
    return ratios, failure


def thread_check(seed: int, scratch: Path, small: bool = False):
    """ensemble-1d with threads=1 next to threads=2: the median speedup t1/t2
    over three pairs, and a failure reason if any output file differs by a
    byte."""
    workload = Ensemble1d(seed, small)
    speedups, failure = [], ""
    for _ in range(1 if small else 3):
        t1, one, fail1 = run_study(workload, scratch, spec=workload.spec(threads=1))
        t2, two, fail2 = run_study(workload, scratch, spec=workload.spec(threads=2))
        speedups.append(t1 / t2)
        failure = failure or fail1 or fail2
        if not failure and one.outputs != two.outputs:
            differ = sorted(k for k in set(one.outputs) | set(two.outputs)
                            if one.outputs.get(k) != two.outputs.get(k))
            failure = f"threads=2 changed output bytes of {differ}"
    return statistics.median(speedups), failure
