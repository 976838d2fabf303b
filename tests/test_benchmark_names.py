"""The names the study benchmark in ``perfbench/`` reads from spdefd.

The benchmark imports these by name, wraps some of them in its tracer and
compares the two solver modes of ``run_space_time_scheme``.  Deleting or
renaming one of them breaks the benchmark run; these tests make it fail
here first.
"""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

import spdefd
from spdefd import experiments, grids, stepper

# "<module>.<name>" under spdefd, as the benchmark's tracer names its spans
INIT_SPANS = ("stepper.ImplicitOperator", "stepper.SpectralOperators",
              "stepper.FiniteDifferenceOperators", "problems.DifferentialProblem",
              "problems.DifferenceScheme")
READ_NAMES = INIT_SPANS + (
    "stepper.ImplicitOperator.solve", "stepper.apply_L",
    "stepper.run_space_time_scheme", "stepper.run_reference_time_scheme",
    "grids.GridField.__init__", "grids.grid_norms", "grids.subsample",
    "experiments.ExperimentSpec", "experiments.build_problem",
    "experiments.build_scheme", "experiments.ladder_grids",
    "experiments.run_convergence_experiment",
    "experiments.run_corrector_experiment", "experiments.emit_outputs",
    "experiments.run_space_time_scheme", "correctors.run_corrector_system",
    "correctors.corrector_operator_L", "correctors.corrector_operator_M",
    "correctors.expansion_residual", "richardson.richardson_combine",
    "richardson.estimate_order", "wiener.sample_increments")
TOP_LEVEL = ("DifferentialProblem", "SolveFailure", "build_scheme_example1",
             "estimate_order", "grid_norms", "make_torus_grid",
             "richardson_combine", "run_reference_time_scheme",
             "run_space_time_scheme", "sample_increments", "vandermonde_weights")


def resolve(dotted: str):
    module, *attrs = dotted.split(".")
    got = importlib.import_module(f"spdefd.{module}")
    for attr in attrs:
        got = getattr(got, attr)
    return got


@pytest.mark.parametrize("dotted", READ_NAMES)
def test_read_name_exists(dotted):
    assert callable(resolve(dotted))


@pytest.mark.parametrize("name", TOP_LEVEL)
def test_top_level_name_exists(name):
    assert callable(getattr(spdefd, name))


def test_experiments_reexports_the_stepper_runner():
    # the tracer wraps stepper.run_space_time_scheme and finds it again here
    assert experiments.run_space_time_scheme is stepper.run_space_time_scheme


def test_solver_mode_and_threads_are_accepted():
    assert "solver_mode" in inspect.signature(
        stepper.run_space_time_scheme).parameters
    assert "threads" in {f.name for f in dataclasses.fields(
        experiments.ExperimentSpec)}
    assert experiments.ExperimentSpec(problem="heat1d", threads=2).threads == 2


def gmres_problem():
    """The benchmark's 2-d constant-coefficient problem with one driver."""
    return spdefd.DifferentialProblem(
        d=2, d1=1, T=0.25,
        a={(1, 1): 0.05, (2, 2): 0.05, (1, 2): 0.01, (2, 1): 0.01},
        b={(1, 1): 0.2, (2, 1): 0.1},
        u0=lambda x: (np.cos(2.0 * np.pi * x[..., 0])
                      * np.cos(2.0 * np.pi * (x[..., 0] + x[..., 1]))),
        constant_coefficients=True, name="gmres-2d")


def test_init_span_classes_run_on_a_small_2d_grid():
    problem = resolve("problems.DifferentialProblem")(
        d=2, d1=0, T=0.1, a={(1, 1): 0.05, (2, 2): 0.05})
    scheme = spdefd.build_scheme_example1(problem)
    assert isinstance(scheme, resolve("problems.DifferenceScheme"))
    grid = spdefd.make_torus_grid(2, [1.0, 1.0], [8, 8])
    tau = 0.01
    op = resolve("stepper.ImplicitOperator")(scheme, grid, tau, 0)
    rhs = grid.field(np.random.default_rng(2).standard_normal(grid.shape))
    x = op.solve(rhs)
    assert np.linalg.norm(op.matrix @ x.values.ravel() - rhs.values.ravel()) \
        <= stepper.ITERATIVE_RTOL * np.linalg.norm(rhs.values)
    for name, args in (("stepper.SpectralOperators", ([grid], tau)),
                       ("stepper.FiniteDifferenceOperators",
                        ([grid], tau, scheme))):
        ops = resolve(name)(problem, *args)
        assert ops.tau == tau and ops.grids == [grid]


def test_solver_modes_agree_as_the_crossover_check_requires():
    problem = gmres_problem()
    scheme = spdefd.build_scheme_example1(problem)
    grid = spdefd.make_torus_grid(2, [1.0, 1.0], [16, 16])
    n = 4
    increments = spdefd.sample_increments(n, 1, problem.T / n, 7)
    finals = {mode: spdefd.run_space_time_scheme(
        problem, scheme, grid, n, increments, solver_mode=mode).fields[-1].values
        for mode in ("direct", "iterative")}
    assert float(np.max(np.abs(finals["direct"] - finals["iterative"]))) <= 1e-8


# reduced studies of each kind the benchmark runs
STOCH = (("beta", 0.3), ("extra_diffusion", 0.05))
STUDIES = {
    "spectral": lambda: experiments.run_convergence_experiment(
        experiments.ExperimentSpec(problem="stoch-transport",
                                   problem_params=STOCH, n=8, points0=8,
                                   rungs=2, level=1, reference_mode="spectral",
                                   seeds=(1, 2)), accelerate=True),
    "fine-grid": lambda: experiments.run_convergence_experiment(
        experiments.ExperimentSpec(problem="var-coef1d", n=8, points0=8,
                                   rungs=2, level=1, refine=1, seeds=(1,)),
        accelerate=True),
    "correctors": lambda: experiments.run_corrector_experiment(
        experiments.ExperimentSpec(problem="stoch-transport",
                                   problem_params=STOCH, n=8, points0=16,
                                   rungs=2, refine=1, correctors_k=2,
                                   reference_mode="spectral", seeds=(1,))),
    "space-time-16^2": lambda: spdefd.run_space_time_scheme(
        gmres_problem(), spdefd.build_scheme_example1(gmres_problem()),
        spdefd.make_torus_grid(2, [1.0, 1.0], [16, 16]), 4,
        spdefd.sample_increments(4, 1, 0.25 / 4, 7)),
}


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_constructs_a_gridfield(name, monkeypatch):
    # the benchmark's checks want grids.gridfield_inits > 0 on every workload
    init, calls = grids.GridField.__init__, []

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(grids.GridField, "__init__", counting)
    STUDIES[name]()
    assert calls
