"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import time

import numpy as np

from oracles import dense_trajectory_1d, discrete_symbols_1d, spectral_trajectory_1d
from spdefd.cli import main
from spdefd.correctors import expansion_residual, run_corrector_system
from spdefd.experiments import ExperimentSpec, run_convergence_experiment
from spdefd.grids import composed_difference, grid_norms, make_torus_grid
from spdefd.problems import (
    DifferentialProblem,
    build_scheme_example1,
    build_scheme_example2,
    make_problem,
)
from spdefd.richardson import (
    estimate_order,
    extrapolate_derivative,
    vandermonde_weights,
)
from spdefd.stepper import run_reference_time_scheme, run_space_time_scheme
from spdefd.wiener import sample_increments


def report(criterion: str, passed: bool, detail: str):
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def sup_gap(traj, ref):
    return max(np.max(np.abs(a.values - b.values))
               for a, b in zip(traj.fields, ref.fields))


def test_ac01_weight_identities():
    worst = 0.0
    for k in range(7):
        for base in (2, 4):
            worst = max(worst, vandermonde_weights(k, base).identity_residual())
    report("AC-01 weight identities", worst <= 1e-12,
           f"max identity residual {worst:.2e} over k=0..6, bases 2 and 4")


def test_ac02_unaccelerated_symmetric_order():
    t0 = time.monotonic()
    spec = ExperimentSpec(problem="heat1d",
                          problem_params=(("T", 0.5), ("nu", 0.1)),
                          n=256, points0=16, rungs=4,
                          reference_mode="spectral")
    result = run_convergence_experiment(spec)
    elapsed = time.monotonic() - t0
    order = result.report.ls_order
    report("AC-02 symmetric scheme order",
           1.8 <= order <= 2.3 and elapsed < 10.0,
           f"least-squares sup order {order:.3f} on h=1/16..1/128 "
           f"(target [1.8, 2.3]) in {elapsed:.1f}s")


def test_ac03_unaccelerated_one_sided_order():
    # cross terms a^{01}+a^{10} = 0.5 force p > 0 in the example-2 scheme
    spec = ExperimentSpec(problem="drift1d",
                          problem_params=(("chi", 0.5), ("nu", 0.1)),
                          scheme="example2", n=256, points0=16, rungs=4,
                          reference_mode="spectral")
    result = run_convergence_experiment(spec)
    order = result.report.ls_order
    report("AC-03 one-sided scheme order", 0.8 <= order <= 1.3,
           f"least-squares sup order {order:.3f} (target [0.8, 1.3])")


def test_ac04_accelerated_symmetric_order():
    spec = ExperimentSpec(problem="heat1d",
                          problem_params=(("T", 0.5), ("nu", 0.1)),
                          n=256, points0=16, rungs=4, level=1, base="auto",
                          reference_mode="spectral")
    result = run_convergence_experiment(spec, accelerate=True)
    order = result.report.ls_order
    report("AC-04 base-4 accelerated order",
           3.5 <= order <= 4.5 and result.extras["base"] == 4,
           f"least-squares sup order {order:.3f} with base-4 level-1 weights "
           "(target [3.5, 4.5])")


def test_ac05_accelerated_one_sided_order():
    spec = ExperimentSpec(problem="drift1d",
                          problem_params=(("chi", 0.5), ("nu", 0.1)),
                          scheme="example2", n=256, points0=16, rungs=4,
                          level=1, base="auto", reference_mode="spectral")
    result = run_convergence_experiment(spec, accelerate=True)
    order = result.report.ls_order
    report("AC-05 base-2 accelerated order",
           1.7 <= order <= 2.4 and result.extras["base"] == 2,
           f"least-squares sup order {order:.3f} with base-2 level-1 weights "
           "(target [1.7, 2.4])")


def test_ac06_stochastic_orders():
    params = (("beta", 0.3), ("extra_diffusion", 0.05))
    seeds = tuple(range(1, 9))
    plain = run_convergence_experiment(ExperimentSpec(
        problem="stoch-transport", problem_params=params, n=256,
        points0=16, rungs=4, seeds=seeds, reference_mode="spectral"))
    accel = run_convergence_experiment(ExperimentSpec(
        problem="stoch-transport", problem_params=params, n=256,
        points0=16, rungs=4, level=1, seeds=seeds,
        reference_mode="spectral"), accelerate=True)
    sup_plain = plain.report.ls_order
    sup_accel = accel.report.ls_order
    ok = (2.0 * sup_plain >= 3.6 and abs(sup_plain - 2.0) <= 0.5
          and 2.0 * sup_accel >= 7.0 and abs(sup_accel - 4.0) <= 0.5)
    report("AC-06 stochastic seed-averaged orders", ok,
           f"squared-error orders {2 * sup_plain:.2f} (>= 3.6) plain and "
           f"{2 * sup_accel:.2f} (>= 7) accelerated over 8 seeds; "
           f"sup orders {sup_plain:.2f}~2, {sup_accel:.2f}~4 (+-0.5)")


def test_ac07_degenerate_stability():
    problem = make_problem("stoch-transport", beta=0.3)  # a = b^2/2 exactly
    scheme = build_scheme_example1(problem)
    n = 64
    tau = problem.T / n
    seeds = range(1, 17)
    means = []
    for points in (16, 32, 64):
        grid = make_torus_grid(1, [1.0], [points])
        acc = []
        for seed in seeds:
            inc = sample_increments(n, 1, tau, seed)
            traj = run_space_time_scheme(problem, scheme, grid, n, inc)
            acc.append(max(grid_norms(f)[1] for f in traj.fields))
        means.append(float(np.mean(acc)))
    r1 = means[1] / means[0]
    r2 = means[2] / means[1]
    ok = max(r1, 1 / r1) <= 1.1 and max(r2, 1 / r2) <= 1.1
    report("AC-07 degenerate stability", ok,
           f"seed-averaged max l2h norms {means[0]:.5f} -> {means[1]:.5f} -> "
           f"{means[2]:.5f}; halving ratios {r1:.4f}, {r2:.4f} (factor <= 1.1)")


def test_ac08_odd_correctors_vanish():
    problem = make_problem("stoch-transport", beta=0.3, extra_diffusion=0.05)
    scheme = build_scheme_example1(problem)
    assert scheme.is_symmetric
    grid = make_torus_grid(1, [1.0], [128])
    n = 32
    inc = sample_increments(n, 1, problem.T / n, seed=2)
    cs = run_corrector_system(3, problem, scheme, grid, n, inc)
    scale = max(np.max(np.abs(f.values)) for f in cs[0].fields)
    worst = max(max(np.max(np.abs(f.values)) for f in cs[j].fields)
                for j in (1, 3))
    report("AC-08 odd correctors vanish", worst <= 1e-9 * scale,
           f"sup norms of orders 1 and 3 at {worst:.2e} against reference "
           f"scale {scale:.3f} (limit 1e-9 relative)")


def test_ac09_expansion_residual_decay():
    problem = make_problem("heat1d")
    scheme = build_scheme_example1(problem)
    n = 64
    refgrid = make_torus_grid(1, [1.0], [128])
    cs = run_corrector_system(2, problem, scheme, refgrid, n)
    hs, sups = [], []
    for points in (16, 32, 64):
        grid = make_torus_grid(1, [1.0], [points])
        traj = run_space_time_scheme(problem, scheme, grid, n)
        res = expansion_residual(traj, cs)
        hs.append(grid.h)
        sups.append(res.max_sup)
    order = estimate_order(hs, sups).ls_order
    report("AC-09 expansion residual decay", order >= 3.6,
           f"residual sup order {order:.3f} over 3 rungs with the h^2 "
           "corrector removed (target >= 3.6)")


def test_ac10_oracle_equivalence():
    # randomized variable coefficients against dense elimination
    rng = np.random.default_rng(2024)
    amps = rng.uniform(0.05, 0.3, size=6)
    phases = rng.uniform(0, 2 * np.pi, size=6)

    def trig(j, base=0.0):
        return lambda i, x: base + amps[j] * np.cos(
            2 * np.pi * x[..., 0] + phases[j] + 0.2 * i)

    problem = DifferentialProblem(
        d=1, d1=1, T=0.1,
        a={(1, 1): trig(0, base=0.8), (0, 0): trig(1), (0, 1): trig(2),
           (1, 0): trig(3)},
        b={(1, 1): trig(4), (0, 1): trig(5)},
        f=lambda i, x: np.sin(2 * np.pi * x[..., 0] + 0.3 * i),
        g={1: lambda i, x: np.cos(2 * np.pi * x[..., 0]) * 0.2},
        u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
        time_independent=False)
    scheme = build_scheme_example2(problem)
    grid = make_torus_grid(1, [1.0], [8])
    n = 2
    inc = sample_increments(n, 1, problem.T / n, seed=9)
    traj = run_space_time_scheme(problem, scheme, grid, n, inc)
    oracle = dense_trajectory_1d(problem, scheme, grid, n, inc)
    gap_dense = max(np.max(np.abs(traj[i].values - oracle[i]))
                    for i in range(n + 1))

    # constant coefficients against the per-mode symbol recursion
    cproblem = make_problem("stoch-transport", beta=0.3, gamma=0.2,
                            extra_diffusion=0.05)
    cscheme = build_scheme_example1(cproblem)
    cgrid = make_torus_grid(1, [1.0], [32])
    cn = 16
    cinc = sample_increments(cn, 1, cproblem.T / cn, seed=4)
    ctraj = run_space_time_scheme(cproblem, cscheme, cgrid, cn, cinc)
    symL, symM = discrete_symbols_1d(cgrid, cgrid.h, a11=0.5 * 0.09 + 0.05,
                                     b11=0.3, b01=0.2)
    modes = spectral_trajectory_1d(cproblem, cgrid, cn, cinc, symL, symM)
    gap_modes = max(np.max(np.abs(ctraj[i].values - modes[i]))
                    for i in range(cn + 1))
    report("AC-10 oracle equivalence",
           gap_dense <= 1e-11 and gap_modes <= 1e-10,
           f"dense-elimination gap {gap_dense:.2e} (<= 1e-11), per-mode "
           f"symbol gap {gap_modes:.2e} (<= 1e-10)")


def test_ac11_derivative_extrapolation():
    problem = make_problem("heat1d")
    scheme = build_scheme_example1(problem)
    n = 256
    weights = vandermonde_weights(1, 4)
    grids = [make_torus_grid(1, [1.0], [16 * 2 ** j]) for j in range(4)]
    solutions = [run_space_time_scheme(problem, scheme, g, n) for g in grids]
    reference = run_reference_time_scheme(problem, grids[-1], n,
                                          mode="spectral-const-coef")
    hs, errs = [], []
    for j in range(3):
        window = solutions[j:j + 2]
        diffed = extrapolate_derivative(window, [(1,)], weights)
        ref_j = reference.restricted(grids[-1].shape[0] // grids[j].shape[0])
        ref_diff = [composed_difference(f, [(1,)])
                    for f in ref_j.fields]
        errs.append(max(np.max(np.abs(a.values - b.values))
                        for a, b in zip(diffed.fields, ref_diff)))
        hs.append(grids[j].h)
    order = estimate_order(hs, errs).ls_order
    report("AC-11 derivative extrapolation", order >= 3.5,
           f"order {order:.3f} of the differenced base-4 combination against "
           "the differenced reference (target >= 3.5)")


def test_ac12_thread_determinism(tmp_path):
    body = ("[problem]\nname = stoch-transport\nbeta = 0.3\n"
            "extra_diffusion = 0.05\n[time]\nn = 32\n"
            "[space]\npoints0 = 16\nrungs = 3\n[run]\nseeds = 1,2,3\n")
    cfg1 = tmp_path / "one.ini"
    cfg1.write_text(body + f"out = {tmp_path / 'one'}\n")
    cfg2 = tmp_path / "four.ini"
    cfg2.write_text(body + f"out = {tmp_path / 'four'}\n")
    rc1 = main(["converge", "--config", str(cfg1), "--threads", "1"])
    rc2 = main(["converge", "--config", str(cfg2), "--threads", "4"])
    identical = True
    names = ["report.csv", "rung_16.csv", "rung_32.csv", "rung_64.csv", "plot.gp"]
    for name in names:
        if (tmp_path / "one" / name).read_bytes() != \
                (tmp_path / "four" / name).read_bytes():
            identical = False
    report("AC-12 thread determinism", identical and rc1 == rc2,
           f"{len(names)} output files byte-identical across --threads 1 and 4")
