"""Property tests: configuration, trajectory-dump and increment-dump round
trips, the shift kernel against ``np.roll``, the summation-by-parts
identities of the difference kernels, and the convergence study's errors
against the per-path pipeline."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spdefd.experiments import (
    ConfigError,
    ExperimentSpec,
    build_problem,
    build_scheme,
    load_config,
    run_convergence_experiment,
    save_config,
)
from spdefd.grids import (
    TorusGrid,
    _forward_values,
    _shifted,
    grid_norms,
    make_torus_grid,
)
from spdefd.richardson import richardson_combine, vandermonde_weights
from spdefd.stepper import (
    Trajectory,
    export_trajectory_binary,
    load_trajectory_binary,
    run_reference_time_scheme,
    run_space_time_scheme,
)
from spdefd.wiener import sample_increments
from test_grids import centred_difference

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
token = st.text("abcXYZ019_./-", min_size=1, max_size=12)
# option names arrive lowercased; "t" is read back as the horizon "T"
param_key = st.text("abcxyz019_", min_size=1, max_size=8).filter(
    lambda key: key not in ("name", "t"))


@st.composite
def specs(draw):
    params = draw(st.dictionaries(param_key | st.just("T"), finite, max_size=4))
    return ExperimentSpec(
        problem=draw(token),
        problem_params=tuple(sorted(params.items())),
        scheme=draw(st.sampled_from(["example1", "example2"])),
        n=draw(st.integers(1, 10 ** 6)),
        period=draw(positive),
        points0=draw(st.integers(2, 4096)),
        rungs=draw(st.integers(1, 8)),
        level=draw(st.integers(0, 12)),
        base=draw(st.sampled_from(["auto", "2", "4"])),
        reference_mode=draw(st.sampled_from(["auto", "spectral", "fine-grid"])),
        refine=draw(st.integers(0, 6)),
        correctors_k=draw(st.integers(0, 6)),
        expected_residual_order=draw(st.none() | finite),
        seeds=tuple(draw(st.lists(st.integers(-2 ** 63, 2 ** 64 - 1),
                                  min_size=1, max_size=5, unique=True))),
        expected_order=draw(st.none() | finite),
        order_tolerance=draw(st.floats(min_value=0.0, allow_infinity=False)),
        out=draw(token | st.text()),
        format=draw(st.sampled_from(["csv", "binary"])),
        threads=draw(st.integers(1, 64)),
    )


@given(spec=specs())
def test_config_round_trip(tmp_path_factory, spec):
    # a spec loads back as itself, or saving it fails on the text value
    # that would not: never a silently changed value
    path = tmp_path_factory.mktemp("config") / "spec.ini"
    try:
        save_config(spec, path)
    except ConfigError as exc:
        assert str(exc).startswith(f"[run] out: {spec.out!r}")
        return
    assert load_config(path) == spec


@st.composite
def trajectories(draw):
    shape = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
    grid = TorusGrid(len(shape), draw(positive), shape)
    values = draw(arrays(np.float64, (draw(st.integers(0, 4)) + 1,) + shape,
                         elements=finite))
    return Trajectory(grid=grid, tau=draw(positive), values=values)


@given(traj=trajectories())
def test_trajectory_dump_round_trip(tmp_path_factory, traj):
    path = tmp_path_factory.mktemp("dump") / "traj.bin"
    export_trajectory_binary(traj, path)
    loaded = load_trajectory_binary(path)
    assert loaded.grid == traj.grid
    assert loaded.tau == traj.tau
    assert loaded.values.tobytes() == traj.values.tobytes()


@st.composite
def column_arrays(draw):
    """Values on a 1- to 3-d lattice with a trailing column axis."""
    shape = tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=3)))
    return draw(arrays(np.float64, shape + (draw(st.integers(1, 3)),),
                       elements=st.floats(-1e6, 1e6)))


@given(values=column_arrays(), data=st.data())
def test_shifted_matches_roll(values, data):
    dim = values.ndim - 1
    # shifts reach beyond +-N on every axis
    lam = tuple(data.draw(st.lists(st.integers(-20, 20), min_size=dim,
                                   max_size=dim)))
    s = data.draw(st.sampled_from([1, -1]))
    got = _shifted(values, lam, s, dim)
    want = np.roll(values, tuple(-s * c for c in lam), axis=tuple(range(dim)))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, values)


@st.composite
def paired_fields(draw):
    """Two fields on one 1- to 3-d lattice, a nonzero integer stencil
    vector (the zero vector is the identity, not a difference) and h."""
    shape = tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=3)))
    f, w = (draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
            for _ in range(2))
    lam = tuple(draw(st.lists(st.integers(-3, 3), min_size=len(shape),
                              max_size=len(shape)).filter(any)))
    return f, w, lam, draw(st.floats(1e-3, 10.0))


def _adjoint_pair(f, w, af, bw, h) -> bool:
    """Whether sum (A f) w = -sum f (B w) to rounding, relative to the size
    of the summed terms."""
    scale = (np.abs(f).sum() * np.abs(w).max()
             + np.abs(w).sum() * np.abs(f).max()) / h
    return abs(np.sum(af * w) + np.sum(f * bw)) <= 4e-12 * scale


@given(fields=paired_fields(), sign=st.sampled_from([1, -1]))
def test_forward_values_summation_by_parts(fields, sign):
    # the adjoint of the forward difference is minus the opposite one
    f, w, lam, h = fields
    assert _adjoint_pair(f, w, _forward_values(f, lam, h, sign, f.ndim),
                         _forward_values(w, lam, h, -sign, f.ndim), h)


@given(fields=paired_fields())
def test_symmetric_values_skew_adjoint(fields):
    # the centred difference the schemes run, M^{h,rho} with a constant b
    f, w, lam, h = fields
    assert _adjoint_pair(f, w, centred_difference(f, lam, h),
                         centred_difference(w, lam, h), h)


LADDER_PROBLEMS = {
    "stoch-transport": (("beta", 0.3), ("extra_diffusion", 0.05)),
    "var-coef1d": (),        # deterministic, fine-grid reference
    "heat1d": (),            # deterministic, spectral reference
}


@st.composite
def ladder_specs(draw):
    problem = draw(st.sampled_from(sorted(LADDER_PROBLEMS)))
    return ExperimentSpec(
        problem=problem, problem_params=LADDER_PROBLEMS[problem],
        n=draw(st.integers(1, 40)), points0=draw(st.sampled_from([4, 8])),
        rungs=draw(st.integers(2, 3)), level=draw(st.integers(0, 1)),
        seeds=tuple(draw(st.lists(st.integers(1, 10 ** 6), min_size=1,
                                  max_size=3, unique=True))))


def per_path_errors(spec):
    """Per rung, the (seed, sup, l2h) rows of the study, each path run
    alone through the public calls and measured step by step.  A fine-grid
    reference is the extrapolation, in the scheme's base, one level above
    the study's of the finest rung's runs and their partners, on one more
    rung."""
    problem = build_problem(spec)
    scheme = build_scheme(spec, problem)
    base = 4 if scheme.is_symmetric else 2
    weights = vandermonde_weights(spec.level, base)
    spectral = problem.constant_coefficients
    grids = [make_torus_grid(1, [spec.period], [spec.points0 * 2 ** j])
             for j in range(spec.rungs + spec.level + (not spectral))]
    finest = spec.rungs - 1
    rows = {j: [] for j in range(spec.rungs)}
    for seed in spec.seeds:
        increments = (sample_increments(spec.n, problem.d1,
                                        problem.T / spec.n, seed)
                      if problem.d1 > 0 else None)
        solutions = [run_space_time_scheme(problem, scheme, g, spec.n,
                                           increments) for g in grids]
        if spectral:
            reference = run_reference_time_scheme(problem, grids[-1], spec.n,
                                                  increments)
        else:
            reference = richardson_combine(
                solutions[finest:], vandermonde_weights(spec.level + 1, base))
        for j in range(spec.rungs):
            candidate = (richardson_combine(solutions[j:j + 2], weights)
                         if spec.level else solutions[j])
            ref_j = reference.restricted(reference.grid.shape[0]
                                         // grids[j].shape[0])
            norms = [grid_norms(a - b)
                     for a, b in zip(candidate.fields, ref_j.fields)]
            rows[j].append((seed, max(s for s, _ in norms),
                            max(l for _, l in norms)))
    return rows


@settings(max_examples=30)
@given(spec=ladder_specs())
# a block of measured steps holds 16 time indices: one step short of a
# full block, exactly one, and one past it
@example(spec=ExperimentSpec(problem="stoch-transport", n=15, points0=4,
                             rungs=2, level=1, seeds=(3, 4),
                             problem_params=LADDER_PROBLEMS["stoch-transport"]))
@example(spec=ExperimentSpec(problem="stoch-transport", n=16, points0=8,
                             rungs=3, level=0, seeds=(5, 6, 7),
                             problem_params=LADDER_PROBLEMS["stoch-transport"]))
@example(spec=ExperimentSpec(problem="var-coef1d", n=17, points0=8, rungs=2,
                             level=1, seeds=(1, 2)))
def test_study_errors_match_per_path_pipeline(spec):
    # the study marches every path in lock-step and measures blocks of steps
    # at once; each error has the bits of the per-path, per-step pipeline
    result = run_convergence_experiment(spec, accelerate=spec.level > 0)
    assert not result.failed
    assert result.per_rung_errors == per_path_errors(spec)
