"""Property tests: configuration, trajectory-dump and increment-dump round
trips, the shift and FFT kernels against the numpy calls they stand in for,
and the summation-by-parts identities of the difference kernels."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spdefd.experiments import ExperimentSpec, load_config, save_config
from spdefd.grids import TorusGrid, _forward_values, _shifted, _symmetric_values
from spdefd.stepper import (
    Trajectory,
    _fft,
    export_trajectory_binary,
    load_trajectory_binary,
)
from spdefd.wiener import load_increments, sample_increments, save_increments

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
                                  min_size=1, max_size=5))),
        expected_order=draw(st.none() | finite),
        order_tolerance=draw(finite),
        out=draw(token),
        format=draw(st.sampled_from(["csv", "binary"])),
        threads=draw(st.integers(1, 64)),
    )


@given(spec=specs())
def test_config_round_trip(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("config") / "spec.ini"
    save_config(spec, path)
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


@given(values=column_arrays(), leading=st.booleans())
def test_fft_matches_fftn(values, leading):
    # the spatial axes lead (a state with its columns) or follow a row axis
    # (a stack of time steps)
    axes = tuple(range(1, values.ndim)) if leading else tuple(range(values.ndim - 1))
    hat = _fft(values, axes)
    assert hat.tobytes() == np.fft.fftn(values, axes=axes).tobytes()
    assert _fft(hat, axes, inverse=True).tobytes() == \
        np.fft.ifftn(hat, axes=axes).tobytes()


@given(n=st.integers(1, 64), d1=st.integers(0, 4), tau=positive,
       seed=st.integers(0, 2 ** 64 - 1))
def test_increment_dump_round_trip(tmp_path_factory, n, d1, tau, seed):
    b = sample_increments(n, d1, tau, seed)
    path = tmp_path_factory.mktemp("increments") / "xi.bin"
    save_increments(b, path)
    loaded = load_increments(path)
    assert (loaded.n, loaded.d1, loaded.tau, loaded.seed) == (n, d1, tau, seed)
    assert loaded.xi.tobytes() == b.xi.tobytes()


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
    f, w, lam, h = fields
    assert _adjoint_pair(f, w, _symmetric_values(f, lam, h, f.ndim),
                         _symmetric_values(w, lam, h, f.ndim), h)
