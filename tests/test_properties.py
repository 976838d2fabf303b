"""Property tests: configuration and trajectory-dump round trips."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spdefd.experiments import ExperimentSpec, load_config, save_config
from spdefd.grids import TorusGrid
from spdefd.stepper import Trajectory, export_trajectory_binary, load_trajectory_binary

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
