"""Self-tests of the benchmark on reduced problem sizes.

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps these out of the package's own test collection; they
exercise the benchmark, not spdefd.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import run  # noqa: E402

run.locate_package()

import tracer  # noqa: E402
import workloads  # noqa: E402

TABLE = run.load_metric_table()
DETERMINISTIC = ("stepper.gmres_iters", "stepper.factorizations",
                 "wiener.sample_calls", "grids.gridfield_inits")
# GridField counts follow GMRES iterations, which depend on the right-hand side
SEED_FREE = ("stepper.factorizations", "stepper.steps", "stepper.solve_calls",
             "wiener.sample_calls", "stepper.gmres_calls")


def traced_study(name: str, seed: int = 1):
    t = tracer.Tracer()
    t.install()
    try:
        _, _, failure = workloads.run_study(workloads.WORKLOADS[name](seed, True),
                                            run.SCRATCH, tracer=t)
    finally:
        t.uninstall()
    return t, failure


@pytest.fixture(scope="module", autouse=True)
def scratch():
    run.SCRATCH.mkdir(exist_ok=True)


def test_benchmark_lists_the_workloads():
    assert TABLE["workloads"] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reduced_run_emits_every_metric(name, trace, capsys):
    run.main(["--workload", name, "--seed", "1", "--seconds", "0.01",
              "--trace", str(trace), "--small"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = TABLE["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_deterministic_counters_repeat(name):
    first, fail1 = traced_study(name)
    second, fail2 = traced_study(name)
    assert not fail1 and not fail2
    one, two = run.layer_metrics(first), run.layer_metrics(second)
    assert [one[k] for k in DETERMINISTIC] == [two[k] for k in DETERMINISTIC]
    assert one["grids.gridfield_inits"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_second_seed_keeps_counter_structure(name):
    one = run.layer_metrics(traced_study(name, seed=1)[0])
    two = run.layer_metrics(traced_study(name, seed=2)[0])
    assert {k for k, v in one.items() if v} == {k for k, v in two.items() if v}
    assert [one[k] for k in SEED_FREE] == [two[k] for k in SEED_FREE]


def test_gmres_counters_only_on_gmres_workload():
    for name in workloads.WORKLOADS:
        iters = run.layer_metrics(traced_study(name)[0])["stepper.gmres_iters"]
        assert (iters > 0) == (name == "gmres-2d"), name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_sum_to_study_time(name):
    t, _ = traced_study(name)
    study = t.total("bench.study")
    assert t.calls("bench.study") == 1
    assert abs(sum(t.self_times().values()) - study) \
        <= run.SELF_TIME_TOLERANCE * study


def test_every_wrapper_removed_after_trace():
    import scipy.sparse.linalg as spla
    import spdefd
    originals = (spla.splu, spla.gmres, spdefd.stepper.apply_L,
                 spdefd.experiments.run_space_time_scheme,
                 spdefd.grids.GridField.__init__,
                 spdefd.stepper.ImplicitOperator.solve)
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.leftover_wrappers()
        assert spdefd.experiments.run_space_time_scheme \
            is spdefd.stepper.run_space_time_scheme
        assert spla.splu is not originals[0]
    finally:
        t.uninstall()
    assert tracer.leftover_wrappers() == []
    after = (spla.splu, spla.gmres, spdefd.stepper.apply_L,
             spdefd.experiments.run_space_time_scheme,
             spdefd.grids.GridField.__init__,
             spdefd.stepper.ImplicitOperator.solve)
    assert all(a is b for a, b in zip(originals, after))


def test_sampler_paces_and_disarms_its_timer():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Sampler() as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert 0.0 < sampler.wall_s < 0.2
    assert sampler.paced_s > 0.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "ensemble-1d", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
