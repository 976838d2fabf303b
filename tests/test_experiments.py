import gc
import hashlib
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from spdefd.cli import main
from spdefd.correctors import run_corrector_system
from spdefd.experiments import (
    ConfigError,
    ExperimentResult,
    REPORT_HEADER,
    ExperimentSpec,
    _check_periodic,
    _replay_target,
    build_problem,
    emit_outputs,
    load_config,
    run_convergence_experiment,
    run_corrector_experiment,
    save_config,
    selfcheck,
)
from spdefd.grids import make_torus_grid
from spdefd.problems import (
    PROBLEM_LIBRARY,
    DifferentialProblem,
    build_scheme_example1,
    build_scheme_example2,
    make_problem,
)
from spdefd.richardson import estimate_order
from spdefd.stepper import (
    FiniteDifferenceOperators,
    ImplicitOperator,
    Marcher,
    SpectralOperators,
    run_space_time_scheme,
)
from spdefd.wiener import BrownianIncrements, sample_increments

MINIMAL = """\
[problem]
name = heat1d
"""

FULL = """\
[problem]
name = stoch-transport
beta = 0.3
extra_diffusion = 0.05

[scheme]
constructor = example1

[time]
n = 32

[space]
period = 1.0
points0 = 16
rungs = 3

[extrapolation]
level = 1
base = auto

[reference]
mode = spectral
refine = 2

[run]
seeds = 1,2
expected_order = 2.0
order_tolerance = 0.5
out = out
format = csv
threads = 2
"""

# a spec that sets every key, both optional orders included
EVERY_KEY_SPEC = ExperimentSpec(
    problem="stoch-transport",
    problem_params=(("beta", 0.3), ("extra_diffusion", 0.05)),
    scheme="example2", n=40, period=2.5, points0=8, rungs=4, level=2, base="4",
    reference_mode="fine-grid", refine=2, correctors_k=3,
    expected_residual_order=4.0, seeds=(3, 1, 2), expected_order=2.0,
    order_tolerance=0.125, out="results/x", format="binary", threads=2)

# outputs of a 3-seed heat1d accelerate study (n = 32, points0 = 8, rungs = 3,
# level = 1), as written with the spectral reference and the rungs (on their
# lattice symbols) marched in Fourier space
HEAT_ACCELERATE_OUTPUTS = {
    "report.csv": b"""\
h,sup_error,l2h_error,pairwise_order,ls_order,expected_order,pass
0.125,0.0015589540865837415,0.001102347006181847,,3.9747488311965578,,1
0.0625,0.00010039368729652942,7.0989057075705186e-05,3.9568379779090108,3.9747488311965578,,1
0.03125,6.3066114933951756e-06,4.4594477532828488e-06,3.9926596844841069,3.9747488311965578,,1
""",
    "rung_8.csv": b"""\
seed,sup_error,l2h_error
1,0.0015589540865837415,0.001102347006181847
2,0.0015589540865837415,0.001102347006181847
3,0.0015589540865837415,0.001102347006181847
""",
    "rung_16.csv": b"""\
seed,sup_error,l2h_error
1,0.00010039368729652942,7.0989057075705186e-05
2,0.00010039368729652942,7.0989057075705186e-05
3,0.00010039368729652942,7.0989057075705186e-05
""",
    "rung_32.csv": b"""\
seed,sup_error,l2h_error
1,6.3066114933951756e-06,4.4594477532828488e-06
2,6.3066114933951756e-06,4.4594477532828488e-06
3,6.3066114933951756e-06,4.4594477532828488e-06
""",
    "plot.gp": b"""\
# accelerate study: sup/l2h error against mesh width
set logscale xy
set xlabel 'h'
set ylabel 'error'
set key left top
set grid
$data << EOD
0.125 0.0015589540865837415 0.001102347006181847
0.0625 0.00010039368729652942 7.0989057075705186e-05
0.03125 6.3066114933951756e-06 4.4594477532828488e-06
EOD
plot $data using 1:2 with linespoints title 'sup error', \\
     $data using 1:3 with linespoints title 'l2h error', \\
     6.385475938647005*x**4 with lines dashtype 2 title 'order 4 guide'
""",
}


# a problem whose operator and free terms vanish: every scheme keeps u0, so
# each rung's error is 0 (rounding, when extrapolated) and fits no order
ZERO_ERRORS = ("[problem]\nname = custom\na00 = 0\na11 = 0\n[space]\n"
               "points0 = 8\nrungs = 3\n[time]\nn = 8\n")


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def power_law_result(spec, order):
    """A converge result whose rungs carry the exact errors 0.5 h^order."""
    points = [spec.points0 * 2 ** j for j in range(spec.rungs)]
    hs = [spec.period / p for p in points]
    errors = [0.5 * h ** order for h in hs]
    report = estimate_order(hs, errors, spec.expected_order,
                            spec.order_tolerance, l2h_errors=errors)
    per_rung = {j: [(s, errors[j], errors[j]) for s in spec.seeds]
                for j in range(spec.rungs)}
    return ExperimentResult(kind="converge", spec=spec, report=report,
                            rung_points=points, per_rung_errors=per_rung)


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        spec = load_config(write(tmp_path, MINIMAL))
        assert spec.problem == "heat1d"
        assert spec.n == 256
        assert spec.rungs == 3
        assert spec.level == 1
        assert spec.seeds == (1,)

    def test_full_config(self, tmp_path):
        spec = load_config(write(tmp_path, FULL))
        assert spec.problem == "stoch-transport"
        assert spec.params_dict() == {"beta": 0.3, "extra_diffusion": 0.05}
        assert spec.seeds == (1, 2)
        assert spec.threads == 2
        assert spec.reference_mode == "spectral"

    def test_unknown_key_rejected(self, tmp_path):
        text = MINIMAL + "\n[time]\nn = 16\nbogus = 1\n"
        with pytest.raises(ConfigError, match="bogus"):
            load_config(write(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mystery"):
            load_config(write(tmp_path, MINIMAL + "\n[mystery]\nx = 1\n"))

    def test_missing_name_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="name"):
            load_config(write(tmp_path, "[time]\nn = 4\n"))

    def test_bad_value_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="n"):
            load_config(write(tmp_path, MINIMAL + "\n[time]\nn = soon\n"))

    def test_parse_error_has_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line"):
            load_config(write(tmp_path, "[problem\nname = heat1d\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_round_trip(self, tmp_path):
        spec = load_config(write(tmp_path, FULL))
        out = tmp_path / "echo.ini"
        save_config(spec, out)
        assert load_config(out) == spec

    @pytest.mark.parametrize("name", ["custom", "heat1d"])
    def test_horizon_key(self, tmp_path, name):
        spec = load_config(write(tmp_path, f"[problem]\nname = {name}\n"
                                 "T = 0.25\n"))
        assert spec.params_dict() == {"T": 0.25}
        assert build_problem(spec).T == 0.25

    def test_round_trip_horizon(self, tmp_path):
        spec = ExperimentSpec(problem="custom",
                              problem_params=(("T", 0.25), ("a11", 0.2)))
        out = tmp_path / "echo.ini"
        save_config(spec, out)
        assert load_config(out) == spec

    def test_round_trip_minimal(self, tmp_path):
        spec = load_config(write(tmp_path, MINIMAL))
        out = tmp_path / "echo.ini"
        save_config(spec, out)
        assert load_config(out) == spec

    @pytest.mark.parametrize("spec, digest", [
        (ExperimentSpec(problem="heat1d"),
         "8c21822cb6b7bdff3f8c783fe57f2c0712222669d7b2f9bd8f12ccb700b8e250"),
        (EVERY_KEY_SPEC,
         "b1c739d88e7c3521b683c9282a3b3c3d49d90bb767d28ba552b52250ca8e71f1"),
    ], ids=["minimal", "every-key"])
    def test_save_format_pinned(self, tmp_path, spec, digest):
        out = tmp_path / "echo.ini"
        save_config(spec, out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert load_config(out) == spec

    def test_unknown_key_reported_before_bad_value(self, tmp_path):
        text = MINIMAL + "\n[time]\nn = soon\n\n[run]\nbogus = 1\n"
        with pytest.raises(ConfigError, match=re.escape(
                "unknown key 'bogus' in section [run]")):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("field, value, key", [
        ("out", "runs #1", "[run] out"),
        ("out", " padded ", "[run] out"),
        ("out", "", "[run] out"),
        ("out", "two\nlines", "[run] out"),
        ("problem", "heat1d #x", "[problem] name"),
    ])
    def test_save_rejects_text_that_would_not_load_back(self, tmp_path, field,
                                                        value, key):
        # each would load back as another value ('runs', 'padded', the
        # default 'out', ...), so saving fails instead
        spec = ExperimentSpec(**{"problem": "heat1d", field: value})
        with pytest.raises(ConfigError, match=re.escape(f"{key}: {value!r}")):
            save_config(spec, tmp_path / "echo.ini")

    @pytest.mark.parametrize("params, key", [
        ((("Nu", 0.1),), "Nu"),
        ((("a #b", 0.1),), "a #b"),
        ((("nu", 0.1), ("t", 0.5)), "t"),
        ((("beta", 0.3), ("beta", 0.4)), "beta"),
        ((("name", 1.0),), "name"),
        ((("a = b", 1.0),), "a = b"),
    ], ids=["case", "comment", "lower-t", "repeat", "name", "delimiter"])
    def test_save_rejects_problem_key_that_would_not_load_back(
            self, tmp_path, params, key):
        # 'Nu' would load back as 'nu', and 'a #b' makes a file the loader
        # rejects
        spec = ExperimentSpec(problem="heat1d", problem_params=params)
        with pytest.raises(ConfigError, match=re.escape(
                f"[problem] key {key!r} would not load back as itself")):
            save_config(spec, tmp_path / "echo.ini")
        assert not (tmp_path / "echo.ini").exists()

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nn = 8\n\n" + MINIMAL + "\n[run]\nseeds = 1\n",
        "[DEFAULT]\nn = 8\n\n" + MINIMAL + "\n[time]\nn = 4\n",
    ], ids=["with-run", "problem-and-time"])
    def test_default_section_keys_rejected(self, tmp_path, text):
        # configparser would copy n into [run] (an unknown key there) and
        # into [problem] (a problem parameter)
        with pytest.raises(ConfigError, match=re.escape(
                "unknown section [DEFAULT]")):
            load_config(write(tmp_path, text))

    def test_empty_default_section_accepted(self, tmp_path):
        assert load_config(write(tmp_path, "[DEFAULT]\n" + MINIMAL)) \
            == load_config(write(tmp_path, MINIMAL, "plain.ini"))


class TestBuildProblem:
    def test_library_with_params(self, tmp_path):
        spec = load_config(write(tmp_path, FULL))
        p = build_problem(spec)
        assert p.d1 == 1
        x = np.array([0.0])
        assert p.a_at(1, 1, 0, x) == pytest.approx(0.5 * 0.09 + 0.05)

    def test_inline_custom_problem(self):
        spec = ExperimentSpec(problem="custom",
                              problem_params=(("T", 0.25), ("a11", 0.2),
                                              ("b11", 0.4)))
        p = build_problem(spec)
        assert p.d1 == 1 and p.T == 0.25
        x = np.array([0.0])
        assert p.a_at(1, 1, 0, x) == pytest.approx(0.2)
        assert p.b_at(1, 1, 0, x) == pytest.approx(0.4)

    def test_inline_keys_set_their_coefficients(self):
        params = {"a00": 0.1, "a01": 0.2, "a10": 0.3, "a11": 0.4, "b01": 0.5,
                  "b11": 0.6}
        spec = ExperimentSpec(problem="custom",
                              problem_params=tuple(sorted(params.items())))
        p = build_problem(spec)
        x = np.array([0.0])
        for key, value in params.items():
            at = p.a_at if key[0] == "a" else p.b_at
            assert at(int(key[1]), int(key[2]), 0, x) == value, key

    def test_inline_unknown_key(self):
        spec = ExperimentSpec(problem="custom", problem_params=(("c7", 1.0),))
        with pytest.raises(ConfigError, match=re.escape(
                "unknown inline coefficient keys ['c7']; allowed: ('a00', "
                "'a01', 'a10', 'a11', 'b01', 'b11', 'T')")):
            build_problem(spec)

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            build_problem(ExperimentSpec(problem="nope"))

    @pytest.mark.parametrize("d, coefficients, message", [
        (1, {"b": {(1, 1): lambda i, x: np.sin(2 * np.pi * x[..., 0] / 1.5)}},
         r"b\[\(1, 1\)\] is not periodic .* along x1"),
        (2, {"g": {1: lambda i, x: 1 + x[..., 1]}},
         r"g\[1\] is not periodic .* moves by 1 over one period along x2")],
        ids=["b-1d", "g-2d"])
    def test_rejects_a_coefficient_that_is_not_periodic(self, d, coefficients,
                                                        message):
        # u0 is periodic; one coefficient or free term is not
        problem = DifferentialProblem(
            d=d, d1=1, T=0.5, u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
            **coefficients)
        with pytest.raises(ConfigError, match=message):
            _check_periodic(problem, make_torus_grid(d, [1.0] * d, [8] * d))


class TestSyntheticSelfTest:
    def test_injected_power_law_recovered(self):
        spec = ExperimentSpec(problem="heat1d", rungs=4)
        result = power_law_result(spec, 3.0)
        assert result.report.ls_order == pytest.approx(3.0, abs=1e-10)

    def test_rungs_validation(self):
        spec = ExperimentSpec(problem="heat1d", rungs=1)
        with pytest.raises(ConfigError):
            run_convergence_experiment(spec)


class TestConvergenceExperiment:
    def test_heat_order_two(self):
        spec = ExperimentSpec(problem="heat1d", n=64, points0=16, rungs=3,
                              expected_order=2.0, order_tolerance=0.3)
        result = run_convergence_experiment(spec)
        assert result.passed
        assert 1.8 <= result.report.ls_order <= 2.3

    def test_acceleration_raises_order(self):
        spec = ExperimentSpec(problem="heat1d", n=64, points0=16, rungs=3,
                              level=1, expected_order=4.0, order_tolerance=0.5)
        result = run_convergence_experiment(spec, accelerate=True)
        assert result.extras["base"] == 4
        assert result.passed

    @pytest.mark.parametrize("base, level", [("2", 2), ("4", 1)])
    def test_explicit_base(self, base, level):
        # a centred scheme: base 2 cancels h and h^2, base 4 cancels h^2;
        # either way the error is O(h^4), and base 4 is what auto picks
        spec = ExperimentSpec(problem="stoch-transport",
                              problem_params=(("beta", 0.3),
                                              ("extra_diffusion", 0.05)),
                              n=16, points0=8, rungs=3, level=level,
                              base=base, seeds=(1, 2), expected_order=4.0)
        result = run_convergence_experiment(spec, accelerate=True)
        assert result.passed
        assert abs(result.report.ls_order - 4.0) <= 0.05
        assert (result.extras["base"], result.extras["level"]) == (int(base),
                                                                   level)
        auto = run_convergence_experiment(replace(spec, base="auto"),
                                          accelerate=True)
        assert (result.report.sup_errors == auto.report.sup_errors) \
            == (base == "4")

    def test_explicit_fine_grid_reference_is_auto(self, tmp_path):
        # var-coef1d has variable coefficients: auto picks the fine grid
        spec = ExperimentSpec(problem="var-coef1d", n=8, points0=8, rungs=2,
                              level=1, refine=1)
        written = {}
        for mode in ("auto", "fine-grid"):
            result = run_convergence_experiment(
                replace(spec, reference_mode=mode), accelerate=True)
            assert result.extras["reference_mode"] == "fine-grid"
            written[mode] = {p.name: p.read_bytes() for p in emit_outputs(
                result, tmp_path / mode)}
        assert written["fine-grid"] == written["auto"]

    def test_deterministic_across_seeds_for_deterministic_problem(self):
        spec = ExperimentSpec(problem="heat1d", n=32, rungs=2, seeds=(1,))
        a = run_convergence_experiment(spec)
        b = run_convergence_experiment(
            ExperimentSpec(problem="heat1d", n=32, rungs=2, seeds=(7,)))
        assert a.report.sup_errors == b.report.sup_errors

    def test_stochastic_same_increments_share_tau_error(self):
        spec = ExperimentSpec(problem="degenerate1d",
                              problem_params=(("beta", 0.3),),
                              n=32, points0=16, rungs=3, seeds=(1, 2, 3, 4))
        result = run_convergence_experiment(spec)
        # pathwise spatial error: order ~2 even at modest n
        assert 1.5 <= result.report.ls_order <= 2.5

    def test_increments_sampled_once_per_seed(self, monkeypatch):
        from spdefd import experiments
        calls = []

        def counting(n, d1, tau, seed):
            calls.append(seed)
            return sample_increments(n, d1, tau, seed)

        monkeypatch.setattr(experiments, "sample_increments", counting)
        spec = ExperimentSpec(problem="degenerate1d", n=16, rungs=3, level=1,
                              seeds=(4, 5, 6))
        run_convergence_experiment(spec, accelerate=True)
        assert calls == [4, 5, 6]

    def test_deterministic_study_marches_one_path(self, tmp_path, monkeypatch):
        from spdefd import experiments, stepper
        widths = []

        class Recording(stepper.Marcher):
            def __init__(self, xi, operators):
                widths.append(xi.shape[-1])
                super().__init__(xi, operators)

        monkeypatch.setattr(experiments, "Marcher", Recording)
        monkeypatch.setattr(stepper, "Marcher", Recording)
        spec = ExperimentSpec(problem="heat1d", n=32, points0=8, rungs=3,
                              level=1, seeds=(1, 2, 3))
        paths = emit_outputs(run_convergence_experiment(spec, accelerate=True),
                             tmp_path)
        assert widths == [1]               # the ladder carries the reference
        assert {p.name: p.read_bytes() for p in paths} == HEAT_ACCELERATE_OUTPUTS

    def test_threads_do_not_change_errors(self):
        base = ExperimentSpec(problem="degenerate1d", n=16, rungs=2,
                              seeds=(1, 2))
        seq = run_convergence_experiment(base)
        par = run_convergence_experiment(
            ExperimentSpec(problem="degenerate1d", n=16, rungs=2,
                           seeds=(1, 2), threads=4))
        assert seq.report.sup_errors == par.report.sup_errors


class TestEmitOutputs:
    def _result(self, **kw):
        spec = ExperimentSpec(problem="heat1d", rungs=3, expected_order=2.0, **kw)
        return power_law_result(spec, 2.0), spec

    def test_report_schema(self, tmp_path):
        result, _ = self._result()
        paths = emit_outputs(result, tmp_path)
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[0] == ("h,sup_error,l2h_error,pairwise_order,ls_order,"
                             "expected_order,pass")
        assert len(report) == 4  # header + 3 rungs
        assert (tmp_path / "plot.gp") in paths

    def test_rung_files(self, tmp_path):
        result, _ = self._result(seeds=(1, 2))
        emit_outputs(result, tmp_path)
        rung = (tmp_path / "rung_16.csv").read_text().splitlines()
        assert rung[0] == "seed,sup_error,l2h_error"
        assert len(rung) == 3

    def test_byte_identical_reruns(self, tmp_path):
        spec = ExperimentSpec(problem="degenerate1d", n=16, rungs=2,
                              seeds=(1, 2))
        a = run_convergence_experiment(spec)
        b = run_convergence_experiment(spec)
        emit_outputs(a, tmp_path / "a")
        emit_outputs(b, tmp_path / "b")
        for name in ("report.csv", "rung_16.csv", "rung_32.csv", "plot.gp"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_failure_marker_row(self, tmp_path):
        from spdefd.experiments import ExperimentResult
        result = ExperimentResult(kind="converge",
                                  spec=ExperimentSpec(problem="heat1d"),
                                  report=None, rung_points=[16],
                                  per_rung_errors={0: []},
                                  failed=True, failure="step 3: test failure")
        emit_outputs(result, tmp_path)
        report = (tmp_path / "report.csv").read_text()
        assert "FAILED,step 3: test failure" in report
        assert not (tmp_path / "plot.gp").exists()

    def test_plot_script_is_gnuplot(self, tmp_path):
        result, _ = self._result()
        emit_outputs(result, tmp_path)
        script = (tmp_path / "plot.gp").read_text()
        assert "set logscale xy" in script
        assert "$data << EOD" in script
        assert "plot $data" in script


# report.csv, rung_*.csv and plot.gp of two small corrector studies, as the
# per-rung run of the expansion residual wrote them: a spectral reference
# with k = 3 (its rungs marched on their lattice symbols in Fourier space)
# and a fine-grid reference with k = 2
PINNED_STUDIES = {
    "spectral-stoch-transport-k3": (
        ExperimentSpec(problem="stoch-transport",
                       problem_params=(("beta", 0.3), ("extra_diffusion", 0.05)),
                       n=16, points0=16, rungs=3, correctors_k=3,
                       reference_mode="spectral", seeds=(1001,)),
        {"report.csv": "c2b0d47544b45210", "rung_16.csv": "d576e9a9bfc324ff",
         "rung_32.csv": "2a45606e3e6dd726", "rung_64.csv": "687eaf2753944ec8",
         "plot.gp": "699c6dce63330a5e"}),
    "fine-grid-var-coef1d-k2": (
        ExperimentSpec(problem="var-coef1d", n=16, points0=8, rungs=3,
                       correctors_k=2, seeds=(2001,)),
        {"report.csv": "01cd77fb7bc263e3", "rung_8.csv": "5404858d755d893b",
         "rung_16.csv": "427d682e0da289d5", "rung_32.csv": "52109c431ad8c6ae",
         "plot.gp": "0514a51e98c15d22"}),
}


class TestCorrectorExperiment:
    def test_heat_residual_study(self):
        spec = ExperimentSpec(problem="heat1d", n=32, points0=16, rungs=3,
                              refine=1, correctors_k=2,
                              expected_residual_order=4.0, order_tolerance=0.5)
        result = run_corrector_experiment(spec)
        assert not result.failed
        assert result.report.ls_order >= 3.6
        assert result.extras["odd_corrector_ratios"][1] <= 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fine_grid_reference_needs_refinement(self):
        spec = ExperimentSpec(problem="var-coef1d", n=8, points0=16, rungs=2,
                              refine=0, correctors_k=2)
        with pytest.raises(ConfigError) as info:
            run_corrector_experiment(spec)
        assert str(info.value) == ("[reference] a fine-grid reference needs "
                                   "refine >= 1, got 0")
        # a spectral reference does not refine: refine = 0 is accepted
        assert not run_corrector_experiment(ExperimentSpec(
            problem="heat1d", n=8, points0=16, rungs=2, refine=0,
            correctors_k=2)).failed

    def test_fine_grid_study_applies_refine_twice(self, monkeypatch):
        # rungs of 16 to 64 points with refine 3: after the ladder, v^(0)
        # marches the top rung refined 8 times and 8 times again, 4096
        # points, and the correctors 512; k = 2 marches no odd corrector
        marched = []
        init = Marcher.__init__

        def recording(self, xi, operators, zero_start=False):
            marched.append(([g.npoints for g in operators.grids], zero_start))
            init(self, xi, operators, zero_start)

        monkeypatch.setattr(Marcher, "__init__", recording)
        result = run_corrector_experiment(ExperimentSpec(
            problem="var-coef1d", n=4, points0=16, rungs=3, refine=3,
            correctors_k=2))
        assert not result.failed
        assert marched == [([16, 32, 64], False), ([4096], False), ([512], True)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_target_leaves_out_zero_correctors(self):
        # k = 3, centred: v^(1) and v^(3) are zero and get no term; the
        # terms of v^(0) and v^(2) are the weighted restricted rows
        p = make_problem("heat1d")
        cs = run_corrector_system(3, p, build_scheme_example1(p),
                                  make_torus_grid(1, [1.0], [64]), 8)
        grids = [make_torus_grid(1, [1.0], [points]) for points in (16, 32)]
        terms, failures = _replay_target(cs, grids)
        block = range(2, 7)
        assert failures == {}
        for grid, got in zip(grids, terms(block, None)):
            rows = [np.moveaxis(cs[m].restricted(64 // grid.shape[0])
                                .values[2:7], 0, -1)[..., None] for m in (0, 2)]
            assert len(got) == 2
            assert got[0].tobytes() == rows[0].tobytes()
            assert got[1].tobytes() == ((grid.h ** 2 / 2) * rows[1]).tobytes()

    def test_uses_first_seed_only(self, tmp_path):
        base = dict(problem="stoch-transport",
                    problem_params={"beta": 0.3, "extra_diffusion": 0.05},
                    n=8, points0=16, rungs=2, refine=1, correctors_k=2)
        for name, seeds in (("first", (3,)), ("more", (3, 5, 7))):
            emit_outputs(run_corrector_experiment(ExperimentSpec(
                seeds=seeds, **base)), tmp_path / name)
        for name in ("report.csv", "rung_16.csv", "rung_32.csv", "plot.gp"):
            assert (tmp_path / "first" / name).read_bytes() == \
                (tmp_path / "more" / name).read_bytes()
        rows = (tmp_path / "more" / "rung_16.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["3"]

    def test_rung_failure_row(self, monkeypatch, tmp_path):
        # a rung's solve fails at step 3 of mesh 1; the corrector system
        # (spectral reference) solves on other operators and succeeds
        _poison_rung(monkeypatch, (32,), slice(None), step=3)
        spec = ExperimentSpec(problem="stoch-transport",
                              problem_params={"beta": 0.3,
                                              "extra_diffusion": 0.05},
                              n=8, points0=16, rungs=2, refine=1,
                              correctors_k=2, seeds=(4, 5))
        result = run_corrector_experiment(spec)
        assert result.failed
        emit_outputs(result, tmp_path)
        assert (tmp_path / "report.csv").read_text().splitlines()[-1] == (
            "FAILED,seed 4, mesh 1: scheme run aborted: step 3: factorized "
            "solve produced non-finite values; tau may not be small enough")
        for points in (16, 32):
            assert (tmp_path / f"rung_{points}.csv").read_text() == \
                "seed,sup_error,l2h_error\nFAILED,,\n"

    @pytest.mark.parametrize("name", sorted(PINNED_STUDIES))
    def test_outputs_match_pinned_digests(self, name, tmp_path):
        spec, digests = PINNED_STUDIES[name]
        paths = emit_outputs(run_corrector_experiment(spec), tmp_path)
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                for p in paths} == digests


STOCH = {"beta": 0.3, "extra_diffusion": 0.05}


def _digests(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in paths}


def _poison_reference(monkeypatch, column, step=21):
    """Make the spectral reference's solve turn one column of its
    right-hand side NaN at ``step``: the rows of the rungs that march the
    continuous operators (the top ``exact`` ones), whether the reference
    rides on the ladder's march or marches apart; the rungs of a scheme's
    lattice are left alone."""
    original = SpectralOperators.solve_values

    def solve_values(self, rhs, i, failures):
        if i == step and self.exact:
            rhs = rhs.copy()
            for rows in self._rows[len(self.grids) - self.exact:]:
                rhs[rows, column] = np.nan
        return original(self, rhs, i, failures)

    monkeypatch.setattr(SpectralOperators, "solve_values", solve_values)


def _poison_rung(monkeypatch, shape, column, step=21):
    """Make a study's ladder, whichever lattice operators it marches on,
    turn one column of its rung on grids of ``shape`` NaN in the packed
    right-hand side at ``step``; a rung of the continuous operators (the
    top ``exact`` ones) on that lattice is left alone."""
    for cls in (FiniteDifferenceOperators, SpectralOperators):
        def solve_values(self, rhs, i, failures, _original=cls.solve_values):
            if i == step:
                rhs = rhs.copy()
                lattices = len(self.grids) - self.exact
                for grid, rows in zip(self.grids[:lattices], self._rows):
                    if grid.shape == shape:
                        rhs[rows, column] = np.nan
            return _original(self, rhs, i, failures)

        monkeypatch.setattr(cls, "solve_values", solve_values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBlockedMeasurement:
    """The studies measure their errors a block of 16 time indices at a
    time.  A failure inside a block (step 21 of 40) writes the bytes
    recorded when every index was measured on its own."""

    SPEC = ExperimentSpec(problem="stoch-transport", problem_params=STOCH,
                          n=40, points0=8, rungs=3, level=1,
                          reference_mode="spectral", seeds=(4, 5, 6))
    CORRECTOR_SPEC = ExperimentSpec(problem="stoch-transport",
                                    problem_params=STOCH, n=40, points0=16,
                                    rungs=2, refine=1, correctors_k=2,
                                    seeds=(4,))

    def test_study_without_failure(self, tmp_path):
        result = run_convergence_experiment(self.SPEC, accelerate=True)
        assert _digests(emit_outputs(result, tmp_path / "a")) == {
            "report.csv": "0560abc1a7de38fa", "rung_8.csv": "a639f0f4bbfe5b03",
            "rung_16.csv": "f4934d326826ee74", "rung_32.csv": "8ddb40c3a7d6de50",
            "plot.gp": "0e08a46c6db68d55"}
        result = run_corrector_experiment(self.CORRECTOR_SPEC)
        assert _digests(emit_outputs(result, tmp_path / "c")) == {
            "report.csv": "7f11b1a82ec4b0a0", "rung_16.csv": "558eaba89b2dab2c",
            "rung_32.csv": "936a71eba06749ce", "plot.gp": "373d7b06656216dd"}

    @pytest.mark.parametrize("column, seeds", [
        pytest.param(0, [], id="first"), pytest.param(1, [4], id="middle"),
        pytest.param(-1, [4, 5], id="last")])
    @pytest.mark.parametrize("step", [16, 21, 40])
    def test_target_loses_a_column_mid_block(self, monkeypatch, tmp_path,
                                             step, column, seeds):
        # the reference drops one seed's column at the first index of a
        # block (16), inside one (21) or at the last index (40); the seeds
        # before it are measured on to the end and keep their rows
        whole = emit_outputs(run_convergence_experiment(self.SPEC,
                                                        accelerate=True),
                             tmp_path / "whole")
        _poison_reference(monkeypatch, column, step)
        result = run_convergence_experiment(self.SPEC, accelerate=True)
        assert result.failure == (
            f"reference, seed {self.SPEC.seeds[column]}: scheme run aborted: "
            f"step {step}: spectral solve produced non-finite values; tau may "
            "not be small enough")
        assert [[row[0] for row in rows]
                for rows in result.per_rung_errors.values()] == [seeds] * 3
        paths = emit_outputs(result, tmp_path)
        if (step, column) == (21, -1):
            assert _digests(paths) == {
                "report.csv": "21db6170b7b7e945",
                "rung_8.csv": "d2438569ba09fced",
                "rung_16.csv": "89054a0cebf89803",
                "rung_32.csv": "f05a8f2d1e8f3481"}
        assert (tmp_path / "report.csv").read_text() == (
            f"{REPORT_HEADER}\nFAILED,{result.failure}\n")
        for path in whole:
            if path.name.startswith("rung_"):
                rows = (path.read_text().splitlines()[:1 + len(seeds)]
                        + ["FAILED,,"])
                assert (tmp_path / path.name).read_text().splitlines() == rows

    def test_rung_fails_mid_block(self, monkeypatch, tmp_path):
        _poison_rung(monkeypatch, (16,), 1)
        result = run_convergence_experiment(self.SPEC, accelerate=True)
        assert result.failure == (
            "seed 5, mesh 1: scheme run aborted: step 21: factorized solve "
            "produced non-finite values; tau may not be small enough")
        assert _digests(emit_outputs(result, tmp_path)) == {
            "report.csv": "64ee4839975b006b", "rung_8.csv": "346c8c41bdef0ee8",
            "rung_16.csv": "346c8c41bdef0ee8", "rung_32.csv": "346c8c41bdef0ee8"}

    def test_corrector_rung_fails_mid_block(self, monkeypatch, tmp_path):
        _poison_rung(monkeypatch, (32,), 0)
        result = run_corrector_experiment(self.CORRECTOR_SPEC)
        assert result.failure.startswith("seed 4, mesh 1: scheme run aborted: "
                                         "step 21: ")
        assert _digests(emit_outputs(result, tmp_path)) == {
            "report.csv": "95da8122599e7374", "rung_16.csv": "346c8c41bdef0ee8",
            "rung_32.csv": "346c8c41bdef0ee8"}

    def test_two_meshes_fail_one_seed(self, monkeypatch):
        # mesh 1 drops seed 5 at step 10, mesh 0 at step 30: the report
        # names the coarser mesh, which fails later
        _poison_rung(monkeypatch, (16,), 1, step=10)
        _poison_rung(monkeypatch, (8,), 1, step=30)
        result = run_convergence_experiment(self.SPEC, accelerate=True)
        assert result.failure == (
            "seed 5, mesh 0: scheme run aborted: step 30: factorized solve "
            "produced non-finite values; tau may not be small enough")


def _accelerate(spec):
    return run_convergence_experiment(spec, accelerate=True)


class TestLadderReference:
    """A fine-grid reference is the study's own ladder: one more rung on
    top, extrapolated one level above the study's level over the finest
    measured rung and its partners, and restricted onto every rung."""

    STOCH_FINE = ExperimentSpec(problem="stoch-transport", problem_params=STOCH,
                                n=40, points0=8, rungs=3, level=1,
                                reference_mode="fine-grid", seeds=(4, 5, 6))

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_variable_coefficients_reach_order_two_level_plus_two(self, level):
        # the paper's claim: extrapolation to level k on a centred scheme
        # gives order 2(k+1), here on a variable-coefficient problem
        spec = ExperimentSpec(problem="var-coef1d", n=256, points0=16,
                              rungs=5, level=level)
        result = run_convergence_experiment(spec, accelerate=level > 0)
        assert abs(result.report.ls_order - 2 * (level + 1)) <= 0.5

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_fine_grid_fits_the_spectral_order(self, level):
        # on constant coefficients the spectral reference is exact in space
        orders = [run_convergence_experiment(
            replace(self.STOCH_FINE, n=64, points0=16, level=level,
                    seeds=(1, 2, 3, 4), reference_mode=mode),
            accelerate=level > 0).report.ls_order
            for mode in ("spectral", "fine-grid")]
        assert abs(orders[1] - orders[0]) <= 0.02

    @pytest.mark.parametrize("accelerate", [False, True])
    def test_one_ladder_and_no_reference_marcher(self, accelerate,
                                                 monkeypatch):
        from spdefd import experiments, stepper
        ladders, references, exact = [], [], []
        lattice_operators = experiments.lattice_operators
        reference_marcher = stepper.reference_marcher

        def recording_lattice(problem, grids, *args):
            ladders.append([g.shape[0] for g in grids])
            operators = lattice_operators(problem, grids, *args)
            exact.append(operators.exact)
            return operators

        def recording_reference(*args):
            references.append(args)
            return reference_marcher(*args)

        monkeypatch.setattr(experiments, "lattice_operators", recording_lattice)
        monkeypatch.setattr(stepper, "reference_marcher", recording_reference)
        assert not hasattr(experiments, "reference_marcher")
        for level in (1, 2):
            spec = replace(self.STOCH_FINE, level=level)
            run_convergence_experiment(spec, accelerate=accelerate)
            top = spec.rungs + (level if accelerate else 0)
            assert ladders.pop() == [8 * 2 ** j for j in range(top + 1)]
        assert references == [] and exact == [0, 0]
        # a spectral reference rides on the ladder's march, one more rung on
        # the ladder's top lattice
        run_convergence_experiment(replace(self.STOCH_FINE,
                                           reference_mode="spectral"),
                                   accelerate=accelerate)
        top = self.STOCH_FINE.rungs + (self.STOCH_FINE.level if accelerate else 0)
        assert ladders == [[8 * 2 ** j for j in range(top)]]
        assert references == [] and exact == [0, 0, 1]

    # sha256 prefixes of every output of three fine-grid accelerate
    # studies: a stochastic one, a variable-coefficient one and one at the
    # conditioning guard's level
    FINE_GRID_PINS = {
        "stoch-transport-level1": (STOCH_FINE, {
            "report.csv": "3d629ee0eb99f734", "rung_8.csv": "b9dd6184b323706c",
            "rung_16.csv": "a0a67580ccd79fd4", "rung_32.csv": "4da2ce9d4a03f0f2",
            "plot.gp": "35424ff80390a227"}),
        "var-coef1d-level1": (ExperimentSpec(
            problem="var-coef1d", n=32, points0=8, rungs=3, level=1), {
            "report.csv": "22c24c9d6bc9505b", "rung_8.csv": "f479b4690f987933",
            "rung_16.csv": "f8e640a49198e581", "rung_32.csv": "3fe4d20c724e1c34",
            "plot.gp": "8281ac109dc29152"}),
        "stoch-transport-level12": (replace(
            STOCH_FINE, n=2, points0=4, rungs=2, level=12, seeds=(1,)), {
            "report.csv": "fc7bd186cfff2131", "rung_4.csv": "bce09dfcbf5c671a",
            "rung_8.csv": "96716d48b182cfe8", "plot.gp": "ac47cd09da626fbb"}),
    }

    @pytest.mark.parametrize("name", sorted(FINE_GRID_PINS))
    def test_outputs_match_pinned_digests(self, name, tmp_path):
        spec, digests = self.FINE_GRID_PINS[name]
        assert _digests(emit_outputs(_accelerate(spec), tmp_path)) == digests

    @pytest.mark.parametrize("level", [0, 2])
    def test_base_two_on_a_centred_scheme_keeps_its_order(self, level):
        # the reference extrapolates in the scheme's base, 4: in base 2 an
        # even level's reference would cancel only an odd power, which is
        # zero already, and bias the finest rungs' orders low
        spec = ExperimentSpec(problem="var-coef1d", n=256, points0=16,
                              rungs=5, level=level, base="2")
        report = run_convergence_experiment(spec, accelerate=level > 0).report
        assert abs(report.ls_order - 2 * (level // 2 + 1)) <= 0.15
        assert abs(report.pairwise_orders[-1] - 2 * (level // 2 + 1)) <= 0.05

    def test_explicit_base_four_converges_as_base_two(self):
        # a level-0 study does not extrapolate, so its base is not read, and
        # its reference is in the one-sided scheme's base, 2
        spec = ExperimentSpec(problem="drift1d", scheme="example2", n=8,
                              points0=8, rungs=2, level=0, base="4",
                              reference_mode="fine-grid")
        assert (run_convergence_experiment(spec).report
                == run_convergence_experiment(replace(spec, base="2")).report)

    def test_reference_at_the_conditioning_guard(self, monkeypatch):
        # a level-12 study keeps a level-12 reference, on the top 13 rungs
        from spdefd import experiments
        ladders = []
        lattice_operators = experiments.lattice_operators

        def recording_lattice(problem, grids, *args):
            ladders.append(len(grids))
            return lattice_operators(problem, grids, *args)

        monkeypatch.setattr(experiments, "lattice_operators", recording_lattice)
        spec = replace(self.STOCH_FINE, n=2, points0=4, rungs=2, level=12,
                       seeds=(1,))
        assert not run_convergence_experiment(spec, accelerate=True).failed
        assert ladders == [2 + 12 + 1]
        with pytest.raises(ConfigError, match="conditioning guard"):
            run_convergence_experiment(replace(spec, level=13, refine=0),
                                       accelerate=True)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_top_rung_failure_is_the_reference_failure(self, monkeypatch):
        # rung 128 (above the partner 64) is read by the reference alone:
        # its failure reads as the reference's, after the rows of seed 4
        whole = run_convergence_experiment(self.STOCH_FINE, accelerate=True)
        _poison_rung(monkeypatch, (128,), 1)
        result = run_convergence_experiment(self.STOCH_FINE, accelerate=True)
        assert result.failure == (
            "reference, seed 5: scheme run aborted: step 21: factorized "
            "solve produced non-finite values; tau may not be small enough")
        assert result.per_rung_errors == {
            j: rows[:1] for j, rows in whole.per_rung_errors.items()}
        # the partner rung 64 is the ladder's: its failure names its mesh,
        # ahead of the reference's
        _poison_rung(monkeypatch, (64,), 1)
        assert run_convergence_experiment(
            self.STOCH_FINE, accelerate=True).failure.startswith(
                "seed 5, mesh 3: scheme run aborted: step 21: ")


class TestExactRung:
    """A spectral study marches its reference as one more rung of the
    ladder's march, which steps in Fourier space; experiments imports no
    reference_marcher."""

    @staticmethod
    def _record(monkeypatch):
        """The operators of every Marcher built, and the arguments of every
        reference_marcher call made through the stepper module."""
        from spdefd import experiments, stepper
        assert not hasattr(experiments, "reference_marcher")
        operators, references = [], []
        init, reference_marcher = Marcher.__init__, stepper.reference_marcher

        def recording(self, xi, ops, zero_start=False):
            operators.append(ops)
            init(self, xi, ops, zero_start)

        def recording_reference(*args, **kwargs):
            references.append(args)
            return reference_marcher(*args, **kwargs)

        monkeypatch.setattr(Marcher, "__init__", recording)
        monkeypatch.setattr(stepper, "reference_marcher", recording_reference)
        return operators, references

    def test_spectral_accelerate_study_marches_once(self, monkeypatch):
        operators, references = self._record(monkeypatch)
        result = _accelerate(TestBlockedMeasurement.SPEC)
        assert not result.failed
        assert references == []
        assert [(type(ops), [g.npoints for g in ops.grids], ops.exact)
                for ops in operators] == [
            (SpectralOperators, [8, 16, 32, 64, 64], 1)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ladder_failed_everywhere_stops_the_march(self, monkeypatch):
        # every column of every ladder rung fails at step 3; the exact rung
        # lives on, but the march stops after that block of 16 steps
        for shape in ((8,), (16,), (32,), (64,)):
            _poison_rung(monkeypatch, shape, slice(None), step=3)
        steps, advance = [], Marcher.advance

        def counting(self, forcing=None):
            steps.append(self.i + 1)
            advance(self, forcing)

        monkeypatch.setattr(Marcher, "advance", counting)
        result = _accelerate(TestBlockedMeasurement.SPEC)
        assert result.failure == (
            "seed 4, mesh 0: scheme run aborted: step 3: factorized solve "
            "produced non-finite values; tau may not be small enough")
        assert steps == list(range(1, 17))

    def test_drift_example2_marches_its_reference_apart(self, monkeypatch):
        # example2's p and q of constant cross terms are plain numbers, so
        # its one-sided ladder is circulant and carries the exact rung: no
        # reference marches apart
        operators, references = self._record(monkeypatch)
        spec = ExperimentSpec(problem="drift1d", scheme="example2", n=8,
                              points0=8, rungs=2, level=1, base="2",
                              reference_mode="spectral", seeds=(1, 2))
        result = _accelerate(spec)
        assert not result.failed
        assert references == []
        assert [(type(ops), [g.npoints for g in ops.grids], ops.exact)
                for ops in operators] == [
            (SpectralOperators, [8, 16, 32, 32], 1)]

    @pytest.mark.parametrize("scheme", ["example1", "example2"])
    @pytest.mark.parametrize("problem", sorted(
        name for name, make in PROBLEM_LIBRARY.items()
        if make().constant_coefficients))
    @pytest.mark.parametrize("accelerate", [False, True])
    def test_every_constant_problem_marches_once(self, problem, scheme,
                                                 accelerate, monkeypatch):
        operators, references = self._record(monkeypatch)
        spec = ExperimentSpec(problem=problem, scheme=scheme, n=8, points0=8,
                              rungs=2, level=1, base="2",
                              reference_mode="spectral", seeds=(1, 2))
        run_convergence_experiment(spec, accelerate=accelerate)
        top = 32 if accelerate else 16
        assert references == []
        assert [(type(ops), [g.npoints for g in ops.grids][-2:], ops.exact)
                for ops in operators] == [(SpectralOperators, [top, top], 1)]


class TestBlockSize:
    """The studies march and measure ``stepper.BLOCK_ROWS`` steps at a time;
    no output depends on that size (20 steps make blocks of 1, 5 and 16
    steps end inside and on the last index)."""

    SPECTRAL = ExperimentSpec(problem="stoch-transport", problem_params=STOCH,
                              n=20, points0=8, rungs=3, level=1,
                              reference_mode="spectral", seeds=(4, 5))
    STUDIES = {
        "spectral-converge": (SPECTRAL, run_convergence_experiment),
        "spectral-accelerate": (SPECTRAL, _accelerate),
        "fine-grid-accelerate": (ExperimentSpec(
            problem="var-coef1d", n=20, points0=8, rungs=3, level=1, refine=2,
            seeds=(3,)), _accelerate),
        # a ladder from 89 points; the corrector system runs on its finest
        # rung, 178 = 2 x 89 points
        "correctors-k2-89": (ExperimentSpec(
            problem="stoch-transport", problem_params=STOCH, n=20, points0=89,
            rungs=2, refine=0, correctors_k=2, seeds=(4,)),
            run_corrector_experiment),
    }

    @pytest.mark.parametrize("name", sorted(STUDIES))
    def test_block_size_changes_no_output(self, name, monkeypatch, tmp_path):
        from spdefd import stepper
        spec, run = self.STUDIES[name]
        outputs = []
        for rows in (1, 5, 16):
            monkeypatch.setattr(stepper, "BLOCK_ROWS", rows)
            result = run(spec)
            assert not result.failed
            got = {p.name: p.read_bytes()
                   for p in emit_outputs(result, tmp_path / str(rows))}
            for j, traj in enumerate(getattr(
                    result.extras.get("corrector_set"), "trajectories", [])):
                got[f"order{j}"] = traj.values.tobytes()
            outputs.append(got)
        assert "plot.gp" in outputs[0]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def _zero_target(marcher, _):
    """A study target whose expansion is zero, so a rung's error at an
    index is its state, with the same bits."""
    return (lambda block, _: [[np.zeros(grid.shape + (len(block),
                                                      marcher.xi.shape[-1]))]
                              for grid in marcher.operators.grids]), {}


def _time_dependent_problem():
    return DifferentialProblem(
        d=1, d1=1, T=0.5,
        a={(1, 1): lambda i, x: 0.08 + 0.04 * np.cos(0.3 * i) + 0.0 * x[..., 0],
           (0, 1): 0.1},
        b={(1, 1): lambda i, x: 0.2 + 0.1 * np.sin(0.2 * i) + 0.0 * x[..., 0],
           (0, 1): 0.05},
        f=lambda i, x: 0.1 * np.sin(2 * np.pi * x[..., 0]) * np.cos(0.5 * i),
        g={1: lambda i, x: 0.05 * np.cos(2 * np.pi * x[..., 0])},
        u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
        time_independent=False)


def _callable_cross_problem():
    """Time-independent, a cross coefficient that is a callable and
    changes sign, so example2's p and q are callables too and the ladder
    factors by sparse LU."""
    return DifferentialProblem(
        d=1, d1=1, T=0.5,
        a={(1, 1): 0.1,
           (0, 1): lambda i, x: 0.1 + 0.3 * np.sin(2 * np.pi * x[..., 0] / 0.75)},
        b={(1, 1): 0.2}, u0=lambda x: np.cos(2 * np.pi * x[..., 0] / 0.75))


def _two_noise_problem():
    return DifferentialProblem(
        d=2, d1=2, T=0.25,
        a={(1, 1): 0.05, (2, 2): 0.06, (1, 2): 0.01, (2, 1): 0.01,
           (0, 2): 0.02},
        b={(1, 1): lambda i, x: 0.2 + 0.05 * np.sin(2 * np.pi * x[..., 1]),
           (2, 2): 0.15, (0, 2): 0.1},
        f=0.01, g={2: 0.02},
        u0=lambda x: np.cos(2 * np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1]))


class TestLadder:
    """The rungs of a study march together; every rung, at every index and
    for every path, has the bits of :func:`run_space_time_scheme` on that
    rung's grid alone."""

    CASES = {
        "1d-example1-S3": (lambda: make_problem(
            "stoch-transport", beta=0.3, gamma=0.2, extra_diffusion=0.05),
            build_scheme_example1, 1, 16, 3, (1, 2, 3)),
        "1d-example2-S1": (lambda: make_problem("drift1d", chi=0.4),
                           build_scheme_example2, 1, 8, 3, (7,)),
        # example2's p and q callables: the block LU of a one-sided,
        # time-independent 1-d ladder
        "1d-example2-callable-cross": (_callable_cross_problem,
                                       build_scheme_example2, 1, 8, 3, (7, 8)),
        "1d-time-dependent-example2": (_time_dependent_problem,
                                       build_scheme_example2, 1, 8, 3, (4, 5)),
        "2d-two-noises-example1": (_two_noise_problem,
                                    build_scheme_example1, 2, 4, 3, (8, 9)),
        # up to 64^2, where one LU ordered by COLAMD on the whole block
        # diagonal would round differently
        "2d-example2-to-64": (_two_noise_problem, build_scheme_example2,
                              2, 8, 4, (8, 9)),
        # 128^2 is above the direct-solve limit: direct and GMRES rungs
        "2d-gmres-top-rung": (_two_noise_problem, build_scheme_example1,
                              2, 32, 3, (8, 9)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rungs_match_runs_alone(self, name, monkeypatch):
        from spdefd import experiments
        make, build, d, points0, rungs, seeds = self.CASES[name]
        problem = make()
        scheme = build(problem)
        # a period whose mesh widths are not powers of two, so that a
        # division by 2h rounds
        spec = ExperimentSpec(problem="custom", n=12, period=0.75,
                              points0=points0, rungs=rungs, seeds=seeds)
        increments = {}

        def sampled(n, d1, tau, seed):
            inc = sample_increments(n, d1, tau, seed)
            if d1 > 1 and seed == seeds[-1]:
                # the last path never sees the second Wiener process
                xi = inc.xi.copy()
                xi[:, 1] = 0.0
                inc = BrownianIncrements(n=n, d1=d1, tau=tau, seed=seed, xi=xi)
            increments[seed] = inc
            return inc

        rows = []
        norms = experiments._norms

        def recording(columns, weight):
            rows.append(columns.copy())
            return norms(columns, weight)

        monkeypatch.setattr(experiments, "sample_increments", sampled)
        monkeypatch.setattr(experiments, "_norms", recording)
        result = experiments._march_ladder(
            spec, "converge", problem, scheme, seeds,
            experiments.vandermonde_weights(0, 2), None, _zero_target)
        assert not result.failed
        paths = seeds if problem.d1 > 0 else seeds[:1]
        for j in range(rungs):
            grid = make_torus_grid(d, [spec.period] * d, [points0 * 2 ** j] * d)
            # one row per (index, path) in every block of rung j
            got = np.concatenate(rows[j::rungs]).reshape(
                spec.n + 1, len(paths), grid.npoints)
            for k, seed in enumerate(paths):
                alone = run_space_time_scheme(problem, scheme, grid, spec.n,
                                              increments.get(seed))
                for i in range(spec.n + 1):
                    assert got[i, k].tobytes() == alone.values[i].tobytes(), \
                        f"mesh {j}, path {k} differs at index {i}"

    # the words of each case's solver: constant coefficients march on the
    # lattice symbols, a variable-coefficient scheme on its LU
    SINGULAR = {"1d-example1-S3": "spectral implicit operator is singular",
                "1d-time-dependent-example2":
                    "factorization failed (Factor is exactly singular)"}

    @pytest.mark.parametrize("name, mesh, step", [
        ("1d-example1-S3", 1, 1), ("1d-time-dependent-example2", 0, 3)])
    def test_singular_rung_fails_alone(self, name, mesh, step, monkeypatch):
        """From ``step`` on, mesh ``mesh`` has a singular I - tau L^h (an
        assembled matrix with a zero column, or lattice multipliers of a
        vanishing ``1 - tau symL``): that rung fails every column in its
        solver's words and is zeroed, and every other rung keeps the bits of
        its run alone."""
        from spdefd import stepper
        make, build, d, points0, rungs, seeds = self.CASES[name]
        problem = make()
        scheme = build(problem)
        n = 12
        tau = problem.T / n
        grids = [make_torus_grid(d, [0.75] * d, [points0 * 2 ** j] * d)
                 for j in range(rungs)]
        increments = [sample_increments(n, problem.d1, tau, seed)
                      for seed in seeds]
        alone = [[run_space_time_scheme(problem, scheme, g, n, inc).values
                  for inc in increments] for g in grids]

        assemble, calls = stepper._assemble, []

        def singular(terms, shape, tau=None):
            matrix = assemble(terms, shape, tau)
            if shape == grids[mesh].shape and tau is not None:
                calls.append(shape)
                if len(calls) >= step:
                    # the same pattern, with an explicitly zero first column
                    matrix = matrix.copy()
                    matrix.data[matrix.indices == 0] = 0.0
            return matrix

        multipliers = stepper.SpectralOperators._multipliers

        def singular_multipliers(self, i):
            # the rung's 1 - tau symL vanishes from step on: a zero inverse
            inv, m, singular = multipliers(self, i)
            if i < step:
                return inv, m, singular
            inv = inv.copy()
            inv[self._rows[mesh]] = 0.0
            return inv, m, sorted({*singular, mesh})

        monkeypatch.setattr(stepper, "_assemble", singular)
        monkeypatch.setattr(stepper.SpectralOperators, "_multipliers",
                            singular_multipliers)
        ladder = stepper.lattice_operators(problem, grids, tau, scheme)
        marcher = stepper.Marcher(
            stepper.increment_columns(problem, n, increments), ladder)
        for i in range(1, n + 1):
            marcher.advance()
            for j, state in enumerate(ladder.states(marcher.v)):
                for k in range(len(seeds)):
                    if j == mesh and i >= step:
                        assert not state[..., k].any()
                    else:
                        assert state[..., k].tobytes() == \
                            alone[j][k][i].tobytes(), f"mesh {j}, index {i}"
        assert [list(failures) for failures in marcher.failures] == [
            list(range(len(seeds))) if j == mesh else [] for j in range(rungs)]
        assert {str(exc) for exc in marcher.failures[mesh].values()} == {
            f"step {step}: {self.SINGULAR[name]}; tau may not be small enough"}

    @pytest.mark.parametrize("accelerate", [False, True])
    def test_operators_freed_without_gc(self, accelerate, monkeypatch):
        refs = []
        for cls in (FiniteDifferenceOperators, SpectralOperators,
                    ImplicitOperator):
            def init(self, *args, _original=cls.__init__, **kwargs):
                _original(self, *args, **kwargs)
                refs.append(weakref.ref(self))
            monkeypatch.setattr(cls, "__init__", init)
        spec = ExperimentSpec(problem="stoch-transport", problem_params=STOCH,
                              n=8, points0=8, rungs=3, level=1,
                              seeds=(1, 2))
        gc.collect()
        gc.disable()
        try:
            result = run_convergence_experiment(spec, accelerate=accelerate)
            corrector = run_corrector_experiment(spec)
            assert not result.failed and not corrector.failed
            assert refs and all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestSpecValidation:
    """A spec built in code passes the checks a config file passes."""

    def test_studies_reject_an_invalid_spec(self):
        spec = ExperimentSpec(problem="heat1d", n=4, points0=8, rungs=2,
                              threads=0, format="xml", correctors_k=-1)
        for run in (run_convergence_experiment,
                    lambda s: run_convergence_experiment(s, accelerate=True),
                    run_corrector_experiment):
            with pytest.raises(ConfigError, match="unknown output format"):
                run(spec)

    def test_negative_corrector_order(self):
        spec = ExperimentSpec(problem="heat1d", n=4, points0=8, rungs=2,
                              correctors_k=-1)
        with pytest.raises(ConfigError, match="correctors k must be >= 0"):
            run_corrector_experiment(spec)


class TestSelfcheck:
    def test_all_pass(self):
        results = selfcheck()
        assert len(results) == 4
        for name, ok, detail in results:
            assert ok, f"{name}: {detail}"

    @staticmethod
    def _checks_with_skewed(cls, monkeypatch):
        original = cls.solve_values
        monkeypatch.setattr(
            cls, "solve_values",
            lambda self, rhs, i, failures: 1.001 * original(self, rhs, i,
                                                            failures))
        return [ok for _, ok, _ in selfcheck()]

    def test_oracle_checks_the_study_solve(self, monkeypatch):
        # the dense-solve oracle reads the LU solve of a variable coefficient
        assert self._checks_with_skewed(FiniteDifferenceOperators,
                                        monkeypatch) == [True, True, False, True]

    def test_circulant_oracle_checks_the_lattice_symbols(self, monkeypatch):
        # a constant coefficient solves on its lattice symbols
        assert self._checks_with_skewed(SpectralOperators,
                                        monkeypatch) == [True, True, True, False]


class TestCli:
    def test_selfcheck_exit_zero(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_converge_pass(self, tmp_path, capsys):
        cfg = write(tmp_path, MINIMAL + "\n[time]\nn = 32\n[run]\n"
                    f"expected_order = 2.0\norder_tolerance = 0.4\n"
                    f"out = {tmp_path / 'out'}\n")
        assert main(["converge", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert "PASS" in capsys.readouterr().out

    def test_converge_fail_exit_one(self, tmp_path, capsys):
        cfg = write(tmp_path, MINIMAL + "\n[time]\nn = 32\n[run]\n"
                    f"expected_order = 3.5\norder_tolerance = 0.1\n"
                    f"out = {tmp_path / 'out'}\n")
        assert main(["converge", "--config", str(cfg)]) == 1

    def test_accelerate(self, tmp_path):
        cfg = write(tmp_path, MINIMAL + "\n[time]\nn = 32\n[extrapolation]\n"
                    "level = 1\n[run]\nexpected_order = 4.0\n"
                    f"order_tolerance = 0.5\nout = {tmp_path / 'out'}\n")
        assert main(["accelerate", "--config", str(cfg)]) == 0

    def test_solve_writes_trajectory(self, tmp_path):
        cfg = write(tmp_path, MINIMAL + f"\n[time]\nn = 8\n[run]\n"
                    f"out = {tmp_path / 'out'}\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()

    @pytest.mark.parametrize("fmt, name", [("csv", "trajectory.csv"),
                                           ("binary", "trajectory.bin")])
    def test_solve_deterministic_ignores_the_seed(self, tmp_path, fmt, name):
        # heat1d has no driver: every seed samples the one empty path
        cfg = write(tmp_path, MINIMAL + "\n[time]\nn = 8\n")
        written = []
        for seed in ("1", "7"):
            out = tmp_path / f"seed{seed}"
            assert main(["solve", "--config", str(cfg), "--seeds", seed,
                         "--format", fmt, "--out", str(out)]) == 0
            written.append((out / name).read_bytes())
        assert written[0] == written[1]

    def test_solve_binary_format_flag(self, tmp_path):
        cfg = write(tmp_path, MINIMAL + f"\n[time]\nn = 8\n[run]\n"
                    f"out = {tmp_path / 'out'}\n")
        assert main(["solve", "--config", str(cfg), "--format", "binary"]) == 0
        assert (tmp_path / "out" / "trajectory.bin").exists()

    def test_solver_failure_in_solve_exit_two(self, tmp_path, capsys):
        # 1 - tau a00 = 1 - 0.5 * 2 = 0: the one spectral step is singular
        cfg = write(tmp_path, "[problem]\nname = custom\na00 = 2\nT = 0.5\n"
                    f"[time]\nn = 1\n[run]\nout = {tmp_path / 'out'}\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "solver failure: step 1: spectral implicit operator is singular; "
            "tau may not be small enough\n")
        assert not (tmp_path / "out").exists()

    def test_base_four_on_one_sided_scheme_exit_three(self, tmp_path, capsys):
        # example2 has one-sided terms, so odd powers of h stay in its
        # error: base 4 would fit order 0.99 and pass; auto picks base 2
        body = ("[problem]\nname = drift1d\n[scheme]\nconstructor = example2\n"
                "[time]\nn = 64\n[space]\npoints0 = 16\nrungs = 3\n"
                f"[run]\nout = {tmp_path / 'out'}\n[extrapolation]\n")
        cfg = write(tmp_path, body + "level = 1\nbase = 4\n")
        assert main(["accelerate", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == (
            "config error: [extrapolation] base 4 assumes that odd powers of h "
            "vanish, but the example2 scheme has one-sided terms; use base 2 "
            "or auto\n")
        assert not (tmp_path / "out").exists()
        # level 0 does not extrapolate, so base 4 is accepted
        cfg = write(tmp_path, body + "level = 0\nbase = 4\n")
        assert main(["accelerate", "--config", str(cfg)]) == 0
        assert main(["converge", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("problem", ["stoch-transport", "var-coef1d"])
    def test_period_the_problem_is_not_periodic_on_exit_three(
            self, tmp_path, capsys, problem):
        # u0 = cos 2 pi x jumps at the wrap of a torus of period 1.5: a study
        # would fit order 0.5645 (stoch-transport) or 0.7605 (var-coef1d)
        cfg = write(tmp_path, f"[problem]\nname = {problem}\n[time]\n"
                    "n = 64\n[space]\npoints0 = 16\nrungs = 3\nperiod = 1.5\n"
                    "[extrapolation]\nlevel = 1\n[run]\nseeds = 1,2\n"
                    f"expected_order = 4\nout = {tmp_path / 'out'}\n")
        assert main(["accelerate", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == (
            "config error: u0 is not periodic on the torus of [space] period "
            "1.5: it moves by 2 over one period along x1\n")
        assert not (tmp_path / "out").exists()

    def test_period_two_still_runs(self, tmp_path):
        cfg = write(tmp_path, "[problem]\nname = stoch-transport\n[time]\n"
                    "n = 32\n[space]\npoints0 = 8\nrungs = 3\nperiod = 2\n"
                    "[extrapolation]\nlevel = 1\n[run]\nseeds = 1,2\n"
                    f"expected_order = 4\nout = {tmp_path / 'out'}\n")
        assert main(["accelerate", "--config", str(cfg)]) == 0

    def test_config_error_exit_three(self, tmp_path, capsys):
        cfg = write(tmp_path, "[problem]\nname = nope\n")
        assert main(["converge", "--config", str(cfg)]) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        ("[problem]\nname = heat1d\n[space]\nperiod = -1\n",
         "period must be positive"),
        ("[problem]\nname = custom\na11 = 0.1\nT = 0\n",
         "horizon T must be positive"),
        ("[problem]\nname = degenerate1d\n[run]\nseeds = 3, 3\n",
         "seeds must be distinct"),
    ], ids=["negative-period", "custom-zero-horizon", "repeated-seed"])
    def test_invalid_values_exit_three(self, tmp_path, capsys, body, message):
        cfg = write(tmp_path, body)
        for command in ("solve", "converge", "correctors"):
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err
            assert "config error" in err and message in err

    @pytest.mark.parametrize("command", ["solve", "converge", "accelerate",
                                         "correctors"])
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    def test_out_not_a_directory_exit_three(self, tmp_path, capsys,
                                            monkeypatch, command, below):
        def march(*args, **kwargs):
            raise AssertionError("marched before the output path was checked")

        from spdefd import stepper
        monkeypatch.setattr(stepper.Marcher, "march", march)
        cfg = write(tmp_path, MINIMAL + "\n[time]\nn = 8\n")
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        out = blocker / below if below else blocker
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") \
            and f"{blocker} is not a directory" in err
        assert blocker.read_text() == "keep"

    def test_level_above_guard(self, tmp_path, capsys):
        cfg = write(tmp_path, MINIMAL + "\n[time]\nn = 8\n[space]\n"
                    "points0 = 8\n[extrapolation]\nlevel = 13\n[run]\n"
                    f"out = {tmp_path / 'out'}\n")
        assert main(["accelerate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "level 13" in err
        # the plain and corrector studies do not extrapolate: no level check
        for command in ("converge", "correctors"):
            assert main([command, "--config", str(cfg)]) == 0
            assert "config error" not in capsys.readouterr().err

    def test_spectral_reference_on_variable_coefficients(self, tmp_path, capsys):
        cfg = write(tmp_path, "[problem]\nname = var-coef1d\n[time]\nn = 8\n"
                    "[space]\nrungs = 2\n[reference]\nmode = spectral\n[run]\n"
                    f"out = {tmp_path / 'out'}\n")
        for command in ("converge", "accelerate", "correctors"):
            assert main([command, "--config", str(cfg)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("config error: [reference] ") \
                and "varies in space" in err

    def test_non_parabolic_exit_three(self, tmp_path, capsys):
        # 2a - b^2 = 0.02 - 0.25 < 0
        cfg = write(tmp_path, "[problem]\nname = custom\na11 = 0.01\nb11 = 0.5\n"
                    f"[time]\nn = 8\n[run]\nout = {tmp_path / 'out'}\n")
        for command in ("solve", "converge", "accelerate", "correctors"):
            assert main([command, "--config", str(cfg)]) == 3
            assert capsys.readouterr().err == (
                "config error: problem is not degenerate parabolic: the "
                "smallest eigenvalue of 2a - bb^T is -0.23\n")
        assert not (tmp_path / "out").exists()

    def test_unfittable_order_exit_three(self, tmp_path, capsys):
        cfg = write(tmp_path, ZERO_ERRORS + f"[run]\nout = {tmp_path / 'out'}\n")
        assert main(["converge", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == ("order error: no order can be "
                                           "fitted: errors must be positive\n")

    def test_unfittable_accelerate_exit_three(self, tmp_path, capsys):
        # every error lies at or below 1e-14 but above 0: extrapolation
        # rounds the zero errors to 1.1e-16, and at T = 1e300 heat1d decays
        # to rounding in one step; no order is fitted, so none passes
        heat = ("[problem]\nname = heat1d\nT = 1e300\n[space]\npoints0 = 8\n"
                "rungs = 3\n[time]\nn = 8\n")
        for config in (ZERO_ERRORS, heat):
            cfg = write(tmp_path, config + f"[run]\nout = {tmp_path / 'out'}\n")
            assert main(["accelerate", "--config", str(cfg)]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err == (
                "order error: no order can be fitted: 0 of 3 errors lie "
                "above 1e-14; a fit needs two\n")
            assert not (tmp_path / "out").exists()

    def test_missing_scipy_exit_three(self, tmp_path):
        # a study that factors by sparse LU, in an interpreter that refuses
        # to import scipy
        from test_cold_start import run
        code, _, err, _ = run(tmp_path, "blocked",
                              ["converge", "--config", "var-coef1d.ini"])
        assert code == 3
        assert err.decode() == "missing dependency: No module named 'scipy'\n"

    def test_correctors_on_an_8192_point_reference(self, tmp_path):
        # the reference of the top rung, 128 points refined 8 times, marches
        # 8 times finer again: 8192 points, one sparse LU (GMRES stalled there)
        cfg = write(tmp_path, "[problem]\nname = var-coef1d\n[time]\nn = 16\n"
                    "[space]\npoints0 = 16\nrungs = 4\n[correctors]\nk = 2\n"
                    f"[run]\nout = {tmp_path / 'out'}\n")
        assert main(["correctors", "--config", str(cfg)]) == 0

    def test_study_too_large_to_allocate_exit_three(self, tmp_path, capsys):
        # refine 50 asks numpy for 2**57 bytes, more than a 64-bit process
        # can address, so it is refused before anything is allocated
        cfg = write(tmp_path, "[problem]\nname = heat1d\n[time]\nn = 4\n"
                    "[space]\npoints0 = 8\nrungs = 2\n[reference]\nrefine = 50\n"
                    f"[correctors]\nk = 2\n[run]\nout = {tmp_path / 'out'}\n")
        assert main(["correctors", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("out of memory: ") \
            and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, body, key", [
        ("correctors", "[time]\nn = 8\n[space]\npoints0 = 8\nrungs = 2\n"
         "[reference]\nrefine = 70\n", "[reference] refine"),
        ("solve", "[time]\nn = 8\n[space]\npoints0 = 99999999999999999999\n",
         "[space] points0"),
        ("converge", "[time]\nn = 99999999999999999999\n[space]\npoints0 = 8\n"
         "rungs = 2\n", "[time] n"),
    ], ids=["refine", "points0", "n"])
    def test_beyond_the_index_range_exit_three(self, tmp_path, capsys,
                                                command, body, key):
        # more lattice points or time indices than numpy can index: refused
        # before anything is allocated, in words that name the key
        cfg = write(tmp_path, "[problem]\nname = heat1d\n" + body
                    + f"[run]\nout = {tmp_path / 'out'}\n")
        assert main([command, "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: ") \
            and key in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # the check reads the values, so an overflow warns of nothing
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("problem, space, name, period", [
        ("name = heat1d", "period = 1e308", "u0", "1e+308"),
        ("name = stoch-transport\nbeta = 1e200", "", "a[(1, 1)]", "1"),
    ], ids=["u0-of-a-huge-period", "a-that-overflows"])
    def test_non_finite_problem_data_exit_three(self, tmp_path, capsys,
                                                 problem, space, name, period):
        # the coarsest grid's values of u0 (cos of an overflowed argument)
        # or of a[(1, 1)] (0.5 beta^2 = inf) are not finite
        cfg = write(tmp_path, f"[problem]\n{problem}\n[time]\nn = 8\n"
                    f"[space]\nrungs = 2\n{space}\n"
                    f"[run]\nout = {tmp_path / 'out'}\n")
        for command in ("converge", "accelerate", "solve"):
            assert main([command, "--config", str(cfg)]) == 3
            assert capsys.readouterr().err == (
                f"config error: {name} takes a value that is not finite on "
                f"the torus of [space] period {period}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unresolved_reference_grid_exit_three(self, tmp_path, capsys):
        # 8 points refined by 2**1: the corrector derivatives are unresolved
        cfg = write(tmp_path, "[problem]\nname = var-coef1d\n[time]\nn = 8\n"
                    "[space]\npoints0 = 4\nrungs = 2\n[reference]\nrefine = 1\n"
                    f"[correctors]\nk = 2\n[run]\nout = {tmp_path / 'out'}\n")
        assert main(["correctors", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith(
            "config error: [reference] highest retained modes carry ")

    def test_resolution_warning_is_a_note(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write(tmp_path, "[problem]\nname = heat1d\n[time]\nn = 8\n"
                    "[space]\npoints0 = 8\nrungs = 2\n[reference]\nrefine = 0\n"
                    f"[correctors]\nk = 2\n[run]\nout = {out}\n")
        assert main(["correctors", "--config", str(cfg)]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "note: reference grid has 16 points per axis; the heuristic floor "
            "for k=2 is 64 (corrector derivatives may be under-resolved)"]
        assert "RuntimeWarning" not in err and "experiments.py" not in err
        assert (out / "report.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fine_grid_reference_needs_refinement(self, tmp_path, capsys):
        body = ("[time]\nn = 8\n[space]\npoints0 = 8\nrungs = 2\n"
                f"[reference]\nrefine = 0\n[run]\nout = {tmp_path / 'out'}\n")
        cfg = write(tmp_path, "[problem]\nname = var-coef1d\n" + body)
        for command in ("converge", "accelerate", "correctors"):
            assert main([command, "--config", str(cfg)]) == 3
            assert capsys.readouterr().err == (
                "config error: [reference] a fine-grid reference needs "
                "refine >= 1, got 0\n")
        # a spectral reference does not refine: refine = 0 is accepted
        cfg = write(tmp_path, "[problem]\nname = heat1d\n" + body, "s.ini")
        for command in ("converge", "accelerate", "correctors"):
            assert main([command, "--config", str(cfg)]) in (0, 1)
            assert "config error" not in capsys.readouterr().err

    @pytest.mark.parametrize("section, line, message", [
        ("problem", "nu = nan", "[problem] nu must be finite, not nan"),
        ("run", "order_tolerance = -0.1", "order_tolerance must be >= 0"),
        ("run", "order_tolerance = inf", "order_tolerance must be >= 0"),
        ("run", "expected_order = nan", "expected_order must be finite"),
        ("correctors", "expected_residual_order = inf",
         "expected_residual_order must be finite"),
    ], ids=["nan-parameter", "negative-tolerance", "infinite-tolerance",
            "nan-expected-order", "infinite-residual-order"])
    def test_non_finite_values_exit_three(self, tmp_path, capsys, section,
                                          line, message):
        sections = {"problem": ["name = heat1d"], "time": ["n = 8"],
                    "space": ["rungs = 2"], "run": [f"out = {tmp_path / 'out'}"]}
        sections.setdefault(section, []).append(line)
        cfg = write(tmp_path, "".join(f"[{name}]\n" + "".join(f"{entry}\n"
                                                             for entry in lines)
                                      for name, lines in sections.items()))
        for command in ("converge", "correctors"):
            assert main([command, "--config", str(cfg)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "out").exists()
        # a spec built in code is checked the same way
        key, value = (part.strip() for part in line.split("="))
        fields = ({"problem_params": ((key, float(value)),)}
                  if section == "problem" else {key: float(value)})
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_convergence_experiment(ExperimentSpec(problem="heat1d", **fields))

    def test_threads_override_validated(self, tmp_path, capsys):
        cfg = write(tmp_path, MINIMAL + f"\n[run]\nout = {tmp_path / 'out'}\n")
        assert main(["converge", "--config", str(cfg), "--threads", "0"]) == 3
        assert capsys.readouterr().err == "config error: threads must be >= 1\n"

    def test_missing_config_exit_three(self, tmp_path):
        assert main(["converge", "--config", str(tmp_path / "none.ini")]) == 3

    @pytest.mark.parametrize("argv", [
        ["converge", "--config", "c.ini", "--threads", "abc"],
        ["bogus"],
        [],
        ["converge"],
    ], ids=["bad-value", "unknown-command", "no-command", "missing-config"])
    def test_usage_error_exit_three(self, capsys, argv):
        # argparse's own exit code, 2, is the code of a solver failure
        assert main(argv) == 3
        assert "usage:" in capsys.readouterr().err

    def test_help_exit_zero(self, capsys):
        assert main(["converge", "--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_output_error_exit_three(self, tmp_path, capsys):
        cfg = write(tmp_path, MINIMAL + f"\n[time]\nn = 8\n[run]\n"
                    f"out = {tmp_path / 'out'}\n")
        (tmp_path / "out" / "report.csv").mkdir(parents=True)
        assert main(["converge", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and "report.csv" in err

    def test_unreadable_config_exit_three(self, tmp_path, capsys):
        assert main(["converge", "--config", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("config error: ")

    def test_seed_override(self, tmp_path):
        cfg = write(tmp_path, MINIMAL + f"\n[time]\nn = 8\n[run]\n"
                    f"out = {tmp_path / 'out'}\n")
        assert main(["solve", "--config", str(cfg), "--seeds", "5,6"]) == 0

    def test_correctors_subcommand(self, tmp_path):
        cfg = write(tmp_path, MINIMAL + "\n[time]\nn = 16\n[space]\nrungs = 2\n"
                    "[reference]\nrefine = 1\n[correctors]\nk = 2\n"
                    f"expected_residual_order = 4.0\n[run]\n"
                    f"order_tolerance = 0.6\nout = {tmp_path / 'out'}\n")
        assert main(["correctors", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "corrector_order2.csv").exists()

    @pytest.mark.parametrize("extra, row", [
        # tau a00 = 1: parabolic, yet I - tau L^h is singular at the mean
        # mode, on the lattice symbols as in the continuous reference
        pytest.param("a00 = 16\n", "FAILED,seed 1, mesh 0: step 1: spectral "
                     "implicit operator is singular; tau may not be small "
                     "enough", id="deterministic-lattice-singular"),
        pytest.param("a00 = 16\na11 = 0.05\nb11 = 0.1\n", "FAILED,seed 1, "
                     "mesh 0: step 1: spectral implicit operator is singular; "
                     "tau may not be small enough",
                     id="stochastic-lattice-singular"),
        # a00 - a11 (2 pi)^2 = 1 / tau: singular at the first mode of the
        # continuous operator alone; the rungs march on
        pytest.param("a00 = 17.97392088021787\na11 = 0.05\n", "FAILED,"
                     "reference, seed 1: step 1: spectral implicit operator "
                     "is singular; tau may not be small enough",
                     id="reference-singular"),
    ])
    def test_solver_failure_rows(self, tmp_path, capsys, extra, row):
        body = ("[problem]\nname = custom\n" + extra
                + "[time]\nn = 8\n[space]\npoints0 = 16\nrungs = 3\n"
                "[run]\nseeds = 1, 2\n")
        for threads in ("1", "4"):
            out = tmp_path / f"o{threads}"
            cfg = write(tmp_path, body + f"out = {out}\n", f"c{threads}.ini")
            assert main(["converge", "--config", str(cfg),
                         "--threads", threads]) == 2
            assert (out / "report.csv").read_text().splitlines()[-1] == row
            for points in (16, 32, 64):
                assert (out / f"rung_{points}.csv").read_text() == \
                    "seed,sup_error,l2h_error\nFAILED,,\n"
        assert "solver failure" in capsys.readouterr().err

    def test_threads_byte_identical_csv(self, tmp_path):
        body = ("[problem]\nname = degenerate1d\nbeta = 0.3\n"
                "[time]\nn = 16\n[space]\nrungs = 2\n[run]\nseeds = 1,2\n")
        cfg1 = write(tmp_path, body + f"out = {tmp_path / 'o1'}\n", "c1.ini")
        cfg2 = write(tmp_path, body + f"out = {tmp_path / 'o2'}\n", "c2.ini")
        assert main(["converge", "--config", str(cfg1), "--threads", "1"]) == 0
        assert main(["converge", "--config", str(cfg2), "--threads", "4"]) == 0
        for name in ("report.csv", "rung_16.csv", "rung_32.csv", "plot.gp"):
            assert (tmp_path / "o1" / name).read_bytes() == \
                (tmp_path / "o2" / name).read_bytes()
