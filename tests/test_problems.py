import numpy as np
import pytest

from spdefd.grids import basis_stencil
from spdefd.problems import (
    DifferenceScheme,
    DifferentialProblem,
    ProblemError,
    build_scheme_example1,
    build_scheme_example2,
    check_consistency,
    check_degenerate_parabolicity,
    make_problem,
)

SAMPLE_1D = [(0, [0.0]), (1, [0.25]), (3, [0.7])]


def problem_1d(a11=2.0, a01=0.0, a10=0.0, a00=0.0, b11=1.0, b01=0.0):
    a = {(1, 1): a11}
    if a01:
        a[(0, 1)] = a01
    if a10:
        a[(1, 0)] = a10
    if a00:
        a[(0, 0)] = a00
    b = {}
    if b11:
        b[(1, 1)] = b11
    if b01:
        b[(0, 1)] = b01
    return DifferentialProblem(d=1, d1=1 if b else 0, T=1.0, a=a, b=b)


class TestExample1:
    def test_coefficient_carryover(self):
        s = build_scheme_example1(problem_1d(a11=2.0, b11=1.0))
        x = np.array([0.3])
        assert s.a_at((1,), (1,), 0, x) == pytest.approx(2.0)
        assert s.b_at((1,), 1, 0, x) == pytest.approx(1.0)
        assert s.p_at((1,), 0, x) == 0.0
        assert s.q_at((1,), 0, x) == 0.0
        assert s.is_symmetric

    def test_zero_problem(self):
        p = DifferentialProblem(d=1, d1=0, T=1.0)
        s = build_scheme_example1(p)
        x = np.array([0.1])
        assert s.a_at((1,), (1,), 0, x) == 0.0
        assert s.a_at((0,), (0,), 0, x) == 0.0

    def test_consistency_residual_zero(self):
        s = build_scheme_example1(problem_1d(a11=2.0, a01=0.3, a10=0.1, b11=1.0))
        report = check_consistency(s, problem_1d(a11=2.0, a01=0.3, a10=0.1, b11=1.0),
                                   SAMPLE_1D)
        assert report.max_residual == 0.0
        assert report.passed


class TestExample2:
    def test_positive_cross_split(self):
        p = problem_1d(a01=0.4, a10=0.2)  # sum 0.6
        s = build_scheme_example2(p)
        x = np.array([0.5])
        assert s.p_at((1,), 0, x) == pytest.approx(0.6)
        assert s.q_at((1,), 0, x) == 0.0
        # oracle: p - q must reproduce the cross sum
        assert s.p_at((1,), 0, x) - s.q_at((1,), 0, x) == pytest.approx(0.6)

    def test_negative_cross_split(self):
        p = problem_1d(a01=-0.4)
        s = build_scheme_example2(p)
        x = np.array([0.5])
        assert s.p_at((1,), 0, x) == 0.0
        assert s.q_at((1,), 0, x) == pytest.approx(0.4)
        assert s.p_at((1,), 0, x) - s.q_at((1,), 0, x) == pytest.approx(-0.4)

    def test_no_cross_matches_example1(self):
        p = problem_1d()
        s1 = build_scheme_example1(p)
        s2 = build_scheme_example2(p)
        x = np.array([0.25])
        assert s2.a_at((1,), (1,), 0, x) == s1.a_at((1,), (1,), 0, x)
        assert not s2.p and not s2.q

    def test_consistency_with_cross_terms(self):
        p = problem_1d(a01=0.35, a10=0.25, a00=0.7, b01=0.2)
        s = build_scheme_example2(p)
        report = check_consistency(s, p, SAMPLE_1D)
        assert report.max_residual <= 1e-12
        assert report.passed

    def test_nonnegative_split_variable_coefficient(self):
        cross = lambda i, x: np.sin(7.0 * x[..., 0])
        p = DifferentialProblem(d=1, d1=0, T=1.0, a={(1, 1): 1.0, (0, 1): cross})
        s = build_scheme_example2(p)
        xs = np.linspace(0.0, 1.0, 33)[:, None]
        assert np.all(s.p_at((1,), 0, xs) >= 0.0)
        assert np.all(s.q_at((1,), 0, xs) >= 0.0)
        report = check_consistency(s, p, [(0, [x]) for x in xs[::4, 0]])
        assert report.passed


class TestCheckConsistency:
    def test_detects_perturbation(self):
        p = problem_1d(a11=2.0)
        s = build_scheme_example1(p)
        s.a[((1,), (1,))] = lambda i, x: np.full(np.shape(x)[:-1], 2.01)
        report = check_consistency(s, p, SAMPLE_1D, tol=1e-10)
        assert not report.passed
        assert report.per_identity["a_second_moment"] == pytest.approx(0.01)
        assert any(v[0] == "a_second_moment" for v in report.violations)

    def test_rejects_empty_sample(self):
        p = problem_1d()
        with pytest.raises(ProblemError):
            check_consistency(build_scheme_example1(p), p, [])

    def test_2d_example1(self):
        p = DifferentialProblem(
            d=2, d1=1, T=1.0,
            a={(1, 1): 1.0, (2, 2): 0.5, (1, 2): 0.1, (2, 1): 0.1},
            b={(1, 1): 0.3, (2, 1): 0.2})
        s = build_scheme_example1(p)
        report = check_consistency(s, p, [(0, [0.1, 0.2]), (2, [0.5, 0.5])])
        assert report.max_residual == 0.0


class TestParabolicity:
    def test_fully_degenerate(self):
        beta = 1.4
        p = problem_1d(a11=0.5 * beta * beta, b11=beta)
        report = check_degenerate_parabolicity(p, SAMPLE_1D)
        assert abs(report.min_eigenvalue) <= 1e-12
        assert report.passed

    def test_strictly_parabolic(self):
        p = problem_1d(a11=1.0, b11=0.0)
        report = check_degenerate_parabolicity(p, SAMPLE_1D)
        assert report.min_eigenvalue == pytest.approx(2.0)

    def test_violation(self):
        p = problem_1d(a11=0.0, b11=1.0)
        report = check_degenerate_parabolicity(p, SAMPLE_1D)
        assert report.min_eigenvalue == pytest.approx(-1.0)
        assert not report.passed
        assert report.failures

    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    def test_shifted_degenerate(self, eps):
        beta = 0.7
        p = problem_1d(a11=0.5 * beta * beta + eps, b11=beta)
        report = check_degenerate_parabolicity(p, SAMPLE_1D)
        assert report.min_eigenvalue == pytest.approx(2.0 * eps, abs=1e-10)


class TestLibrary:
    @pytest.mark.parametrize("name", ["heat1d", "degenerate1d", "stoch-transport",
                                      "var-coef1d", "drift1d"])
    def test_named_problems_valid(self, name):
        p = make_problem(name)
        sample = [(0, [x]) for x in np.linspace(0.0, 1.0, 9)]
        report = check_degenerate_parabolicity(p, sample)
        assert report.passed, name

    def test_unknown_name(self):
        with pytest.raises(ProblemError):
            make_problem("nope")

    def test_unknown_param(self):
        with pytest.raises(ProblemError):
            make_problem("heat1d", wrong=1.0)

    def test_heat1d_defaults(self):
        p = make_problem("heat1d")
        x = np.array([[0.0], [0.25]])
        assert p.a_at(1, 1, 0, x)[0] == pytest.approx(0.1)
        np.testing.assert_allclose(p.u0(x), [1.0, np.cos(np.pi / 2)], atol=1e-15)

    def test_stoch_transport_plus_diffusion(self):
        p = make_problem("stoch-transport", beta=0.3, extra_diffusion=0.05)
        x = np.array([0.0])
        assert p.a_at(1, 1, 0, x) == pytest.approx(0.5 * 0.09 + 0.05)
        report = check_degenerate_parabolicity(p, SAMPLE_1D)
        assert report.min_eigenvalue == pytest.approx(0.1)


class TestProblemValidation:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ProblemError):
            DifferentialProblem(d=1, d1=0, T=0.0)

    @pytest.mark.parametrize("T", [np.inf, np.nan])
    def test_rejects_non_finite_horizon(self, T):
        with pytest.raises(ProblemError,
                           match="horizon T must be positive and finite"):
            DifferentialProblem(d=1, d1=0, T=T)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ProblemError):
            DifferentialProblem(d=1, d1=0, T=1.0, a={(2, 1): 1.0})
        with pytest.raises(ProblemError):
            DifferentialProblem(d=1, d1=0, T=1.0, b={(1, 1): 1.0})


def _scheme(**coefficients):
    return lambda: DifferenceScheme(stencil=basis_stencil(1), d1=1,
                                    **coefficients)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: DifferentialProblem(d=0, d1=0, T=1.0),
                 "spatial dimension must be >= 1", id="problem-d"),
    pytest.param(lambda: DifferentialProblem(d=1, d1=-1, T=1.0),
                 "number of drivers must be >= 0", id="problem-d1"),
    pytest.param(lambda: DifferentialProblem(d=1, d1=1, T=1.0, g={2: 0.1}),
                 "g index 2 out of range", id="problem-g"),
    pytest.param(_scheme(a={((2,), (0,)): 1.0}),
                 "a key ((2,), (0,)) not in stencil", id="scheme-a"),
    pytest.param(_scheme(b={((2,), 1): 1.0}), "b key (2,) not in stencil",
                 id="scheme-b"),
    pytest.param(_scheme(b={((1,), 2): 1.0}), "driver index 2 out of range",
                 id="scheme-driver"),
    pytest.param(_scheme(p={(0,): 1.0}),
                 "p key (0,) must be a nonzero stencil vector", id="scheme-p"),
    pytest.param(lambda: check_degenerate_parabolicity(make_problem("heat1d"),
                                                       []),
                 "parabolicity check needs a nonempty sample",
                 id="parabolicity-sample"),
])
def test_problem_checks_reject(call, message):
    with pytest.raises(ProblemError) as info:
        call()
    assert str(info.value) == message
