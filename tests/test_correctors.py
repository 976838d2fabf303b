import hashlib
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from spdefd.correctors import (
    CorrectorSet,
    ResolutionError,
    _coefficients,
    _corrector_forcing,
    _Multipliers,
    _spectra,
    _top_mode_fractions,
    corrector_operator_L,
    corrector_operator_M,
    expansion_residual,
    export_corrector_set,
    minimum_resolution,
    run_corrector_system,
)
from spdefd.grids import basis_stencil, make_torus_grid
from spdefd.problems import (
    DifferenceScheme,
    DifferentialProblem,
    build_scheme_example1,
    build_scheme_example2,
    make_problem,
)
from spdefd.richardson import estimate_order
from spdefd.stepper import (
    FiniteDifferenceOperators,
    SolveFailure,
    SpectralOperators,
    _L_terms,
    increment_columns,
    load_trajectory_binary,
    run_reference_time_scheme,
    run_space_time_scheme,
)
from spdefd.wiener import BrownianIncrements, sample_increments


def scheme_1d(a11=0.0, a00=0.0, a10=0.0, p1=0.0, q1=0.0, b11=0.0, b01=0.0, d1=0):
    s = basis_stencil(1)
    a = {}
    if a11:
        a[((1,), (1,))] = a11
    if a00:
        a[((0,), (0,))] = a00
    if a10:
        a[((1,), (0,))] = a10
    b = {}
    if b11:
        b[((1,), 1)] = b11
    if b01:
        b[((0,), 1)] = b01
    p = {(1,): p1} if p1 else {}
    q = {(1,): q1} if q1 else {}
    return DifferenceScheme(stencil=basis_stencil(1), d1=d1, a=a, b=b, p=p, q=q)


def one_row(operator, *args, phi, i):
    """``operator`` (corrector_operator_L or _M, with its leading ``args``)
    on the one-row block of ``phi`` at time index ``i``, as a field."""
    block = _spectra(phi.grid, phi.values[None])
    return phi.grid.field(operator(*args, block, [i])[0])


def paper_constants(p: int, r: int) -> tuple[float, float]:
    """The constants (B_p, A_{p,r}) of the h-derivatives at 0 of the centred
    and the mixed differences in Gyongy & Krylov: B_p is 1 for even p and 0
    for odd p; A_{p,r} is p!/((r+1)!(p-r+1)!) when p and r are even, else
    0."""
    B = 1.0 if p % 2 == 0 else 0.0
    A = math.factorial(p) / (math.factorial(r + 1) * math.factorial(p - r + 1)) \
        if p % 2 == 0 and r % 2 == 0 else 0.0
    return B, A


def stencil_of(kind, key):
    """The stencil that the expansion of L^h gives one coefficient of
    ``kind`` ("a", "p" or "q") at ``key``."""
    arrays = {"a": {}, "p": {}, "q": {}}
    arrays[kind][key] = 1.0
    (_, stencil), = _L_terms(arrays)
    return stencil


def centred_stencil(lam):
    return stencil_of("a", (lam, (0,) * len(lam)))


def power(multipliers, lam, n):
    """(i lam . xi)^n on the multipliers' frequency mesh."""
    return (1j * sum(c * xi for c, xi in zip(lam, multipliers.freq))) ** n


def assert_multiplier(got, want):
    assert got is not None
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


class TestExpansionConstants:
    """The paper's constants B_p and A_{p,r} as the oracle of the multipliers
    that :class:`_Multipliers` reads off the expansion stencils of L^h."""

    GRIDS = {1: make_torus_grid(1, [1.0], [16]),
             2: make_torus_grid(2, [1.0, 0.75], [16, 12])}

    def test_B_odd_zero(self):
        m = _Multipliers(self.GRIDS[1])
        assert paper_constants(1, 0)[0] == 0.0
        assert paper_constants(3, 0)[0] == 0.0
        for p in (1, 3):
            assert m.derivative(centred_stencil((1,)), p) is None

    def test_B_even_one(self):
        m = _Multipliers(self.GRIDS[1])
        assert paper_constants(0, 0)[0] == 1.0
        assert paper_constants(2, 0)[0] == 1.0
        for p in (0, 2):
            assert_multiplier(m.derivative(centred_stencil((1,)), p),
                              power(m, (1,), p + 1) / (p + 1))

    def test_A_odd_zero(self):
        assert paper_constants(1, 0)[1] == 0.0
        assert paper_constants(2, 1)[1] == 0.0
        assert paper_constants(3, 2)[1] == 0.0
        m = _Multipliers(self.GRIDS[2])
        for p in (1, 3):
            assert m.derivative(stencil_of("a", ((1, 0), (0, 1))), p) is None
        # no (i xi_1)^2 (i xi_2)^2 term at p = 2
        x1, x2 = power(m, (1, 0), 1), power(m, (0, 1), 1)
        assert_multiplier(m.derivative(stencil_of("a", ((1, 0), (0, 1))), 2),
                          (x1 * x2 ** 3 + x1 ** 3 * x2) / 3)

    def test_A_second_order(self):
        # 2!/(1! 3!) and 2!/(3! 1!)
        assert paper_constants(2, 0)[1] == pytest.approx(1.0 / 3.0)
        assert paper_constants(2, 2)[1] == pytest.approx(1.0 / 3.0)
        m = _Multipliers(self.GRIDS[1])
        assert_multiplier(m.derivative(stencil_of("a", ((1,), (1,))), 2),
                          (2.0 / 3.0) * power(m, (1,), 4))

    def test_A_fourth_order(self):
        assert paper_constants(4, 0)[1] == pytest.approx(
            math.factorial(4) / (math.factorial(1) * math.factorial(5)))
        assert paper_constants(4, 2)[1] == pytest.approx(
            math.factorial(4) / (math.factorial(3) * math.factorial(3)))
        m = _Multipliers(self.GRIDS[2])
        x1, x2 = power(m, (1, 0), 1), power(m, (0, 1), 1)
        assert_multiplier(m.derivative(stencil_of("a", ((1, 0), (0, 1))), 4),
                          x1 * x2 ** 5 / 5 + x1 ** 3 * x2 ** 3 * 4 / 6
                          + x1 ** 5 * x2 / 5)

    def test_rejects_bad_orders(self):
        g = make_torus_grid(1, [1.0], [16])
        s = scheme_1d(a11=1.0, b11=1.0, d1=1)
        phi = g.sample(lambda x: np.cos(2 * np.pi * x[..., 0]))
        with pytest.raises(ValueError):
            one_row(corrector_operator_L, -1, s, phi=phi, i=0)
        with pytest.raises(ValueError):
            one_row(corrector_operator_M, -1, 1, s, phi=phi, i=0)
        with pytest.raises(ValueError):
            one_row(corrector_operator_M, 0, 2, s, phi=phi, i=0)

    @pytest.mark.parametrize("p", range(7))
    def test_centred_stencil(self, p):
        for d, lams in ((1, [(1,)]), (2, [(1, 0), (0, 1), (1, -1)])):
            m = _Multipliers(self.GRIDS[d])
            for lam in lams:
                got = m.derivative(centred_stencil(lam), p)
                B, _ = paper_constants(p, 0)
                if not B:
                    assert got is None
                else:
                    assert_multiplier(got, B / (p + 1) * power(m, lam, p + 1))

    @pytest.mark.parametrize("p", range(7))
    def test_mixed_stencil(self, p):
        for d, pairs in ((1, [((1,), (1,))]),
                         (2, [((1, 0), (0, 1)), ((0, 1), (1, 0)),
                              ((1, 0), (1, 0)), ((0, 1), (0, 1))])):
            m = _Multipliers(self.GRIDS[d])
            for lam, mu in pairs:
                got = m.derivative(stencil_of("a", (lam, mu)), p)
                if p % 2:
                    assert got is None
                    continue
                want = sum(paper_constants(p, j)[1] * power(m, lam, j + 1)
                           * power(m, mu, p - j + 1) for j in range(p + 1))
                assert_multiplier(got, want)

    @pytest.mark.parametrize("p", range(7))
    def test_one_sided_stencils(self, p):
        for d, lams in ((1, [(1,)]), (2, [(1, 0), (0, 1)])):
            m = _Multipliers(self.GRIDS[d])
            for lam in lams:
                for kind, sign in (("p", 1), ("q", (-1) ** (p + 1))):
                    assert_multiplier(
                        m.derivative(stencil_of(kind, lam), p),
                        sign * power(m, lam, p + 1) / (p + 1))


class TestCorrectorOperatorL:
    def test_p0_is_continuous_operator(self):
        g = make_torus_grid(1, [1.0], [64])
        a = 0.6
        s = scheme_1d(a11=a)
        phi = g.sample(lambda x: np.cos(2 * np.pi * x[..., 0]))
        out = one_row(corrector_operator_L, 0, s, phi=phi, i=0)
        expect = -a * (2 * np.pi) ** 2 * phi.values
        np.testing.assert_allclose(out.values, expect, atol=1e-10 * (2 * np.pi) ** 2)

    def test_p0_includes_zero_order_and_cross_terms(self):
        # full h -> 0 limit of L^h: a^{00} phi and (a^{lam,0}) d phi survive
        g = make_torus_grid(1, [1.0], [64])
        s = scheme_1d(a11=0.5, a00=0.3, a10=0.2)
        phi = g.sample(lambda x: np.sin(2 * np.pi * x[..., 0]))
        out = one_row(corrector_operator_L, 0, s, phi=phi, i=0)
        x = g.coordinates[..., 0]
        expect = (-0.5 * (2 * np.pi) ** 2 * np.sin(2 * np.pi * x)
                  + 0.3 * np.sin(2 * np.pi * x)
                  + 0.2 * (2 * np.pi) * np.cos(2 * np.pi * x))
        np.testing.assert_allclose(out.values, expect, atol=1e-9)

    def test_p1_vanishes_for_symmetric_scheme(self):
        g = make_torus_grid(1, [1.0], [64])
        s = scheme_1d(a11=1.0, a00=0.4)
        rng = np.random.default_rng(0)
        smooth = g.sample(lambda x: np.cos(2 * np.pi * x[..., 0])
                          + 0.5 * np.sin(4 * np.pi * x[..., 0]))
        out = one_row(corrector_operator_L, 1, s, phi=smooth, i=0)
        np.testing.assert_array_equal(out.values, 0.0)
        _ = rng

    def test_p2_fourth_derivative(self):
        g = make_torus_grid(1, [1.0], [64])
        a = 0.7
        s = scheme_1d(a11=a)
        phi = g.sample(lambda x: np.cos(2 * np.pi * x[..., 0]))
        out = one_row(corrector_operator_L, 2, s, phi=phi, i=0)
        expect = (2 * a / 3) * (2 * np.pi) ** 4 * phi.values
        np.testing.assert_allclose(out.values, expect, atol=1e-9 * (2 * np.pi) ** 4)

    def test_one_sided_terms_survive_odd_orders(self):
        g = make_torus_grid(1, [1.0], [64])
        c = 0.9
        s = scheme_1d(p1=c)
        phi = g.sample(lambda x: np.sin(2 * np.pi * x[..., 0]))
        out = one_row(corrector_operator_L, 1, s, phi=phi, i=0)
        # (1/2) c d^2 phi
        expect = -0.5 * c * (2 * np.pi) ** 2 * phi.values
        np.testing.assert_allclose(out.values, expect, atol=1e-9)

    def test_rejects_unresolved_field(self):
        g = make_torus_grid(1, [1.0], [16])
        s = scheme_1d(a11=1.0)
        nyquist = g.sample(lambda x: np.cos(2 * np.pi * 8 * x[..., 0]))
        with pytest.raises(ResolutionError):
            one_row(corrector_operator_L, 0, s, phi=nyquist, i=0)


class TestCorrectorOperatorM:
    def test_odd_order_zero(self):
        g = make_torus_grid(1, [1.0], [32])
        s = scheme_1d(b11=1.0, d1=1)
        phi = g.sample(lambda x: np.cos(2 * np.pi * x[..., 0]))
        out = one_row(corrector_operator_M, 1, 1, s, phi=phi, i=0)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_p0_zero_order_multiplication(self):
        g = make_torus_grid(1, [1.0], [32])
        s = scheme_1d(b01=1.3, d1=1)
        phi = g.sample(lambda x: np.sin(2 * np.pi * x[..., 0]))
        out = one_row(corrector_operator_M, 0, 1, s, phi=phi, i=0)
        np.testing.assert_allclose(out.values, 1.3 * phi.values, atol=1e-12)

    def test_rejects_unresolved_field_at_odd_order(self):
        # M_1 vanishes, yet it reads the block, so it checks it, as L_1 does
        g = make_torus_grid(1, [1.0], [16])
        s = scheme_1d(a11=1.0, b11=1.0, d1=1)
        nyquist = g.sample(lambda x: np.cos(2 * np.pi * 8 * x[..., 0]))
        with pytest.raises(ResolutionError):
            one_row(corrector_operator_L, 1, s, phi=nyquist, i=0)
        with pytest.raises(ResolutionError):
            one_row(corrector_operator_M, 1, 1, s, phi=nyquist, i=0)

    def test_p2_third_derivative(self):
        g = make_torus_grid(1, [1.0], [64])
        b = 0.8
        s = scheme_1d(b11=b, d1=1)
        phi = g.sample(lambda x: np.sin(2 * np.pi * x[..., 0]))
        out = one_row(corrector_operator_M, 2, 1, s, phi=phi, i=0)
        x = g.coordinates[..., 0]
        expect = -(b / 3) * (2 * np.pi) ** 3 * np.cos(2 * np.pi * x)
        np.testing.assert_allclose(out.values, expect, atol=1e-9 * (2 * np.pi) ** 3)


class TestDerivativeOfSymbol:
    """h-Taylor coefficients of the discrete symbol against the expansion
    operators, via series arithmetic on the sine expansion (independent of
    the FFT implementation)."""

    @staticmethod
    def _sinc_series(xi, terms):
        # series in h of sin(xi h)/h
        sinc = np.zeros(terms, dtype=complex)
        for m in range(0, terms, 2):
            sinc[m] = (-1) ** (m // 2) * xi ** (m + 1) / math.factorial(m + 1)
        return sinc

    @staticmethod
    def _discrete_symbol_series(a, c, e, xi, orders):
        # series in h (complex coefficients) of
        # a (i sin(xi h)/h)^2 + c (e^{i xi h}-1)/h - e (1 - e^{-i xi h})/h
        terms = orders + 3
        sinc = TestDerivativeOfSymbol._sinc_series(xi, terms)
        sq = np.convolve(sinc, sinc)[:terms]
        series = -a * sq
        for m in range(terms):
            series[m] += c * (1j * xi) ** (m + 1) / math.factorial(m + 1)
            series[m] += e * (-1j * xi) ** (m + 1) / math.factorial(m + 1)
        return series

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
    def test_symbol_derivative_matches_operator(self, p):
        a, c, e = 0.4, 0.25, 0.15
        k = 2
        g = make_torus_grid(1, [1.0], [64])
        xi = 2 * np.pi * k
        series = self._discrete_symbol_series(a, c, e, xi, orders=p)
        z = series[p] * math.factorial(p)  # p-th h-derivative at h = 0

        s = scheme_1d(a11=a, p1=c, q1=e)
        phi = g.sample(lambda x: np.cos(xi * x[..., 0]))
        out = one_row(corrector_operator_L, p, s, phi=phi, i=0)
        x = g.coordinates[..., 0]
        expect = np.real(z) * np.cos(xi * x) - np.imag(z) * np.sin(xi * x)
        np.testing.assert_allclose(out.values, expect,
                                   atol=1e-8 * max(abs(z), 1.0))

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
    def test_2d_symbol_derivative_matches_operator(self, p):
        # the lattice symbol on exp(i xi . x): a^{11} and a^{22} give
        # -(sin(xi_a h)/h)^2, each of a^{12} = a^{21} gives
        # -sin(xi_1 h) sin(xi_2 h)/h^2, and p along e2 (e^{i xi_2 h}-1)/h
        a11, a22, a12, c = 0.4, 0.3, 0.1, 0.25
        terms = p + 3
        g = make_torus_grid(2, [1.0, 1.0], [32, 32])
        xi1, xi2 = 2 * np.pi * 2, 2 * np.pi * 1
        s1, s2 = self._sinc_series(xi1, terms), self._sinc_series(xi2, terms)
        series = -(a11 * np.convolve(s1, s1) + a22 * np.convolve(s2, s2)
                   + 2 * a12 * np.convolve(s1, s2))[:terms]
        for m in range(terms):
            series[m] += c * (1j * xi2) ** (m + 1) / math.factorial(m + 1)
        z = series[p] * math.factorial(p)  # p-th h-derivative at h = 0

        e1, e2 = (1, 0), (0, 1)
        s = DifferenceScheme(stencil=basis_stencil(2), d1=0,
                             a={(e1, e1): a11, (e2, e2): a22,
                                (e1, e2): a12, (e2, e1): a12},
                             p={e2: c})
        theta = lambda x: xi1 * x[..., 0] + xi2 * x[..., 1]
        phi = g.sample(lambda x: np.cos(theta(x)))
        out = one_row(corrector_operator_L, p, s, phi=phi, i=0)
        x = g.coordinates
        expect = np.real(z) * np.cos(theta(x)) - np.imag(z) * np.sin(theta(x))
        np.testing.assert_allclose(out.values, expect,
                                   atol=1e-8 * max(abs(z), 1.0))


class TestCorrectorSystem:
    def test_k0_only_reference(self):
        p = make_problem("heat1d")
        g = make_torus_grid(1, [1.0], [64])
        cs = run_corrector_system(0, p, build_scheme_example1(p), g, 8)
        assert cs.k == 0
        assert len(cs.trajectories) == 1
        ref = run_reference_time_scheme(p, g, 8, mode="spectral-const-coef")
        for a, b in zip(cs[0].fields, ref.fields):
            np.testing.assert_array_equal(a.values, b.values)

    def test_odd_correctors_vanish_symmetric_scheme(self):
        p = make_problem("stoch-transport", beta=0.3, extra_diffusion=0.05)
        g = make_torus_grid(1, [1.0], [64])
        n = 16
        inc = sample_increments(n, 1, p.T / n, seed=3)
        with pytest.warns(RuntimeWarning):
            cs = run_corrector_system(3, p, build_scheme_example1(p), g, n, inc)
        scale = max(np.max(np.abs(f.values)) for f in cs[0].fields)
        for j in (1, 3):
            worst = max(np.max(np.abs(f.values)) for f in cs[j].fields)
            assert worst <= 1e-9 * scale

    def test_heat_k2_mode_recursion_oracle(self):
        # implicit Euler on the single mode with forcing (2a/3) xi^4 vhat0
        nu = 0.1
        p = make_problem("heat1d", nu=nu, T=0.5)
        n = 32
        tau = p.T / n
        g = make_torus_grid(1, [1.0], [64])
        cs = run_corrector_system(2, p, build_scheme_example1(p), g, n)
        xi = 2 * np.pi
        x = g.coordinates[..., 0]
        v0 = 1.0
        v2 = 0.0
        np.testing.assert_allclose(cs[2][0].values, 0.0, atol=0)
        for i in range(1, n + 1):
            v0 = v0 / (1.0 + tau * nu * xi ** 2)
            v2 = (v2 + tau * (2 * nu / 3) * xi ** 4 * v0) / (1.0 + tau * nu * xi ** 2)
            np.testing.assert_allclose(cs[2][i].values, v2 * np.cos(xi * x),
                                       atol=1e-8)

    def test_corrector_initial_data_zero(self):
        p = make_problem("heat1d")
        g = make_torus_grid(1, [1.0], [64])
        cs = run_corrector_system(2, p, build_scheme_example1(p), g, 8)
        for j in (1, 2):
            np.testing.assert_array_equal(cs[j][0].values, 0.0)

    def test_resolution_warning(self):
        p = make_problem("heat1d")
        g = make_torus_grid(1, [1.0], [16])
        assert minimum_resolution(1) == 40
        with pytest.warns(RuntimeWarning):
            run_corrector_system(1, p, build_scheme_example1(p), g, 4)


class TestExpansionResidual:
    def test_k0_is_plain_error(self):
        p = make_problem("heat1d")
        s = build_scheme_example1(p)
        n = 16
        coarse = make_torus_grid(1, [1.0], [16])
        ref_grid = make_torus_grid(1, [1.0], [64])
        vh = run_space_time_scheme(p, s, coarse, n)
        cs = run_corrector_system(0, p, s, ref_grid, n)
        report = expansion_residual(vh, cs)
        ref = run_reference_time_scheme(p, coarse, n, mode="spectral-const-coef")
        manual = max(np.max(np.abs(a.values - b.values))
                     for a, b in zip(vh.fields, ref.fields))
        assert report.max_sup == pytest.approx(manual, rel=1e-12)

    def test_self_subtraction_zero(self):
        p = make_problem("heat1d")
        s = build_scheme_example1(p)
        g = make_torus_grid(1, [1.0], [32])
        n = 8
        vh = run_space_time_scheme(p, s, g, n)
        cs = CorrectorSet(grid=g, tau=vh.tau, k=0, trajectories=[vh])
        report = expansion_residual(vh, cs, k=0)
        assert report.max_sup == 0.0

    def test_negative_order_rejected(self):
        # k = -1 subtracted no term and gave the norms of v^h itself
        p = make_problem("heat1d")
        g = make_torus_grid(1, [1.0], [32])
        vh = run_space_time_scheme(p, build_scheme_example1(p), g, 8)
        cs = CorrectorSet(grid=g, tau=vh.tau, k=0, trajectories=[vh])
        with pytest.raises(ValueError, match="k must be >= 0"):
            expansion_residual(vh, cs, k=-1)

    def test_residual_order_k2_heat(self):
        # with the h^2 corrector removed the next surviving term is h^4
        p = make_problem("heat1d")
        s = build_scheme_example1(p)
        n = 32
        ref_grid = make_torus_grid(1, [1.0], [128])
        cs = run_corrector_system(2, p, s, ref_grid, n)
        hs, sups = [], []
        for N in (16, 32, 64):
            g = make_torus_grid(1, [1.0], [N])
            vh = run_space_time_scheme(p, s, g, n)
            report = expansion_residual(vh, cs)
            hs.append(g.h)
            sups.append(report.max_sup)
        order = estimate_order(hs, sups)
        assert order.ls_order >= 3.6

    def test_incompatible_grids_rejected(self):
        p = make_problem("heat1d")
        s = build_scheme_example1(p)
        vh = run_space_time_scheme(p, s, make_torus_grid(1, [1.0], [24]), 8)
        cs = run_corrector_system(0, p, s, make_torus_grid(1, [1.0], [64]), 8)
        with pytest.raises(ValueError):
            expansion_residual(vh, cs)


class TestExport:
    def test_one_file_per_order(self, tmp_path):
        p = make_problem("heat1d")
        g = make_torus_grid(1, [1.0], [64])
        cs = run_corrector_system(2, p, build_scheme_example1(p), g, 4)
        paths = export_corrector_set(cs, tmp_path, "heat", fmt="csv")
        assert len(paths) == 3
        for path in paths:
            assert path.exists()
            assert path.read_text().startswith("i,t,index,x0,value")

    def test_binary_round_trip(self, tmp_path):
        p = make_problem("heat1d")
        g = make_torus_grid(1, [1.0], [64])
        cs = run_corrector_system(2, p, build_scheme_example1(p), g, 4)
        paths = export_corrector_set(cs, tmp_path, "heat", fmt="binary")
        assert [path.name for path in paths] == [
            f"heat_order{j}.bin" for j in range(3)]
        for traj, path in zip(cs.trajectories, paths):
            back = load_trajectory_binary(path)
            assert back.grid == traj.grid and back.tau == traj.tau
            assert back.values.tobytes() == traj.values.tobytes()

    def test_unknown_format(self, tmp_path):
        p = make_problem("heat1d")
        cs = run_corrector_system(0, p, build_scheme_example1(p),
                                  make_torus_grid(1, [1.0], [64]), 4)
        with pytest.raises(ValueError, match="unknown export format 'npz'"):
            export_corrector_set(cs, tmp_path, "heat", fmt="npz")


class TestResolutionCheck:
    def test_smooth_passes(self):
        g = make_torus_grid(1, [1.0], [32])
        _spectra(g, g.sample(lambda x: np.cos(2 * np.pi * x[..., 0])).values[None]) \
            .check_resolution()

    def test_zero_field_passes(self):
        g = make_torus_grid(1, [1.0], [32])
        _spectra(g, g.zeros().values[None]).check_resolution()

    @pytest.mark.parametrize("shape", [(1024,), (12, 20), (16, 16), (8, 8, 8)])
    def test_block_fractions_match_each_row_alone(self, shape):
        # the batched energy fractions keep the bits of a field's own
        # fraction: full sum over the power, sum over the top-mode mask
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((3,) + shape)
        stack[1] = 0.0
        hat = np.fft.fftn(stack, axes=tuple(range(1, len(shape) + 1)))
        got = _top_mode_fractions(hat)
        mask = np.zeros(shape, dtype=bool)
        for axis, n in enumerate(shape):
            k = np.abs(np.fft.fftfreq(n) * n)
            mask |= np.expand_dims(k >= n // 2 - 1, tuple(
                a for a in range(len(shape)) if a != axis))
        for r, values in enumerate(stack):
            power = np.abs(np.fft.fftn(values)) ** 2
            total = power.sum()
            want = power[mask].sum() / total if total else 0.0
            assert got[r] == want

    def test_nyquist_rejected(self):
        g = make_torus_grid(1, [1.0], [32])
        with pytest.raises(ResolutionError):
            _spectra(g, g.sample(lambda x: np.cos(2 * np.pi * 15 * x[..., 0]))
                     .values[None]).check_resolution()


def time_dependent_problem():
    """Constant in space, moving with the time index, with a drift term so
    that example2 has one-sided terms and the odd correctors live."""
    return DifferentialProblem(
        d=1, d1=1, T=0.5,
        a={(1, 1): lambda i, x: 0.08 + 0.04 * np.cos(0.3 * i) + 0.0 * x[..., 0],
           (0, 1): lambda i, x: 0.1 + 0.05 * np.sin(0.4 * i) + 0.0 * x[..., 0]},
        b={(1, 1): lambda i, x: 0.2 + 0.1 * np.sin(0.2 * i) + 0.0 * x[..., 0]},
        f=lambda i, x: 0.1 * np.sin(2 * np.pi * x[..., 0]) * np.cos(0.5 * i),
        g={1: lambda i, x: 0.05 * np.cos(2 * np.pi * x[..., 0])},
        u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
        time_independent=False, constant_coefficients=True)


def time_space_problem():
    """Varies in time and, through a11, in space: a time-dependent scheme
    that marches on the FD operators, with a drift term so that example2
    has one-sided terms and v^(1) lives."""
    return DifferentialProblem(
        d=1, d1=1, T=0.5,
        a={(1, 1): lambda i, x: (0.08 + 0.04 * np.cos(0.3 * i)
                                 + 0.02 * np.sin(2 * np.pi * x[..., 0])),
           (0, 1): lambda i, x: 0.1 + 0.05 * np.sin(0.4 * i) + 0.0 * x[..., 0]},
        b={(1, 1): lambda i, x: 0.2 + 0.1 * np.sin(0.2 * i) + 0.0 * x[..., 0]},
        u0=lambda x: np.cos(2 * np.pi * x[..., 0]), time_independent=False)


def two_driver_increments(p, n, seed):
    """Driver 2 never moves; driver 1 skips every third step."""
    xi = sample_increments(n, 2, p.T / n, seed).xi.copy()
    xi[:, 1] = 0.0
    xi[::3, 0] = 0.0
    return BrownianIncrements(n=n, d1=2, tau=p.T / n, seed=seed, xi=xi)


def pinned_config(name):
    """Arguments of run_corrector_system for one configuration whose stacked
    fields are pinned below."""
    g64 = make_torus_grid(1, [1.0], [64])
    if name == "fine-grid-varcoef-k2":
        p = make_problem("var-coef1d")
        return (2, p, build_scheme_example1(p), make_torus_grid(1, [1.0], [32]),
                16, None), dict(reference_mode="fine-grid", refine=1)
    if name == "time-dependent-k2":
        p = time_dependent_problem()
        return (2, p, build_scheme_example2(p), g64, 16,
                sample_increments(16, 1, p.T / 16, 7)), {}
    if name == "fine-grid-time-dependent-k2":
        # v^(0) and v^(1) march on one FD object, keyed at every step, and
        # 20 steps cross a block
        p = time_space_problem()
        return (2, p, build_scheme_example2(p), g64, 20,
                sample_increments(20, 1, p.T / 20, 7)), dict(
                    reference_mode="fine-grid", refine=1)
    if name == "two-drivers-k2":
        p = DifferentialProblem(d=1, d1=2, T=0.5, a={(1, 1): 0.1},
                                b={(1, 1): 0.2, (0, 2): 0.3}, g={2: 0.1},
                                u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
                                constant_coefficients=True)
        return (2, p, build_scheme_example1(p), g64, 12,
                two_driver_increments(p, 12, 5)), {}
    if name.startswith("stoch-transport"):
        k, n = {"stoch-transport-k4": (4, 16),
                "stoch-transport-k3-n40": (3, 40)}[name]
        p = make_problem("stoch-transport", beta=0.3, gamma=0.2,
                         extra_diffusion=0.05)
        return (k, p, build_scheme_example1(p), g64, n,
                sample_increments(n, 1, p.T / n, 3)), {}
    if name == "late-forcing-89-k3-n37":
        # 89 points go through Bluestein's algorithm; 37 steps end on a
        # partial block
        p = late_forcing_problem()
        return (3, p, build_scheme_example2(p), make_torus_grid(1, [1.0], [89]),
                37, sample_increments(37, 1, p.T / 37, 3)), {}
    if name == "2d-k2":
        p = DifferentialProblem(
            d=2, d1=1, T=0.25,
            a={(1, 1): 0.05, (2, 2): 0.05, (1, 2): 0.01, (2, 1): 0.01},
            b={(1, 1): 0.2, (2, 1): 0.1},
            u0=lambda x: (np.cos(2.0 * np.pi * x[..., 0])
                          * np.cos(2.0 * np.pi * (x[..., 0] + x[..., 1]))),
            constant_coefficients=True)
        return (2, p, build_scheme_example1(p),
                make_torus_grid(2, [1.0, 1.0], [16, 16]), 4,
                sample_increments(4, 1, p.T / 4, 2)), {}
    assert name == "heat1d-k3"
    p = make_problem("heat1d")
    return (3, p, build_scheme_example2(p), g64, 16, None), {}


# sha256 prefixes of each order's (n + 1, *grid) float64 stack, recorded
# with the per-step corrector recursion this module used to carry; those of
# a spectral reference again with the march in Fourier space, which
# test_spectral_oracle checks against that recursion; orders 2 and up again
# when the expansion operators were read off the expansion of L^h; order 2
# of heat1d-k3 and two-drivers-k2 again when the exact rung's symbols were
# read off it too (a change of 2.2e-29 and 1.2e-29 of the maximum)
PINNED_DIGESTS = {
    "fine-grid-varcoef-k2": ["6cb5749b5a3eedf7", "6fc74890c52aef57",
                             "5ae85e40d22afdcd"],
    "time-dependent-k2": ["92e491ee9e4b54b4", "2bb5b7bd1d3ab2ca",
                          "47afa1a358e5edcc"],
    "fine-grid-time-dependent-k2": ["809ed99c5fd1a0fc", "6cea8ecf8a7365fb",
                                    "70e9eb89f7389618"],
    "two-drivers-k2": ["4050120103093690", "16cc39e093d21650",
                       "817402503d4071ea"],
    "stoch-transport-k4": ["c3543b48777d125a", "e8b31e302d11fbf7",
                           "afd8a55758053b48", "e8b31e302d11fbf7",
                           "c503c653b44fd145"],
    "2d-k2": ["47499297167a47bf", "84ff92691f909a05", "a5d084d6179da98a"],
    "heat1d-k3": ["11a84673a8ae0691", "e8b31e302d11fbf7", "d3665ee20f116fbf",
                  "e8b31e302d11fbf7"],
    # several blocks of steps
    "stoch-transport-k3-n40": ["eedc4c975f05fd3e", "9e635f518975d1cf",
                               "49df93e6f92a1e31", "9e635f518975d1cf"],
    "late-forcing-89-k3-n37": ["d0f565738ffed7e5", "7099f6eaf50b9081",
                               "30cdb4045f0de54a", "cd00f056cf53e60b"],
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCorrectorSystemBits:
    """The block-batched corrector system keeps the bits of the per-step
    recursion on configurations the other tests do not reach: fine-grid
    reference, a time-dependent scheme (coefficients stacked per row), two
    drivers of which one never moves, k = 4 (two M-forcing terms, whose
    summation order matters), a 2-d grid, a deterministic problem, and
    horizons of several blocks of steps, the last one partial."""

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_stacks_match_pinned_digests(self, name):
        args, kwargs = pinned_config(name)
        cs = run_corrector_system(*args, **kwargs)
        digests = [hashlib.sha256(np.stack([f.values for f in t.fields])
                                  .tobytes()).hexdigest()[:16]
                   for t in cs.trajectories]
        assert digests == PINNED_DIGESTS[name]
        for traj in cs.trajectories:
            assert traj.values.tobytes() == np.stack(
                [f.values for f in traj.fields]).tobytes()

    @pytest.mark.parametrize("name", ["late-forcing-89-k3-n37",
                                      "fine-grid-varcoef-k2", "2d-k2",
                                      "fine-grid-time-dependent-k2"])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_block_size_keeps_pinned_digests(self, name, rows, monkeypatch):
        from spdefd import stepper
        monkeypatch.setattr(stepper, "BLOCK_ROWS", rows)
        args, kwargs = pinned_config(name)
        assert _digests(run_corrector_system(*args, **kwargs)) == \
            PINNED_DIGESTS[name]

    def test_each_lower_order_block_transformed_once(self, monkeypatch):
        # k = 3, n = 40: three blocks, each reading the blocks of v^(0),
        # v^(1) and v^(2) once and transforming and checking the nonzero
        # ones, v^(0) and v^(2), once
        import spdefd.correctors as correctors
        counts = {"_spectra": 0, "_top_mode_fractions": 0}
        for name in counts:
            def counted(*args, _original=getattr(correctors, name), _name=name):
                counts[_name] += 1
                return _original(*args)
            monkeypatch.setattr(correctors, name, counted)
        args, kwargs = pinned_config("stoch-transport-k3-n40")
        run_corrector_system(*args, **kwargs)
        assert counts == {"_spectra": 9, "_top_mode_fractions": 6}

    @pytest.mark.parametrize("scheme_of", [build_scheme_example1,
                                           build_scheme_example2])
    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_arrays_read_once_per_time_key(self, scheme_of, time_dependent,
                                           monkeypatch):
        # n = 64 in four blocks.  Time-dependent: keys 0..64, each read once,
        # the key a block shares with the one before included (one read per
        # key per block would allow 65 + 3; a read per operator call made
        # 320 and 512).  Time-independent: key 0, once per system.
        import spdefd.correctors as correctors
        reads, read = [], correctors._scheme_arrays

        def counted(scheme, grid, i):
            reads.append(i)
            return read(scheme, grid, i)

        monkeypatch.setattr(correctors, "_scheme_arrays", counted)
        p = time_dependent_problem() if time_dependent else make_problem(
            "stoch-transport", beta=0.3, extra_diffusion=0.05)
        run_corrector_system(3, p, scheme_of(p), make_torus_grid(1, [1.0], [128]),
                             64, sample_increments(64, 1, p.T / 64, 7))
        assert sorted(reads) == (list(range(65)) if time_dependent else [0])

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_rows_stacked_once_per_block(self, time_dependent, monkeypatch):
        # k = 3, n = 64 in four blocks, example2: each block's coefficient
        # arrays are stacked once for its steps and once for the indices
        # before them, 8 stacks where every operator call stacking its own
        # made 32 (the time-dependent drift lets every order live); none is
        # made where the scheme is time-independent
        import spdefd.correctors as correctors
        calls, coefficients = [], correctors._coefficients

        def counted(scheme, grid, steps, arrays=None):
            made = coefficients(scheme, grid, steps, arrays)
            calls.append((steps, made["a"][((1,), (1,))].shape))
            return made

        monkeypatch.setattr(correctors, "_coefficients", counted)
        p = time_dependent_problem() if time_dependent else make_problem(
            "stoch-transport", beta=0.3, extra_diffusion=0.05)
        run_corrector_system(3, p, build_scheme_example2(p),
                             make_torus_grid(1, [1.0], [128]), 64,
                             sample_increments(64, 1, p.T / 64, 7))
        # each block's steps, then the indices before them
        rows = [range(start, start + 16) for first in (1, 17, 33, 49)
                for start in (first, first - 1)]
        assert calls == [(r, (len(r), 128) if time_dependent else (128,))
                         for r in rows]

    @pytest.mark.parametrize("scheme_of", [build_scheme_example1,
                                           build_scheme_example2])
    def test_block_call_matches_single_fields(self, scheme_of):
        # every row of a block gets the bits of the one-field call
        p = time_dependent_problem()
        scheme = scheme_of(p)
        g = make_torus_grid(1, [1.0], [32])
        x = g.coordinates[..., 0]
        steps = range(3, 8)
        stack = np.stack([np.cos(2 * np.pi * x) * (1 + 0.1 * i)
                          + 0.3 * np.sin(4 * np.pi * x + i) for i in steps])
        block = _spectra(g, stack)
        for j in range(4):
            got = corrector_operator_L(j, scheme, block, steps,
                                       _coefficients(scheme, g, steps))
            for r, i in enumerate(steps):
                one = corrector_operator_L(j, scheme, _spectra(g, stack[r:r + 1]),
                                           [i])
                assert got[r].tobytes() == one[0].tobytes()
            got = corrector_operator_M(j, 1, scheme, block, steps,
                                       _coefficients(scheme, g, steps))
            for r, i in enumerate(steps):
                one = corrector_operator_M(j, 1, scheme,
                                           _spectra(g, stack[r:r + 1]), [i])
                assert got[r].tobytes() == one[0].tobytes()


def _corrector_patch(monkeypatch, wrap):
    """Replace ``SpectralOperators.solve_values`` by ``wrap(original, self,
    rhs, i, failures)`` for the corrector marches and leave the reference
    march alone.  The two share one operators object; the reference steps
    first, so its failure record is the first one seen."""
    original = SpectralOperators.solve_values
    seen = []

    def solve_values(self, rhs, i, failures):
        if not seen:
            seen.append(failures)
        if failures is not seen[0]:
            return wrap(original, self, rhs, i, failures)
        return original(self, rhs, i, failures)

    monkeypatch.setattr(SpectralOperators, "solve_values", solve_values)


def _poison_step(step):
    """A spectral solve whose right-hand side turns NaN at ``step``."""
    def wrap(original, self, rhs, i, failures):
        return original(self, rhs * np.nan if i == step else rhs, i, failures)
    return wrap


def _singular_at(monkeypatch, step):
    """Make the spectral implicit operator singular on every rung at
    ``step``, as ``_build`` gives a rung whose ``1 - tau symL`` vanishes: a
    zero inverse, and the rung among the singular ones.  ``_at`` is
    patched, since it is asked at every step and ``_build`` once per key."""
    original = SpectralOperators._at

    def at(self, i):
        inv, m, singular = original(self, i)
        if i == step:
            return np.zeros_like(inv), m, list(range(len(self.grids)))
        return inv, m, singular

    monkeypatch.setattr(SpectralOperators, "_at", at)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCorrectorFailures:
    """A solve that fails inside the corrector march reports the solver's
    own message and step, and an unresolved field stops the system."""

    @staticmethod
    def _stoch(k=2):
        p = make_problem("stoch-transport", beta=0.3, extra_diffusion=0.05)
        n = 8
        return (k, p, build_scheme_example1(p), make_torus_grid(1, [1.0], [64]),
                n, sample_increments(n, 1, p.T / n, 4))

    def test_spectral_column_failure(self, monkeypatch):
        _corrector_patch(monkeypatch, _poison_step(3))
        with pytest.raises(SolveFailure) as info:
            run_corrector_system(*self._stoch())
        assert str(info.value) == ("step 3: spectral solve produced non-finite "
                                   "values; tau may not be small enough")
        assert info.value.step == 3

    def test_spectral_system_builds_one_operator(self, monkeypatch):
        # the corrector marches solve with the reference marcher's operators
        built = []
        init = SpectralOperators.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(SpectralOperators, "__init__", counting)
        run_corrector_system(*self._stoch())
        assert len(built) == 1

    def test_spectral_singular_step(self, monkeypatch):
        _singular_at(monkeypatch, 3)
        with pytest.raises(SolveFailure) as info:
            run_corrector_system(*self._stoch())
        assert str(info.value) == ("step 3: spectral implicit operator is "
                                   "singular; tau may not be small enough")

    def test_lattice_column_failure_names_its_step(self, monkeypatch):
        p = make_problem("var-coef1d")
        g = make_torus_grid(1, [1.0], [32])
        original = FiniteDifferenceOperators.solve_values
        calls = []

        def solve_values(self, rhs, i, failures):
            if self.grids == [g]:    # the corrector march; the reference is finer
                calls.append(i)
                if len(calls) == 3:
                    rhs = rhs * np.nan
            return original(self, rhs, i, failures)

        monkeypatch.setattr(FiniteDifferenceOperators, "solve_values",
                            solve_values)
        # k = 2: example1's odd corrector vanishes and is never solved, so
        # the failing solves are those of v^(2)
        with pytest.raises(SolveFailure) as info:
            run_corrector_system(2, p, build_scheme_example1(p), g, 6,
                                 reference_mode="fine-grid", refine=1)
        assert str(info.value) == ("step 3: factorized solve produced "
                                   "non-finite values; tau may not be small "
                                   "enough")

    def test_lattice_factorization_failure(self, monkeypatch):
        p = make_problem("var-coef1d")
        g = make_torus_grid(1, [1.0], [32])
        splu = spla.splu

        def failing_splu(matrix, *args, **kwargs):
            if matrix.shape[0] == g.npoints:
                raise RuntimeError("Factor is exactly singular")
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", failing_splu)
        # k = 2, as above: v^(2) is the first corrector that solves
        with pytest.raises(SolveFailure) as info:
            run_corrector_system(2, p, build_scheme_example1(p), g, 6,
                                 reference_mode="fine-grid", refine=1)
        assert str(info.value) == ("step 1: factorization failed (Factor is "
                                   "exactly singular); tau may not be small "
                                   "enough")

    def test_study_writes_failure_row(self, monkeypatch, tmp_path):
        from spdefd.experiments import (ExperimentSpec, emit_outputs,
                                        run_corrector_experiment)
        _corrector_patch(monkeypatch, _poison_step(3))
        spec = ExperimentSpec(problem="stoch-transport",
                              problem_params={"beta": 0.3,
                                              "extra_diffusion": 0.05},
                              n=8, points0=16, rungs=2, refine=1,
                              correctors_k=2, seeds=(4,))
        result = run_corrector_experiment(spec)
        assert result.failed
        emit_outputs(result, tmp_path)
        assert (tmp_path / "report.csv").read_text().splitlines()[-1] == (
            "FAILED,step 3: spectral solve produced non-finite values; tau "
            "may not be small enough")

    def test_unresolved_field_raises(self):
        p = DifferentialProblem(d=1, d1=0, T=0.5, a={(1, 1): 0.1},
                                u0=lambda x: np.cos(2 * np.pi * 15 * x[..., 0]),
                                constant_coefficients=True)
        g = make_torus_grid(1, [1.0], [32])
        run_corrector_system(0, p, build_scheme_example1(p), g, 4)
        with pytest.raises(ResolutionError, match="highest retained modes"):
            run_corrector_system(1, p, build_scheme_example1(p), g, 4)


def late_forcing_problem():
    """Zero initial data and a free term that switches on at step 4, with a
    drift term so that example2 has one-sided terms: v^(0) and the forcing
    of v^(1) are zero for the first steps only."""
    return DifferentialProblem(
        d=1, d1=1, T=0.5, a={(1, 1): 0.1, (0, 1): 0.2}, b={(1, 1): 0.2},
        f=lambda i, x: (i >= 4) * np.sin(2 * np.pi * x[..., 0]),
        constant_coefficients=True)


def _count_calls(calls):
    """A wrap for :func:`_corrector_patch` that records the step of
    every call and passes it on."""
    def wrap(original, self, rhs, i, failures):
        calls.append(i)
        return original(self, rhs, i, failures)
    return wrap


def _digests(cs):
    return [hashlib.sha256(t.values.tobytes()).hexdigest()[:16]
            for t in cs.trajectories]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestZeroForcingSkip:
    """An odd corrector of a symmetric scheme is not marched and is +0.0;
    every other corrector solves every step, zero forcing or not."""

    def test_vanishing_correctors_do_no_solves(self, monkeypatch):
        p = make_problem("stoch-transport", beta=0.3, extra_diffusion=0.05)
        n, g = 16, make_torus_grid(1, [1.0], [64])
        calls = []
        _corrector_patch(monkeypatch, _count_calls(calls))
        cs = run_corrector_system(3, p, build_scheme_example1(p), g, n,
                                  sample_increments(n, 1, p.T / n, 3))
        assert calls == list(range(1, n + 1))      # v^(2) alone
        for j in (1, 3):
            assert cs[j].values.tobytes() == np.zeros((n + 1, 64)).tobytes()

    def test_late_starting_forcing(self, monkeypatch):
        p = late_forcing_problem()
        n = 10
        calls = []
        _corrector_patch(monkeypatch, _count_calls(calls))
        args = (3, p, build_scheme_example2(p), make_torus_grid(1, [1.0], [64]),
                n, sample_increments(n, 1, p.T / n, 3))
        cs = run_corrector_system(*args)
        assert _digests(cs) == ["f6467534f2e9d6d0", "09507bf4b808712f",
                                "b522f125c50438f4", "b4d1734da100388f"]
        assert not cs[0].values[:4].any() and cs[0].values[4].any()
        assert not cs[1].values[:4].any() and cs[1].values[4].any()
        # example2 is not symmetric: every corrector solves every step,
        # its zero-forcing steps too
        assert calls == 3 * list(range(1, n + 1))

    def test_nonvanishing_odd_correctors_still_march(self, monkeypatch):
        args, kwargs = pinned_config("time-dependent-k2")
        n = args[4]
        calls = []
        _corrector_patch(monkeypatch, _count_calls(calls))
        run_corrector_system(*args, **kwargs)
        assert calls == 2 * list(range(1, n + 1))

    def test_signed_zero_solve_is_not_skipped(self):
        # pocketfft transforms 89 points by Bluestein's algorithm; on the
        # first of two axes, the inverse transform of a zero solve holds
        # -0.0 entries.  The odd correctors are not solved, so they are
        # +0.0 all the same, and the even ones keep their bits.
        p = DifferentialProblem(
            d=2, d1=1, T=0.25,
            a={(1, 1): 0.05, (2, 2): 0.05, (1, 2): 0.01, (2, 1): 0.01},
            b={(1, 1): 0.2, (2, 1): 0.1},
            u0=lambda x: (np.cos(2 * np.pi * x[..., 0])
                          * np.cos(2 * np.pi * x[..., 1] * 89 / 16)),
            constant_coefficients=True)
        g = make_torus_grid(2, [1.0, 16 / 89], [89, 16])
        cs = run_corrector_system(3, p, build_scheme_example1(p), g, 8,
                                  sample_increments(8, 1, p.T / 8, 4))
        for j in (1, 3):
            assert cs[j].values.tobytes() == np.zeros((9, 89, 16)).tobytes()
        assert _digests(cs) == ["1540baa9d3fe9164", "ab96e4f5d68289f1",
                                "95bc2e6e670756a2", "ab96e4f5d68289f1"]


def _forcing(p, args, kwargs):
    """The ``(f, g)`` of corrector p at every step 1..n, read from the lower
    orders of the system that ``args`` and ``kwargs`` solve."""
    _, problem, scheme, grid, n, increments = args
    cs = run_corrector_system(*args, **kwargs)
    multipliers = _Multipliers(grid)
    spectra = [_spectra(grid, cs[j].values, multipliers) for j in range(p)]
    coefficients = [_coefficients(scheme, grid, range(1, n + 1)),
                    _coefficients(scheme, grid, range(n))]
    return _corrector_forcing(p, scheme, coefficients, spectra, range(1, n + 1),
                              increment_columns(problem, n, [increments])[..., 0])


def time_dependent_symmetric_config():
    p = time_dependent_problem()
    return (2, p, build_scheme_example1(p), make_torus_grid(1, [1.0], [64]),
            16, sample_increments(16, 1, p.T / 16, 7)), {}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOddForcingVanishes:
    """Why an odd corrector of a symmetric scheme need not be marched: its
    forcing is exactly zero, since B_p = A_{p,r} = 0 for odd p and every
    other term reads an odd corrector of lower order."""

    @pytest.mark.parametrize("name", ["stoch-transport-k4", "2d-k2",
                                      "two-drivers-k2", "time-dependent",
                                      "fine-grid-varcoef-k2"])
    def test_odd_forcing_is_zero(self, name):
        args, kwargs = time_dependent_symmetric_config() \
            if name == "time-dependent" else pinned_config(name)
        assert args[2].is_symmetric
        for p in range(1, args[0] + 1, 2):
            f, g = _forcing(p, args, kwargs)
            assert not f.any(), f"order {p}"
            assert not any(part.any() for parts in g for part in parts), \
                f"order {p}"

    def test_one_sided_scheme_forces_order_one(self):
        p = make_problem("drift1d")
        scheme = build_scheme_example2(p)
        assert not scheme.is_symmetric
        f, _ = _forcing(1, (1, p, scheme, make_torus_grid(1, [1.0], [64]), 8,
                            None), {})
        assert f.any()


def _count_transforms(monkeypatch):
    """Record ``(inverse, has a nonzero entry)`` of the input of every
    ``np.fft.fftn`` (False) and ``np.fft.ifftn`` (True) call."""
    calls = []
    for inverse, name in ((False, "fftn"), (True, "ifftn")):
        def counted(values, *args, _original=getattr(np.fft, name),
                    _inverse=inverse, **kwargs):
            calls.append((_inverse, bool(values.any())))
            return _original(values, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _record_reads(monkeypatch):
    """Record ``(operator, order, steps, block has a nonzero entry)`` of
    every expansion-operator call the corrector system makes."""
    import spdefd.correctors as correctors
    reads = []
    for name in ("corrector_operator_L", "corrector_operator_M"):
        def recording(j, *args, _original=getattr(correctors, name),
                      _name=name[-1]):
            # L: (scheme, der, steps, arrays), M: (rho, scheme, der, ...)
            der, steps = args[-3:-1]
            reads.append((_name, j, steps, bool(der.values.any())))
            return _original(j, *args)
        monkeypatch.setattr(correctors, name, recording)
    return reads


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestZeroBlocks:
    """A lower-order block with no nonzero entry (every odd corrector of a
    centred scheme) gets no transform and no operator reads it; every other
    block is transformed, checked and read as before, with the same bits."""

    def test_vanishing_corrector_blocks_make_no_transform(self, monkeypatch):
        # k = 3, n = 40: three blocks.  Before, each block made 9
        # transforms, 4 of them of zeros: v^(1)'s forward one and the
        # inverse ones of L_2 v^(1) and M_2 v^(1).  Each block now makes 4:
        # the forward ones of v^(0) and v^(2), and one inverse one each for
        # L_2 v^(0) and M_2 v^(0), since the mixed a^{11} term takes one
        # per order (it took two, one per constant A_{2,r}).
        calls = _count_transforms(monkeypatch)
        reads = _record_reads(monkeypatch)
        args, kwargs = pinned_config("stoch-transport-k3-n40")
        cs = run_corrector_system(*args, **kwargs)
        assert not cs[1].values.any() and not cs[3].values.any()
        assert all(nonzero for _, nonzero in calls)
        assert (len(calls), calls.count((False, True))) == (12, 6)
        # per block: L_1 v^(0); L_2 v^(0), M_2 v^(0); L_1 v^(2), L_3 v^(0)
        assert all(nonzero for *_, nonzero in reads)
        assert [(op, j) for op, j, *_ in reads] == 3 * [
            ("L", 1), ("L", 2), ("M", 2), ("L", 1), ("L", 3)]
        assert _digests(cs) == PINNED_DIGESTS["stoch-transport-k3-n40"]

    def test_live_odd_corrector_is_transformed(self, monkeypatch):
        # drift1d under example2 has one-sided terms: v^(1) lives, and its
        # one block is transformed and read like v^(0)'s.  The mixed a^{11}
        # term of L_2 v^(0) takes one inverse transform (it took two).
        p = make_problem("drift1d")
        calls = _count_transforms(monkeypatch)
        reads = _record_reads(monkeypatch)
        cs = run_corrector_system(2, p, build_scheme_example2(p),
                                  make_torus_grid(1, [1.0], [128]), 8)
        ratio = np.max(np.abs(cs[1].values)) / np.max(np.abs(cs[0].values))
        assert 0.76 < ratio < 0.78
        assert all(nonzero for _, nonzero in calls)
        assert (len(calls), calls.count((False, True))) == (9, 2)
        assert [(op, j) for op, j, *_ in reads] == [("L", 1), ("L", 1), ("L", 2)]
        # recorded before zero blocks were skipped; v^(2) again when the
        # operators were read off the expansion of L^h
        assert _digests(cs) == ["ac5673d83521361c", "eb5e1b45e7ff9b17",
                                "1d0cb1db95e15022"]

    def test_unresolved_second_corrector_raises_at_its_block(self, monkeypatch):
        # k = 3, centred: v^(0) carries 1e-12 of its energy at mode 31 of
        # 64, v^(2) a share the check rejects.  L_1, which vanishes here,
        # still checks v^(2) in the first block; v^(1) is read by nothing
        p = DifferentialProblem(
            d=1, d1=0, T=0.5, a={(1, 1): 0.002},
            u0=lambda x: (np.cos(2 * np.pi * x[..., 0])
                          + 1e-6 * np.cos(2 * np.pi * 31 * x[..., 0])),
            constant_coefficients=True)
        reads = _record_reads(monkeypatch)
        with pytest.raises(ResolutionError) as info:
            run_corrector_system(3, p, build_scheme_example1(p),
                                 make_torus_grid(1, [1.0], [64]), 40)
        assert str(info.value) == (
            "highest retained modes carry 5.61e-02 of the field energy "
            "(limit 1e-10); refine the reference grid")
        first = range(1, 17)
        assert reads == [("L", 1, first, True), ("L", 2, first, True),
                         ("L", 1, first, True)]


class TestSharedMultipliers:
    """Derivatives through one shared :class:`_Multipliers`, built on the
    first call and read from then on, keep the bits of a fresh one."""

    @pytest.mark.parametrize("shape", [(32,), (16, 12)])
    def test_directional_and_mixed(self, shape):
        # the centred and one-sided stencils along each vector, and the
        # mixed stencil of each pair, at orders 0..4: one build per
        # (stencil, p), on the first round
        g = make_torus_grid(len(shape), [n / 16 for n in shape], list(shape))
        stack = np.random.default_rng(3).standard_normal((3,) + shape)
        vecs = [(1,), (-1,)] if len(shape) == 1 else [(1, 0), (0, 1), (1, 1),
                                                      (1, -1)]
        stencils = [centred_stencil(lam) for lam in vecs] + [
            stencil_of(kind, lam) for kind in "pq" for lam in vecs] + [
            stencil_of("a", (lam, mu)) for lam in vecs for mu in vecs]
        shared = _Multipliers(g)
        for round in range(2):
            block = _spectra(g, stack, shared)
            for stencil in stencils:
                for order in range(5):
                    terms = [(1.0, stencil)]
                    assert block.derivative(order, terms).tobytes() == \
                        _spectra(g, stack).derivative(order, terms).tobytes()
            if round == 0:
                made = dict(shared._made)
        assert len(made) == len(set(stencils)) * 5
        assert all(shared._made[key] is m for key, m in made.items())
        assert len(shared._made) == len(made)

    @pytest.mark.parametrize("name", ["time-dependent-k2", "2d-k2"])
    def test_operators(self, name):
        # a time-dependent scheme (coefficients per row), and a 16 x 12
        # grid with cross terms
        (_, p, scheme, *_), _ = pinned_config(name)
        if name == "2d-k2":
            g = make_torus_grid(2, [1.0, 12 / 16], [16, 12])
        else:
            g = make_torus_grid(1, [1.0], [32])
        x = g.coordinates
        steps = range(3, 8)
        stack = np.stack([np.cos(2 * np.pi * x[..., 0]) * (1 + 0.1 * i)
                          + 0.3 * np.sin(2 * np.pi * x[..., -1] / g.periods[-1] + i)
                          for i in steps])
        coefficients = _coefficients(scheme, g, steps)
        shared = _Multipliers(g)
        for _ in range(2):
            for j in range(4):
                for operator, lead in ((corrector_operator_L, ()),
                                       (corrector_operator_M, (1,))):
                    got = operator(j, *lead, scheme, _spectra(g, stack, shared),
                                   steps, coefficients)
                    want = operator(j, *lead, scheme, _spectra(g, stack), steps,
                                    _coefficients(scheme, g, steps))
                    assert got.tobytes() == want.tobytes()


class TestResidualTimeGrid:
    def test_rejects_other_horizon(self):
        # same number of steps, different T: a different time grid
        s = build_scheme_example1(make_problem("heat1d"))
        vh = run_space_time_scheme(make_problem("heat1d", T=0.5), s,
                                   make_torus_grid(1, [1.0], [16]), 8)
        cs = run_corrector_system(0, make_problem("heat1d", T=0.25), s,
                                  make_torus_grid(1, [1.0], [64]), 8)
        with pytest.raises(ValueError, match="step size"):
            expansion_residual(vh, cs)

    def test_rejects_other_torus(self):
        # 32 points on a period-3 torus refine the shape of 8 on a period-1
        # one by 4, but h * 4 = 3/8 is not the trajectory's 1/8
        p = make_problem("heat1d")
        s = build_scheme_example1(p)
        vh = run_space_time_scheme(p, s, make_torus_grid(1, [1.0], [8]), 4)
        cs = run_corrector_system(0, p, s, make_torus_grid(1, [3.0], [32]), 4)
        with pytest.raises(ValueError, match="by one factor on its torus"):
            expansion_residual(vh, cs)


def _heat_set(k=1, n=4):
    p = make_problem("heat1d")
    return run_corrector_system(k, p, build_scheme_example1(p),
                                make_torus_grid(1, [1.0], [64]), n)


def _residual(k, n):
    p = make_problem("heat1d")
    vh = run_space_time_scheme(p, build_scheme_example1(p),
                               make_torus_grid(1, [1.0], [8]), n)
    return expansion_residual(vh, _heat_set(), k)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _heat_set(k=-1), "expansion order k must be >= 0",
                 id="k"),
    pytest.param(lambda: _heat_set(n=0), "need at least one time step",
                 id="n"),
    pytest.param(lambda: _residual(2, 4),
                 "corrector set only carries orders up to 1", id="residual-k"),
    pytest.param(lambda: _residual(1, 8),
                 "trajectory and correctors use different time grids",
                 id="residual-steps"),
])
def test_corrector_checks_reject(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
