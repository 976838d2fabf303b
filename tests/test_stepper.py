import hashlib
import struct

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from spdefd.grids import GridError, make_torus_grid, subsample
from spdefd.problems import (
    DifferentialProblem,
    DifferenceScheme,
    build_scheme_example1,
    build_scheme_example2,
    make_problem,
)
from spdefd.stepper import (
    DIRECT_SOLVE_MAX_UNKNOWNS,
    FiniteDifferenceOperators,
    ImplicitOperator,
    Marcher,
    SolveFailure,
    SpectralModeError,
    SpectralOperators,
    Trajectory,
    _solver_mode,
    apply_L,
    export_trajectory_binary,
    export_trajectory_csv,
    increment_columns,
    lattice_operators,
    load_trajectory_binary,
    reference_marcher,
    run_reference_time_scheme,
    run_space_time_scheme,
)
from spdefd.wiener import BrownianIncrements, sample_increments
from spdefd.grids import basis_stencil


def scheme_1d(a11=0.0, p1=0.0, q1=0.0, b01=0.0, b11=0.0, d1=0):
    s = basis_stencil(1)
    a = {((1,), (1,)): a11} if a11 else {}
    p = {(1,): p1} if p1 else {}
    q = {(1,): q1} if q1 else {}
    b = {}
    if b01:
        b[((0,), 1)] = b01
    if b11:
        b[((1,), 1)] = b11
    return DifferenceScheme(stencil=s, d1=d1, a=a, b=b, p=p, q=q)


def manual_increments(xi, tau):
    xi = np.asarray(xi, dtype=float)
    return BrownianIncrements(n=xi.shape[0], d1=xi.shape[1], tau=tau, seed=0, xi=xi)


from oracles import dense_L_1d, dense_L_2d, dense_M_1d  # noqa: E402  (shared test oracles)


def varcoef_scheme_2d():
    """2-d scheme whose weights all vary in space: a cross term, a
    zero-order term and one-sided first-order terms."""
    x1 = lambda x: 2 * np.pi * x[..., 0]
    x2 = lambda x: 2 * np.pi * x[..., 1] / 1.5
    return DifferenceScheme(
        stencil=basis_stencil(2), d1=0,
        a={((1, 0), (1, 0)): lambda i, x: 0.5 + 0.2 * np.sin(x1(x)),
           ((0, 1), (0, 1)): lambda i, x: 0.3 + 0.1 * np.cos(x2(x)),
           ((1, 0), (0, 1)): lambda i, x: 0.05 * np.cos(x1(x) + x2(x)),
           ((0, 0), (0, 0)): lambda i, x: -0.2 * np.sin(x2(x)) ** 2},
        p={(1, 0): lambda i, x: 0.4 + 0.3 * np.cos(x1(x)),
           (0, 1): 0.1},
        q={(0, 1): lambda i, x: 0.2 + 0.1 * np.sin(x1(x) - x2(x))})


class TestApplyL:
    def test_constant_field_to_zero(self):
        g = make_torus_grid(1, [1.0], [16])
        s = scheme_1d(a11=0.7)
        out = apply_L(s, g.constant(3.0), 0)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2])
    def test_fourier_mode_symbol(self, k):
        g = make_torus_grid(1, [1.0], [32])
        a = 0.4
        s = scheme_1d(a11=a)
        P = g.periods[0]
        phi = g.sample(lambda x: np.cos(2 * np.pi * k * x[..., 0] / P))
        out = apply_L(s, phi, 0)
        factor = -a * (np.sin(2 * np.pi * k * g.h / P) / g.h) ** 2
        np.testing.assert_allclose(out.values, factor * phi.values,
                                   atol=1e-11 * max(abs(factor), 1.0))

    def test_forward_difference_of_linear(self):
        g = make_torus_grid(1, [1.0], [16])
        c = 2.5
        s = scheme_1d(p1=c)
        phi = g.sample(lambda x: x[..., 0])
        out = apply_L(s, phi, 0)
        np.testing.assert_allclose(out.values[:-1], c, atol=1e-12)

    def test_matches_dense_oracle_variable_coefficients(self):
        g = make_torus_grid(1, [1.0], [8])
        s = DifferenceScheme(
            stencil=basis_stencil(1), d1=0,
            a={((1,), (1,)): lambda i, x: 1.0 + 0.3 * np.sin(2 * np.pi * x[..., 0]),
               ((0,), (0,)): 0.2,
               ((1,), (0,)): lambda i, x: 0.1 * np.cos(2 * np.pi * x[..., 0])},
            p={(1,): lambda i, x: 0.5 + 0.5 * np.cos(2 * np.pi * x[..., 0]) ** 2},
            q={(1,): 0.3})
        rng = np.random.default_rng(0)
        phi = g.field(rng.standard_normal(8))
        ours = apply_L(s, phi, 0)
        oracle = dense_L_1d(s, g, g.h, 0) @ phi.values
        np.testing.assert_allclose(ours.values, oracle, atol=1e-12)

    def test_matches_dense_oracle_2d_variable_coefficients(self):
        g = make_torus_grid(2, [1.0, 1.5], [8, 12])
        s = varcoef_scheme_2d()
        phi = g.field(np.random.default_rng(10).standard_normal(g.shape))
        ours = apply_L(s, phi, 0)
        oracle = dense_L_2d(s, g, g.h, 0) @ phi.values.ravel()
        np.testing.assert_allclose(ours.values.ravel(), oracle, rtol=0, atol=1e-11)


def apply_M_values(scheme, phi, rho, i):
    """M^rho of one field through the lattice operators' column kernel."""
    p = DifferentialProblem(d=phi.grid.dim, d1=scheme.d1, T=1.0)
    ops = FiniteDifferenceOperators(p, [phi.grid], 0.1, scheme)
    return ops.apply_M_values(phi.values[..., None], rho, i)[..., 0]


class TestApplyM:
    def test_zero_order_multiplication(self):
        g = make_torus_grid(1, [1.0], [16])
        s = scheme_1d(b01=1.5, d1=1)
        phi = g.sample(lambda x: np.sin(2 * np.pi * x[..., 0]))
        out = apply_M_values(s, phi, 1, 0)
        np.testing.assert_allclose(out, 1.5 * phi.values, atol=1e-14)

    def test_constant_field_no_zero_order(self):
        g = make_torus_grid(1, [1.0], [16])
        s = scheme_1d(b11=0.8, d1=1)
        out = apply_M_values(s, g.constant(4.0), 1, 0)
        np.testing.assert_allclose(out, 0.0, atol=1e-13)

    def test_mode_symbol_via_dft(self):
        g = make_torus_grid(1, [1.0], [32])
        b = 0.6
        k = 2
        s = scheme_1d(b11=b, d1=1)
        P = g.periods[0]
        phi = g.sample(lambda x: np.cos(2 * np.pi * k * x[..., 0] / P))
        out = apply_M_values(s, phi, 1, 0)
        # symbol of the centred difference, i b sin(xi h)/h, acts on the
        # conjugate mode pair +-k with opposite signs
        freq = 2 * np.pi * np.fft.fftfreq(32) * 32 / P
        sym = 1j * b * np.sin(freq * g.h) / g.h
        np.testing.assert_allclose(np.fft.fft(out),
                                   sym * np.fft.fft(phi.values), atol=1e-10)

    @pytest.mark.parametrize("family", [SpectralOperators,
                                        FiniteDifferenceOperators],
                             ids=["spectral", "fd"])
    @pytest.mark.parametrize("rho", [0, 3])
    def test_rejects_driver_out_of_range(self, family, rho):
        # two drivers: rho = 0 must not read driver 2 as index -1
        g = make_torus_grid(1, [1.0], [8])
        s = DifferenceScheme(stencil=basis_stencil(1), d1=2,
                             b={((1,), 1): 1.0, ((0,), 2): 0.5})
        ops = family(None, [g], 0.1, s)
        with pytest.raises(GridError, match=f"driver index {rho} out of range"):
            ops.apply_M_values(np.zeros(ops.shape + (1,), ops.dtype), rho, 0)

    @pytest.mark.parametrize("family", [SpectralOperators,
                                        FiniteDifferenceOperators],
                             ids=["spectral", "fd"])
    def test_driver_without_b_is_zero(self, family):
        # driver 2 carries only a free term g^2 in a problem: M^2 = 0
        g = make_torus_grid(1, [1.0], [8])
        s = DifferenceScheme(stencil=basis_stencil(1), d1=2,
                             b={((1,), 1): 1.0})
        ops = family(None, [g], 0.1, s)
        values = np.ones(ops.shape + (2,), ops.dtype)
        assert not ops.apply_M_values(values, 2, 0).any()

    def test_time_dependent_b_matches_dense_oracle(self):
        """b varies in x and in the step: on a 2-rung, 2-column ladder, M^1
        at steps 1, 3 and 1 again is the centred-difference matrix with b
        at that step, rung by rung."""
        phase = lambda x: 2 * np.pi * x[..., 0] / 0.75
        s = DifferenceScheme(
            stencil=basis_stencil(1), d1=1, time_independent=False,
            b={((1,), 1): lambda i, x: 0.2 + 0.1 * np.sin(phase(x)) * np.cos(0.3 * i),
               ((0,), 1): lambda i, x: 0.1 * np.cos(phase(x) + i)})
        grids = [make_torus_grid(1, [0.75], [N]) for N in (12, 24)]
        ops = FiniteDifferenceOperators(None, grids, 0.1, s)
        values = np.random.default_rng(4).standard_normal(ops.shape + (2,))
        for i in (1, 3, 1):
            got = ops.states(ops.apply_M_values(values, 1, i))
            for g, v, rung in zip(grids, ops.states(values), got):
                np.testing.assert_allclose(
                    rung, dense_M_1d(s, g, g.h, 1, i) @ v, rtol=0, atol=1e-12)


def lattice_solve(scheme, grid, tau, rhs, mode="auto", step=0):
    """The solve of ``rhs`` (``grid.shape``, or with a trailing column axis)
    by a one-rung :class:`FiniteDifferenceOperators`, the path every march
    solves through: the solution in the shape of ``rhs`` and the lattice's
    failure record."""
    failures = [{}]
    x = FiniteDifferenceOperators(None, [grid], tau, scheme, mode).solve_values(
        np.reshape(rhs, (grid.npoints, -1)), step, failures)
    return x.reshape(np.shape(rhs)), failures[0]


class TestImplicitOperator:
    def test_tau_zero_identity(self):
        # a direct solve at tau = 0 returns the right-hand side bit for bit
        g = make_torus_grid(1, [1.0], [16])
        s = scheme_1d(a11=1.0)
        rng = np.random.default_rng(1)
        rhs = g.field(rng.standard_normal(16))
        x, failed = lattice_solve(s, g, 0.0, rhs.values)
        assert not failed
        np.testing.assert_array_equal(x, rhs.values)
        assert x.tobytes() == rhs.values.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_heat_mode_division(self, k):
        g = make_torus_grid(1, [1.0], [64])
        a, tau = 0.3, 0.01
        s = scheme_1d(a11=a)
        op = ImplicitOperator(s, g, tau, 0)
        P = g.periods[0]
        phi = g.sample(lambda x: np.cos(2 * np.pi * k * x[..., 0] / P))
        sol = op.solve(phi)
        denom = 1.0 + tau * a * (np.sin(2 * np.pi * k * g.h / P) / g.h) ** 2
        np.testing.assert_allclose(sol.values, phi.values / denom, atol=1e-10)

    def test_tiny_grid_matches_gaussian_elimination(self):
        g = make_torus_grid(1, [1.0], [4])
        s = DifferenceScheme(
            stencil=basis_stencil(1), d1=0,
            a={((1,), (1,)): lambda i, x: 0.8 + 0.2 * np.cos(2 * np.pi * x[..., 0])},
            p={(1,): 0.4})
        tau = 0.05
        op = ImplicitOperator(s, g, tau, 0)
        A = np.eye(4) - tau * dense_L_1d(s, g, g.h, 0)
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal(4)
        ours = op.solve(g.field(rhs)).values
        oracle = np.linalg.solve(A, rhs)
        np.testing.assert_allclose(ours, oracle, atol=1e-12)

    def test_apply_solve_round_trip_direct(self):
        g = make_torus_grid(1, [1.0], [64])
        s = scheme_1d(a11=0.5, p1=0.2)
        op = ImplicitOperator(s, g, 0.02, 0)
        rng = np.random.default_rng(5)
        rhs = g.field(rng.standard_normal(64))
        x, failed = lattice_solve(s, g, 0.02, rhs.values, "direct")
        assert not failed
        back = op.matrix @ x.ravel()
        np.testing.assert_allclose(back, rhs.values.ravel(), rtol=1e-12, atol=1e-13)

    def test_iterative_residual_contract(self):
        g = make_torus_grid(1, [1.0], [64])
        s = scheme_1d(a11=0.5, p1=0.2)
        op = ImplicitOperator(s, g, 0.02, 0)
        rng = np.random.default_rng(5)
        rhs = g.field(rng.standard_normal(64))
        x, failed = lattice_solve(s, g, 0.02, rhs.values, "iterative")
        assert not failed
        back = op.matrix @ x.ravel()
        resid = np.linalg.norm(back - rhs.values.ravel())
        assert resid <= 1e-11 * np.linalg.norm(rhs.values)

    def test_action_matches_matrix_free(self):
        g = make_torus_grid(2, [1.0, 1.0], [8, 8])
        s = DifferenceScheme(
            stencil=basis_stencil(2), d1=0,
            a={((1, 0), (1, 0)): 0.5, ((0, 1), (0, 1)): 0.25,
               ((1, 0), (0, 1)): 0.1})
        tau = 0.01
        op = ImplicitOperator(s, g, tau, 0)
        rng = np.random.default_rng(6)
        phi = g.field(rng.standard_normal((8, 8)))
        expect = phi.values - tau * apply_L(s, phi, 0).values
        np.testing.assert_allclose((op.matrix @ phi.values.ravel()).reshape(g.shape),
                                   expect, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("mode", ["direct", "iterative"])
    def test_2d_variable_coefficients_match_dense_oracle(self, mode):
        g = make_torus_grid(2, [1.0, 1.5], [8, 12])
        s, tau = varcoef_scheme_2d(), 0.01
        A = np.eye(g.npoints) - tau * dense_L_2d(s, g, g.h, 0)
        op = ImplicitOperator(s, g, tau, 0)
        rng = np.random.default_rng(11)
        phi = g.field(rng.standard_normal(g.shape))
        np.testing.assert_allclose(op.matrix @ phi.values.ravel(),
                                   A @ phi.values.ravel(), rtol=0, atol=1e-11)
        rhs = g.field(rng.standard_normal(g.shape))
        x, failed = lattice_solve(s, g, tau, rhs.values, mode)
        assert not failed
        np.testing.assert_allclose(x.ravel(),
                                   np.linalg.solve(A, rhs.values.ravel()),
                                   rtol=0, atol=1e-9)


def cross_scheme_2d():
    """Constant-coefficient 2-d scheme with a cross term and a one-sided
    first-order term, so its symbol is complex."""
    return DifferenceScheme(
        stencil=basis_stencil(2), d1=0,
        a={((1, 0), (1, 0)): 0.5, ((0, 1), (0, 1)): 0.25,
           ((1, 0), (0, 1)): 0.1, ((0, 0), (0, 0)): -0.2},
        p={(1, 0): 0.3})


def vanishing_diffusion_problem(time_independent=True):
    """2-d problem whose diffusion in x1 vanishes on the line x1 = 1/2; with
    ``time_independent=False`` the coefficients also move with the index."""
    bump = lambda x: 1.0 + np.cos(2 * np.pi * x[..., 0])
    return DifferentialProblem(
        d=2, d1=1, T=0.25,
        a={(1, 1): lambda i, x: (0.1 + 0.01 * np.sin(0.5 * i)) * bump(x),
           (1, 2): lambda i, x: 0.02 * bump(x),
           (2, 1): lambda i, x: 0.02 * bump(x),
           (2, 2): lambda i, x: 0.05 + 0.0 * x[..., 0]},
        b={(2, 1): 0.2},
        u0=lambda x: np.cos(2 * np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1]),
        time_independent=time_independent)


class TestIterativeSolve:
    """GMRES preconditioned by the FFT inverse of the mean-weight circulant."""

    def test_circulant_symbol_is_the_matrix_eigenvalue(self):
        from spdefd.stepper import _circulant_symbol, _L_terms, _scheme_arrays
        g = make_torus_grid(2, [1.0, 1.5], [8, 12])
        s, tau = cross_scheme_2d(), 0.01
        symbol = _circulant_symbol(_L_terms(_scheme_arrays(s, g, 0), g), g.shape,
                                   tau)
        A = ImplicitOperator(s, g, tau, 0).matrix
        j1, j2 = np.meshgrid(np.arange(8), np.arange(12), indexing="ij")
        for k in [(0, 0), (1, 0), (0, 1), (2, 3), (5, 4), (7, 6)]:
            phi = np.exp(2j * np.pi * (k[0] * j1 / 8 + k[1] * j2 / 12)).ravel()
            np.testing.assert_allclose(A @ phi, symbol[k] * phi, rtol=0, atol=1e-12)

    def test_constant_coefficients_take_one_iteration(self, monkeypatch):
        iterations, original = [], spla.gmres

        def counting(*args, **kwargs):
            kwargs.update(callback=lambda _norm: iterations.append(1),
                          callback_type="pr_norm")
            return original(*args, **kwargs)

        monkeypatch.setattr(spla, "gmres", counting)
        g = make_torus_grid(2, [1.0, 1.0], [16, 16])
        op = ImplicitOperator(cross_scheme_2d(), g, 0.01, 0)
        rhs = g.field(np.random.default_rng(7).standard_normal(g.shape))
        x, failed = lattice_solve(cross_scheme_2d(), g, 0.01, rhs.values,
                                  "iterative")
        assert not failed
        back = op.matrix @ x.ravel()
        # the circulant inverse is exact, so the first Krylov vector spans
        # the solution
        assert len(iterations) <= 1
        assert np.linalg.norm(back - rhs.values.ravel()) \
            <= 1e-11 * np.linalg.norm(rhs.values)

    def test_vanishing_diffusion_iterative_matches_direct(self):
        p = vanishing_diffusion_problem()
        s = build_scheme_example1(p)
        g = make_torus_grid(2, [1.0, 1.0], [16, 16])
        rhs = g.field(np.random.default_rng(8).standard_normal(g.shape))
        direct, failed = lattice_solve(s, g, 0.02, rhs.values, "direct")
        assert not failed
        iterative, failed = lattice_solve(s, g, 0.02, rhs.values, "iterative")
        assert not failed
        np.testing.assert_allclose(iterative, direct, rtol=0, atol=1e-9)

    def test_nonfinite_column_fails_without_iterating(self, monkeypatch):
        calls, original = [], spla.gmres

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spla, "gmres", counting)
        g = make_torus_grid(2, [1.0, 1.0], [32, 32])
        rhs = np.ones(g.shape + (2,))
        rhs[3, 4, 1] = np.inf
        _, failed = lattice_solve(cross_scheme_2d(), g, 0.01, rhs, "iterative",
                                  step=5)
        assert list(failed) == [1]
        assert str(failed[1].__cause__).startswith(
            "step 5: right-hand side holds non-finite values")
        assert len(calls) == 1              # the finite column only

    def test_one_iteration_applies_each_operator_twice(self, monkeypatch):
        # gmres applies M to b twice and the residual check repeats gmres's
        # last product: both come from the operators' memory of their last
        # call, with the bits of a GMRES run on plain operators
        import functools
        from spdefd import stepper
        calls, circulant = [], stepper._circulant_solve

        def counted(*args):
            calls.append("M")
            return circulant(*args)

        monkeypatch.setattr(stepper, "_circulant_solve", counted)
        g = make_torus_grid(2, [1.0, 1.0], [16, 16])
        s, tau = cross_scheme_2d(), 0.01
        ops = FiniteDifferenceOperators(None, [g], tau, s, "iterative")
        op = ops._iterative(0, 0)         # the operator the solve reuses
        product = op._product.fn
        op._product.fn = lambda x: calls.append("A") or product(x)
        rhs = np.random.default_rng(7).standard_normal(g.shape + (1,))
        failures = [{}]
        x = ops.solve_values(rhs.reshape(g.npoints, 1), 0, failures)
        assert not failures[0] and sorted(calls) == ["A", "A", "M", "M"]
        n = g.npoints
        symbol = stepper._circulant_symbol(
            stepper._L_terms(stepper._scheme_arrays(s, g, 0), g), g.shape, tau)
        M = spla.LinearOperator((n, n), dtype=float, matvec=functools.partial(
            circulant, symbol, g.shape))
        plain, _ = spla.gmres(spla.aslinearoperator(op.matrix), rhs.ravel(),
                              M=M, rtol=stepper.ITERATIVE_RTOL, atol=0.0,
                              restart=50, maxiter=n * 10 // 50)
        assert x.ravel().tobytes() == plain.tobytes()

    def test_last_call_tells_signed_zeros_apart(self):
        from spdefd.stepper import _LastCall
        calls = []
        last = _LastCall(lambda x: calls.append(1) or np.copysign(1.0, x))
        for x in (0.0, 0.0, -0.0, -0.0, 0.0):
            got = last(np.array([x]))
            assert got[0] == np.copysign(1.0, x)
            got[0] = 7.0                  # a caller may write into its copy
        assert len(calls) == 3

    def test_singular_operator_stalls(self):
        # a00 = 1 / tau leaves I - tau L^h = -tau a11 d_1 d_1, which is
        # singular: GMRES cannot meet its residual bound
        tau, g = 0.1, make_torus_grid(2, [1.0, 1.0], [8, 8])
        s = DifferenceScheme(stencil=basis_stencil(2), d1=0,
                             a={((1, 0), (1, 0)): 0.05, ((0, 0), (0, 0)): 1 / tau})
        rhs = np.random.default_rng(3).standard_normal(g.shape + (2,))
        _, failed = lattice_solve(s, g, tau, rhs, "iterative", step=3)
        assert list(failed) == [0, 1]
        for exc in failed.values():
            assert str(exc.__cause__).startswith(
                "step 3: iteration stalled (relative residual ")
            assert str(exc) == f"scheme run aborted: {exc.__cause__}"
        p = DifferentialProblem(d=2, d1=0, T=4 * tau,
                                u0=lambda x: 1.0 + np.sin(2 * np.pi * x[..., 0]))
        with pytest.raises(SolveFailure, match=r"^scheme run aborted: step 1: "
                           r"iteration stalled \(relative residual "):
            run_space_time_scheme(p, s, g, 4, solver_mode="iterative")

    def test_time_dependent_iterative_matches_direct(self):
        p = vanishing_diffusion_problem(time_independent=False)
        s = build_scheme_example1(p)
        g = make_torus_grid(2, [1.0, 1.0], [12, 12])
        n = 4
        inc = sample_increments(n, 1, p.T / n, seed=9)
        direct = run_space_time_scheme(p, s, g, n, inc, solver_mode="direct")
        iterative = run_space_time_scheme(p, s, g, n, inc, solver_mode="iterative")
        for a, b in zip(direct.fields, iterative.fields):
            np.testing.assert_allclose(b.values, a.values, rtol=0, atol=1e-9)


def marched_step(scheme, grid, tau, v_prev, f, g_prev, xi):
    """v_1 of a one-column :class:`Marcher` on ``scheme`` started from
    ``v_prev``, with the free terms ``f`` and ``g_prev`` (one array per
    driver) and the increments ``xi`` of its one step."""
    p = DifferentialProblem(d=grid.dim, d1=len(xi), T=tau, u0=lambda x: v_prev)
    marcher = Marcher(np.reshape(xi, (1, -1, 1)),
                      FiniteDifferenceOperators(p, [grid], tau, scheme))
    marcher.advance((f, [(part,) for part in g_prev]))
    assert not any(marcher.failures)
    return marcher.v[..., 0]


class TestImplicitStep:
    def test_constant_fixed_point(self):
        g = make_torus_grid(1, [1.0], [16])
        s = scheme_1d(a11=0.5)
        p = DifferentialProblem(d=1, d1=0, T=0.1, u0=2.0)
        out = run_space_time_scheme(p, s, g, 1)[1]
        np.testing.assert_allclose(out.values, 2.0, atol=1e-12)

    def test_scalar_multiplicative_recursion(self):
        # all spatial coefficients zero, b^{0,1} = beta: v = v_prev (1 + beta xi)
        g = make_torus_grid(1, [1.0], [8])
        beta = 0.7
        s = scheme_1d(b01=beta, d1=1)
        tau = 0.1
        rng = np.random.default_rng(2)
        v_prev = rng.standard_normal(8)
        xi = np.array([0.23])
        out = marched_step(s, g, tau, v_prev, np.zeros(8), [np.zeros(8)], xi)
        np.testing.assert_allclose(out, v_prev * (1 + beta * xi[0]), atol=1e-13)

    def test_superposition(self):
        g = make_torus_grid(1, [1.0], [16])
        s = scheme_1d(a11=0.4, b11=0.2, d1=1)
        tau = 0.05
        rng = np.random.default_rng(4)
        v1, v2 = rng.standard_normal(16), rng.standard_normal(16)
        f1, f2 = rng.standard_normal(16), rng.standard_normal(16)
        g1, g2 = rng.standard_normal(16), rng.standard_normal(16)
        xi = np.array([-0.4])
        lhs = marched_step(s, g, tau, v1 + v2, f1 + f2, [g1 + g2], xi)
        rhs = (marched_step(s, g, tau, v1, f1, [g1], xi)
               + marched_step(s, g, tau, v2, f2, [g2], xi))
        scale = max(np.max(np.abs(rhs)), 1.0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)


class TestRunSpaceTimeScheme:
    def test_zero_data_zero_trajectory(self):
        p = DifferentialProblem(d=1, d1=0, T=1.0, a={(1, 1): 0.5}, u0=0.0)
        g = make_torus_grid(1, [1.0], [16])
        traj = run_space_time_scheme(p, build_scheme_example1(p), g, 8)
        for fld in traj.fields:
            np.testing.assert_array_equal(fld.values, 0.0)

    def test_deterministic_reduction(self):
        g = make_torus_grid(1, [1.0], [16])
        n = 16
        p0 = make_problem("heat1d")
        p1 = DifferentialProblem(d=1, d1=1, T=0.5, a={(1, 1): 0.1},
                                 u0=p0.u0, constant_coefficients=True)
        t0 = run_space_time_scheme(p0, build_scheme_example1(p0), g, n)
        inc = sample_increments(n, 1, p1.T / n, seed=41)
        t1 = run_space_time_scheme(p1, build_scheme_example1(p1), g, n, inc)
        for f0, f1 in zip(t0.fields, t1.fields):
            np.testing.assert_allclose(f0.values, f1.values, atol=1e-13)

    def test_stochastic_problem_needs_increments(self):
        p = make_problem("stoch-transport", beta=0.3, extra_diffusion=0.05)
        g = make_torus_grid(1, [1.0], [16])
        with pytest.raises(ValueError,
                           match="stochastic problem needs Wiener increments"):
            run_space_time_scheme(p, build_scheme_example1(p), g, 8)

    def test_two_step_dense_oracle_random_coefficients(self):
        # independent dense assembly and elimination, variable coefficients
        rng = np.random.default_rng(10)
        coef = []
        for _ in range(5):
            amp, phase = rng.uniform(0.1, 0.5), rng.uniform(0, 2 * np.pi)
            coef.append((amp, phase))

        def trig(amp, phase, base=0.0):
            return lambda i, x, a=amp, ph=phase, b=base: (
                b + a * np.cos(2 * np.pi * x[..., 0] + ph + 0.1 * i))

        p = DifferentialProblem(
            d=1, d1=1, T=0.2,
            a={(1, 1): trig(*coef[0], base=1.0), (0, 0): trig(*coef[1])},
            b={(1, 1): trig(*coef[2]), (0, 1): trig(*coef[3])},
            f=trig(*coef[4]),
            g={1: trig(0.3, 0.7)},
            u0=lambda x: np.sin(2 * np.pi * x[..., 0]),
            time_independent=False)
        s = build_scheme_example1(p)
        g = make_torus_grid(1, [1.0], [8])
        n = 2
        tau = p.T / n
        inc = sample_increments(n, 1, tau, seed=77)
        traj = run_space_time_scheme(p, s, g, n, inc)

        x = g.coordinates
        v = p.u0(x)
        for i in (1, 2):
            L = dense_L_1d(s, g, g.h, i)
            M = dense_M_1d(s, g, g.h, 1, i - 1)
            rhs = (v + tau * p.f(i, x)
                   + (M @ v + p.g_at(1, i - 1, x)) * inc.step(i)[0])
            v = np.linalg.solve(np.eye(8) - tau * L, rhs)
            np.testing.assert_allclose(traj[i].values, v, atol=1e-11)

    def test_spectral_oracle_equivalence_constant_coefficients(self):
        # discrete symbols of L^h and M^{h,rho} applied per mode
        p = make_problem("stoch-transport", beta=0.3, gamma=0.2,
                         extra_diffusion=0.05)
        s = build_scheme_example1(p)
        g = make_torus_grid(1, [1.0], [32])
        n = 8
        tau = p.T / n
        inc = sample_increments(n, 1, tau, seed=5)
        traj = run_space_time_scheme(p, s, g, n, inc)

        h = g.h
        xi_freq = 2 * np.pi * np.fft.fftfreq(32) * 32 / g.periods[0]
        a = 0.5 * 0.09 + 0.05
        symL = -a * (np.sin(xi_freq * h) / h) ** 2
        symM = 1j * 0.3 * np.sin(xi_freq * h) / h + 0.2
        vhat = np.fft.fft(p.u0(g.coordinates))
        for i in range(1, n + 1):
            vhat = vhat * (1.0 + symM * inc.step(i)[0]) / (1.0 - tau * symL)
            got = traj[i].values
            np.testing.assert_allclose(got, np.real(np.fft.ifft(vhat)), atol=1e-10)

    def test_solution_map_linearity(self):
        g = make_torus_grid(1, [1.0], [16])
        n = 8
        base = dict(d=1, d1=1, T=0.4, a={(1, 1): 0.3}, b={(1, 1): 0.2},
                    constant_coefficients=True)
        inc = sample_increments(n, 1, 0.4 / n, seed=13)
        u1 = lambda x: np.cos(2 * np.pi * x[..., 0])
        u2 = lambda x: np.sin(4 * np.pi * x[..., 0])
        p1 = DifferentialProblem(**base, u0=u1, f=0.5, g={1: 0.1})
        p2 = DifferentialProblem(**base, u0=u2, f=-0.2, g={1: 0.3})
        p12 = DifferentialProblem(**base, u0=lambda x: u1(x) + u2(x),
                                  f=0.3, g={1: 0.4})
        s = build_scheme_example1(p1)
        t1 = run_space_time_scheme(p1, s, g, n, inc)
        t2 = run_space_time_scheme(p2, s, g, n, inc)
        t12 = run_space_time_scheme(p12, s, g, n, inc)
        for a_, b_, c_ in zip(t1.fields, t2.fields, t12.fields):
            scale = max(np.max(np.abs(c_.values)), 1.0)
            np.testing.assert_allclose(a_.values + b_.values, c_.values,
                                       atol=1e-12 * scale)

    def test_implicitness_propagation(self):
        # f at the last index only affects the last field; g at index 0
        # affects every field from v_1 on
        g = make_torus_grid(1, [1.0], [16])
        n = 4
        u0 = lambda x: np.cos(2 * np.pi * x[..., 0])
        base = dict(d=1, d1=1, T=0.4, a={(1, 1): 0.2}, b={(1, 1): 0.1},
                    u0=u0, constant_coefficients=True)
        inc = sample_increments(n, 1, 0.4 / n, seed=3)
        s = build_scheme_example1(DifferentialProblem(**base))

        plain = run_space_time_scheme(DifferentialProblem(**base), s, g, n, inc)
        f_last = DifferentialProblem(
            **base, f=lambda i, x: np.where(i == n, 1.0, 0.0) * np.ones(x.shape[:-1]))
        with_f = run_space_time_scheme(f_last, s, g, n, inc)
        for i in range(n):
            np.testing.assert_array_equal(with_f[i].values, plain[i].values)
        assert np.max(np.abs(with_f[n].values - plain[n].values)) > 1e-12

        g_first = DifferentialProblem(
            **base, g={1: lambda i, x: np.where(i == 0, 1.0, 0.0)
                       * np.ones(x.shape[:-1])})
        with_g = run_space_time_scheme(g_first, s, g, n, inc)
        np.testing.assert_array_equal(with_g[0].values, plain[0].values)
        for i in range(1, n + 1):
            assert np.max(np.abs(with_g[i].values - plain[i].values)) > 1e-14

    def test_degenerate_stability_under_refinement(self):
        p = make_problem("stoch-transport", beta=0.3)
        s = build_scheme_example1(p)
        n = 32
        tau = p.T / n
        norms = []
        for points in (16, 32, 64):
            g = make_torus_grid(1, [1.0], [points])
            vals = []
            for seed in range(4):
                inc = sample_increments(n, 1, tau, seed=seed)
                traj = run_space_time_scheme(p, s, g, n, inc)
                weight = g.h
                vals.append(max(np.sqrt(weight * np.sum(f.values ** 2))
                                for f in traj.fields))
            norms.append(np.mean(vals))
        assert norms[1] <= 1.2 * norms[0]
        assert norms[2] <= 1.2 * norms[1]


class TestSolverRule:
    """Auto mode reads the solver off the lattice: a sparse LU for every 1-d
    lattice, GMRES for one of 2-d and up above DIRECT_SOLVE_MAX_UNKNOWNS."""

    def test_auto_mode_by_dimension(self):
        for points in (16, DIRECT_SOLVE_MAX_UNKNOWNS, 8192, 2 ** 20):
            assert _solver_mode("auto", make_torus_grid(1, [1.0], [points])) \
                == "direct"
        assert _solver_mode("auto", make_torus_grid(2, [1.0] * 2, [64] * 2)) \
            == "direct"
        for dim, points in ((2, 72), (2, 256), (3, 17)):
            grid = make_torus_grid(dim, [1.0] * dim, [points] * dim)
            assert grid.npoints > DIRECT_SOLVE_MAX_UNKNOWNS
            assert _solver_mode("auto", grid) == "iterative"
        # a mode named outright holds on any lattice
        for grid in (make_torus_grid(1, [1.0], [8192]),
                     make_torus_grid(2, [1.0] * 2, [8] * 2)):
            assert _solver_mode("iterative", grid) == "iterative"
            assert _solver_mode("direct", grid) == "direct"

    def test_fine_grid_reference_factors_8192_points(self, monkeypatch):
        # var-coef1d's fine-grid reference of a 1024-point grid marches 8192
        # points, where GMRES stalls: it is one sparse LU, the bits of the
        # direct scheme run on that lattice read at every 8th point
        p = make_problem("var-coef1d")
        g = make_torus_grid(1, [1.0], [1024])
        direct = run_space_time_scheme(p, build_scheme_example1(p),
                                       g.refined(8), 4, solver_mode="direct")

        def refuse(*args, **kwargs):
            raise AssertionError("GMRES called on a 1-d lattice")

        monkeypatch.setattr(spla, "gmres", refuse)
        ref = run_reference_time_scheme(p, g, 4, mode="fine-grid", refine=3)
        assert ref.values.tobytes() == direct.values[:, ::8].tobytes()


class TestReferenceTimeScheme:
    def test_heat_mode_recursion(self):
        p = make_problem("heat1d", nu=0.1, T=0.5)
        g = make_torus_grid(1, [1.0], [32])
        n = 16
        tau = p.T / n
        traj = run_reference_time_scheme(p, g, n, mode="spectral-const-coef")
        x = g.coordinates[..., 0]
        for i in range(n + 1):
            expect = (1.0 + tau * 0.1 * (2 * np.pi) ** 2) ** (-i) * np.cos(2 * np.pi * x)
            np.testing.assert_allclose(traj[i].values, expect, atol=1e-12)

    def test_zero_data(self):
        p = DifferentialProblem(d=1, d1=0, T=1.0, a={(1, 1): 1.0}, u0=0.0,
                                constant_coefficients=True)
        g = make_torus_grid(1, [1.0], [16])
        traj = run_reference_time_scheme(p, g, 4, mode="spectral-const-coef")
        for fld in traj.fields:
            np.testing.assert_array_equal(fld.values, 0.0)

    def test_spectral_rejects_variable_coefficients(self):
        p = make_problem("var-coef1d")
        g = make_torus_grid(1, [1.0], [16])
        with pytest.raises(SpectralModeError):
            run_reference_time_scheme(p, g, 4, mode="spectral-const-coef")

    def test_fine_grid_mode_converges_to_spectral(self):
        p = make_problem("heat1d")
        g = make_torus_grid(1, [1.0], [16])
        n = 16
        spectral = run_reference_time_scheme(p, g, n, mode="spectral-const-coef")
        diffs = []
        for q in (1, 2, 3):
            fine = run_reference_time_scheme(p, g, n, mode="fine-grid", refine=q)
            diffs.append(max(np.max(np.abs(a.values - b.values))
                             for a, b in zip(fine.fields, spectral.fields)))
        # second-order surrogate: each extra refinement divides the gap by ~4
        assert 3.0 <= diffs[0] / diffs[1] <= 5.0
        assert 3.0 <= diffs[1] / diffs[2] <= 5.0

    def test_stochastic_reference_same_increments(self):
        p = make_problem("stoch-transport", beta=0.2, extra_diffusion=0.05)
        g = make_torus_grid(1, [1.0], [32])
        n = 8
        inc = sample_increments(n, 1, p.T / n, seed=21)
        ref = run_reference_time_scheme(p, g, n, inc, mode="spectral-const-coef")
        fine = run_reference_time_scheme(p, g, n, inc, mode="fine-grid", refine=3)
        gap = max(np.max(np.abs(a.values - b.values))
                  for a, b in zip(ref.fields, fine.fields))
        assert gap < 1e-2

    def test_rejects_unknown_mode(self):
        p = make_problem("heat1d")
        g = make_torus_grid(1, [1.0], [16])
        with pytest.raises(ValueError):
            run_reference_time_scheme(p, g, 4, mode="nope")


def march_columns(marcher, n, factor=1):
    """Real states 0..n of a batched marcher on one lattice, restricted by
    ``factor`` per axis."""
    dim = marcher.operators.grids[0].dim
    cut = tuple(slice(None, None, factor) for _ in range(dim))

    def state():
        return marcher.operators.states(marcher.v)[0][cut].copy()

    states = [state()]
    for _ in range(n):
        marcher.advance()
        assert not any(marcher.failures)
        states.append(state())
    return states


def assert_columns_match(states, trajectories):
    """Column k of every batched state has the bytes of path k run alone."""
    for k, traj in enumerate(trajectories):
        assert traj.n == len(states) - 1
        for i, fld in enumerate(traj.fields):
            column = np.ascontiguousarray(states[i][..., k])
            assert column.tobytes() == np.ascontiguousarray(fld.values).tobytes(), \
                f"path {k} differs at step {i}"


def time_dependent_problem():
    return DifferentialProblem(
        d=1, d1=1, T=0.5,
        a={(1, 1): lambda i, x: 0.08 + 0.04 * np.cos(0.3 * i) + 0.0 * x[..., 0]},
        b={(1, 1): lambda i, x: 0.2 + 0.1 * np.sin(0.2 * i) + 0.0 * x[..., 0]},
        f=lambda i, x: 0.1 * np.sin(2 * np.pi * x[..., 0]) * np.cos(0.5 * i),
        g={1: lambda i, x: 0.05 * np.cos(2 * np.pi * x[..., 0])},
        u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
        time_independent=False, constant_coefficients=True)


class TestBatchedMarcher:
    """Stepping S paths as the columns of one array gives every path the
    same bits as running it alone."""

    def _lattice(self, problem, scheme, grid, n, paths, mode="auto"):
        xi = increment_columns(problem, n, paths)
        ops = lattice_operators(problem, [grid], problem.T / n, scheme, mode)
        states = march_columns(Marcher(xi, ops), n)
        alone = [run_space_time_scheme(problem, scheme, grid, n, inc,
                                       solver_mode=mode) for inc in paths]
        assert_columns_match(states, alone)

    def test_direct_1d_stoch_transport(self):
        p = make_problem("stoch-transport", beta=0.3, gamma=0.2,
                         extra_diffusion=0.05)
        g = make_torus_grid(1, [1.0], [32])
        n = 16
        paths = [sample_increments(n, 1, p.T / n, seed) for seed in (3, 4, 5, 6)]
        self._lattice(p, build_scheme_example1(p), g, n, paths)

    def test_gmres_2d(self):
        p = DifferentialProblem(
            d=2, d1=1, T=0.25,
            a={(1, 1): 0.05, (2, 2): 0.05, (1, 2): 0.01, (2, 1): 0.01},
            b={(1, 1): 0.2, (2, 1): 0.1},
            u0=lambda x: np.cos(2 * np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1]),
            constant_coefficients=True)
        g = make_torus_grid(2, [1.0, 1.0], [12, 12])
        n = 3
        paths = [sample_increments(n, 1, p.T / n, seed) for seed in (1, 2, 3)]
        self._lattice(p, build_scheme_example1(p), g, n, paths, mode="iterative")

    def test_time_dependent_scheme(self):
        p = time_dependent_problem()
        g = make_torus_grid(1, [1.0], [16])
        n = 8
        paths = [sample_increments(n, 1, p.T / n, seed) for seed in (7, 8, 9)]
        self._lattice(p, build_scheme_example2(p), g, n, paths)

    def test_two_drivers_with_zero_increment_column(self):
        p = DifferentialProblem(
            d=1, d1=2, T=0.5, a={(1, 1): 0.1},
            b={(1, 1): 0.2, (0, 2): 0.3}, g={2: 0.1},
            u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
            constant_coefficients=True)
        g = make_torus_grid(1, [1.0], [16])
        n = 6
        paths = []
        for seed in (1, 2, 3):
            xi = sample_increments(n, 2, p.T / n, seed).xi.copy()
            xi[:, 1] = 0.0            # driver 2 never moves
            if seed == 2:
                xi[::2, 0] = 0.0      # and this path skips driver 1 at times
            paths.append(BrownianIncrements(n=n, d1=2, tau=p.T / n, seed=seed,
                                            xi=xi))
        self._lattice(p, build_scheme_example1(p), g, n, paths)

    @pytest.mark.parametrize("mode", ["spectral-const-coef", "fine-grid"])
    def test_reference(self, mode):
        p = make_problem("stoch-transport", beta=0.3, extra_diffusion=0.05)
        g = make_torus_grid(1, [1.0], [16])
        n = 8
        paths = [sample_increments(n, 1, p.T / n, seed) for seed in (1, 2, 3)]
        marcher = reference_marcher(p, g, increment_columns(p, n, paths),
                                    mode, refine=2)
        states = march_columns(
            marcher, n, marcher.operators.grids[0].shape[0] // g.shape[0])
        alone = [run_reference_time_scheme(p, g, n, inc, mode=mode, refine=2)
                 for inc in paths]
        assert_columns_match(states, alone)

    def test_exact_rung_has_the_bits_of_the_reference_alone(self):
        # a circulant ladder carries the exact reference as one more rung
        # on its top lattice: at every index and on every path that rung
        # has the bits of run_reference_time_scheme, and every lattice rung
        # those of run_space_time_scheme; two drivers, the second of which
        # path 1 never sees, and f and g nonzero, g^2 evaluated per step
        p = DifferentialProblem(
            d=1, d1=2, T=0.5, a={(1, 1): 0.1, (0, 1): 0.05},
            b={(1, 1): 0.2, (0, 2): 0.3},
            f=lambda i, x: 0.1 * np.sin(2 * np.pi * x[..., 0]) * np.cos(0.5 * i),
            g={1: 0.02, 2: lambda i, x: 0.1 * np.cos(2 * np.pi * x[..., 0])},
            u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
            constant_coefficients=True)
        scheme = build_scheme_example1(p)
        grids = [make_torus_grid(1, [1.0], [N]) for N in (8, 16, 32)]
        n = 12
        paths = []
        for seed in (1, 2, 3):
            xi = sample_increments(n, 2, p.T / n, seed).xi.copy()
            if seed == 2:
                xi[:, 1] = 0.0            # this path never sees driver 2
            paths.append(BrownianIncrements(n=n, d1=2, tau=p.T / n, seed=seed,
                                            xi=xi))
        ops = lattice_operators(p, grids, p.T / n, scheme, exact=grids[-1:])
        assert isinstance(ops, SpectralOperators) and ops.exact == 1
        marcher = Marcher(increment_columns(p, n, paths), ops)
        blocks = [marcher.march(rows) for rows in (5, 5, 3)]  # indices 0..12
        states = [np.concatenate(rung, axis=-2) for rung in zip(*blocks)]
        assert not any(marcher.failures)
        alone = [[run_space_time_scheme(p, scheme, g, n, inc) for inc in paths]
                 for g in grids]
        alone.append([run_reference_time_scheme(p, grids[-1], n, inc)
                      for inc in paths])
        for rung, trajectories in zip(states, alone):
            assert_columns_match(np.moveaxis(rung, -2, 0), trajectories)

    def test_exact_rung_needs_a_circulant_ladder(self):
        # a ladder that does not step in Fourier space carries no exact
        # rung: it names the coefficient that varies in space, if any
        grids = [make_torus_grid(1, [1.0], [N]) for N in (8, 16)]
        p = make_problem("var-coef1d")
        with pytest.raises(SpectralModeError, match=r"^a\[1,1\] varies in space"):
            lattice_operators(p, grids, p.T / 4, exact=grids[-1:])
        for p, mode in ((time_dependent_problem(), "auto"),
                        (make_problem("heat1d"), "iterative")):
            with pytest.raises(SpectralModeError, match="fine-grid mode"):
                lattice_operators(p, grids, p.T / 4, mode=mode,
                                  exact=grids[-1:])

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_one_sided_ladder_matches_sparse_lu(self, stochastic):
        # example2's p and q of constant cross terms are plain numbers, so
        # its ladder steps in Fourier space: within rounding of the block
        # LU on the same ladder, at every index and on every column
        n = 16
        if stochastic:
            p = DifferentialProblem(
                d=1, d1=1, T=0.5, a={(1, 1): 0.1, (0, 1): 0.3, (1, 0): -0.05},
                b={(1, 1): 0.2}, u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
                constant_coefficients=True)
            paths = [sample_increments(n, 1, p.T / n, seed) for seed in (1, 2)]
        else:
            p, paths = make_problem("drift1d"), [None, None]
        scheme = build_scheme_example2(p)
        grids = [make_torus_grid(1, [1.0], [N]) for N in (16, 32)]
        xi, tau = increment_columns(p, n, paths), p.T / n
        fourier = lattice_operators(p, grids, tau, scheme)
        assert isinstance(fourier, SpectralOperators)
        lu = FiniteDifferenceOperators(p, grids, tau, scheme, "direct")
        got, want = (Marcher(xi, ops).march(n + 1) for ops in (fourier, lu))
        for g, w in zip(got, want):          # (points, index, column)
            assert (np.max(np.abs(g - w), axis=0)
                    <= 1e-12 * np.max(np.abs(w), axis=0)).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exact_rung_fails_in_its_own_words(self):
        p = make_problem("stoch-transport", beta=0.3, extra_diffusion=0.05)
        grids = [make_torus_grid(1, [1.0], [N]) for N in (8, 16)]
        n = 5
        paths = [sample_increments(n, 1, p.T / n, seed) for seed in (1, 2)]
        xi = increment_columns(p, n, paths)
        xi[2, 0, 1] = np.inf           # path 1 breaks at step 3 on every rung
        marcher = Marcher(xi, lattice_operators(
            p, grids, p.T / n, build_scheme_example1(p), exact=grids[-1:]))
        marcher.march(n + 1)
        words = ["factorized solve", "factorized solve", "spectral solve"]
        assert [list(failed) for failed in marcher.failures] == [[1]] * 3
        for failed, what in zip(marcher.failures, words):
            assert str(failed[1]) == (f"scheme run aborted: step 3: {what} "
                                      "produced non-finite values; tau may "
                                      "not be small enough")

    def test_zero_start_with_forcing_is_a_problem_with_free_terms(self):
        # free terms handed to advance() give the bits of the same terms
        # declared on a problem that starts from zero
        F = lambda i, x: 0.1 * np.sin(2 * np.pi * x[..., 0]) * np.cos(0.5 * i)
        G = lambda i, x: 0.05 * np.cos(2 * np.pi * x[..., 0]) + 0.01 * i
        common = dict(d=1, d1=1, T=0.5, a={(1, 1): 0.1}, b={(1, 1): 0.2},
                      constant_coefficients=True)
        forced = DifferentialProblem(f=F, g={1: G}, u0=0.0, **common)
        free = DifferentialProblem(u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
                                   **common)
        g = make_torus_grid(1, [1.0], [16])
        n = 6
        paths = [sample_increments(n, 1, 0.5 / n, seed) for seed in (1, 2)]
        xi = increment_columns(forced, n, paths)
        tau = 0.5 / n
        x = g.coordinates
        # the same forcing in real space, a row per step, as march takes it
        real = (np.stack([F(i, x) * np.ones(g.shape) for i in range(1, n + 1)]),
                [[np.stack([G(i - 1, x) * np.ones(g.shape)
                            for i in range(1, n + 1)])]])
        for ops in (lambda p: SpectralOperators(
                        p, [], tau, build_scheme_example1(p), [g]),
                    lambda p: FiniteDifferenceOperators(
                        p, [g], tau, build_scheme_example1(p))):
            want = Marcher(xi, ops(forced))
            got = Marcher(xi, ops(free), zero_start=True)
            assert not got.v.any()
            for i in range(1, n + 1):
                want.advance()
                got.advance((got.operators.evaluate(F, i),
                             [(got.operators.evaluate(G, i - 1),)]))
                assert got.v.tobytes() == want.v.tobytes()
            marched = Marcher(xi, ops(free), zero_start=True)
            states = marched.march(n + 1, real)[0]
            again = Marcher(xi, ops(forced)).march(n + 1)[0]
            assert states.tobytes() == again.tobytes()
            assert marched.v.tobytes() == want.v.tobytes()
            # a zero free term and a zero block of forcing are None
            assert marched.operators.evaluate(lambda i, x: 0.0, 1) is None
            assert marched.operators.forward(np.zeros((n,) + g.shape)) is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_column_fails_alone(self):
        p = make_problem("degenerate1d")
        g = make_torus_grid(1, [1.0], [16])
        n = 5
        paths = [sample_increments(n, 1, p.T / n, seed) for seed in (1, 2, 3)]
        xi = increment_columns(p, n, paths)
        xi[2, 0, 1] = np.inf           # path 1 breaks at step 3
        marcher = Marcher(xi, lattice_operators(
            p, [g], p.T / n, build_scheme_example1(p)))
        for _ in range(n):
            marcher.advance()
        assert list(marcher.failures[0]) == [1]
        assert str(marcher.failures[0][1]).startswith(
            "scheme run aborted: step 3: factorized solve produced non-finite")
        assert not marcher.v[..., 1].any()          # zeroed, not dropped
        final = run_space_time_scheme(p, build_scheme_example1(p), g, n,
                                      paths[2]).fields[-1].values
        state = marcher.operators.states(marcher.v)[0]
        assert state[..., 2].tobytes() == final.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gmres_skips_a_failed_column(self, monkeypatch):
        # a column whose GMRES solve failed gets no solve after it, and the
        # other columns keep the bits of their runs alone
        p = make_problem("degenerate1d")
        g = make_torus_grid(1, [1.0], [16])
        n = 5
        paths = [sample_increments(n, 1, p.T / n, seed) for seed in (1, 2, 3)]
        xi = increment_columns(p, n, paths)
        xi[2, 0, 1] = np.inf           # path 1 breaks at step 3
        solve, steps = ImplicitOperator._solve_iterative, []

        def counting(self, b, step):
            steps.append(step)
            return solve(self, b, step)

        monkeypatch.setattr(ImplicitOperator, "_solve_iterative", counting)
        marcher = Marcher(xi, lattice_operators(
            p, [g], p.T / n, build_scheme_example1(p), "iterative"))
        for _ in range(n):
            marcher.advance()
        assert list(marcher.failures[0]) == [1]
        assert str(marcher.failures[0][1]).startswith(
            "scheme run aborted: step 3: right-hand side holds non-finite")
        # columns 0 and 2 at every step, column 1 up to its failure
        assert sorted(steps) == sorted(2 * list(range(1, n + 1)) + [1, 2, 3])
        assert not marcher.v[..., 1].any()
        monkeypatch.undo()
        final = run_space_time_scheme(p, build_scheme_example1(p), g, n,
                                      paths[2], solver_mode="iterative")
        state = marcher.operators.states(marcher.v)[0]
        assert state[..., 2].tobytes() == final.fields[-1].values.tobytes()


def gmres_2d_problem():
    """The 2-d problem of the benchmark's GMRES workload."""
    return DifferentialProblem(
        d=2, d1=1, T=0.25,
        a={(1, 1): 0.05, (2, 2): 0.05, (1, 2): 0.01, (2, 1): 0.01},
        b={(1, 1): 0.2, (2, 1): 0.1},
        u0=lambda x: (np.cos(2.0 * np.pi * x[..., 0])
                      * np.cos(2.0 * np.pi * (x[..., 0] + x[..., 1]))),
        constant_coefficients=True)


def _single_grid_run(name):
    stoch = lambda: make_problem("stoch-transport", beta=0.3,
                                 extra_diffusion=0.05)
    n = 4 if name.startswith("gmres-2d") else 8
    if name.startswith("gmres-2d"):
        p = gmres_2d_problem()
        points = int(name.rsplit("-", 1)[1])
        return run_space_time_scheme(
            p, build_scheme_example2(p),
            make_torus_grid(2, [1.0, 1.0], [points, points]), n,
            sample_increments(n, 1, p.T / n, 1))
    if name == "time-dependent-1d":
        p = time_dependent_problem()
        return run_space_time_scheme(p, build_scheme_example2(p),
                                     make_torus_grid(1, [1.0], [16]), n,
                                     sample_increments(n, 1, p.T / n, 7))
    if name == "iterative-1d":
        p = stoch()
        return run_space_time_scheme(p, build_scheme_example2(p),
                                     make_torus_grid(1, [1.0], [32]), n,
                                     sample_increments(n, 1, p.T / n, 2),
                                     solver_mode="iterative")
    if name == "fine-grid-reference":
        return run_reference_time_scheme(make_problem("var-coef1d"),
                                         make_torus_grid(1, [1.0], [16]), n,
                                         mode="fine-grid", refine=2)
    assert name == "spectral-reference"
    p = stoch()
    return run_reference_time_scheme(p, make_torus_grid(1, [1.0], [16]), n,
                                     sample_increments(n, 1, p.T / n, 3))


# sha256 prefixes of the (n + 1, *grid) float64 trajectories, recorded with
# the single-grid lattice operators that the ladder's operators replaced (the
# spectral reference: with its march in Fourier space; the four lattice
# marches with a driver: with M^{h,rho} as one assembled sparse product)
SINGLE_GRID_PINS = {
    "gmres-2d-16": "cf4e1fdb96c3954d",          # direct
    "gmres-2d-72": "b777d92396e0e3b9",          # auto mode: GMRES
    "time-dependent-1d": "ee4212df5c08f3ce",
    "iterative-1d": "014c86345fc98ab7",
    "fine-grid-reference": "89315c63851d4b09",
    "spectral-reference": "44de206f0cd1654e",
}


class TestSingleGridBits:
    """The single-grid runners keep their bits: these pins are the bit
    reference that the ladder's rungs are compared against."""

    @pytest.mark.parametrize("name", sorted(SINGLE_GRID_PINS))
    def test_run_matches_pinned_digest(self, name):
        traj = _single_grid_run(name)
        assert hashlib.sha256(traj.values.tobytes()).hexdigest()[:16] == \
            SINGLE_GRID_PINS[name]


class TestFreeTerms:
    """Plain-number free terms are built once per marcher and give the bits
    of the same terms written as callables; a callable free term is
    evaluated at every step."""

    N = 6

    @staticmethod
    def problem(**free):
        return DifferentialProblem(d=1, d1=1, T=0.5, a={(1, 1): 0.1},
                                   b={(1, 1): 0.2},
                                   u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
                                   constant_coefficients=True, **free)

    def march(self, problem, operators):
        g = make_torus_grid(1, [1.0], [16])
        paths = [sample_increments(self.N, 1, problem.T / self.N, seed)
                 for seed in (1, 2)]
        tau, scheme = problem.T / self.N, build_scheme_example1(problem)
        # the continuous operators come as an exact rung on no lattice rung
        ops = SpectralOperators(problem, [], tau, scheme, [g]) \
            if operators is SpectralOperators \
            else FiniteDifferenceOperators(problem, [g], tau, scheme)
        marcher = Marcher(increment_columns(problem, self.N, paths), ops)
        return march_columns(marcher, self.N)

    @pytest.mark.parametrize("operators", [SpectralOperators,
                                           FiniteDifferenceOperators])
    def test_constants_match_callables(self, operators, monkeypatch):
        from spdefd import problems
        constant = self.problem(f=0.3, g={1: 0.2})
        called = self.problem(
            f=lambda i, x: np.full(x.shape[:-1], 0.3),
            g={1: lambda i, x: np.full(x.shape[:-1], 0.2)})
        evaluated = []
        original = problems._Constant.__call__

        def counting(self, i, x):
            evaluated.append(self)
            return original(self, i, x)

        monkeypatch.setattr(problems._Constant, "__call__", counting)
        got = self.march(constant, operators)
        # built once for the whole march
        assert [ev is constant.f for ev in evaluated].count(True) == 1
        assert [ev is constant.g[1] for ev in evaluated].count(True) == 1
        want = self.march(called, operators)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @pytest.mark.parametrize("operators", [SpectralOperators,
                                           FiniteDifferenceOperators])
    def test_time_varying_free_term_called_every_step(self, operators):
        steps = []

        def f(i, x):
            steps.append(i)
            return 0.1 * i * np.sin(2 * np.pi * x[..., 0])

        self.march(self.problem(f=f, g={1: 0.2}), operators)
        assert steps == list(range(1, self.N + 1))


class TestPerKeyStore:
    """The lattice operators build each per-key product once per time key
    and keep it for the current key alone: a time-independent march builds
    each once, a time-dependent one each time the requested key changes.
    The scheme's coefficient arrays are one such product, read once per
    key: the other products of a key share them."""

    N = 4

    @staticmethod
    def operators(family, problem):
        g, tau = make_torus_grid(1, [1.0], [16]), problem.T / TestPerKeyStore.N
        scheme = build_scheme_example1(problem)
        if family == "continuous":
            return SpectralOperators(problem, [], tau, scheme, [g])
        if family == "lattice":
            return SpectralOperators(problem, [g], tau, scheme)
        return FiniteDifferenceOperators(problem, [g], tau, scheme, family)

    # time-independent, time-dependent.  A spectral step asks for M at i - 1
    # and the solve at i, one product: keys 0, 1, 1, 2, 2, 3, 3, 4.  The FD
    # M is asked for at 0..3, and each GMRES operator at 1..4.
    BUILDS = {
        "continuous": ({"symbols": 1}, {"symbols": 5}),
        "lattice": ({"symbols": 1}, {"symbols": 5}),
        "direct": ({"M": 1}, {"M": 4}),
        "iterative": ({"M": 1, "gmres": 1}, {"M": 4, "gmres": 4}),
    }
    # reads of the scheme's coefficient arrays, time-independent and
    # time-dependent (keys 0..4); the continuous symbols read no scheme
    READS = {"continuous": (0, 0), "lattice": (1, 5), "direct": (1, 5),
             "iterative": (1, 5)}

    @pytest.mark.parametrize("family", sorted(BUILDS))
    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_each_product_built_once_per_key(self, family, time_dependent,
                                             monkeypatch):
        from spdefd import stepper
        p = time_dependent_problem() if time_dependent else DifferentialProblem(
            d=1, d1=1, T=0.5, a={(1, 1): 0.1}, b={(1, 1): 0.2},
            u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
            constant_coefficients=True)
        ops = self.operators(family, p)
        builds = {"symbols": 0, "M": 0, "gmres": 0}
        symbols, assemble = SpectralOperators.symbols, stepper._assemble
        init, read = ImplicitOperator.__init__, stepper._scheme_arrays
        reads = []

        def counting_symbols(self, i):
            builds["symbols"] += 1
            return symbols(self, i)

        def counting_assemble(terms, shape, tau=None):
            builds["M"] += tau is None
            return assemble(terms, shape, tau)

        def counting_init(self, *args, **kwargs):
            builds["gmres"] += 1
            init(self, *args, **kwargs)

        def counting_read(scheme, grid, i):
            reads.append(i)
            return read(scheme, grid, i)

        monkeypatch.setattr(SpectralOperators, "symbols", counting_symbols)
        monkeypatch.setattr(stepper, "_assemble", counting_assemble)
        monkeypatch.setattr(ImplicitOperator, "__init__", counting_init)
        monkeypatch.setattr(stepper, "_scheme_arrays", counting_read)
        xi = increment_columns(p, self.N, [sample_increments(self.N, 1,
                                                             p.T / self.N, 3)])
        marcher = Marcher(xi, ops)
        marcher.march(self.N + 1)
        assert not any(marcher.failures)
        want = {"symbols": 0, "M": 0, "gmres": 0}
        want.update(self.BUILDS[family][time_dependent])
        assert builds == want
        assert len(reads) == self.READS[family][time_dependent]
        assert len(set(map(ops.key, reads))) == len(reads)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteStep:
    """A step whose result holds a NaN or inf raises SolveFailure naming the
    step, in every solver."""

    @staticmethod
    def problem():
        return DifferentialProblem(
            d=1, d1=0, T=0.5, a={(1, 1): 0.1},
            f=lambda i, x: np.full(x.shape[:-1], np.inf if i == 3 else 0.0),
            u0=lambda x: np.cos(2 * np.pi * x[..., 0]),
            constant_coefficients=True)

    @pytest.mark.parametrize("mode", ["direct", "iterative"])
    def test_lattice(self, mode):
        p = self.problem()
        g = make_torus_grid(1, [1.0], [16])
        with pytest.raises(SolveFailure, match="step 3: "):
            run_space_time_scheme(p, build_scheme_example1(p), g, 5,
                                  solver_mode=mode)

    def test_spectral_reference(self):
        p = self.problem()
        g = make_torus_grid(1, [1.0], [16])
        with pytest.raises(SolveFailure, match="step 3: spectral solve "
                                               "produced non-finite values"):
            run_reference_time_scheme(p, g, 5)


class TestTrajectory:
    def _traj(self):
        p = make_problem("heat1d")
        g = make_torus_grid(1, [1.0], [8])
        return run_space_time_scheme(p, build_scheme_example1(p), g, 3)

    def test_rows_are_read_only_views(self):
        traj = self._traj()
        assert traj.values.shape == (4, 8)
        for i, fld in enumerate(traj.fields):
            assert np.shares_memory(fld.values, traj.values)
            np.testing.assert_array_equal(traj[i].values, traj.values[i])
        with pytest.raises(ValueError):
            traj[1].values[0] = 0.0
        with pytest.raises(ValueError):
            traj.values[0, 0] = 0.0

    def test_caller_array_stays_writable(self):
        g = make_torus_grid(1, [1.0], [4])
        values = np.zeros((2, 4))
        Trajectory(grid=g, tau=0.5, values=values)
        assert values.flags.writeable

    @pytest.mark.parametrize("shape", [(2, 5), (4,), (0, 4), (2, 4, 1)])
    def test_rejects_wrong_shape(self, shape):
        g = make_torus_grid(1, [1.0], [4])
        with pytest.raises(GridError, match="trajectory shape"):
            Trajectory(grid=g, tau=0.5, values=np.zeros(shape))

    def test_rejects_non_finite(self):
        g = make_torus_grid(1, [1.0], [4])
        values = np.zeros((3, 4))
        values[2, 1] = np.inf
        with pytest.raises(GridError, match="non-finite"):
            Trajectory(grid=g, tau=0.5, values=values)

    def test_restricted_is_strided_view(self):
        traj = self._traj()
        coarse = traj.restricted(2)
        assert np.shares_memory(coarse.values, traj.values)
        assert (coarse.n, coarse.tau) == (traj.n, traj.tau)
        for fine, got in zip(traj.fields, coarse.fields):
            want = subsample(fine, 2)
            assert got.grid == want.grid
            assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("factor", [0, 3])
    def test_restricted_checks_factor(self, factor):
        with pytest.raises(GridError):
            self._traj().restricted(factor)

    def test_restricted_does_not_check_the_values_again(self, monkeypatch):
        from spdefd import stepper
        traj = self._traj()
        calls = []
        monkeypatch.setattr(stepper, "_require_finite", calls.append)
        coarse = traj.restricted(2)
        assert calls == []
        assert not coarse.values.flags.writeable
        assert traj.grid.shape == (8,)      # the original keeps its own grid
        assert coarse.restricted(2).values.tobytes() == \
            traj.values[:, ::4].tobytes()


class TestTrajectoryExport:
    def _traj(self):
        p = make_problem("heat1d")
        g = make_torus_grid(1, [1.0], [8])
        return run_space_time_scheme(p, build_scheme_example1(p), g, 3)

    def test_csv_layout(self, tmp_path):
        traj = self._traj()
        path = tmp_path / "traj.csv"
        export_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,t,index,x0,value"
        assert len(lines) == 1 + 4 * 8
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "0"
        assert float(first[4]) == pytest.approx(1.0)

    def test_binary_round_trip(self, tmp_path):
        traj = self._traj()
        path = tmp_path / "traj.bin"
        export_trajectory_binary(traj, path)
        loaded = load_trajectory_binary(path)
        assert loaded.n == traj.n
        assert loaded.grid == traj.grid
        for a, b in zip(loaded.fields, traj.fields):
            np.testing.assert_array_equal(a.values, b.values)

    def test_every_prefix_rejected(self, tmp_path):
        path = tmp_path / "traj.bin"
        export_trajectory_binary(self._traj(), path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            message = ("truncated trajectory dump" if cut >= 8
                       else "not a trajectory dump")
            with pytest.raises(ValueError, match=message):
                load_trajectory_binary(path)

    def test_huge_dimension_rejected(self, tmp_path):
        # a header that claims 2**40 axes is bounded by the file's size,
        # not read
        path = tmp_path / "traj.bin"
        export_trajectory_binary(self._traj(), path)
        data = bytearray(path.read_bytes())
        data[8:16] = struct.pack("<Q", 2 ** 40)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="truncated trajectory dump"):
            load_trajectory_binary(path)

    def test_point_count_does_not_wrap(self, tmp_path):
        # 2**32 x 2**32 points wrap to 0 in int64, which an empty payload
        # would match
        path = tmp_path / "traj.bin"
        path.write_bytes(b"SPFDTR01" + struct.pack("<QQdd", 2, 0, 2.0 ** -32, 0.5)
                         + struct.pack("<2Q", 2 ** 32, 2 ** 32))
        with pytest.raises(ValueError, match="truncated trajectory dump"):
            load_trajectory_binary(path)

    @pytest.mark.parametrize("tau", [float("nan"), -1.0, 0.0, float("inf")])
    def test_bad_step_size_rejected(self, tmp_path, tau):
        path = tmp_path / "traj.bin"
        export_trajectory_binary(self._traj(), path)
        data = bytearray(path.read_bytes())
        data[32:40] = struct.pack("<d", tau)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="step size"):
            load_trajectory_binary(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "traj.bin"
        export_trajectory_binary(self._traj(), path)
        data = path.read_bytes()
        path.write_bytes(data[:-8] + struct.pack("<d", float("nan")))
        with pytest.raises(GridError, match="non-finite"):
            load_trajectory_binary(path)
