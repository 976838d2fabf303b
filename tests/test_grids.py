import numpy as np
import pytest

from spdefd.grids import (
    GridError,
    Stencil,
    basis_stencil,
    composed_difference,
    discrete_sobolev_norm,
    forward_difference,
    grid_norms,
    l2h_norm,
    make_torus_grid,
    shift,
    symmetric_difference,
)


def rng_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return grid.field(rng.standard_normal(grid.shape))


class TestMakeTorusGrid:
    def test_mesh_width_1d(self):
        g = make_torus_grid(1, [1.0], [8])
        assert g.h == 0.125
        assert g.shape == (8,)
        assert g.periods == (1.0,)

    def test_mesh_width_2d(self):
        g = make_torus_grid(2, [1.0, 1.0], [16, 16])
        assert g.h == 0.0625

    def test_period_scales_mesh(self):
        assert make_torus_grid(1, [1.0], [8]).h == 0.125
        assert make_torus_grid(1, [2.0], [8]).h == 0.25

    def test_rejects_anisotropic(self):
        with pytest.raises(GridError):
            make_torus_grid(2, [1.0, 1.0], [8, 16])

    @pytest.mark.parametrize("periods,points", [([-1.0], [8]), ([1.0], [1]), ([0.0], [4])])
    def test_rejects_bad_inputs(self, periods, points):
        with pytest.raises(GridError):
            make_torus_grid(1, periods, points)

    def test_coordinates(self):
        g = make_torus_grid(1, [1.0], [4])
        np.testing.assert_array_equal(g.coordinates[..., 0], [0.0, 0.25, 0.5, 0.75])


class TestStencil:
    def test_requires_origin(self):
        with pytest.raises(GridError):
            Stencil(((1,),))

    def test_rejects_duplicates(self):
        with pytest.raises(GridError):
            Stencil(((0,), (1,), (1,)))

    def test_basis_stencil(self):
        s = basis_stencil(2)
        assert set(s.vectors) == {(0, 0), (1, 0), (0, 1)}
        assert set(s.nonzero) == {(1, 0), (0, 1)}


class TestShift:
    def test_index_rotation(self):
        g = make_torus_grid(1, [1.0], [4])
        phi = g.field([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(shift(phi, [1], 1).values, [2.0, 3.0, 4.0, 1.0])

    def test_inverse_permutation(self):
        g = make_torus_grid(2, [1.0, 1.0], [8, 8])
        phi = rng_field(g)
        back = shift(shift(phi, [2, 1], 1), [2, 1], -1)
        np.testing.assert_array_equal(back.values, phi.values)

    def test_constant_invariant(self):
        g = make_torus_grid(1, [1.0], [8])
        phi = g.constant(3.5)
        np.testing.assert_array_equal(shift(phi, [3], 1).values, phi.values)

    def test_preserves_l2h(self):
        g = make_torus_grid(2, [1.0, 1.0], [8, 8])
        phi = rng_field(g, seed=3)
        assert l2h_norm(shift(phi, [1, 2], 1)) == l2h_norm(phi)


class TestForwardDifference:
    def test_constant_to_zero(self):
        g = make_torus_grid(1, [1.0], [16])
        out = forward_difference(g.constant(2.0), [1], g.h)
        np.testing.assert_array_equal(out.values, np.zeros(16))

    def test_linear_exact_interior(self):
        g = make_torus_grid(1, [1.0], [16])
        phi = g.sample(lambda x: x[..., 0])
        out = forward_difference(phi, [1], g.h)
        np.testing.assert_allclose(out.values[:-1], 1.0, rtol=0, atol=1e-13)

    def test_zero_vector_is_identity(self):
        g = make_torus_grid(1, [1.0], [8])
        phi = rng_field(g)
        assert forward_difference(phi, [0], g.h) is phi

    def test_rejects_zero_h(self):
        g = make_torus_grid(1, [1.0], [8])
        with pytest.raises(GridError):
            forward_difference(rng_field(g), [1], 0.0)

    def test_opposite_signs_commute_bitwise(self):
        g = make_torus_grid(1, [1.0], [16])
        phi = rng_field(g, seed=7)
        a = forward_difference(forward_difference(phi, [1], g.h, 1), [1], g.h, -1)
        b = forward_difference(forward_difference(phi, [1], g.h, -1), [1], g.h, 1)
        np.testing.assert_array_equal(a.values, b.values)


class TestSymmetricDifference:
    def test_quadratic_exact_interior(self):
        g = make_torus_grid(1, [1.0], [32])
        phi = g.sample(lambda x: x[..., 0] ** 2)
        out = symmetric_difference(phi, [1], g.h)
        x = g.coordinates[..., 0]
        np.testing.assert_allclose(out.values[1:-1], 2.0 * x[1:-1], atol=1e-12)

    def test_sine_shift_identity(self):
        # (sin(2pi(x+h)/P) - sin(2pi(x-h)/P)) / (2h) = sin(2pi h/P)/h * cos(2pi x/P)
        g = make_torus_grid(1, [2.0], [32])
        P = g.periods[0]
        phi = g.sample(lambda x: np.sin(2 * np.pi * x[..., 0] / P))
        out = symmetric_difference(phi, [1], g.h)
        x = g.coordinates[..., 0]
        expect = np.sin(2 * np.pi * g.h / P) / g.h * np.cos(2 * np.pi * x / P)
        np.testing.assert_allclose(out.values, expect, atol=1e-12)

    def test_constant_to_zero(self):
        g = make_torus_grid(1, [1.0], [8])
        out = symmetric_difference(g.constant(-4.0), [1], g.h)
        np.testing.assert_array_equal(out.values, np.zeros(8))

    def test_average_of_one_sided(self):
        g = make_torus_grid(2, [1.0, 1.0], [8, 8])
        phi = rng_field(g, seed=5)
        lam = [1, 1]
        sym = symmetric_difference(phi, lam, g.h)
        avg = 0.5 * (forward_difference(phi, lam, g.h, 1)
                     + forward_difference(phi, lam, g.h, -1))
        np.testing.assert_allclose(sym.values, avg.values, atol=1e-14)


class TestComposedDifference:
    def test_empty_is_identity(self):
        g = make_torus_grid(1, [1.0], [8])
        phi = rng_field(g)
        assert composed_difference(phi, [], g.h) is phi

    def test_order_independent_bitwise(self):
        g = make_torus_grid(2, [1.0, 1.0], [8, 8])
        phi = rng_field(g, seed=11)
        lam, mu = (1, 0), (0, 1)
        a = composed_difference(phi, [lam, mu], g.h)
        b = composed_difference(phi, [mu, lam], g.h)
        np.testing.assert_array_equal(a.values, b.values)

    def test_repeated_on_constant(self):
        g = make_torus_grid(1, [1.0], [8])
        out = composed_difference(g.constant(1.0), [[1], [1]], g.h)
        np.testing.assert_array_equal(out.values, np.zeros(8))


class TestGridNorms:
    def test_constant_unit_volume(self):
        g = make_torus_grid(2, [1.0, 1.0], [8, 8])
        sup, l2h = grid_norms(g.constant(-2.5))
        assert sup == 2.5
        assert abs(l2h - 2.5) < 1e-14

    def test_zero_field(self):
        g = make_torus_grid(1, [1.0], [8])
        assert grid_norms(g.zeros()) == (0.0, 0.0)

    def test_small_arithmetic(self):
        g = make_torus_grid(1, [1.0], [2])
        sup, l2h = grid_norms(g.field([3.0, 4.0]))
        assert sup == 4.0
        np.testing.assert_allclose(l2h, np.sqrt(0.5 * 25.0), rtol=1e-15)


class TestDiscreteSobolevNorm:
    def test_r0_is_l2h(self):
        g = make_torus_grid(1, [1.0], [16])
        phi = rng_field(g)
        s = basis_stencil(1)
        assert discrete_sobolev_norm(phi, s, 0, g.h) == l2h_norm(phi)

    def test_constant_r1(self):
        g = make_torus_grid(1, [1.0], [16])
        phi = g.constant(2.0)
        s = basis_stencil(1)
        np.testing.assert_allclose(
            discrete_sobolev_norm(phi, s, 1, g.h), l2h_norm(phi), rtol=1e-14)

    def test_monotone_in_r(self):
        g = make_torus_grid(1, [1.0], [16])
        phi = rng_field(g, seed=2)
        s = basis_stencil(1)
        assert discrete_sobolev_norm(phi, s, 1, g.h) >= l2h_norm(phi)

    def test_rejects_negative_r(self):
        g = make_torus_grid(1, [1.0], [8])
        with pytest.raises(GridError):
            discrete_sobolev_norm(rng_field(g), basis_stencil(1), -1, g.h)


class TestOperatorProperties:
    """Algebraic identities of the difference calculus on the torus."""

    @pytest.mark.parametrize("seed", range(4))
    def test_summation_by_parts(self, seed):
        g = make_torus_grid(2, [1.0, 1.0], [8, 8])
        f = rng_field(g, seed=seed)
        w = rng_field(g, seed=seed + 100)
        weight = g.h ** g.dim
        lam = (1, 1)
        lhs = weight * np.sum(forward_difference(f, lam, g.h).values * w.values)
        rhs = -weight * np.sum(f.values * forward_difference(w, lam, g.h, -1).values)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_difference_skew_adjoint(self, seed):
        g = make_torus_grid(1, [1.0], [32])
        f = rng_field(g, seed=seed)
        w = rng_field(g, seed=seed + 50)
        lam = (1,)
        lhs = np.sum(symmetric_difference(f, lam, g.h).values * w.values)
        rhs = -np.sum(f.values * symmetric_difference(w, lam, g.h).values)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_linearity(self):
        g = make_torus_grid(1, [1.0], [32])
        f = rng_field(g, seed=1)
        w = rng_field(g, seed=2)
        a, b = 1.7, -0.3
        for op in (lambda u: forward_difference(u, [1], g.h),
                   lambda u: symmetric_difference(u, [1], g.h),
                   lambda u: composed_difference(u, [[1], [1]], g.h)):
            combined = op(a * f + b * w)
            split = a * op(f) + b * op(w)
            scale = max(np.max(np.abs(split.values)), 1.0)
            np.testing.assert_allclose(combined.values, split.values,
                                       atol=1e-13 * scale)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fourier_symbol_of_double_symmetric_difference(self, k):
        # delta_lam delta_lam acting on the mode cos(2 pi k x / P) multiplies
        # it by -(sin(2 pi k h / P) / h)^2; checked through the DFT of the
        # operator output.
        g = make_torus_grid(1, [1.0], [32])
        P = g.periods[0]
        phi = g.sample(lambda x: np.cos(2 * np.pi * k * x[..., 0] / P))
        out = symmetric_difference(symmetric_difference(phi, [1], g.h), [1], g.h)
        factor = -(np.sin(2 * np.pi * k * g.h / P) / g.h) ** 2
        out_hat = np.fft.rfft(out.values)
        expect_hat = factor * np.fft.rfft(phi.values)
        np.testing.assert_allclose(out_hat, expect_hat,
                                   atol=1e-11 * max(abs(factor), 1.0))


class TestGridField:
    def test_rejects_nan(self):
        g = make_torus_grid(1, [1.0], [4])
        with pytest.raises(GridError):
            g.field([1.0, np.nan, 0.0, 0.0])

    def test_rejects_wrong_shape(self):
        g = make_torus_grid(1, [1.0], [4])
        with pytest.raises(GridError):
            g.field([1.0, 2.0])

    def test_refined_grid(self):
        g = make_torus_grid(1, [1.0], [8])
        fine = g.refined(2)
        assert fine.shape == (16,)
        assert fine.h == g.h / 2
        assert fine.periods == g.periods
