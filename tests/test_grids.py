import numpy as np
import pytest

from spdefd.grids import (
    GridError,
    Stencil,
    TorusGrid,
    basis_stencil,
    composed_difference,
    discrete_sobolev_norm,
    forward_difference,
    _forward_values,
    _shifted,
    grid_norms,
    make_torus_grid,
)
from spdefd.problems import DifferenceScheme
from spdefd.stepper import FiniteDifferenceOperators


def rng_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return grid.field(rng.standard_normal(grid.shape))


def centred_difference(values, lam, h):
    """The centred difference ``(T_{h,lam} - T_{-h,lam})/(2h)`` of an array
    on its own lattice of mesh h, as the schemes run it: M^{h,1} of a
    scheme whose only term is the constant b = 1 on ``lam``."""
    lam, dim = tuple(lam), values.ndim
    scheme = DifferenceScheme(stencil=Stencil(((0,) * dim, lam)), d1=1,
                              b={(lam, 1): 1.0})
    ops = FiniteDifferenceOperators(None, [TorusGrid(dim, h, values.shape)],
                                    1.0, scheme)
    return ops.apply_M_values(values.reshape(-1, 1), 1, 0).reshape(values.shape)


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

    @pytest.mark.parametrize("period", [np.inf, np.nan])
    def test_rejects_non_finite_period(self, period):
        with pytest.raises(GridError, match="periods must be positive and finite"):
            make_torus_grid(1, [period], [8])

    @pytest.mark.parametrize("h", [np.inf, np.nan])
    def test_rejects_non_finite_mesh_width(self, h):
        with pytest.raises(GridError, match="mesh width must be positive and finite"):
            TorusGrid(1, h, (4,))

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
        np.testing.assert_array_equal(_shifted(phi.values, (1,), 1, g.dim),
                                      [2.0, 3.0, 4.0, 1.0])

    def test_inverse_permutation(self):
        g = make_torus_grid(2, [1.0, 1.0], [8, 8])
        phi = rng_field(g)
        back = _shifted(_shifted(phi.values, (2, 1), 1, g.dim), (2, 1), -1, g.dim)
        np.testing.assert_array_equal(back, phi.values)

    def test_constant_invariant(self):
        g = make_torus_grid(1, [1.0], [8])
        phi = g.constant(3.5)
        np.testing.assert_array_equal(_shifted(phi.values, (3,), 1, g.dim),
                                      phi.values)

    def test_preserves_l2h(self):
        g = make_torus_grid(2, [1.0, 1.0], [8, 8])
        phi = rng_field(g, seed=3)
        moved = g.field(_shifted(phi.values, (1, 2), 1, g.dim))
        assert grid_norms(moved)[1] == grid_norms(phi)[1]


class TestForwardDifference:
    def test_constant_to_zero(self):
        g = make_torus_grid(1, [1.0], [16])
        out = forward_difference(g.constant(2.0), [1])
        np.testing.assert_array_equal(out.values, np.zeros(16))

    def test_linear_exact_interior(self):
        g = make_torus_grid(1, [1.0], [16])
        phi = g.sample(lambda x: x[..., 0])
        out = forward_difference(phi, [1])
        np.testing.assert_allclose(out.values[:-1], 1.0, rtol=0, atol=1e-13)

    def test_zero_vector_is_identity(self):
        g = make_torus_grid(1, [1.0], [8])
        phi = rng_field(g)
        assert forward_difference(phi, [0]) is phi

    def test_rejects_bad_sign(self):
        g = make_torus_grid(1, [1.0], [8])
        for sign in (0, 2, -2):
            with pytest.raises(GridError, match="sign must be"):
                forward_difference(rng_field(g), [1], sign)

    def test_opposite_signs_commute_bitwise(self):
        g = make_torus_grid(1, [1.0], [16])
        phi = rng_field(g, seed=7)
        a = forward_difference(forward_difference(phi, [1], 1), [1], -1)
        b = forward_difference(forward_difference(phi, [1], -1), [1], 1)
        np.testing.assert_array_equal(a.values, b.values)


class TestSymmetricDifference:
    def test_quadratic_exact_interior(self):
        g = make_torus_grid(1, [1.0], [32])
        phi = g.sample(lambda x: x[..., 0] ** 2)
        out = centred_difference(phi.values, (1,), g.h)
        x = g.coordinates[..., 0]
        np.testing.assert_allclose(out[1:-1], 2.0 * x[1:-1], atol=1e-12)

    def test_sine_shift_identity(self):
        # (sin(2pi(x+h)/P) - sin(2pi(x-h)/P)) / (2h) = sin(2pi h/P)/h * cos(2pi x/P)
        g = make_torus_grid(1, [2.0], [32])
        P = g.periods[0]
        phi = g.sample(lambda x: np.sin(2 * np.pi * x[..., 0] / P))
        out = centred_difference(phi.values, (1,), g.h)
        x = g.coordinates[..., 0]
        expect = np.sin(2 * np.pi * g.h / P) / g.h * np.cos(2 * np.pi * x / P)
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_constant_to_zero(self):
        g = make_torus_grid(1, [1.0], [8])
        out = centred_difference(g.constant(-4.0).values, (1,), g.h)
        np.testing.assert_array_equal(out, np.zeros(8))

    def test_average_of_one_sided(self):
        g = make_torus_grid(2, [1.0, 1.0], [8, 8])
        phi = rng_field(g, seed=5).values
        lam = (1, 1)
        sym = centred_difference(phi, lam, g.h)
        avg = 0.5 * (_forward_values(phi, lam, g.h, 1, g.dim)
                     + _forward_values(phi, lam, g.h, -1, g.dim))
        np.testing.assert_allclose(sym, avg, atol=1e-14)


class TestComposedDifference:
    def test_empty_is_identity(self):
        g = make_torus_grid(1, [1.0], [8])
        phi = rng_field(g)
        assert composed_difference(phi, []) is phi

    def test_order_independent_bitwise(self):
        g = make_torus_grid(2, [1.0, 1.0], [8, 8])
        phi = rng_field(g, seed=11)
        lam, mu = (1, 0), (0, 1)
        a = composed_difference(phi, [lam, mu])
        b = composed_difference(phi, [mu, lam])
        np.testing.assert_array_equal(a.values, b.values)

    def test_repeated_on_constant(self):
        g = make_torus_grid(1, [1.0], [8])
        out = composed_difference(g.constant(1.0), [[1], [1]])
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
        assert discrete_sobolev_norm(phi, s, 0) == grid_norms(phi)[1]

    def test_constant_r1(self):
        g = make_torus_grid(1, [1.0], [16])
        phi = g.constant(2.0)
        s = basis_stencil(1)
        np.testing.assert_allclose(
            discrete_sobolev_norm(phi, s, 1), grid_norms(phi)[1], rtol=1e-14)

    def test_monotone_in_r(self):
        g = make_torus_grid(1, [1.0], [16])
        phi = rng_field(g, seed=2)
        s = basis_stencil(1)
        assert discrete_sobolev_norm(phi, s, 1) >= grid_norms(phi)[1]

    def test_rejects_negative_r(self):
        g = make_torus_grid(1, [1.0], [8])
        with pytest.raises(GridError):
            discrete_sobolev_norm(rng_field(g), basis_stencil(1), -1)


class TestOperatorProperties:
    """Algebraic identities of the difference calculus on the torus."""

    @pytest.mark.parametrize("seed", range(4))
    def test_summation_by_parts(self, seed):
        g = make_torus_grid(2, [1.0, 1.0], [8, 8])
        f = rng_field(g, seed=seed)
        w = rng_field(g, seed=seed + 100)
        weight = g.h ** g.dim
        lam = (1, 1)
        lhs = weight * np.sum(forward_difference(f, lam).values * w.values)
        rhs = -weight * np.sum(f.values * forward_difference(w, lam, -1).values)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_difference_skew_adjoint(self, seed):
        g = make_torus_grid(1, [1.0], [32])
        f = rng_field(g, seed=seed).values
        w = rng_field(g, seed=seed + 50).values
        lam = (1,)
        lhs = np.sum(centred_difference(f, lam, g.h) * w)
        rhs = -np.sum(f * centred_difference(w, lam, g.h))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_linearity(self):
        g = make_torus_grid(1, [1.0], [32])
        f = rng_field(g, seed=1).values
        w = rng_field(g, seed=2).values
        a, b = 1.7, -0.3
        for op in (lambda u: _forward_values(u, (1,), g.h, 1, g.dim),
                   lambda u: centred_difference(u, (1,), g.h),
                   lambda u: composed_difference(g.field(u), [[1], [1]]).values):
            combined = op(a * f + b * w)
            split = a * op(f) + b * op(w)
            scale = max(np.max(np.abs(split)), 1.0)
            np.testing.assert_allclose(combined, split, atol=1e-13 * scale)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fourier_symbol_of_double_symmetric_difference(self, k):
        # delta_lam delta_lam acting on the mode cos(2 pi k x / P) multiplies
        # it by -(sin(2 pi k h / P) / h)^2; checked through the DFT of the
        # operator output.
        g = make_torus_grid(1, [1.0], [32])
        P = g.periods[0]
        phi = g.sample(lambda x: np.cos(2 * np.pi * k * x[..., 0] / P))
        out = centred_difference(centred_difference(phi.values, (1,), g.h),
                                 (1,), g.h)
        factor = -(np.sin(2 * np.pi * k * g.h / P) / g.h) ** 2
        out_hat = np.fft.rfft(out)
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


def _line(points=8):
    return make_torus_grid(1, [1.0], [points])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: TorusGrid(0, 0.1, ()),
                 "grid dimension must be >= 1", id="torus-dim"),
    pytest.param(lambda: TorusGrid(2, 0.1, (4,)),
                 "points-per-axis must have one entry per dimension",
                 id="torus-shape"),
    pytest.param(lambda: TorusGrid(1, 0.5, (1,)),
                 "need at least 2 points per axis", id="torus-points"),
    pytest.param(lambda: _line().refined(0),
                 "refinement factor must be >= 1", id="refined"),
    pytest.param(lambda: make_torus_grid(0, [], []),
                 "grid dimension must be >= 1", id="make-dim"),
    pytest.param(lambda: make_torus_grid(2, [1.0], [8]),
                 "periods and points must each have d entries",
                 id="make-axes"),
    pytest.param(lambda: _line().zeros() - _line(16).zeros(),
                 "fields live on different grids", id="subtract"),
    pytest.param(lambda: Stencil(()), "stencil must be nonempty",
                 id="stencil-empty"),
    pytest.param(lambda: Stencil(((0,), (0, 1))),
                 "stencil vectors must share one dimension", id="stencil-dim"),
    pytest.param(lambda: forward_difference(_line().zeros(), (1, 0)),
                 "stencil vector must have 1 components", id="vector-dim"),
    pytest.param(lambda: forward_difference(_line().zeros(), (0.5,)),
                 "stencil vectors must be integer-valued",
                 id="vector-integer"),
])
def test_grid_checks_reject(call, message):
    with pytest.raises(GridError) as info:
        call()
    assert str(info.value) == message
