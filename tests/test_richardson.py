import numpy as np
import pytest

from spdefd.grids import make_torus_grid, subsample
from spdefd.problems import make_problem, build_scheme_example1
from spdefd.richardson import (
    ExtrapolationError,
    RichardsonWeights,
    estimate_order,
    extrapolate_derivative,
    richardson_combine,
    vandermonde_weights,
)
from spdefd.stepper import Trajectory, run_reference_time_scheme, run_space_time_scheme
from spdefd.wiener import sample_increments


def synthetic_ladder(coarse_points, levels, make_values, n_steps=2, tau=0.5):
    """Trajectories on nested grids with fields from make_values(grid, i)."""
    out = []
    for j in range(levels + 1):
        g = make_torus_grid(1, [1.0], [coarse_points * 2 ** j])
        fields = [g.field(make_values(g, i)) for i in range(n_steps + 1)]
        out.append(Trajectory(grid=g, tau=tau,
                              values=np.stack([f.values for f in fields])))
    return out


class TestVandermondeWeights:
    def test_level_zero(self):
        for base in (2, 4):
            w = vandermonde_weights(0, base)
            np.testing.assert_array_equal(w.beta, [1.0])

    def test_level_one_base2(self):
        w = vandermonde_weights(1, 2)
        np.testing.assert_allclose(w.beta, [-1.0, 2.0], atol=1e-14)

    def test_level_one_base4(self):
        w = vandermonde_weights(1, 4)
        np.testing.assert_allclose(w.beta, [-1.0 / 3.0, 4.0 / 3.0], atol=1e-14)

    def test_level_two_base2(self):
        w = vandermonde_weights(2, 2)
        np.testing.assert_allclose(w.beta, [1.0 / 3.0, -2.0, 8.0 / 3.0], atol=1e-13)

    @pytest.mark.parametrize("base", [2, 4])
    @pytest.mark.parametrize("k", range(13))
    def test_identities_up_to_guard(self, k, base):
        w = vandermonde_weights(k, base)
        assert w.identity_residual() <= 1e-12

    def test_rejects_beyond_guard(self):
        with pytest.raises(ExtrapolationError):
            vandermonde_weights(13, 2)

    def test_rejects_bad_base(self):
        with pytest.raises(ExtrapolationError):
            vandermonde_weights(1, 3)


class TestRestrictToCoarse:
    def test_identity_at_level_zero(self):
        g = make_torus_grid(1, [1.0], [8])
        phi = g.field(np.arange(8.0))
        assert subsample(phi, 2 ** 0) is phi

    def test_constant(self):
        g = make_torus_grid(1, [1.0], [8])
        out = subsample(g.constant(2.0), 2 ** 1)
        np.testing.assert_array_equal(out.values, np.full(4, 2.0))
        assert out.grid.h == 0.25

    def test_subsampling_indices(self):
        g = make_torus_grid(1, [1.0], [8])
        phi = g.field(np.arange(8.0))
        out = subsample(phi, 2 ** 1)
        np.testing.assert_array_equal(out.values, [0.0, 2.0, 4.0, 6.0])

    def test_rejects_indivisible(self):
        g = make_torus_grid(1, [1.0], [6])
        with pytest.raises(Exception):
            subsample(g.field(np.arange(6.0)), 2 ** 2)


class TestRichardsonCombine:
    def test_level_zero_identity(self):
        [traj] = synthetic_ladder(8, 0, lambda g, i: np.sin(
            2 * np.pi * g.coordinates[..., 0]) + i)
        out = richardson_combine([traj], vandermonde_weights(0, 4))
        for a, b in zip(out.fields, traj.fields):
            np.testing.assert_array_equal(a.values, b.values)

    def test_quadratic_term_cancels_exactly(self):
        # u_j = v + c (h/2^j)^2 with base-4 level-1 weights -> exactly v
        c = 3.0

        def make(g, i):
            x = g.coordinates[..., 0]
            return np.cos(2 * np.pi * x) * (1 + i) + c * g.h ** 2

        ladder = synthetic_ladder(8, 1, make)
        out = richardson_combine(ladder, vandermonde_weights(1, 4))
        gc = ladder[0].grid
        for i, fld in enumerate(out.fields):
            expect = np.cos(2 * np.pi * gc.coordinates[..., 0]) * (1 + i)
            np.testing.assert_allclose(fld.values, expect, atol=1e-12)

    def test_quartic_ladder_cancellation(self):
        c2, c4 = 1.3, -0.7

        def make(g, i):
            x = g.coordinates[..., 0]
            return np.sin(2 * np.pi * x) + c2 * g.h ** 2 + c4 * g.h ** 4

        ladder = synthetic_ladder(8, 2, make)
        out = richardson_combine(ladder, vandermonde_weights(2, 4))
        gc = ladder[0].grid
        for fld in out.fields:
            expect = np.sin(2 * np.pi * gc.coordinates[..., 0])
            np.testing.assert_allclose(fld.values, expect,
                                       atol=1e-10 * (abs(c2) + abs(c4)))

    def test_rejects_wrong_ladder_length(self):
        ladder = synthetic_ladder(8, 1, lambda g, i: np.zeros(g.shape))
        with pytest.raises(ExtrapolationError):
            richardson_combine(ladder, vandermonde_weights(2, 4))

    def test_rejects_mismatched_time_grids(self):
        a = synthetic_ladder(8, 0, lambda g, i: np.zeros(g.shape), n_steps=2)[0]
        b = synthetic_ladder(16, 0, lambda g, i: np.zeros(g.shape), n_steps=3)[0]
        with pytest.raises(ExtrapolationError):
            richardson_combine([a, b], vandermonde_weights(1, 4))

    # the fine rung's h is the coarse one's, not half of it
    OTHER_TORUS = r"h 0\.125; expected \(16,\), h 0\.0625"

    @staticmethod
    def _two_tori():
        # 8 points on a period-1 torus and 16 on a period-2 one: the shapes
        # of a ladder's rungs, but one mesh width
        rungs = []
        for period, points in ((1.0, 8), (2.0, 16)):
            g = make_torus_grid(1, [period], [points])
            rungs.append(Trajectory(grid=g, tau=0.5, values=np.stack(
                [np.full(g.shape, 1.0 + i) for i in range(3)])))
        assert rungs[0].grid.h == rungs[1].grid.h
        return rungs

    def test_rejects_rungs_on_other_tori(self):
        with pytest.raises(ExtrapolationError, match=self.OTHER_TORUS):
            richardson_combine(self._two_tori(), vandermonde_weights(1, 4))

    def test_derivative_rejects_rungs_on_other_tori(self):
        with pytest.raises(ExtrapolationError, match=self.OTHER_TORUS):
            extrapolate_derivative(self._two_tori(), [(1,)],
                                   vandermonde_weights(1, 4))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        vals = {}

        def make_a(g, i):
            key = ("a", g.shape, i)
            vals.setdefault(key, rng.standard_normal(g.shape))
            return vals[key]

        def make_b(g, i):
            key = ("b", g.shape, i)
            vals.setdefault(key, rng.standard_normal(g.shape))
            return vals[key]

        la = synthetic_ladder(8, 1, make_a)
        lb = synthetic_ladder(8, 1, make_b)
        lsum = synthetic_ladder(8, 1, lambda g, i: make_a(g, i) + make_b(g, i))
        w = vandermonde_weights(1, 2)
        out = richardson_combine(lsum, w)
        ref_a = richardson_combine(la, w)
        ref_b = richardson_combine(lb, w)
        for o, a, b in zip(out.fields, ref_a.fields, ref_b.fields):
            np.testing.assert_allclose(o.values, a.values + b.values, atol=1e-13)


class TestExtrapolateDerivative:
    def _ladder(self):
        p = make_problem("heat1d")
        s = build_scheme_example1(p)
        n = 16
        return [run_space_time_scheme(p, s, make_torus_grid(1, [1.0], [16 * 2 ** j]), n)
                for j in range(2)]

    def test_empty_stencil_list_matches_combine(self):
        ladder = self._ladder()
        w = vandermonde_weights(1, 4)
        a = extrapolate_derivative(ladder, [], w)
        b = richardson_combine(ladder, w)
        for fa, fb in zip(a.fields, b.fields):
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_difference_commutes_with_combination(self):
        ladder = self._ladder()
        w = vandermonde_weights(1, 4)
        h = ladder[0].grid.h
        diffed = extrapolate_derivative(ladder, [(1,)], w)
        # combine the differenced rungs instead (difference at the coarse
        # mesh h, applied after restriction)
        combined = richardson_combine(ladder, w)
        from spdefd.grids import composed_difference
        manual = [composed_difference(f, [(1,)]) for f in combined.fields]
        for fa, fb in zip(diffed.fields, manual):
            np.testing.assert_allclose(fa.values, fb.values, atol=1e-13)

    def test_one_pass_has_the_bits_of_each_index_alone(self, monkeypatch):
        from spdefd import grids
        p = make_problem("stoch-transport", beta=0.3, extra_diffusion=0.05)
        s, n = build_scheme_example1(p), 16
        xi = sample_increments(n, 1, p.T / n, 2)
        ladder = [run_space_time_scheme(
            p, s, make_torus_grid(1, [1.0], [16 * 2 ** j]), n, xi)
            for j in range(2)]
        w, lams = vandermonde_weights(1, 4), [(1,), (1,)]
        built = []
        init = grids.GridField.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(grids.GridField, "__init__", counting)
        diffed = extrapolate_derivative(ladder, lams, w)
        assert built == []
        monkeypatch.undo()
        want = [grids.composed_difference(f, lams).values
                for f in richardson_combine(ladder, w).fields]
        assert np.ascontiguousarray(diffed.values).tobytes() == \
            np.stack(want).tobytes()


class TestEstimateOrder:
    def test_pairwise_order_two(self):
        report = estimate_order([0.1, 0.05], [0.04, 0.01])
        assert report.pairwise_orders == [pytest.approx(2.0)]

    def test_exact_power_law(self):
        hs = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
        errors = [0.7 * h ** 3 for h in hs]
        report = estimate_order(hs, errors)
        assert report.ls_order == pytest.approx(3.0, abs=1e-10)

    def test_given_synthetic_values(self):
        report = estimate_order([0.1, 0.05, 0.025], [1e-3, 2.6e-4, 6.4e-5])
        assert report.pairwise_orders[0] == pytest.approx(1.9434, abs=5e-4)
        assert report.pairwise_orders[1] == pytest.approx(2.0224, abs=5e-4)
        assert report.ls_order == pytest.approx(1.9829, abs=5e-4)

    def test_rejects_non_halving(self):
        with pytest.raises(ExtrapolationError):
            estimate_order([0.1, 0.06], [1.0, 0.5])

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ExtrapolationError):
            estimate_order([0.1, 0.05], [0.1, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite_errors(self, bad):
        # a NaN fails both e < 0 and e == 0, and was noted as converged
        # exactly while the fit ran on the other rungs
        with pytest.raises(ExtrapolationError, match="must be finite"):
            estimate_order([0.1, 0.05, 0.025], [1e-2, bad, 1e-4],
                           expected_order=3.3, tolerance=0.1)

    @pytest.mark.parametrize("hs", [[0.1, float("nan")],
                                    [float("nan"), float("nan")],
                                    [float("inf"), float("inf")]])
    def test_rejects_nonfinite_mesh_widths(self, hs):
        # NaN widths pass the halving check and reached the fit
        with pytest.raises(ExtrapolationError, match="must be finite"):
            estimate_order(hs, [1.0, 0.5])

    @pytest.mark.parametrize("hs", [[0.0, 0.0], [-0.1, -0.05]])
    def test_rejects_nonpositive_mesh_widths(self, hs):
        # both ladders pass the halving check; zeros then died in the fit
        with pytest.raises(ExtrapolationError, match="must be positive"):
            estimate_order(hs, [1e-2, 1e-3])

    @pytest.mark.parametrize("l2h", [[0.02], [0.02, 0.005, 0.001]])
    def test_rejects_l2h_errors_of_another_length(self, l2h):
        with pytest.raises(ExtrapolationError, match="one l2h error per rung"):
            estimate_order([0.1, 0.05], [0.04, 0.01], l2h_errors=l2h)

    @pytest.mark.parametrize("errors", [[1e-4, 1e-15, 1e-16],
                                        [1.1e-16, 1.1e-16, 1.1e-16]])
    def test_fewer_than_two_usable_errors_raise(self, errors):
        # no NaN order: a ladder that fits no order is an error
        with pytest.raises(ExtrapolationError,
                           match=r"above 1e-14; a fit needs two"):
            estimate_order([1 / 8, 1 / 16, 1 / 32], errors, expected_order=2.0)

    def test_exact_convergence_excluded(self):
        hs = [1 / 8, 1 / 16, 1 / 32]
        report = estimate_order(hs, [1e-4, 1e-5, 1e-15])
        assert report.notes
        assert np.isfinite(report.ls_order)

    def test_pass_band(self):
        report = estimate_order([0.1, 0.05], [0.04, 0.01],
                                expected_order=2.0, tolerance=0.25)
        assert report.passed
        report = estimate_order([0.1, 0.05], [0.04, 0.02],
                                expected_order=2.0, tolerance=0.25)
        assert not report.passed

    def test_csv_rows_schema(self):
        report = estimate_order([0.1, 0.05], [0.04, 0.01],
                                expected_order=2.0, tolerance=0.3,
                                l2h_errors=[0.02, 0.005])
        rows = report.csv_rows()
        assert len(rows) == 2
        h, sup, l2h, pairwise, ls, expected, passed = rows[1]
        assert (h, sup, l2h) == (0.05, 0.01, 0.005)
        assert pairwise == pytest.approx(2.0)
        assert expected == 2.0 and passed == 1


class TestAgainstReferenceSolution:
    def test_heat_extrapolation_recovers_reference(self):
        # base-4 level-1 combination on the heat problem: error drops to ~h^4
        p = make_problem("heat1d")
        s = build_scheme_example1(p)
        n = 64
        ladder = [run_space_time_scheme(p, s, make_torus_grid(1, [1.0], [N]), n)
                  for N in (16, 32)]
        w = vandermonde_weights(1, 4)
        combined = richardson_combine(ladder, w)
        ref = run_reference_time_scheme(p, combined.grid, n,
                                        mode="spectral-const-coef")
        err_comb = max(np.max(np.abs(a.values - b.values))
                       for a, b in zip(combined.fields, ref.fields))
        err_plain = max(np.max(np.abs(a.values - b.values))
                        for a, b in zip(ladder[0].fields, ref.fields))
        assert err_comb < 0.02 * err_plain


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: RichardsonWeights(level=1, base=2, beta=np.ones(3)),
                 "weight vector has wrong length", id="weights-length"),
    pytest.param(lambda: vandermonde_weights(-1, 2),
                 "extrapolation level must be >= 0", id="level"),
    pytest.param(lambda: estimate_order([0.1], [0.01]),
                 "need matching h and error lists, length >= 2",
                 id="one-rung"),
])
def test_richardson_checks_reject(call, message):
    with pytest.raises(ExtrapolationError) as info:
        call()
    assert str(info.value) == message
