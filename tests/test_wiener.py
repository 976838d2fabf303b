import struct

import numpy as np
import pytest
from scipy import stats

from spdefd.wiener import (
    _MAGIC,
    BrownianIncrements,
    IncrementError,
    load_increments,
    normal_inverse_cdf,
    sample_increments,
    save_increments,
)


class TestSampling:
    def test_empty_for_no_drivers(self):
        b = sample_increments(10, 0, 0.1, seed=1)
        assert b.xi.shape == (10, 0)

    def test_deterministic(self):
        a = sample_increments(50, 3, 0.01, seed=123)
        b = sample_increments(50, 3, 0.01, seed=123)
        np.testing.assert_array_equal(a.xi, b.xi)

    def test_seeds_differ(self):
        a = sample_increments(50, 1, 0.01, seed=1)
        b = sample_increments(50, 1, 0.01, seed=2)
        assert np.max(np.abs(a.xi - b.xi)) > 1e-3

    def test_moments(self):
        n, tau = 10_000, 1e-4
        b = sample_increments(n, 1, tau, seed=7)
        var = np.var(b.xi[:, 0])
        assert 0.9 * tau <= var <= 1.1 * tau
        assert abs(np.mean(b.xi[:, 0])) <= 4.0 * np.sqrt(tau / n)

    def test_counter_addressing(self):
        # adding drivers must not change existing columns
        one = sample_increments(100, 1, 0.01, seed=9)
        three = sample_increments(100, 3, 0.01, seed=9)
        np.testing.assert_array_equal(one.xi[:, 0], three.xi[:, 0])

    def test_prefix_stability(self):
        # entry (i, rho) is independent of n
        short = sample_increments(10, 2, 0.01, seed=5)
        long = sample_increments(100, 2, 0.01, seed=5)
        np.testing.assert_array_equal(short.xi, long.xi[:10])

    @pytest.mark.parametrize("n,d1,tau", [(0, 1, 0.1), (10, -1, 0.1), (10, 1, 0.0),
                                          (10, 1, float("inf")),
                                          (10, 1, float("nan"))])
    def test_rejects_bad_args(self, n, d1, tau):
        with pytest.raises(IncrementError):
            sample_increments(n, d1, tau, seed=1)

    def test_step_accessor(self):
        b = sample_increments(4, 2, 0.25, seed=3)
        np.testing.assert_array_equal(b.step(1), b.xi[0])
        np.testing.assert_array_equal(b.step(4), b.xi[3])
        with pytest.raises(IncrementError):
            b.step(5)

    def test_distribution_ks(self):
        b = sample_increments(5000, 1, 1.0, seed=11)
        _, pvalue = stats.kstest(b.xi[:, 0], "norm")
        assert pvalue > 1e-3


class TestNormalInverseCdf:
    def test_against_scipy(self):
        p = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        ours = normal_inverse_cdf(p)
        ref = stats.norm.ppf(p)
        np.testing.assert_allclose(ours, ref, rtol=2e-9, atol=2e-9)

    def test_symmetry(self):
        p = np.array([0.01, 0.2, 0.4])
        np.testing.assert_allclose(normal_inverse_cdf(p),
                                   -normal_inverse_cdf(1.0 - p), rtol=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(IncrementError):
            normal_inverse_cdf(np.array([0.0]))


class TestPathSum:
    """The terminal value W_T: the sum of a path's increments."""

    def test_terminal_variance(self):
        # Var(W_T) = T, Monte Carlo over seeds
        n, tau = 64, 1.0 / 64.0
        T = n * tau
        sums = [sample_increments(n, 1, tau, seed=s).xi.sum(axis=0)[0]
                for s in range(1000)]
        assert abs(np.var(sums) - T) <= 0.15 * T


class TestDumpRoundTrip:
    def test_round_trip(self, tmp_path):
        b = sample_increments(17, 3, 0.05, seed=99)
        path = tmp_path / "xi.bin"
        save_increments(b, path)
        loaded = load_increments(path)
        assert (loaded.n, loaded.d1, loaded.tau, loaded.seed) == (17, 3, 0.05, 99)
        np.testing.assert_array_equal(loaded.xi, b.xi)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not an increment dump")
        with pytest.raises(IncrementError):
            load_increments(path)

    def test_rejects_truncation(self, tmp_path):
        b = sample_increments(4, 1, 0.1, seed=1)
        path = tmp_path / "xi.bin"
        save_increments(b, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(IncrementError):
            load_increments(path)

    @pytest.mark.parametrize("n, tau", [(0, 0.1), (2, float("nan")),
                                        (2, -0.1), (2, float("inf"))])
    def test_rejects_what_sampling_refuses(self, tmp_path, n, tau):
        path = tmp_path / "xi.bin"
        save_increments(BrownianIncrements(n=n, d1=1, tau=tau, seed=1,
                                           xi=np.zeros((n, 1))), path)
        with pytest.raises(IncrementError, match="number of steps|step size"):
            load_increments(path)

    @pytest.mark.parametrize("n", [2 ** 63, 2 ** 64 - 1])
    def test_rejects_huge_step_count_without_drivers(self, tmp_path, n):
        # with d1 = 0 the payload is empty whatever n claims
        path = tmp_path / "xi.bin"
        path.write_bytes(_MAGIC + struct.pack("<QQdQ", n, 0, 0.1, 1))
        with pytest.raises(IncrementError, match="corrupt increment dump"):
            load_increments(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_increments(self, tmp_path, bad):
        path = tmp_path / "xi.bin"
        xi = sample_increments(3, 2, 0.1, seed=7).xi.copy()
        xi[1, 1] = bad
        save_increments(BrownianIncrements(n=3, d1=2, tau=0.1, seed=7, xi=xi),
                        path)
        with pytest.raises(IncrementError, match="non-finite increments"):
            load_increments(path)

    def test_every_prefix_rejected(self, tmp_path):
        path = tmp_path / "xi.bin"
        save_increments(sample_increments(3, 2, 0.1, seed=7), path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            message = ("truncated increment dump" if cut >= 8
                       else "not an increment dump")
            with pytest.raises(IncrementError, match=message):
                load_increments(path)
