"""The spectral reference and the spectral corrector marches against the
per-step full-spectrum recursion of ``oracles.spectral_march``."""

import math

import numpy as np
import pytest

from spdefd.correctors import (
    _coefficients,
    _spectra,
    corrector_operator_L,
    corrector_operator_M,
    run_corrector_system,
)
from spdefd.grids import make_torus_grid
from spdefd.problems import (
    DifferentialProblem,
    build_scheme_example1,
    build_scheme_example2,
    make_problem,
)
from spdefd.stepper import run_reference_time_scheme
from spdefd.wiener import BrownianIncrements, sample_increments

from oracles import spectral_march
from test_correctors import time_dependent_problem

RTOL = 1e-12


def _cos(x):
    return np.cos(2 * np.pi * x[..., 0])


def nyquist_problem():
    """A first-order term on an even lattice whose data carry the Nyquist
    mode: the real projection of every step changes the Nyquist line."""
    return DifferentialProblem(
        d=1, d1=1, T=0.5, a={(1, 1): 0.05, (1, 0): 0.3}, b={(1, 1): 0.3},
        u0=lambda x: np.cos(np.pi * 16 * x[..., 0]) + _cos(x),
        constant_coefficients=True)


def cross_2d_problem():
    """Cross and first-order terms on a 16 x 12 lattice of periods 1 and
    0.75."""
    return DifferentialProblem(
        d=2, d1=1, T=0.25,
        a={(1, 1): 0.05, (2, 2): 0.04, (1, 2): 0.01, (2, 1): 0.01,
           (1, 0): 0.1, (0, 2): 0.05, (0, 0): -0.1},
        b={(1, 1): 0.2, (2, 1): 0.1, (0, 1): 0.1},
        u0=lambda x: (np.cos(2 * np.pi * x[..., 0])
                      * np.cos(2 * np.pi * x[..., 1] / 0.75)
                      + 0.5 * np.sin(2 * np.pi * x[..., 0])),
        constant_coefficients=True)


def _increments(p, n, seed, silent=()):
    """Increments of ``seed``, with the drivers in ``silent`` all zero."""
    xi = sample_increments(n, p.d1, p.T / n, seed).xi.copy()
    xi[:, list(silent)] = 0.0
    return BrownianIncrements(n=n, d1=p.d1, tau=p.T / n, seed=seed, xi=xi)


def case(name):
    """(problem, scheme, grid, n, increments) of one configuration."""
    stoch = make_problem("stoch-transport", beta=0.3, gamma=0.2,
                         extra_diffusion=0.05)
    line = lambda points: make_torus_grid(1, [1.0], [points])
    if name == "nyquist-16":
        p = nyquist_problem()
        return p, build_scheme_example1(p), line(16), 32, _increments(p, 32, 1)
    if name in ("stoch-45", "stoch-89"):
        points = int(name.split("-")[1])
        return (stoch, build_scheme_example1(stoch), line(points), 16,
                _increments(stoch, 16, 2))
    if name == "cross-2d-16x12":
        p = cross_2d_problem()
        return (p, build_scheme_example2(p),
                make_torus_grid(2, [1.0, 0.75], [16, 12]), 8,
                _increments(p, 8, 3))
    if name == "two-drivers-one-silent":
        p = DifferentialProblem(d=1, d1=2, T=0.5, a={(1, 1): 0.1},
                                b={(1, 1): 0.2, (0, 2): 0.3}, g={2: 0.1},
                                u0=_cos, constant_coefficients=True)
        return (p, build_scheme_example1(p), line(32), 12,
                _increments(p, 12, 4, silent=(1,)))
    if name == "time-dependent":
        p = time_dependent_problem()
        return p, build_scheme_example2(p), line(32), 16, _increments(p, 16, 5)
    assert name == "free-terms"
    p = DifferentialProblem(
        d=1, d1=1, T=0.5, a={(1, 1): 0.1}, b={(1, 1): 0.2, (0, 1): 0.1},
        f=lambda i, x: 0.3 * np.sin(2 * np.pi * x[..., 0]) + 0.1,
        g={1: 0.2}, u0=_cos, constant_coefficients=True)
    return p, build_scheme_example1(p), line(32), 12, _increments(p, 12, 6)


CASES = ["nyquist-16", "stoch-45", "stoch-89", "cross-2d-16x12",
         "two-drivers-one-silent", "time-dependent", "free-terms"]


def assert_close(got, want):
    gap = float(np.max(np.abs(got - want)))
    assert gap <= RTOL * float(np.max(np.abs(want))), f"gap {gap:.2e}"


@pytest.mark.parametrize("name", CASES)
def test_reference_matches_oracle(name):
    p, _, grid, n, increments = case(name)
    got = run_reference_time_scheme(p, grid, n, increments)
    assert_close(got.values, spectral_march(p, grid, n, increments.xi))


def corrector_forcing(p, scheme, cs, problem):
    """``forcing(i)`` of corrector p for :func:`oracles.spectral_march`,
    from the lower-order trajectories of ``cs`` through the package's
    expansion operators, each applied to a whole trajectory at once."""
    grid, steps = cs.grid, range(cs.n + 1)
    coefficients = _coefficients(scheme, grid, steps)
    blocks = [_spectra(grid, cs[j].values) for j in range(p)]
    zero = np.zeros((cs.n + 1,) + grid.shape)
    f = zero + sum(math.comb(p, j) * corrector_operator_L(
        j, scheme, blocks[p - j], steps, coefficients) for j in range(1, p + 1))
    g = [zero + sum(math.comb(p, j) * corrector_operator_M(
        j, rho, scheme, blocks[p - j], steps, coefficients)
        for j in range(2, p + 1, 2)) for rho in range(1, problem.d1 + 1)]
    return lambda i: (f[i], [part[i - 1] for part in g])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", [c for c in CASES if c != "nyquist-16"])
def test_corrector_system_matches_oracle(name):
    p, scheme, grid, n, increments = case(name)
    k = 3 if grid.dim == 1 else 2
    cs = run_corrector_system(k, p, scheme, grid, n, increments)
    assert_close(cs[0].values, spectral_march(p, grid, n, increments.xi))
    for order in range(1, k + 1):
        want = spectral_march(p, grid, n, increments.xi,
                              u0=np.zeros(grid.shape),
                              forcing=corrector_forcing(order, scheme, cs, p))
        assert_close(cs[order].values, want)
