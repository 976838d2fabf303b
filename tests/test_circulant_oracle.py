"""Constant-coefficient 1-d lattices march in Fourier space, on the lattice
symbols of :class:`stepper.SpectralOperators`: each symbol is checked against
the assembled operators mode by mode, a march against one on the sparse LU
path, and the routing of :func:`stepper.lattice_operators` by the calls it
makes into scipy."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from spdefd.experiments import (
    ExperimentSpec,
    run_convergence_experiment,
)
from spdefd.grids import basis_stencil, make_torus_grid
from spdefd.problems import (
    DifferenceScheme,
    DifferentialProblem,
    build_scheme_example1,
    make_problem,
)
from spdefd.stepper import (
    FiniteDifferenceOperators,
    Marcher,
    SpectralOperators,
    _assemble,
    _L_terms,
    _scheme_arrays,
    _shifts,
    increment_columns,
    lattice_operators,
    run_space_time_scheme,
)
from spdefd.wiener import BrownianIncrements, sample_increments


def full_scheme(d1=2):
    """Every kind of constant term: second-order, first-order cross and
    zero-order a, one-sided p and q, and b^{1 rho}, b^{0 rho} per driver."""
    return DifferenceScheme(
        stencil=basis_stencil(1), d1=d1,
        a={((1,), (1,)): 0.07, ((1,), (0,)): 0.02, ((0,), (1,)): -0.01,
           ((0,), (0,)): -0.3},
        p={(1,): 0.05}, q={(1,): 0.02},
        b={((1,), 1): 0.2, ((0,), 1): 0.1, ((1,), 2): -0.15, ((0,), 2): 0.05})


def two_driver_problem():
    """The problem of :func:`full_scheme`, with constant nonzero f and g."""
    return DifferentialProblem(
        d=1, d1=2, T=0.25,
        a={(1, 1): 0.07, (1, 0): 0.02, (0, 1): -0.01, (0, 0): -0.3},
        b={(1, 1): 0.2, (0, 1): 0.1, (1, 2): -0.15, (0, 2): 0.05},
        f=0.3, g={1: 0.2, 2: -0.1},
        u0=lambda x: np.cos(2 * np.pi * x[..., 0] / 0.75)
        + 0.3 * np.sin(4 * np.pi * x[..., 0] / 0.75),
        constant_coefficients=True)


def full_scheme_2d():
    """The 2-d analogue of :func:`full_scheme`: a mixed a^{12}, cross and
    zero-order a, p and q on different axes, and per driver b along both
    axes and at the origin."""
    e1, e2, o = (1, 0), (0, 1), (0, 0)
    return DifferenceScheme(
        stencil=basis_stencil(2), d1=2,
        a={(e1, e1): 0.07, (e2, e2): 0.05, (e1, e2): 0.02, (e2, e1): 0.01,
           (e1, o): 0.02, (o, e2): -0.01, (o, o): -0.3},
        p={e1: 0.05}, q={e2: 0.02},
        b={(e1, 1): 0.2, (e2, 1): -0.1, (o, 1): 0.1,
           (e1, 2): -0.15, (e2, 2): 0.12, (o, 2): 0.05})


@pytest.mark.parametrize("shapes, columns", [
    ([(16,)], 1), ([(45,)], 1), ([(89,)], 1), ([(12, 9)], 1),
    ([(12,), (24,)], 3)],
    ids=["16", "45", "89", "12x9", "12+24-S3"])
def test_symbols_are_the_eigenvalues_of_the_lattice_operators(shapes, columns):
    dim = len(shapes[0])
    # h = 0.75 / shapes[0][0] on every axis of the first rung
    periods = [0.75 * N / shapes[0][0] for N in shapes[0]]
    grids = [make_torus_grid(dim, periods, shape) for shape in shapes]
    scheme, tau = full_scheme() if dim == 1 else full_scheme_2d(), 0.01
    symbols = SpectralOperators(None, grids, tau, scheme).symbols(0)
    lattice = FiniteDifferenceOperators(None, grids, tau, scheme)
    weights = np.array([1.0, -0.5, 0.25][:columns])   # one per column

    def apply_M(phi, r, rho):
        # the real kernel, on the real and imaginary parts of phi placed in
        # rung r of the packed ladder, weighted per column
        parts = []
        for part in (phi.real, phi.imag):
            packed = np.zeros(lattice.shape + (columns,))
            lattice.states(packed)[r][...] = \
                part.reshape(grids[r].shape)[..., None] * weights
            parts.append(lattice.apply_M_values(packed, rho, 0))
        return lattice.states(parts[0] + 1j * parts[1])

    for r, (g, (symL, symM)) in enumerate(zip(grids, symbols)):
        A = _assemble(_shifts(_L_terms(_scheme_arrays(scheme, g, 0)), g.h),
                      g.shape, tau)
        j = np.indices(g.shape)
        for k in np.ndindex(g.shape):
            phi = np.exp(2j * np.pi * sum(kk * jj / N for kk, jj, N
                                          in zip(k, j, g.shape))).ravel()
            np.testing.assert_allclose(A @ phi, (1.0 - tau * symL[k]) * phi,
                                       rtol=0, atol=1e-12)
            for rho in (1, 2):
                scale = max(1.0, abs(symM[rho - 1][k]))
                want = (symM[rho - 1][k] * phi).reshape(g.shape)[..., None] \
                    * weights
                for q, got in enumerate(apply_M(phi, r, rho)):
                    np.testing.assert_allclose(
                        got, want if q == r else 0.0, rtol=0,
                        atol=1e-12 * scale)


def _increments(problem, n, seeds):
    """Increments of ``seeds``; the first path never sees driver 2."""
    paths = []
    for k, seed in enumerate(seeds):
        inc = sample_increments(n, problem.d1, problem.T / n, seed)
        if k == 0:
            xi = inc.xi.copy()
            xi[:, 1] = 0.0
            inc = BrownianIncrements(n=n, d1=problem.d1, tau=inc.tau,
                                     seed=seed, xi=xi)
        paths.append(inc)
    return paths


def _grids(points0=12, rungs=3):
    return [make_torus_grid(1, [0.75], [points0 * 2 ** j]) for j in range(rungs)]


def test_fourier_march_agrees_with_the_lu_march():
    p, scheme, n = two_driver_problem(), full_scheme(), 24
    grids = _grids()
    xi = increment_columns(p, n, _increments(p, n, (3, 4)))
    fourier = Marcher(xi, lattice_operators(p, grids, p.T / n, scheme))
    lu = Marcher(xi, FiniteDifferenceOperators(p, grids, p.T / n, scheme))
    assert isinstance(fourier.operators, SpectralOperators)
    for _ in range(n + 1):
        for got, want in zip(fourier.march(1), lu.march(1)):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert not any(fourier.failures) and not any(lu.failures)


def test_batched_columns_equal_lone_columns():
    p, scheme, n = two_driver_problem(), full_scheme(), 20
    grids, tau = _grids(), p.T / n
    paths = _increments(p, n, (5, 6, 7))
    batched = Marcher(increment_columns(p, n, paths),
                      lattice_operators(p, grids, tau, scheme)).march(n + 1)
    for k, inc in enumerate(paths):
        alone = Marcher(increment_columns(p, n, [inc]),
                        lattice_operators(p, grids, tau, scheme)).march(n + 1)
        for got, want in zip(batched, alone):
            assert np.ascontiguousarray(got[..., k]).tobytes() == \
                np.ascontiguousarray(want[..., 0]).tobytes()


def test_zero_free_terms_are_none_on_circulant_rungs():
    # a zero f or g adds no pass over the state: it is None, not zeros
    p = make_problem("stoch-transport", beta=0.3, extra_diffusion=0.05)
    grids, n = _grids(16), 8
    xi = increment_columns(p, n, [sample_increments(n, 1, p.T / n, 1)])
    marcher = Marcher(xi, lattice_operators(p, grids, p.T / n))
    assert isinstance(marcher.operators, SpectralOperators)
    assert marcher._free == (None, [(None,)])


@pytest.fixture
def scipy_calls(monkeypatch):
    """The names of the scipy solvers called, one entry per call."""
    calls = []
    for name in ("splu", "gmres"):
        def counted(*args, _name=name, _original=getattr(spla, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(spla, name, counted)
    return calls


STOCH = (("beta", 0.3), ("extra_diffusion", 0.05))


def _constant_2d():
    return DifferentialProblem(
        d=2, d1=1, T=0.25, a={(1, 1): 0.05, (2, 2): 0.05}, b={(1, 1): 0.2},
        u0=lambda x: np.cos(2 * np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1]),
        constant_coefficients=True)


def _space_time(problem, grid, mode="auto"):
    n = 4
    inc = sample_increments(n, problem.d1, problem.T / n, 1) if problem.d1 \
        else None
    return run_space_time_scheme(problem, build_scheme_example1(problem), grid,
                                 n, inc, solver_mode=mode)


ROUTES = {
    "stoch-transport-accelerate": (lambda: run_convergence_experiment(
        ExperimentSpec(problem="stoch-transport", problem_params=STOCH, n=8,
                       points0=8, rungs=3, level=1, seeds=(1, 2)),
        accelerate=True), set()),
    "heat1d-converge": (lambda: run_convergence_experiment(
        ExperimentSpec(problem="heat1d", n=8, points0=8, rungs=3)), set()),
    "space-time-1d-circulant": (lambda: _space_time(
        make_problem("stoch-transport", beta=0.3),
        make_torus_grid(1, [1.0], [32])), set()),
    "var-coef1d-converge": (lambda: run_convergence_experiment(
        ExperimentSpec(problem="var-coef1d", n=8, points0=8, rungs=2,
                       refine=1)), {"splu"}),
    "space-time-2d-constant": (lambda: _space_time(
        _constant_2d(), make_torus_grid(2, [1.0, 1.0], [8, 8])), {"splu"}),
    "space-time-1d-iterative": (lambda: _space_time(
        make_problem("stoch-transport", beta=0.3),
        make_torus_grid(1, [1.0], [32]), "iterative"), {"gmres"}),
}


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_routing_by_scipy_calls(name, scipy_calls):
    run, solvers = ROUTES[name]
    run()
    assert set(scipy_calls) == solvers
