"""Discrete operators, the implicit Euler step, and the scheme runners.

The implicit step solves ``(I - tau L) v_i = rhs`` where the stochastic and
free terms on the right-hand side are taken explicitly at the previous index:

    v_i = v_{i-1} + (L v_i + f_i) tau + sum_rho (M^rho v_{i-1} + g^rho_{i-1}) xi^rho_i

There is one implementation of that step, :class:`Marcher`, and it steps
``S`` Wiener paths at once, a column per path.  Its operators alone know
the form and the layout of its state (``_LatticeOperators``): both
families march a mesh ladder h, h/2, ... (a single grid is a one-rung
ladder) as one packed state, each rung with the bits of its own run,
:class:`FiniteDifferenceOperators` in real space, with one sparse LU solve
for the rungs that solve directly, and :class:`SpectralOperators` in
Fourier space, exact per mode.  The kernels carry the column axis along,
so every column gets the bits of a run of that path alone.  The marcher
owns one failure record, ``failures[r][column]`` per lattice r, which the
solve fills in and the operators read to skip what has failed.

Every march steps and reads a marcher by :meth:`Marcher.march`, which
gives each lattice's real states at its next indices: the studies and the
corrector system read blocks of ``BLOCK_ROWS`` steps (``_blocks``), and
``run_space_time_scheme`` and ``run_reference_time_scheme`` read a state
at a time into a :class:`Trajectory`, one ``(n + 1,) + grid.shape`` array.
The corrector system marches on the same class, from a zero state and with
its own real forcing in place of the free terms f and g, which ``march``
puts in the operators' form by ``operators.forward``; such a marcher
solves every step, as any other does.

``_scheme_arrays`` is the one reading of a scheme on a lattice: its
coefficient arrays at a step's time key (``_time_key``, 0 for
time-independent coefficients).  L^h and M^{h,rho} have one form, their
expansion into shifts of those arrays (``_L_terms``, ``_M_terms``), free
of the mesh width, which enters only where the weights are made
(``_shifts``): they are assembled into a sparse matrix (``_assemble``) or
reduced to the kernel of their mean-weight circulant (``_kernel``), and
their h-derivatives at h = 0 (``_multiplier``) give the exact rungs'
symbols (p = 0, the continuous operators) and the corrector operators.
:func:`lattice_operators` chooses the operators of every lattice march,
and :func:`_solver_mode` the solver of each lattice, both read off the
lattice: a 1-d scheme whose coefficients are plain numbers is a circulant,
solved on its lattice symbols in Fourier space; any other 1-d scheme is
banded and periodic, and factored by sparse LU at any size; a lattice of
2-d and up is factored up to ``DIRECT_SOLVE_MAX_UNKNOWNS`` points, and
above it solved column by column by GMRES through
:class:`ImplicitOperator`, preconditioned by the FFT inverse of the
mean-weight circulant.  Failures surface as :class:`SolveFailure` (the
scheme is only solvable for small enough tau), including a step whose
result holds a NaN or inf, and are never papered over by regularization.
``apply_L`` is a one-field wrapper over the assembled L^h.  scipy is
imported only where the sparse LU and GMRES paths assemble, factor or
iterate, so a march in Fourier space never loads it.  What a step's time
key fixes, the symbols and the sparse LU included, is one product of each
family's ``_build``, made once per key from the coefficient arrays, which
it does not keep; ``_LatticeOperators._at`` holds it for that key alone.

The reference solution of the time-discretized PDE (:func:`reference_marcher`)
is realized exactly per Fourier mode, on the symbols of the continuous
operators, when the scheme's coefficients are constant in space, or by the
centred scheme on a finer lattice otherwise.  The continuous symbols come
only as exact rungs, on top of a ladder's lattice rungs
(``SpectralOperators(..., exact=...)``; the reference is a ladder of one
exact rung and none of a lattice): a convergence study marches its
spectral reference as one more rung of its ladder (``lattice_operators(...,
exact=...)``), and takes a fine-grid reference from its own ladder by
extrapolation (``experiments``).  Its states are read on a coarser grid by
``grids._restricted`` from the marcher's lattice ``operators.grids[0]``,
which gives the factor, as a marcher's operators give its problem.  A
march in Fourier space keeps the ``rfftn`` half-spectrum of every column,
so a step is pointwise; u0 and the free terms are transformed once when
they are evaluated, and the real state once when it is read.

A trajectory is written to a file by :func:`export_trajectory`, in one of
the ``TRAJECTORY_FORMATS``.
"""

import copy
import functools
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grids import (
    GridError,
    GridField,
    TorusGrid,
    _coarse_grid,
    _require_finite,
    _restricted,
    _shifted,
)
from .problems import (
    DifferenceScheme,
    DifferentialProblem,
    _Constant,
    build_scheme_example1,
)
from .wiener import BrownianIncrements, sample_increments

DIRECT_SOLVE_MAX_UNKNOWNS = 4096
ITERATIVE_RTOL = 1e-11
# time indices marched and read together by the studies and the corrector
# system (read by _blocks alone): large enough to batch the FFTs and the
# norms, small enough that the blocks add little to the resident set
BLOCK_ROWS = 16


class SolveFailure(RuntimeError):
    """Implicit solve failed; typically tau is not small enough."""

    def __init__(self, message, step=None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


class SpectralModeError(ValueError):
    """An exact rung needs a scheme whose coefficients are constant in space
    (naming one that varies), and in a study a circulant ladder."""


@dataclass
class Trajectory:
    """States v_0..v_n of one scheme run on ``grid``, with step ``tau``.

    ``values`` holds them as one ``(n + 1,) + grid.shape`` array, a row per
    time index; its shape and finiteness are checked once, here, and it is
    kept read-only.  ``traj[i]`` and ``fields`` are :class:`GridField`
    views of the rows.
    """

    grid: TorusGrid
    tau: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != self.grid.dim + 1 or len(values) < 1 \
                or values.shape[1:] != self.grid.shape:
            raise GridError(f"trajectory shape {values.shape} is not (n + 1,) "
                            f"+ grid shape {self.grid.shape}")
        _require_finite(values)
        # a read-only view: the caller's array stays writable
        self.values = values.view()
        self.values.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, i: int) -> GridField:
        return GridField(self.grid, self.values[i])

    @property
    def fields(self) -> list:
        return [self[i] for i in range(self.n + 1)]

    def restricted(self, factor: int) -> "Trajectory":
        """The trajectory on the grid keeping every ``factor``-th point per
        axis: a strided, read-only view of the rows, which were checked
        when this trajectory was made and are not checked again."""
        coarse = (slice(None),) + (slice(None, None, factor),) * self.grid.dim
        traj = copy.copy(self)
        traj.grid, traj.values = _coarse_grid(self.grid, factor), self.values[coarse]
        return traj


def _time_key(coefficients, i: int) -> int:
    """The time key of step i for a scheme or a problem: 0, which every step
    shares, where the coefficients are time-independent."""
    return 0 if coefficients.time_independent else i


def _scheme_arrays(scheme: DifferenceScheme, grid: TorusGrid, i: int) -> dict:
    """The scheme's coefficient arrays on ``grid`` at the time key of step
    i, which :func:`_L_terms` and :func:`_M_terms` expand."""
    key, x = _time_key(scheme, i), grid.coordinates
    return {kind: {k: ev(key, x) * np.ones(grid.shape)
                   for k, ev in getattr(scheme, kind).items()}
            for kind in "abpq"}


def apply_L(scheme: DifferenceScheme, phi: GridField, i: int) -> GridField:
    """Second-order difference operator at the mesh width h of the field's
    grid:

    L phi = sum_{lam,mu} a^{lam mu} d_lam d_mu phi
            + sum_{lam != 0} (p^lam d_{h,lam} phi - q^lam d_{-h,lam} phi)

    with d_lam the centred difference (identity for lam = 0) and d_{+-h,lam}
    the one-sided differences.
    """
    grid = phi.grid
    L = _assemble(_shifts(_L_terms(_scheme_arrays(scheme, grid, i)), grid.h),
                  grid.shape)
    return GridField(grid, (L @ phi.values.ravel()).reshape(grid.shape))


def _centred(vec: tuple) -> tuple:
    """The stencil of the centred difference along ``vec``: two shifts, or
    the identity at vec = 0."""
    if not any(vec):
        return ((1.0, vec, 0),)
    return ((0.5, vec, 1), (-0.5, tuple(-c for c in vec), 1))


def _L_terms(arrays: dict) -> list:
    """Expand L^h, of the coefficient ``arrays``, into shifts free of the
    mesh width: ``(coef, stencil)`` pairs, each stencil a tuple of ``(s, v,
    k)`` that stands for coef * s * h^-k * T_{hv}, where (T_{hv} phi)(x) =
    phi(x + h v).

    This is the one description of L^h: :func:`_shifts` weighs it on a
    lattice for :func:`_assemble` and :func:`_kernel`, and ``correctors``
    reads its h-derivatives at h = 0 off it.
    """
    terms = []
    for (lam, mu), coef in arrays["a"].items():
        if not (any(lam) and any(mu)):
            terms.append((coef, _centred(lam if any(lam) else mu)))
        else:
            plus = tuple(a + b for a, b in zip(lam, mu))
            minus = tuple(a - b for a, b in zip(lam, mu))
            terms.append((coef, ((0.25, plus, 2), (-0.25, minus, 2),
                                 (-0.25, tuple(-c for c in minus), 2),
                                 (0.25, tuple(-c for c in plus), 2))))
    for kind, sign in (("p", 1), ("q", -1)):
        for lam, coef in arrays[kind].items():
            terms.append((coef, ((1.0, tuple(sign * c for c in lam), 1),
                                 (-1.0, (0,) * len(lam), 1))))
    return terms


def _M_terms(arrays: dict, d1: int) -> list:
    """M^{h,rho} of ``arrays`` per driver 1..d1, as :func:`_L_terms` has
    L^h: b^{lam rho} times the centred difference along lam, in b's order."""
    M = [[] for _ in range(d1)]
    for (lam, rho), b in arrays["b"].items():
        M[rho - 1].append((b, _centred(lam)))
    return M


def _shifts(terms: list, h: float) -> list:
    """The expansion ``terms`` at mesh width h: (weight, v) pairs, L phi(x) =
    sum w(x) phi(x + h v).  s is +-1, +-1/2 or +-1/4, so coef * s is exact
    and each weight one rounding of coef * s / h^k."""
    return [((coef * s) / (h * h) if k == 2 else (coef * s) / h if k else coef * s, v)
            for coef, stencil in terms for s, v, k in stencil]


def _assemble(terms: list, shape: tuple, tau: float | None = None):
    """CSR matrix of ``I - tau L^h``, or of the operator itself (L^h or
    M^{h,rho}) when ``tau`` is None, on a lattice of ``shape`` from its
    weighted shifts (:func:`_shifts`).

    Terms whose displacements meet on the lattice share one entry per row,
    their weights summed in term order (the identity last), so the matrix
    has no duplicate entries and its bits do not depend on a sort.
    """
    import scipy.sparse as sp
    dim = len(shape)
    scale = 1.0 if tau is None else -tau
    weights = {}
    for w, v in terms:
        key = tuple(c % N for c, N in zip(v, shape))
        part = np.broadcast_to(w, shape) * scale
        weights[key] = weights[key] + part if key in weights else part
    if tau is not None:
        origin = (0,) * dim
        weights[origin] = weights[origin] + 1.0 if origin in weights \
            else np.ones(shape)
    n, width = int(np.prod(shape)), len(weights)
    if not width:                       # no terms: a driver without b
        return sp.csr_matrix((n, n))
    idx = np.arange(n).reshape(shape)
    cols = np.stack([_shifted(idx, v, 1, dim).ravel() for v in weights], axis=1)
    data = np.stack([w.ravel() for w in weights.values()], axis=1)
    return sp.csr_matrix((data.ravel(), cols.ravel(),
                          np.arange(0, n * width + 1, width)),
                         shape=(n, n))


def _kernel(terms: list, shape: tuple) -> np.ndarray:
    """The kernel of the circulant C of weighted shifts (:func:`_shifts`) on
    a lattice of ``shape``, each weight replaced by its mean: (C phi)[j] = sum_v
    kernel[v] phi[j + v], so C's symbol is the conjugate DFT of the kernel.
    Where the weights are constant, C is the lattice operator itself."""
    kernel = np.zeros(shape)
    for w, v in terms:
        kernel[tuple(c % N for c, N in zip(v, shape))] += np.mean(w)
    return kernel


def _circulant_symbol(terms: list, shape: tuple, tau: float) -> np.ndarray:
    """Eigenvalues of ``I - tau C`` on the ``rfftn`` half-spectrum of a
    lattice of ``shape``, where C is L^h with every weight replaced by its
    mean: C is a circulant, diagonal in the discrete Fourier basis.

    Where L^h has constant coefficients, C = L^h and the symbol inverts
    ``I - tau L^h`` exactly.
    """
    symbol = 1.0 - tau * np.conj(np.fft.rfftn(_kernel(terms, shape)))
    # a vanishing mode is left unpreconditioned rather than divided by ~0
    symbol[np.abs(symbol) < 1e-12] = 1.0
    return symbol


def _circulant_solve(symbol: np.ndarray, shape: tuple, x: np.ndarray) -> np.ndarray:
    """``x`` divided by ``symbol`` in the discrete Fourier basis of ``shape``."""
    axes = tuple(range(len(shape)))
    hat = np.fft.rfftn(x.reshape(shape), axes=axes)
    hat /= symbol
    return np.fft.irfftn(hat, s=shape, axes=axes).ravel()


class _LastCall:
    """``fn`` with a memory of its last call: an input with the bits of the
    last one gets the last output again, without a new call.

    GMRES started from zero applies its preconditioner to b twice, and the
    residual check repeats its last product.  Inputs are compared by bit
    pattern, since -0.0 == 0.0; every output is a copy, since GMRES updates
    the vectors it is given in place.
    """

    def __init__(self, fn):
        self.fn, self._x, self._y = fn, None, None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self._x is None or not np.array_equal(self._x.view(np.int64),
                                                 x.view(np.int64)):
            self._x, self._y = x.copy(), self.fn(x)
        return self._y.copy()


def _solver_mode(mode: str, grid: TorusGrid) -> str:
    """``mode``, with "auto" read off ``grid``: a sparse LU on a 1-d grid of
    any size and up to ``DIRECT_SOLVE_MAX_UNKNOWNS`` points in 2-d and up,
    GMRES above; "iterative" forces GMRES on any grid."""
    if mode not in ("auto", "direct", "iterative"):
        raise ValueError(f"unknown solver mode {mode!r}")
    large = grid.dim > 1 and grid.npoints > DIRECT_SOLVE_MAX_UNKNOWNS
    return ("iterative" if large else "direct") if mode == "auto" else mode


def _factors(matrix, **options):
    """The SuperLU factors of a CSC ``matrix``; a singular one raises a
    :class:`SolveFailure` that names no step."""
    import scipy.sparse.linalg as spla
    try:
        return spla.splu(matrix, **options)
    except RuntimeError as exc:
        raise SolveFailure(f"factorization failed ({exc}); "
                           "tau may not be small enough") from exc


class ImplicitOperator:
    """GMRES for (I - tau L^h_i) on one grid, the iterative rung of
    :class:`FiniteDifferenceOperators`, which makes every sparse LU solve.

    The operator is assembled once as a sparse matrix from the expansion
    of L^h (``terms``, else read here); that matrix, ``matrix``, is
    the forward action and the matrix-vector product of GMRES.  GMRES
    solves one column at a time, preconditioned by the FFT inverse of the
    circulant with the mean weights (T. Chan's circulant preconditioner)
    and started from zero; with constant coefficients the preconditioner
    is the exact inverse and one iteration reaches the solution.  A
    solution must pass ``|b - A x| <= ITERATIVE_RTOL |b|``, else the solve
    fails with :class:`SolveFailure`.
    """

    def __init__(self, scheme, grid, tau, i, terms: list | None = None):
        import scipy.sparse.linalg as spla
        if tau < 0:
            raise SolveFailure("tau must be nonnegative")
        self.grid = grid
        self.i = i
        if terms is None:
            terms = _L_terms(_scheme_arrays(scheme, grid, i))
        terms = _shifts(terms, grid.h)
        self.matrix = _assemble(terms, grid.shape, float(tau))
        n = grid.npoints
        symbol = _circulant_symbol(terms, grid.shape, float(tau))
        # no reference back to self: a cycle would keep every step's matrix
        # alive until the cyclic garbage collector runs
        self._product = _LastCall(self.matrix.dot)
        self._A = spla.LinearOperator((n, n), matvec=self._product, dtype=float)
        self._Minv = spla.LinearOperator(
            (n, n), matvec=_LastCall(functools.partial(
                _circulant_solve, symbol, grid.shape)), dtype=float)

    def solve(self, rhs: GridField) -> GridField:
        """The GMRES solve of one field, failing at the operator's index."""
        if rhs.grid != self.grid:
            raise GridError("right-hand side lives on a different grid")
        x = self._solve_iterative(rhs.values.ravel(), self.i)
        return GridField(self.grid, x.reshape(self.grid.shape))

    def _solve_iterative(self, b: np.ndarray, step: int) -> np.ndarray:
        import scipy.sparse.linalg as spla
        if not np.isfinite(b).all():
            # GMRES would run all its iterations on NaN before giving up
            raise SolveFailure("right-hand side holds non-finite values; "
                               "tau may not be small enough", step=step)
        n = self.grid.npoints
        restart = min(50, n)
        maxiter = max(1, (10 * n) // restart)
        # started from zero: the first Krylov vector is already M^-1 b, so a
        # start of M^-1 b would save one iteration at most
        x, info = spla.gmres(self._A, b, M=self._Minv, rtol=ITERATIVE_RTOL,
                             atol=0.0, restart=restart, maxiter=maxiter)
        bnorm = np.linalg.norm(b)
        # the product GMRES formed last, for its own residual
        resid = np.linalg.norm(self._product(x) - b)
        if info != 0 or not np.all(np.isfinite(x)) or \
                resid > ITERATIVE_RTOL * max(bnorm, 1e-300):
            raise SolveFailure(
                f"iteration stalled (relative residual {resid / max(bnorm, 1e-300):.2e}); "
                "tau may not be small enough", step=step)
        return x


def _explicit_rhs(v: np.ndarray, tau: float, f: np.ndarray, g: list,
                  xi: np.ndarray, apply_M) -> np.ndarray:
    """v + tau f + sum_rho (M^rho v + g^rho) xi^rho for the columns of ``v``.

    ``g`` holds, per driver, the arrays that make up g^rho; they are added
    to M^rho v one after another, which fixes the bits of a sum of several
    terms.  A free term that is None is zero and adds no pass.  ``xi``
    holds one row per driver and one entry per column; where an increment
    is zero its term is skipped, so that column matches a run that never
    saw the driver.
    ``apply_M`` returns a new array, which the sum updates in place.
    """
    rhs = v.copy() if f is None else v + tau * f[..., None]
    for rho, xi_rho in enumerate(xi, start=1):
        nonzero = xi_rho != 0.0
        if not nonzero.any():
            continue
        term = apply_M(v, rho)
        for part in g[rho - 1]:
            if part is not None:
                term += part[..., None]
        if nonzero.all():
            rhs += term * xi_rho
        else:
            rhs[..., nonzero] += term[..., nonzero] * xi_rho[nonzero]
    return rhs


def _check_increments(increments, n, tau, d1):
    if increments.n != n:
        raise ValueError(f"increments carry {increments.n} steps, expected {n}")
    if abs(increments.tau - tau) > 1e-12 * max(tau, 1.0):
        raise ValueError("increments were sampled for a different step size")
    if increments.d1 < d1:
        raise ValueError(f"increments carry {increments.d1} drivers, need {d1}")


def increment_columns(problem: DifferentialProblem, n: int, paths) -> np.ndarray:
    """The ``(n, d1, S)`` increments of ``S`` Wiener paths, one column per
    path; ``None`` stands for the empty path of a deterministic problem."""
    tau = problem.T / n
    columns = []
    for increments in paths:
        if increments is None:
            if problem.d1 > 0:
                raise ValueError("stochastic problem needs Wiener increments")
            increments = sample_increments(n, 0, tau, 0)
        _check_increments(increments, n, tau, problem.d1)
        columns.append(increments.xi[:, :problem.d1])
    return np.stack(columns, axis=-1)


def _aborted(exc: SolveFailure) -> SolveFailure:
    """The failure a marcher records for a column whose own solve raised
    ``exc``; ``exc`` is kept as its cause."""
    failure = SolveFailure(f"scheme run aborted: {exc}")
    failure.__cause__ = exc
    return failure


def _fail(failures: dict, exc: SolveFailure, width: int) -> None:
    """Fail, in the words of ``exc``, every column of a lattice that has not
    failed yet: the whole solve of the lattice failed."""
    for k in range(width):
        failures.setdefault(k, exc)


class Marcher:
    """The implicit Euler recursion for ``S`` Wiener paths in lock-step.

    The state ``v`` is one ``operators.shape + (S,)`` array of
    ``operators.dtype``, a column per path, starting from the problem's u0,
    or from zero with ``zero_start``.  It is in the operators' own form:
    the packed lattice values of :class:`FiniteDifferenceOperators` or the
    packed half-spectra of :class:`SpectralOperators` (on a ladder of one or
    more lattices), whose ``states`` gives the real states.  The
    operators supply the problem, the lattices, the step tau, u0 and the
    free terms in that form, M^rho and the implicit solve; the right-hand
    side is assembled here for all of them.

    ``failures`` is the one failure record, a dict per lattice keyed by
    column (``failures[r][column]``), and the solve fills it in: a failure
    of a lattice's whole solve (a singular operator) fails every column of
    that lattice in its own words, and a column whose own solve fails is
    aborted.  The solve zeroes a failed column at every step, and it
    marches on, so no column leaves the state; the operators read the
    record to skip what has failed.  A marcher whose every column has
    failed no longer steps; any other solves every step, whatever its
    forcing (a corrector that vanishes identically gets no marcher).

    :meth:`march` is how every march steps and reads a marcher: it gives
    its next states, a block of consecutive indices at a time, as each
    lattice's real ``grid.shape + (rows, S)`` array, so the block's layout
    is known here alone.  Its caller reads ``failures`` after it.

    When the problem's f and every g^rho are plain numbers (or g^rho is
    absent), the free-term arrays are built once and serve every step; a
    callable free term is evaluated at every step.
    """

    def __init__(self, xi: np.ndarray, operators, zero_start: bool = False):
        self.problem = problem = operators.problem
        self.tau = operators.tau
        self.xi = xi
        self.operators = operators
        if zero_start:
            self.v = np.zeros(operators.shape + (xi.shape[-1],),
                              dtype=operators.dtype)
        else:
            self.v = np.repeat(operators.sample(problem.u0)[..., None],
                               xi.shape[-1], axis=-1)
        self.failures = [{} for _ in operators.grids]
        self.i = 0
        self._started, self._block = False, np.empty((0,) + self.v.shape)
        self._free = None
        if isinstance(problem.f, _Constant) and all(
                isinstance(ev, _Constant) for ev in problem.g.values()):
            self._free = self._free_terms(1)

    def _free_terms(self, i: int) -> tuple:
        """The problem's f_i and, per driver, the parts of g^rho_{i-1}."""
        p, evaluate = self.problem, self.operators.evaluate
        return (evaluate(p.f, i),
                [(evaluate(p.g_at, rho, i - 1),) for rho in range(1, p.d1 + 1)])

    def advance(self, forcing: tuple | None = None) -> None:
        """Step every column from index i to i + 1.

        ``forcing``, a pair ``(f, g)`` of an ``operators.shape`` array and,
        per driver, the arrays that make up g^rho, stands in for the
        problem's free terms f_{i+1} and g^rho_i, in the operators' form (as
        ``operators.evaluate`` gives them; None is zero); each is the same
        for every column.
        """
        i = self.i = self.i + 1
        width = self.v.shape[-1]
        if any(self.failures) and all(len(failed) == width
                                      for failed in self.failures):
            return
        f, g = forcing or self._free or self._free_terms(i)
        rhs = _explicit_rhs(
            self.v, self.tau, f, g, self.xi[i - 1],
            lambda v, rho: self.operators.apply_M_values(v, rho, i - 1))
        self.v = self.operators.solve_values(rhs, i, self.failures)

    def march(self, rows: int, forcing: tuple | None = None) -> list:
        """Each lattice's real ``grid.shape + (rows, S)`` states at the
        marcher's next ``rows`` indices: the first index it gives is the 0
        it starts at, and every later one is one :meth:`advance`.
        ``forcing``, if given, holds the real forcing of those steps on the
        first lattice, a ``grid.shape`` row each (``g`` per driver, its
        parts; None is zero); each array is put in the operators' form by
        one ``operators.forward`` call.  The states are made real by one
        ``operators.states`` call.  Views of the marcher's block of states
        among them hold until the next call, which reuses the block."""
        if len(self._block) < rows:     # made once: a fresh one faults in
            self._block = np.empty((rows,) + self.v.shape, self.v.dtype)
        block, steps, ops = self._block[:rows], 0, self.operators
        if forcing is not None:
            forcing = (ops.forward(forcing[0]), [
                [ops.forward(part) for part in parts] for parts in forcing[1]])

        def row(part):
            return None if part is None else part[steps].reshape(ops.shape)

        for r in range(rows):
            if self._started:
                self.advance(forcing and (row(forcing[0]), [
                    [row(part) for part in parts] for parts in forcing[1]]))
                steps += 1
            self._started = True
            block[r] = self.v
        return self.operators.states(np.moveaxis(block, 0, -2))


def _blocks(n: int) -> list:
    """The time indices 0..n in consecutive blocks, one per ``BLOCK_ROWS``
    steps to its indices; the first block also holds index 0."""
    return [range(0 if start == 1 else start, min(start + BLOCK_ROWS, n + 1))
            for start in range(1, n + 1, BLOCK_ROWS)]


def _trajectory(marcher: Marcher, grid: TorusGrid) -> Trajectory:
    """The states v_0..v_n of a one-column marcher on one lattice, restricted
    onto ``grid``, a state per call: a block of 256^2 states adds its copies
    and transforms to the resident set."""
    n = marcher.xi.shape[0]
    values = np.empty((n + 1,) + grid.shape)
    for i in range(n + 1):
        state = marcher.march(1)[0][..., 0, 0]
        if marcher.failures[0]:
            raise marcher.failures[0][0]
        values[i] = _restricted(state, marcher.operators.grids[0], grid)
    return Trajectory(grid=grid, tau=marcher.tau, values=values)


def run_space_time_scheme(problem: DifferentialProblem, scheme: DifferenceScheme,
                          grid: TorusGrid, n: int,
                          increments: BrownianIncrements | None = None,
                          solver_mode: str = "auto") -> Trajectory:
    """Run the fully discrete scheme for i = 1..n from v_0 = u0 on the grid."""
    if n < 1:
        raise ValueError("need at least one time step")
    ops = lattice_operators(problem, [grid], problem.T / n, scheme, solver_mode)
    return _trajectory(Marcher(increment_columns(problem, n, [increments]),
                               ops), grid)


# ---------------------------------------------------------------------------
# Reference realization of the time scheme (exact in space)
# ---------------------------------------------------------------------------

def _frequency_mesh(grid: TorusGrid):
    """Angular frequencies xi_a = 2 pi k_a / P_a as d mesh arrays."""
    axes = []
    for N, P in zip(grid.shape, grid.periods):
        k = np.fft.fftfreq(N) * N
        axes.append(2.0 * np.pi * k / P)
    return np.meshgrid(*axes, indexing="ij")


def _multiplier(stencil: tuple, p: int, freq: list) -> np.ndarray | None:
    """m_p = sum s p!/(p+k)! (i v . xi)^(p+k) on the angular frequencies
    ``freq`` (:func:`_frequency_mesh`): the multiplier of the p-th
    h-derivative at h = 0 of a stencil of ``(s, v, k)`` (see
    :func:`_L_terms`), or None where it vanishes.  A shift and its mirror -v
    share one power, their factors summed first, so an odd order of a
    symmetric stencil vanishes exactly."""
    factors = {}
    for s, v, k in stencil:
        n, mirror = p + k, v < tuple(-c for c in v)
        if any(v) or not n:     # T_0 is the identity, free of h
            v = tuple(-c for c in v) if mirror else v
            factors[v, n] = factors.get((v, n), 0.0) + (
                s * (-1) ** (n * mirror) * math.factorial(p) / math.factorial(n))
    parts = []
    for (v, n), factor in factors.items():
        if factor:
            iv_xi = 1j * sum((c * xi for c, xi in zip(v, freq) if c),
                             np.zeros(freq[0].shape))
            parts.append(factor * iv_xi ** n)
    return sum(parts[1:], parts[0]) if parts else None


def _limit_symbol(terms: list, freq: list) -> np.ndarray:
    """The symbol of the h -> 0 limit of expansion ``terms`` whose
    coefficients are numbers: sum coef m_0, term by term (:func:`_multiplier`)."""
    symbol = np.zeros(freq[0].shape, dtype=complex)
    for coef, stencil in terms:
        m = _multiplier(stencil, 0, freq)
        if m is not None:
            symbol += coef * m
    return symbol


def _constant_value(values: np.ndarray, kind: str, key) -> float:
    """The number of the scheme coefficient ``kind[key]`` from its ``values``
    on a lattice; one that varies in space raises :class:`SpectralModeError`."""
    scale = max(1.0, float(np.max(np.abs(values))))
    if float(np.ptp(values)) > 1e-12 * scale:
        name = ", ".join(map(str, key if kind in "ab" else (key,)))
        raise SpectralModeError(
            f"{kind}[{name}] varies in space; the spectral reference needs "
            "constant coefficients (use the fine-grid mode instead)")
    return float(values.flat[0])


def _hermitian(s: np.ndarray) -> np.ndarray:
    """H(s) of a full-spectrum symbol (see :class:`SpectralOperators`), on
    the half-spectrum; s(-k) is s flipped and rolled by one on every axis."""
    negative = np.roll(np.flip(s), 1, axis=tuple(range(s.ndim)))
    return (s + np.conj(negative))[..., :s.shape[-1] // 2 + 1] / 2


class _LatticeOperators:
    """What both operator families share.  The state of the ladder
    ``grids`` is packed: one ``shape + (S,)`` array, a column per trailing
    index, each rung's state in the family's form flattened row-major into
    its rows ``_rows[r]``, the rungs one after another.  ``sample`` (u0),
    ``evaluate`` (the free terms) and ``forward`` (a block of forcing) put
    real values in that form by the family's ``_transform``, a zero one as
    None, ``apply_M_values`` checks the driver of M^rho, and ``_finish``
    ends every solve, in the words ``_what[r]`` of each rung r; ``key`` is
    a step's time key, and ``_at`` keeps the one product of what it fixes.
    Each family supplies ``_transform``, ``states`` (the real states),
    ``_build`` (that product), ``_apply_M`` and ``solve_values``.  The
    scheme is required: ``d1`` and the time key are its own.  ``exact``
    counts the rungs on top that march the continuous operators, which
    only :class:`SpectralOperators` has.
    """

    def __init__(self, problem, grids: list, tau: float, scheme, shapes: list,
                 exact: int = 0):
        self.problem, self.scheme, self.exact = problem, scheme, exact
        self.d1 = scheme.d1
        self.grids, self.tau = list(grids), float(tau)
        self._shapes = shapes                # each rung's state, unpacked
        starts = np.cumsum([0] + [math.prod(s) for s in shapes])
        self.shape = (int(starts[-1]),)
        self._rows = [slice(a, b) for a, b in zip(starts, starts[1:])]
        self._product = None                 # (time key, its _build)
        self._what = (["factorized solve"] * (len(self.grids) - exact)
                      + ["spectral solve"] * exact)

    def key(self, i: int) -> int:
        """The time key of step i (:func:`_time_key`)."""
        return _time_key(self.scheme, i)

    def _at(self, i: int):
        """The family's ``_build(i)``, made once per time key of step i and
        kept for that key alone: the product of another key is dropped
        before ``_build`` runs, so no two products are held at once."""
        key = self.key(i)
        if self._product is None or self._product[0] != key:
            self._product = None
            self._product = (key, self._build(i))
        return self._product[1]

    def _views(self, v: np.ndarray) -> list:
        """Each rung's ``state shape + v.shape[1:]`` view of the packed rows
        of ``v``."""
        return [v[rows].reshape(shape + v.shape[1:])
                for shape, rows in zip(self._shapes, self._rows)]

    def sample(self, fn) -> np.ndarray:
        """``fn`` on every rung's coordinates, checked by ``grid.sample``,
        in the operators' form, packed."""
        return self._pack([g.sample(fn).values for g in self.grids])

    def evaluate(self, fn, *args):
        """``fn(*args, x)`` on every rung's coordinates x, in the operators'
        form, packed; None if zero."""
        values = [fn(*args, g.coordinates) * np.ones(g.shape) for g in self.grids]
        return self._pack(values) if any(v.any() for v in values) else None

    def _pack(self, values: list) -> np.ndarray:
        return np.concatenate([self._transform(v, range(g.dim)).ravel()
                               for g, v in zip(self.grids, values)])

    def forward(self, values: np.ndarray | None):
        """A real ``(rows,) + grid.shape`` block ``values`` on the first rung
        in the operators' form, row by row; None where it is zero."""
        if values is None or not values.any():
            return None
        return self._transform(values, range(1, 1 + self.grids[0].dim))

    def apply_M_values(self, values: np.ndarray, rho: int, i: int) -> np.ndarray:
        """M^rho at step i of a packed ``shape + (S,)`` array ``values``, as
        a new array."""
        if not 1 <= rho <= self.d1:
            raise GridError(f"driver index {rho} out of range 1..{self.d1}")
        return self._apply_M(values, rho, i)

    def _finish(self, x: np.ndarray, i: int, failures: list) -> np.ndarray:
        """The end of every solve ``x``, a packed ``shape + (S,)`` array, at
        step i: abort every column of a rung that holds a NaN or inf and has
        not failed yet, then zero every failed column in place (see
        :class:`Marcher`)."""
        if not np.isfinite(x).all():       # the common case, in one pass
            bad = ~np.isfinite(x)
            for r, rows in enumerate(self._rows):
                for k in np.flatnonzero(bad[rows].any(axis=0)):
                    failures[r].setdefault(int(k), _aborted(SolveFailure(
                        f"{self._what[r]} produced non-finite values; tau "
                        "may not be small enough", step=i)))
        for rows, failed in zip(self._rows, failures):
            if failed:
                x[rows, ..., list(failed)] = 0.0
        return x


class SpectralOperators(_LatticeOperators):
    """Exact per-mode operators on a ladder of torus lattices, in Fourier
    space.  A rung's state is its ``rfftn`` half-spectrum, on which a step
    is pointwise.

    The scheme is required, as for :class:`FiniteDifferenceOperators`.  The
    rungs of ``grids`` have its lattice symbols, the conjugate DFTs of the
    kernels of L^h and M^{h,rho}: its coefficients are plain numbers, so
    ``I - tau L^h`` is a circulant, solved by its factorization into
    Fourier modes.  The lattices ``exact`` follow them as rungs of the
    symbols symL and symM_rho of the continuous L and M^rho, the reference
    time scheme's: the h -> 0 limits of the same expansion, whose
    coefficients must be constant in space (checked).  Only these rungs
    have them: a study's reference rides on its ladder's march as one such
    rung, and the reference of :func:`reference_marcher` and the corrector
    system is a ladder of no lattice rung and one exact one.  ``exact`` is
    the number of those rungs on top, whose failures say "spectral solve"
    where a scheme's rung says "factorized solve".  Every element of the
    packed state goes through the operations of its rung's own march, so
    each rung has that march's bits.  The solve multiplies by ``inv =
    H(1/(1 - tau symL))`` and M^rho by ``m_rho = H(symM_rho)``, with
    ``H(s)(k) = (s(k) + conj s(-k)) / 2``: the multiplier that projecting
    every full-spectrum product on its real part realizes, which keeps the
    Nyquist lines of an even lattice real; :meth:`_build` makes them once
    per time key, from arrays it reads and does not keep.
    u0 and the free terms are transformed where they are evaluated, and
    :meth:`states` transforms back.  A rung whose ``1 - tau symL`` nearly
    vanishes fails its own columns, and a non-finite solution aborts its
    column in that rung; the others march on.
    """

    dtype = complex

    def __init__(self, problem: DifferentialProblem, grids: list, tau: float,
                 scheme: DifferenceScheme, exact: list = ()):
        rungs = list(grids) + list(exact)
        super().__init__(problem, rungs, tau, scheme, [
            g.shape[:-1] + (g.shape[-1] // 2 + 1,) for g in rungs], len(exact))

    @staticmethod
    def _transform(values: np.ndarray, axes) -> np.ndarray:
        return np.fft.rfftn(values, axes=axes)

    def states(self, v: np.ndarray) -> list:
        """Each rung's real state of ``v`` (any trailing axes)."""
        return [np.fft.irfftn(half, s=g.shape, axes=range(g.dim))
                for g, half in zip(self.grids, self._views(v))]

    def symbols(self, i: int) -> list:
        """(symL, [symM_rho]) per rung at step i, full-spectrum arrays, read
        off the expansion of the scheme's coefficient arrays at step i: a
        lattice rung's are the conjugate DFTs of their kernels, an exact
        rung's those of the h -> 0 limit (:func:`_limit_symbol`), each
        coefficient reduced to its number (:func:`_constant_value`)."""
        lattices, symbols = len(self.grids) - self.exact, []
        for r, grid in enumerate(self.grids):
            arrays = _scheme_arrays(self.scheme, grid, i)
            if r >= lattices:
                arrays = {kind: {key: _constant_value(values, kind, key)
                                 for key, values in arrays[kind].items()}
                          for kind in arrays}
            made = [np.conj(np.fft.fftn(_kernel(_shifts(terms, grid.h), grid.shape)))
                    if r < lattices else _limit_symbol(terms, _frequency_mesh(grid))
                    for terms in [_L_terms(arrays)] + _M_terms(arrays, self.d1)]
            symbols.append((made[0], made[1:]))
        return symbols

    def _build(self, i: int) -> tuple:
        """inv and the m_rho at step i, packed, and the rungs where ``1 -
        tau symL`` nearly vanishes (their inv is zero)."""
        symbols, inv, singular = self.symbols(i), [], []
        for r, (symL, _) in enumerate(symbols):
            denom = 1.0 - self.tau * symL
            if float(np.min(np.abs(denom))) < 1e-12:
                singular.append(r)
                denom = np.full(denom.shape, np.inf)
            inv.append(_hermitian(1.0 / denom).ravel())
        m = [np.concatenate([_hermitian(symM[rho]).ravel()
                             for _, symM in symbols])
             for rho in range(len(symbols[0][1]))]
        return np.concatenate(inv), m, singular

    def solve_values(self, rhs: np.ndarray, i: int, failures: list) -> np.ndarray:
        """(I - tau L)^{-1} per column, exactly per Fourier mode, in place;
        the failures go into the marcher's record ``failures`` (see
        :class:`Marcher`)."""
        inv, _, singular = self._at(i)
        for r in singular:
            _fail(failures[r], SolveFailure(
                "spectral implicit operator is singular; tau may not be "
                "small enough", step=i), rhs.shape[-1])
        rhs *= inv[:, None]
        return self._finish(rhs, i, failures)

    def _apply_M(self, values: np.ndarray, rho: int, i: int) -> np.ndarray:
        return self._at(i)[1][rho - 1][:, None] * values


class FiniteDifferenceOperators(_LatticeOperators):
    """The lattice operators of one difference scheme on a mesh ladder h,
    h/2, ... (a single grid is a one-rung ladder), all with one tau and one
    solver mode: u0 and the free terms, M^{h,rho}, and the implicit solve
    by sparse LU or GMRES, each rung's as :func:`_solver_mode` reads it
    off the rung.  The scheme is required: a march takes these operators
    from :func:`lattice_operators`, which supplies the centred scheme where
    a march has none, and only where it finds no circulant.

    A rung's state is its real ``grid.shape`` values (:meth:`states` gives
    the rungs' views), and M^{h,rho} acts on each rung's rows as one CSR
    product.  What a time key fixes is one product of :meth:`_build`, held
    for the current key alone: each rung's M^{h,rho} matrices (from
    :func:`_M_terms`), the direct rungs' block LU (:meth:`_factor`) and each
    GMRES rung's :class:`ImplicitOperator`, all made from the rungs'
    coefficient arrays, which are read once per key and not kept.  A
    time-dependent scheme refactors at every key its march asks for, 0 to
    n, and any other once per march.

    The direct-mode rungs solve together: one sparse LU of the block
    diagonal of their ``I - tau L^h`` serves the packed right-hand side.  A
    block of one rung is that rung's own LU (COLAMD order).  In a block of
    several, each block has its columns in the order of the rung's own LU
    (COLAMD and its postorder, read once from a factorization of the rung
    alone: it depends on the sparsity pattern alone) and the block diagonal
    is factored in its natural order, so every rung gets the pivots and the
    bits of its own LU.  Every sparse LU is made here; the GMRES rungs
    solve column by column through this loop, each with its own operator,
    which holds only the GMRES solve.

    The solve fills the failure record of the marcher it serves (see
    :class:`Marcher`), which is passed in since marchers may share one
    operators object; the factors are the same whichever marcher asks.  A
    rung whose factorization fails fails every column in its words, at
    every solve, which names its own step.  A direct rung whose columns
    have all failed otherwise stays in the block: its rows are solved, then
    zeroed.  A failed column gets no GMRES solve.
    """

    dtype = float

    def __init__(self, problem: DifferentialProblem, grids: list, tau: float,
                 scheme: DifferenceScheme, mode: str = "auto"):
        super().__init__(problem, grids, tau, scheme, [g.shape for g in grids])
        modes = [_solver_mode(mode, g) for g in self.grids]
        self._direct = [r for r, m in enumerate(modes) if m == "direct"]
        self._gmres = [r for r, m in enumerate(modes) if m == "iterative"]
        self._orders = {}                   # rung -> its LU's column order

    @staticmethod
    def _transform(values: np.ndarray, axes) -> np.ndarray:
        return values

    def states(self, v: np.ndarray) -> list:
        """Each rung's ``grid.shape + v.shape[1:]`` view of the packed rows
        of ``v``."""
        return self._views(v)

    def _build(self, i: int) -> tuple:
        """What the time key of step i fixes, from each rung's coefficient
        arrays, read here once and dropped on return: each rung's M^{h,rho}
        matrices, the direct rungs' block LU (:meth:`_factor`) and each
        GMRES rung's :class:`ImplicitOperator`, keyed by rung."""
        arrays = [_scheme_arrays(self.scheme, g, i) for g in self.grids]
        matrices = [[_assemble(_shifts(terms, g.h), g.shape)
                     for terms in _M_terms(a, self.d1)]
                    for a, g in zip(arrays, self.grids)]
        gmres = {r: ImplicitOperator(self.scheme, self.grids[r], self.tau, i,
                                     terms=_L_terms(arrays[r]))
                 for r in self._gmres}
        return matrices, self._factor(arrays), gmres

    def _apply_M(self, values: np.ndarray, rho: int, i: int) -> np.ndarray:
        return np.concatenate([M[rho - 1] @ values[rows]
                               for M, rows in zip(self._at(i)[0], self._rows)])

    def _factor(self, arrays: list) -> tuple:
        """The sparse LU of the block diagonal of every direct rung's ``I -
        tau L^h``, of each rung's coefficient ``arrays``: ``(factors, rows,
        columns, broken)``.  ``broken`` maps each rung whose factorization
        failed to its failure, which names no step: a key's product is made
        at whichever step first asks for it, and the solve names its own.
        The others make the block.  ``factors`` is None when no rung is
        left; ``rows`` are the block's packed rows, and row j of its
        solution is packed row ``columns[j]``, or row j of ``rows`` when
        ``columns`` is None (a block of one rung, that rung's own LU).  A
        singular block is singular in a rung of its own, since its blocks
        have their rungs' bits: each rung is then factored alone, and those
        that fail leave the block, which is factored again."""
        import scipy.sparse as sp
        matrices = {r: _assemble(_shifts(_L_terms(arrays[r]), self.grids[r].h),
                                 self.grids[r].shape, self.tau).tocsc()
                    for r in self._direct}
        lu, broken = None, {}
        while matrices and lu is None:
            try:
                if len(matrices) == 1:
                    lu = _factors(*matrices.values())
                else:
                    for r, m in matrices.items():
                        if r not in self._orders:
                            self._orders[r] = np.argsort(_factors(m).perm_c)
                    lu = _factors(sp.block_diag(
                        [m[:, self._orders[r]] for r, m in matrices.items()],
                        format="csc"), permc_spec="NATURAL")
            except SolveFailure as exc:
                failed = {}
                for r, m in matrices.items() if len(matrices) > 1 else ():
                    try:
                        _factors(m)
                    except SolveFailure as own:
                        failed[r] = own
                # should no rung fail alone, the block's failure is theirs
                for r, own in (failed or dict.fromkeys(matrices, exc)).items():
                    broken[r] = own
                    del matrices[r]
        if lu is None:
            return None, None, None, broken
        rows = np.concatenate([np.arange(self._rows[r].start,
                                         self._rows[r].stop) for r in matrices])
        # a slice where the block's rungs are adjacent, as they mostly are
        if rows[-1] - rows[0] + 1 == rows.size:
            rows = slice(rows[0], rows[-1] + 1)
        columns = None if len(matrices) == 1 else np.concatenate(
            [self._rows[r].start + self._orders[r] for r in matrices])
        return lu, rows, columns, broken

    def solve_values(self, rhs: np.ndarray, i: int, failures: list) -> np.ndarray:
        """Every rung's solve of its view of ``rhs``: the direct rungs' in
        one block solve, the others' column by column.  The failures go
        into the marcher's record ``failures``, and a failed column is
        zeroed."""
        width = rhs.shape[-1]
        _, (lu, block, columns, broken), gmres = self._at(i)
        for r, exc in broken.items():
            _fail(failures[r], SolveFailure(str(exc), step=i), width)
        out = np.empty(rhs.shape)
        if lu is not None:
            y = lu.solve(rhs[block])
            if columns is None and len(y) == len(out):
                out = y                  # one rung, the whole state
            else:
                out[block if columns is None else columns] = y
        for r, op in gmres.items():
            rows = self._rows[r]
            for k in range(width):
                if k in failures[r]:
                    continue
                try:
                    out[rows, k] = op._solve_iterative(
                        np.ascontiguousarray(rhs[rows, k]), i)
                except SolveFailure as exc:
                    failures[r][k] = _aborted(exc)
        return self._finish(out, i, failures)


def lattice_operators(problem: DifferentialProblem, grids: list, tau: float,
                      scheme: DifferenceScheme | None = None,
                      mode: str = "auto", exact: list = ()):
    """The operators of every lattice march (a study's ladder, a scheme run,
    a fine-grid reference and its correctors), the scheme's, or the centred
    scheme's, on the ladder ``grids``: where every grid is 1-d, every
    coefficient of the scheme is a plain number and ``mode`` is not
    "iterative", ``I - tau L^h`` and every M^{h,rho} are circulants, and the
    rungs march on their lattice symbols (:class:`SpectralOperators`), with
    the lattices ``exact`` on top as rungs of the continuous symbols;
    otherwise on :class:`FiniteDifferenceOperators` in ``mode``, each rung
    with the solver :func:`_solver_mode` reads off it.  Only a circulant
    ladder carries ``exact``: asked for on any other, it raises
    :class:`SpectralModeError`, naming a coefficient of the scheme that
    varies in space where there is one."""
    _solver_mode(mode, grids[0])
    scheme = build_scheme_example1(problem) if scheme is None else scheme
    if mode != "iterative" and all(g.dim == 1 for g in grids) and all(
            isinstance(ev, _Constant) for terms in (scheme.a, scheme.b,
                                                    scheme.p, scheme.q)
            for ev in terms.values()):
        return SpectralOperators(problem, grids, tau, scheme, exact)
    if exact:   # name a coefficient that varies in space, if one does
        SpectralOperators(problem, [], tau, scheme, exact).symbols(1)
        raise SpectralModeError("only a circulant ladder carries an exact "
                                "rung; use the fine-grid mode instead")
    return FiniteDifferenceOperators(problem, grids, tau, scheme, mode)


REFERENCE_MODES = ("spectral-const-coef", "fine-grid")


def reference_marcher(problem: DifferentialProblem, grid: TorusGrid,
                      xi: np.ndarray, mode: str = "spectral-const-coef",
                      refine: int = 3) -> Marcher:
    """Marcher of the reference time scheme for ``grid``: that of
    :func:`run_reference_time_scheme` and of the corrector system.  A
    convergence study marches none: its spectral reference rides on the
    ladder's own march (``lattice_operators(..., exact=...)``), and its
    fine-grid reference is extrapolated from the ladder.

    spectral-const-coef marches :class:`SpectralOperators` on ``grid``
    itself, exactly per mode; fine-grid marches the centred scheme on the
    one-rung ladder of a 2**refine times finer lattice, on the operators
    :func:`lattice_operators` chooses, and its states are read on ``grid``
    by restriction from that lattice, ``operators.grids[0]``.  Either way
    its failure record holds one dict.
    """
    if mode not in REFERENCE_MODES:
        raise ValueError(f"unknown reference mode {mode!r}; "
                         f"choose from {REFERENCE_MODES}")
    tau = problem.T / xi.shape[0]
    if mode == "fine-grid":
        fine = grid.refined(2 ** refine)
        return Marcher(xi, lattice_operators(problem, [fine], tau))
    return Marcher(xi, SpectralOperators(
        problem, [], tau, build_scheme_example1(problem), [grid]))


def run_reference_time_scheme(problem: DifferentialProblem, grid: TorusGrid,
                              n: int,
                              increments: BrownianIncrements | None = None,
                              mode: str = "spectral-const-coef",
                              refine: int = 3) -> Trajectory:
    """Reference solution of the time scheme on ``grid``.

    spectral-const-coef: exact per-mode implicit Euler recursion (requires
    spatially constant coefficients; free terms may vary).  fine-grid: runs
    the centred scheme on a 2**refine times finer lattice and restricts back.
    """
    if n < 1:
        raise ValueError("need at least one time step")
    return _trajectory(reference_marcher(
        problem, grid, increment_columns(problem, n, [increments]), mode,
        refine), grid)


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

_TRAJ_MAGIC = b"SPFDTR01"


def export_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV rows (i, t, index, x..., value), row-major over grid points."""
    d = traj.grid.dim
    coords = traj.grid.coordinates.reshape(-1, d)
    header = "i,t," + "index," + ",".join(f"x{a}" for a in range(d)) + ",value"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(traj.values):
            t = i * traj.tau
            vals = row.ravel()
            for j in range(coords.shape[0]):
                xs = ",".join(format(c, ".17g") for c in coords[j])
                fh.write(f"{i},{format(t, '.17g')},{j},{xs},"
                         f"{format(vals[j], '.17g')}\n")


def export_trajectory_binary(traj: Trajectory, path) -> None:
    """Compact dump: magic, dim/steps/h/tau header, shape, float64 payload."""
    grid = traj.grid
    with open(path, "wb") as fh:
        fh.write(_TRAJ_MAGIC)
        fh.write(struct.pack("<QQdd", grid.dim, traj.n, grid.h, traj.tau))
        fh.write(struct.pack(f"<{grid.dim}Q", *grid.shape))
        fh.write(np.ascontiguousarray(traj.values, dtype="<f8").tobytes())


TRAJECTORY_FORMATS = {"csv": (".csv", export_trajectory_csv),
                      "binary": (".bin", export_trajectory_binary)}
"""The trajectory file formats, by name: each one's file suffix and writer."""


def export_trajectory(traj: Trajectory, stem, fmt: str) -> Path:
    """Write ``traj`` in format ``fmt`` to ``stem`` plus the format's suffix,
    and return that path; an unknown format raises ``ValueError``."""
    if fmt not in TRAJECTORY_FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
    suffix, write = TRAJECTORY_FORMATS[fmt]
    path = Path(f"{stem}{suffix}")
    write(traj, path)
    return path


def load_trajectory_binary(path) -> Trajectory:
    """Read a dump of :func:`export_trajectory_binary`.  A file that is cut
    short or too long, or whose step size is not positive and finite,
    raises ``ValueError``; a non-finite payload raises :class:`GridError`."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_TRAJ_MAGIC))
        if magic != _TRAJ_MAGIC:
            raise ValueError(f"not a trajectory dump: {path}")
        header = fh.read(32)
        if len(header) != 32:
            raise ValueError(f"truncated trajectory dump: {path}")
        dim, n, h, tau = struct.unpack("<QQdd", header)
        # bounded by the file before it is read: a corrupt dim asks for
        # any number of bytes
        if 8 * dim > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError(f"truncated trajectory dump: {path}")
        shape = fh.read(8 * dim)
        payload = fh.read()
    if not 0 < tau < math.inf:
        raise ValueError(f"step size {tau} in trajectory dump: {path}")
    grid = TorusGrid(int(dim), float(h), struct.unpack(f"<{dim}Q", shape))
    if len(payload) != 8 * (n + 1) * grid.npoints:
        raise ValueError(f"truncated trajectory dump: {path}")
    values = np.frombuffer(payload, dtype="<f8").astype(float)
    return Trajectory(grid=grid, tau=float(tau),
                      values=values.reshape((n + 1,) + grid.shape))
