"""Discrete operators, the implicit Euler step, and the scheme runners.

The implicit step solves ``(I - tau L) v_i = rhs`` where the stochastic and
free terms on the right-hand side are taken explicitly at the previous index:

    v_i = v_{i-1} + (L v_i + f_i) tau + sum_rho (M^rho v_{i-1} + g^rho_{i-1}) xi^rho_i

There is one implementation of that step, :class:`Marcher`, and it steps
``S`` Wiener paths at once, a column per path.  Its operators carry tau and
the lattices, evaluate u0 and the free terms there (``sample``,
``evaluate``) in the form their state takes, and supply
``apply_M_values``, ``solve_values``, ``keeps_zero`` and ``states``, each
lattice's real ``grid.shape + (S,)`` state.  The kernels carry the column
axis along, so every column gets the bits of a run of that path alone.
:class:`FiniteDifferenceOperators` acts on a mesh ladder h, h/2, ... as one
packed ``(sum of npoints, S)`` state, with one explicit step and one sparse
LU solve for the rungs that solve directly, each rung with the bits of its
own LU; a single grid is a one-rung ladder.  :class:`SpectralOperators` is
exact per Fourier mode on one grid, in Fourier space.  The marcher owns one
failure record for both, ``failures[r][column]`` per lattice r: a failed
column is zeroed in place, and the operators read the record to skip what
has failed.

``run_space_time_scheme`` and ``run_reference_time_scheme`` march one
column and return its states as a :class:`Trajectory`, one ``(n + 1,) +
grid.shape`` array.  The corrector system marches on the same class, from
a zero state and with its own forcing in place of the free terms f and g.
Such a marcher skips the steps whose forcing is zero while its state is
still the +0.0 it started from, where the operators' solve maps a zero
right-hand side to +0.0: the step would leave the state as it is, so the
bits are those of the step.

L^h has one form: its expansion into weighted shifts
(``_expansion_terms``), assembled once per operator into the sparse matrix
of ``I - tau L^h``.  That matrix gives the forward action, the sparse LU
factorization below a size threshold (one factorized solve for all
columns), and the matrix-vector product of GMRES above it (column by
column).  GMRES is preconditioned by the FFT inverse of the circulant with
the mean weights, which is exact when the coefficients are constant.
Failures surface as :class:`SolveFailure` (the scheme is only solvable for
small enough tau), including a step whose result holds a NaN or inf, and
are never papered over by regularization.  ``apply_L`` is a one-field
wrapper over the assembled L^h.

The reference solution of the time-discretized PDE is realized exactly per
Fourier mode when the coefficients are constant in space, or by the centred
scheme on a finer lattice, restricted where it is read, otherwise.  The
exact realization marches the ``rfftn`` half-spectrum of every column, so a
step is pointwise; u0 and the free terms are transformed once when they are
evaluated, and the real state once when it is read.
"""

import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
from .wiener import BrownianIncrements

DIRECT_SOLVE_MAX_UNKNOWNS = 4096
ITERATIVE_RTOL = 1e-11


class SolveFailure(RuntimeError):
    """Implicit solve failed; typically tau is not small enough."""

    def __init__(self, message, step=None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


class SpectralModeError(ValueError):
    """Spectral reference mode requires spatially constant coefficients."""


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
        axis: a strided view of the rows."""
        coarse = (slice(None),) + (slice(None, None, factor),) * self.grid.dim
        return Trajectory(grid=_coarse_grid(self.grid, factor), tau=self.tau,
                          values=self.values[coarse])


class SchemeSampler:
    """Caches scheme coefficient arrays on a grid, per time index.

    Time-independent schemes are sampled once and reused for every step.
    """

    def __init__(self, scheme: DifferenceScheme, grid: TorusGrid):
        self.scheme = scheme
        self.grid = grid
        self._cache = {}

    def arrays(self, i: int) -> dict:
        key = 0 if self.scheme.time_independent else i
        got = self._cache.get(key)
        if got is None:
            x = self.grid.coordinates
            s = self.scheme
            got = {
                "a": {k: ev(key, x) * np.ones(self.grid.shape)
                      for k, ev in s.a.items()},
                "b": {k: ev(key, x) * np.ones(self.grid.shape)
                      for k, ev in s.b.items()},
                "p": {k: ev(key, x) * np.ones(self.grid.shape)
                      for k, ev in s.p.items()},
                "q": {k: ev(key, x) * np.ones(self.grid.shape)
                      for k, ev in s.q.items()},
            }
            if not self.scheme.time_independent:
                self._cache.clear()  # keep at most the current step
            self._cache[key] = got
        return got


def apply_L(scheme: DifferenceScheme, phi: GridField, i: int) -> GridField:
    """Second-order difference operator at the mesh width h of the field's
    grid:

    L phi = sum_{lam,mu} a^{lam mu} d_lam d_mu phi
            + sum_{lam != 0} (p^lam d_{h,lam} phi - q^lam d_{-h,lam} phi)

    with d_lam the centred difference (identity for lam = 0) and d_{+-h,lam}
    the one-sided differences.
    """
    grid = phi.grid
    L = _assemble(_expansion_terms(SchemeSampler(scheme, grid).arrays(i),
                                   grid.h, grid.dim), grid.shape)
    return GridField(grid, (L @ phi.values.ravel()).reshape(grid.shape))


def _expansion_terms(arrays: dict, h: float, dim: int) -> list:
    """Expand L into pointwise-weighted shifts: L phi(x) = sum w(x) phi(x+h*v).

    Returns (weight_array, displacement) pairs, the one description of L^h:
    :func:`_assemble` turns them into its sparse matrix and
    :func:`_circulant_symbol` into the symbol of its mean-weight circulant.
    """
    origin = tuple([0] * dim)
    terms = []
    for (lam, mu), coef in arrays["a"].items():
        lam_nz, mu_nz = any(lam), any(mu)
        if not lam_nz and not mu_nz:
            terms.append((coef, origin))
        elif lam_nz != mu_nz:
            vec = lam if lam_nz else mu
            terms.append((coef / (2 * h), vec))
            terms.append((-coef / (2 * h), tuple(-c for c in vec)))
        else:
            w = coef / (4 * h * h)
            terms.append((w, tuple(a + b for a, b in zip(lam, mu))))
            terms.append((-w, tuple(a - b for a, b in zip(lam, mu))))
            terms.append((-w, tuple(b - a for a, b in zip(lam, mu))))
            terms.append((w, tuple(-a - b for a, b in zip(lam, mu))))
    for lam, coef in arrays["p"].items():
        terms.append((coef / h, lam))
        terms.append((-coef / h, origin))
    for lam, coef in arrays["q"].items():
        terms.append((coef / h, tuple(-c for c in lam)))
        terms.append((-coef / h, origin))
    return terms


def _nonfinite_columns(x: np.ndarray, dim: int, what: str, step: int) -> dict:
    """Failures keyed by the columns of ``x`` that hold a NaN or inf."""
    if np.isfinite(x).all():
        return {}
    bad = np.flatnonzero(~np.isfinite(x).all(axis=tuple(range(dim))))
    return {int(k): SolveFailure(f"{what} produced non-finite values; "
                                 "tau may not be small enough", step=step)
            for k in bad}


def _assemble(terms: list, shape: tuple, tau: float | None = None):
    """CSR matrix of ``I - tau L^h``, or of ``L^h`` itself when ``tau`` is
    None, on a lattice of ``shape`` from the expansion terms of L^h.

    Terms whose displacements meet on the lattice share one entry per row,
    their weights summed in term order (the identity last), so the matrix
    has no duplicate entries and its bits do not depend on a sort.
    """
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
    idx = np.arange(n).reshape(shape)
    cols = np.stack([_shifted(idx, v, 1, dim).ravel() for v in weights], axis=1)
    data = np.stack([w.ravel() for w in weights.values()], axis=1)
    return sp.csr_matrix((data.ravel(), cols.ravel(),
                          np.arange(0, n * width + 1, width)),
                         shape=(n, n))


def _circulant_symbol(terms: list, shape: tuple, tau: float) -> np.ndarray:
    """Eigenvalues of ``I - tau C`` on the ``rfftn`` half-spectrum of a
    lattice of ``shape``, where C is L^h with every weight replaced by its
    mean: C is a circulant, diagonal in the discrete Fourier basis.

    Where L^h has constant coefficients, C = L^h and the symbol inverts
    ``I - tau L^h`` exactly.
    """
    kernel = np.zeros(shape)
    for w, v in terms:
        kernel[tuple(c % N for c, N in zip(v, shape))] += np.mean(w)
    # (C phi)[j] = sum_v kernel[v] phi[j + v]: the conjugate DFT of the kernel
    symbol = 1.0 - tau * np.conj(np.fft.rfftn(kernel))
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
    """``mode``, with "auto" resolved by the size of ``grid``: a sparse LU up
    to ``DIRECT_SOLVE_MAX_UNKNOWNS`` points, GMRES above."""
    if mode not in ("auto", "direct", "iterative"):
        raise ValueError(f"unknown solver mode {mode!r}")
    if mode == "auto":
        return "direct" if grid.npoints <= DIRECT_SOLVE_MAX_UNKNOWNS else "iterative"
    return mode


def _factors(matrix, step: int, **options):
    """The SuperLU factors of a CSC ``matrix``; a singular one raises a
    :class:`SolveFailure` at ``step``."""
    try:
        return spla.splu(matrix, **options)
    except RuntimeError as exc:
        raise SolveFailure(f"factorization failed ({exc}); "
                           "tau may not be small enough", step=step) from exc


class ImplicitOperator:
    """Solve for (I - tau L^h_i) on one grid.

    The operator is assembled once as a sparse matrix from the expansion
    terms of L^h; that matrix, ``matrix``, is the forward action.  Direct mode
    factorizes it, and one factorized solve serves every column.  Iterative
    mode runs GMRES on it, one column at a time, preconditioned by the FFT
    inverse of the circulant with the mean weights (T. Chan's circulant
    preconditioner) and started from zero; with constant coefficients the
    preconditioner is the exact inverse and one iteration reaches the
    solution.
    A GMRES solution must pass ``|b - A x| <= ITERATIVE_RTOL |b|`` and a
    factorized one must be finite, else the solve fails with
    :class:`SolveFailure`.
    """

    def __init__(self, scheme, grid, tau, i, mode="auto",
                 sampler: SchemeSampler | None = None):
        if tau < 0:
            raise SolveFailure("tau must be nonnegative")
        mode = _solver_mode(mode, grid)
        self.scheme = scheme
        self.grid = grid
        self.tau = float(tau)
        self.i = i
        self.mode = mode
        self.sampler = sampler or SchemeSampler(scheme, grid)
        terms = _expansion_terms(self.sampler.arrays(i), grid.h, grid.dim)
        self.matrix = _assemble(terms, grid.shape, self.tau)
        if mode == "direct":
            self._lu = _factors(self.matrix.tocsc(), i)
        else:
            n = grid.npoints
            symbol = _circulant_symbol(terms, grid.shape, self.tau)
            # no reference back to self: a cycle would keep every step's
            # matrix alive until the cyclic garbage collector runs
            self._product = _LastCall(self.matrix.dot)
            self._A = spla.LinearOperator((n, n), matvec=self._product,
                                          dtype=float)
            self._M = spla.LinearOperator(
                (n, n), matvec=_LastCall(functools.partial(
                    _circulant_solve, symbol, grid.shape)), dtype=float)

    @functools.cached_property
    def keeps_zero(self) -> bool:
        """Whether a solve maps a +0.0 right-hand side to +0.0.  GMRES
        returns a zero right-hand side as it is; a negative pivot of the LU
        factors turns +0.0 into -0.0."""
        if self.mode != "direct" or self.tau == 0.0:
            return True
        return not np.signbit(self._lu.solve(np.zeros(self.grid.npoints))).any()

    def solve(self, rhs: GridField) -> GridField:
        if rhs.grid != self.grid:
            raise GridError("right-hand side lives on a different grid")
        x, failed = self.solve_columns(rhs.values[..., None])
        if failed:
            raise failed[0]
        return GridField(self.grid, x[..., 0])

    def solve_columns(self, rhs: np.ndarray,
                      step: int | None = None) -> tuple[np.ndarray, dict]:
        """Solve for every column of a ``grid.shape + (S,)`` right-hand side.

        Returns the solution and the failures, which name ``step`` (default:
        the operator's own index), keyed by column; the entries of a failed
        column are meaningless.
        """
        step = self.i if step is None else step
        if self.tau == 0.0:
            return rhs, {}
        if self.mode == "direct":
            x = self._lu.solve(rhs.reshape(-1, rhs.shape[-1])).reshape(rhs.shape)
            return x, _nonfinite_columns(x, self.grid.dim, "factorized solve",
                                         step)
        x = np.zeros(rhs.shape)
        failed = {}
        for k in range(rhs.shape[-1]):
            try:
                x[..., k] = self._solve_iterative(rhs[..., k].ravel(), step) \
                    .reshape(self.grid.shape)
            except SolveFailure as exc:
                failed[k] = exc
        return x, failed

    def _solve_iterative(self, b: np.ndarray, step: int) -> np.ndarray:
        if not np.isfinite(b).all():
            # GMRES would run all its iterations on NaN before giving up
            raise SolveFailure("right-hand side holds non-finite values; "
                               "tau may not be small enough", step=step)
        n = self.grid.npoints
        restart = min(50, n)
        maxiter = max(1, (10 * n) // restart)
        # started from zero: the first Krylov vector is already M^-1 b, so a
        # start of M^-1 b would save one iteration at most
        x, info = spla.gmres(self._A, b, M=self._M, rtol=ITERATIVE_RTOL,
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


def _empty_increments(n: int, tau: float) -> BrownianIncrements:
    return BrownianIncrements(n=n, d1=0, tau=tau, seed=0, xi=np.zeros((n, 0)))


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
            increments = _empty_increments(n, tau)
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


def _abort_nonfinite(x: np.ndarray, failures: dict, what: str,
                     step: int) -> None:
    """Abort every column of a lattice's solution ``x`` (rows first, a
    column per path) that holds a NaN or inf and has not failed yet."""
    for k, exc in _nonfinite_columns(x, x.ndim - 1, what, step).items():
        failures.setdefault(k, _aborted(exc))


class Marcher:
    """The implicit Euler recursion for ``S`` Wiener paths in lock-step.

    The state ``v`` is one ``operators.shape + (S,)`` array of
    ``operators.dtype``, a column per path, starting from the problem's u0,
    or from zero with ``zero_start``.  It is in the operators' own form:
    the packed lattice values of :class:`FiniteDifferenceOperators` (on a
    ladder of one or more lattices), or the half-spectrum of
    :class:`SpectralOperators`, whose ``states`` gives the real state.  The
    operators supply the lattices, the step tau, u0 and the free terms in
    that form, M^rho and the implicit solve; the right-hand side is
    assembled here for all of them.

    ``failures`` is the one failure record, a dict per lattice keyed by
    column (``failures[r][column]``), and the solve fills it in: a failure
    of a lattice's whole solve (a singular operator) fails every column of
    that lattice in its own words, and a column whose own solve fails is
    aborted.  A failed column is zeroed in place after each step and
    marches on, so no column leaves the state; the operators read the
    record to skip what has failed.  A marcher whose every column has
    failed no longer steps.

    A marcher started from zero skips every step whose forcing (``f`` and
    every part of ``g``) is zero for as long as its state has never left
    zero: such a step's right-hand side is +0.0, and where
    ``operators.keeps_zero`` says the step keeps the state and its real
    state +0.0, the state it would compute is the one it has, and its real
    state is zeros, read without a transform.  A state that returns to
    zero later is stepped as usual, since its zeros may carry a sign.

    When the problem's f and every g^rho are plain numbers (or g^rho is
    absent), the free-term arrays are built once and serve every step; a
    callable free term is evaluated at every step.
    """

    def __init__(self, problem: DifferentialProblem, xi: np.ndarray, operators,
                 zero_start: bool = False):
        self.problem = problem
        self.tau = operators.tau
        self.xi = xi
        self.operators = operators
        self._at_zero = zero_start
        if zero_start:
            self.v = np.zeros(operators.shape + (xi.shape[-1],),
                              dtype=operators.dtype)
        else:
            self.v = np.repeat(operators.sample(problem.u0)[..., None],
                               xi.shape[-1], axis=-1)
        self.failures = [{} for _ in operators.grids]
        self.i = 0
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
        if self._at_zero and not any(
                term is not None and term.any()
                for term in (f, *(part for parts in g for part in parts))) \
                and self.operators.keeps_zero(i):
            return
        self._at_zero = False
        rhs = _explicit_rhs(
            self.v, self.tau, f, g, self.xi[i - 1],
            lambda v, rho: self.operators.apply_M_values(v, rho, i - 1))
        self.v = self.operators.solve_values(rhs, i, self.failures)
        for rows, failed in zip(self.operators._rows, self.failures):
            if failed:
                self.v[rows, ..., list(failed)] = 0.0


def _march_path(marcher: Marcher, states: np.ndarray, stop: int,
                factor: int = 1, forcing: tuple | None = None) -> np.ndarray:
    """Step a one-column marcher on one lattice to index ``stop``, storing
    each real state from its current one on (zeros while it is at zero),
    restricted by ``factor`` per axis, in row i of ``states``; the first
    failure is raised.  ``forcing``, if given, holds the
    :meth:`Marcher.advance` forcing of those steps, a row each (``g`` per
    driver, its parts; None is zero)."""
    dim, shape = states.ndim - 1, marcher.operators.shape

    def store():
        states[marcher.i] = 0.0 if marcher._at_zero else _restricted(
            marcher.operators.states(marcher.v)[0][..., 0], factor, dim)

    def row(block, r):
        return None if block is None else block[r].reshape(shape)

    store()
    for r in range(stop - marcher.i):
        marcher.advance(forcing and (row(forcing[0], r), [
            [row(part, r) for part in parts] for parts in forcing[1]]))
        if marcher.failures[0]:
            raise marcher.failures[0][0]
        store()
    return states


def run_space_time_scheme(problem: DifferentialProblem, scheme: DifferenceScheme,
                          grid: TorusGrid, n: int,
                          increments: BrownianIncrements | None = None,
                          solver_mode: str = "auto") -> Trajectory:
    """Run the fully discrete scheme for i = 1..n from v_0 = u0 on the grid."""
    if n < 1:
        raise ValueError("need at least one time step")
    tau = problem.T / n
    ops = FiniteDifferenceOperators(problem, [grid], tau, scheme, solver_mode)
    marcher = Marcher(problem, increment_columns(problem, n, [increments]), ops)
    return Trajectory(grid=grid, tau=tau, values=_march_path(
        marcher, np.empty((n + 1,) + grid.shape), n))


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


def _constant_value(values: np.ndarray, what: str) -> float:
    values = np.asarray(values, dtype=float)
    scale = max(1.0, float(np.max(np.abs(values))))
    if values.size and float(np.ptp(values)) > 1e-12 * scale:
        raise SpectralModeError(
            f"{what} varies in space; the spectral reference needs constant "
            "coefficients (use the fine-grid mode instead)")
    return float(values.flat[0]) if values.size else 0.0


class SpectralOperators:
    """Exact per-mode realization of the continuous operators on a torus grid.

    Only valid for coefficients constant in space (checked); serves both the
    reference time-scheme run and the corrector system's implicit solves.
    Its one lattice is ``grid``, and its state is the ``rfftn`` half-spectrum
    of the real state: one ``shape + (S,)`` complex array, a column per
    trailing index, on which a step is pointwise.  The solve multiplies by
    ``inv = H(1/(1 - tau symL))`` and M^rho by ``m_rho = H(symM_rho)``, with
    ``H(s)(k) = (s(k) + conj s(-k)) / 2``: the multiplier that projecting
    every full-spectrum product on its real part realizes, which keeps the
    Nyquist lines of an even lattice real.  u0 and the free terms are
    transformed where they are evaluated (a zero free term is None), and
    :meth:`states` transforms back.
    """

    dtype = complex

    def __init__(self, problem: DifferentialProblem, grid: TorusGrid, tau: float):
        self.problem = problem
        self.grid = grid
        self.grids = [grid]
        self.shape = grid.shape[:-1] + (grid.shape[-1] // 2 + 1,)
        self._rows = [slice(None)]
        self.tau = float(tau)
        self._freq = _frequency_mesh(grid)
        self._axes = tuple(range(grid.dim))
        self._cache = {}
        self._multipliers_of = (None, None, None)   # (symL, inv, [m_rho])
        self._keeps_zero = {}

    def states(self, v: np.ndarray) -> list:
        """The one lattice's real state of ``v`` (any trailing axes), by one
        inverse transform."""
        return [np.fft.irfftn(v, s=self.grid.shape, axes=self._axes)]

    def forward(self, values: np.ndarray, lead: int = 0):
        """The half-spectrum of real ``values`` over the spatial axes that
        follow ``lead`` leading ones, or None when ``values`` is zero."""
        return np.fft.rfftn(values, axes=range(lead, lead + self.grid.dim)) \
            if values.any() else None

    def sample(self, fn) -> np.ndarray:
        """The spectrum of ``fn`` on the lattice coordinates, checked by
        ``grid.sample``."""
        return np.fft.rfftn(self.grid.sample(fn).values)

    def evaluate(self, fn, *args):
        """The spectrum of ``fn(*args, x)`` on the lattice coordinates x, or
        None where that is zero."""
        return self.forward(fn(*args, self.grid.coordinates)
                            * np.ones(self.grid.shape))

    def symbols(self, i: int):
        key = 0 if self.problem.time_independent else i
        got = self._cache.get(key)
        if got is None:
            p, x = self.problem, self.grid.coordinates
            d = p.d
            symL = np.zeros(self.grid.shape, dtype=complex)
            for al in range(1, d + 1):
                for be in range(1, d + 1):
                    c = _constant_value(p.a_at(al, be, key, x), f"a[{al},{be}]")
                    if c:
                        symL = symL - c * self._freq[al - 1] * self._freq[be - 1]
            for al in range(1, d + 1):
                c = (_constant_value(p.a_at(al, 0, key, x), f"a[{al},0]")
                     + _constant_value(p.a_at(0, al, key, x), f"a[0,{al}]"))
                if c:
                    symL = symL + 1j * c * self._freq[al - 1]
            symL = symL + _constant_value(p.a_at(0, 0, key, x), "a[0,0]")
            symM = []
            for rho in range(1, p.d1 + 1):
                s = np.zeros(self.grid.shape, dtype=complex)
                for al in range(1, d + 1):
                    c = _constant_value(p.b_at(al, rho, key, x), f"b[{al},{rho}]")
                    if c:
                        s = s + 1j * c * self._freq[al - 1]
                s = s + _constant_value(p.b_at(0, rho, key, x), f"b[0,{rho}]")
                symM.append(s)
            got = (symL, symM)
            if not self.problem.time_independent:
                self._cache.clear()
            self._cache[key] = got
        return got

    def _hermitian(self, s: np.ndarray) -> np.ndarray:
        """H(s) of a full-spectrum symbol, on the half-spectrum; s(-k) is s
        flipped and rolled by one on every axis."""
        negative = np.roll(np.flip(s), 1, axis=self._axes)
        return (s + np.conj(negative))[..., :self.shape[-1]] / 2

    def _multipliers(self, i: int) -> tuple:
        """inv and the m_rho at step i, built once per set of symbols: again
        only when ``symbols`` gives a new symL.  inv is None where ``1 - tau
        symL`` nearly vanishes."""
        symL, symM = self.symbols(i)
        if self._multipliers_of[0] is not symL:
            denom = 1.0 - self.tau * symL
            inv = None if float(np.min(np.abs(denom))) < 1e-12 \
                else self._hermitian(1.0 / denom)
            self._multipliers_of = (symL, inv, [self._hermitian(s) for s in symM])
        return self._multipliers_of[1:]

    def _solve(self, rhs: np.ndarray, i: int) -> np.ndarray:
        inv = self._multipliers(i)[0]
        if inv is None:
            raise SolveFailure("spectral implicit operator is singular; "
                               "tau may not be small enough", step=i)
        rhs *= inv[..., None]
        return rhs

    def solve_values(self, rhs: np.ndarray, i: int, failures: list) -> np.ndarray:
        """(I - tau L)^{-1} per column, exactly per Fourier mode, in place;
        the failures go into the marcher's record ``failures`` (see
        :class:`Marcher`)."""
        try:
            x = self._solve(rhs, i)
        except SolveFailure as exc:
            _fail(failures[0], exc, rhs.shape[-1])
            return rhs
        _abort_nonfinite(x, failures[0], "spectral solve", i)
        return x

    def keeps_zero(self, i: int) -> bool:
        """Whether the step at i from a zero state, with zero forcing, keeps
        the state +0.0 and its real state +0.0: found once per set of
        symbols by solving a zero column and transforming it back.  The
        transforms do not for every grid: where pocketfft transforms an axis
        before the last by Bluestein's algorithm (89 points, say), the real
        state holds -0.0 entries."""
        key = 0 if self.problem.time_independent else i
        if key not in self._keeps_zero:
            try:
                x = self._solve(np.zeros(self.shape + (1,), complex), i)
            except SolveFailure:
                return False
            self._keeps_zero[key] = not (np.signbit(x.view(float)).any()
                                         or np.signbit(self.states(x)[0]).any())
        return self._keeps_zero[key]

    def apply_M_values(self, values: np.ndarray, rho: int, i: int) -> np.ndarray:
        return self._multipliers(i)[1][rho - 1][..., None] * values


class FiniteDifferenceOperators:
    """The lattice operators of one difference scheme on a mesh ladder h,
    h/2, ... (a single grid is a one-rung ladder), all with one tau and one
    solver mode: u0 and the free terms, M^{h,rho}, and the implicit solve
    by sparse LU or GMRES.  Without a scheme, the centred scheme at each
    grid's own (fine) mesh stands in for the continuous L and M^rho.

    The state is packed: one ``(sum of npoints, S)`` array, each rung's
    ``grid.shape + (S,)`` state flattened row-major, the rungs one after
    another (:meth:`states` gives the rungs' views).  u0 and the free terms
    are evaluated per rung and concatenated, and M^{h,rho} is one flat
    gather per term and sign of shift (the wrap gathers ``grids._shifted``
    of each rung's index lattice), divided by each entry's own 2h.

    The direct-mode rungs solve together: one sparse LU of the block
    diagonal of their ``I - tau L^h`` serves the packed right-hand side,
    and one NaN/inf check covers its solution.  A block of one rung is that
    rung's own LU (COLAMD order).  In a block of several, each block has its
    columns in the order of the rung's own LU (COLAMD and its postorder,
    read once from a factorization of the rung alone: it depends on the
    sparsity pattern alone) and the block diagonal is factored in its
    natural order, so every rung gets the pivots and the bits of its own
    LU.  A time-dependent scheme refactors at every step.  GMRES rungs
    solve column by column through their own :class:`ImplicitOperator`.

    The solve fills the failure record of the marcher it serves (see
    :class:`Marcher`), which is passed in since marchers may share one
    operators object, and reads it: a rung whose every column has failed
    is not factored again, and a failed column gets no GMRES solve.  A rung
    whose factorization fails fails every column in its words.
    """

    dtype = float

    def __init__(self, problem: DifferentialProblem, grids: list, tau: float,
                 scheme: DifferenceScheme | None = None, mode: str = "auto"):
        self.problem = problem
        self.grids = list(grids)
        self.tau = float(tau)
        self.scheme = build_scheme_example1(problem) if scheme is None else scheme
        self.samplers = [SchemeSampler(self.scheme, g) for g in self.grids]
        sizes = [g.npoints for g in self.grids]
        starts = np.cumsum([0] + sizes)
        self.shape = (int(starts[-1]),)
        self._rows = [slice(a, b) for a, b in zip(starts, starts[1:])]
        self._two_h = np.repeat([2.0 * g.h for g in self.grids], sizes)
        self._gathers = {}
        self._terms_key, self._terms = None, None
        modes = [_solver_mode(mode, g) for g in self.grids]
        self._direct = [r for r, m in enumerate(modes) if m == "direct"]
        # rung -> (time key, its GMRES operator)
        self._gmres = {r: (None, None) for r, m in enumerate(modes)
                       if m == "iterative"}
        self._orders = {}                   # rung -> its LU's column order
        self._lu_key, self._lu, self._keeps_zero = None, None, None
        self._block, self._block_rows, self._block_columns = [], None, None

    def _key(self, i: int) -> int:
        return 0 if self.scheme.time_independent else i

    def states(self, v: np.ndarray) -> list:
        """Each rung's ``grid.shape + v.shape[1:]`` view of the packed rows
        of ``v``."""
        return [v[rows].reshape(grid.shape + v.shape[1:])
                for grid, rows in zip(self.grids, self._rows)]

    def sample(self, fn) -> np.ndarray:
        """``fn`` on every rung's coordinates, checked by ``grid.sample``,
        packed."""
        return np.concatenate([g.sample(fn).values.ravel() for g in self.grids])

    def evaluate(self, fn, *args) -> np.ndarray:
        """``fn(*args, x)`` on every rung's coordinates x, packed."""
        return np.concatenate([(fn(*args, g.coordinates) * np.ones(g.shape)).ravel()
                               for g in self.grids])

    def _gather(self, lam, s: int) -> np.ndarray:
        """Packed index of the entry each entry's shift by ``s*h*lam`` reads."""
        key = (lam, s)
        if key not in self._gathers:
            self._gathers[key] = np.concatenate([
                _shifted(np.arange(rows.start, rows.stop).reshape(grid.shape),
                         lam, s, grid.dim).ravel()
                for grid, rows in zip(self.grids, self._rows)])
        return self._gathers[key]

    def _M_terms(self, i: int, width: int) -> tuple:
        """2h and the terms of M^{h,rho} at index i, for a state of ``width``
        columns.  A term is (rho, packed coefficient, gather of the + shift,
        of the - shift), in the order of the scheme's b; lam = 0 has no
        gathers.  2h and the coefficients are repeated across the columns,
        so every product is of two arrays of one shape."""
        key = (self._key(i), width)
        if self._terms_key != key:
            arrays = [sampler.arrays(i)["b"] for sampler in self.samplers]
            terms = []
            for lam, rho in arrays[0]:
                coef = np.concatenate([b[lam, rho].ravel() for b in arrays])
                gathers = ((self._gather(lam, 1), self._gather(lam, -1))
                           if any(lam) else (None, None))
                terms.append((rho, np.repeat(coef[:, None], width, axis=1),
                              *gathers))
            self._terms_key = key
            self._terms = np.repeat(self._two_h[:, None], width, axis=1), terms
        return self._terms

    def apply_M_values(self, values: np.ndarray, rho: int, i: int) -> np.ndarray:
        if not 1 <= rho <= self.scheme.d1:
            raise GridError(f"driver index {rho} out of range 1..{self.scheme.d1}")
        out = np.zeros(values.shape)
        two_h, terms = self._M_terms(i, values.shape[1])
        for r, coef, plus, minus in terms:
            if r != rho:
                continue
            if plus is None:
                out += coef * values
                continue
            # coef * ((T_+ v - T_- v) / 2h), in place; every index is in
            # range, so "clip" only skips the bounds check
            term = np.take(values, plus, axis=0, mode="clip")
            term -= np.take(values, minus, axis=0, mode="clip")
            term /= two_h
            term *= coef
            out += term
        return out

    def _factor(self, i: int, live: list) -> dict:
        """Factor the block diagonal of the direct rungs ``live`` at step i,
        unless the factors at hand are theirs, and return the failures of
        the rungs whose factorization failed, keyed by rung.

        ``_lu`` holds the factors (None when no rung is left), ``_block``
        their rungs and ``_block_rows`` those rungs' packed rows; row j of
        the block's solution is packed row ``_block_columns[j]``, or row j
        of ``_block_rows`` for a block of one rung.  A singular block is
        singular in a rung of its own, since its blocks have their rungs'
        bits: each rung is then factored alone, and those that fail leave
        the block, which is factored again."""
        if self._lu_key == (self._key(i), live):
            return {}
        matrices = {}
        for r in live:
            grid = self.grids[r]
            matrices[r] = _assemble(_expansion_terms(
                self.samplers[r].arrays(i), grid.h, grid.dim),
                grid.shape, self.tau).tocsc()
        self._lu, self._keeps_zero = None, None
        broken = {}
        while matrices and self._lu is None:
            try:
                self._lu = self._block_factors(matrices, i)
            except SolveFailure as exc:
                failed = {}
                for r, m in matrices.items() if len(matrices) > 1 else ():
                    try:
                        _factors(m, i)
                    except SolveFailure as own:
                        failed[r] = own
                # should no rung fail alone, the block's failure is theirs
                for r, own in (failed or dict.fromkeys(matrices, exc)).items():
                    broken[r] = own
                    del matrices[r]
        self._block = list(matrices)
        self._lu_key = (self._key(i), self._block)
        if self._block:
            rows = np.concatenate([np.arange(self._rows[r].start,
                                             self._rows[r].stop)
                                   for r in self._block])
            # a slice where the block's rungs are adjacent, as they mostly are
            self._block_rows = slice(rows[0], rows[-1] + 1) \
                if rows[-1] - rows[0] + 1 == rows.size else rows
            self._block_columns = None if len(self._block) == 1 else \
                np.concatenate([self._rows[r].start + self._orders[r]
                                for r in self._block])
        return broken

    def _block_factors(self, matrices: dict, i: int):
        """The LU factors of the block diagonal of ``matrices`` (rung ->
        CSC matrix): one rung's own, or the natural-order factors of the
        blocks in their rungs' own column orders."""
        if len(matrices) == 1:
            return _factors(*matrices.values(), i)
        for r, m in matrices.items():
            if r not in self._orders:
                self._orders[r] = np.argsort(_factors(m, i).perm_c)
        return _factors(sp.block_diag(
            [m[:, self._orders[r]] for r, m in matrices.items()],
            format="csc"), i, permc_spec="NATURAL")

    def _iterative(self, r: int, i: int) -> ImplicitOperator:
        """The GMRES operator of rung r at step i."""
        key, op = self._gmres[r]
        if op is None or key != self._key(i):
            op = ImplicitOperator(self.scheme, self.grids[r], self.tau, i,
                                  mode="iterative", sampler=self.samplers[r])
            self._gmres[r] = (self._key(i), op)
        return op

    def keeps_zero(self, i: int) -> bool:
        """Whether the solve at step i maps a +0.0 right-hand side to +0.0.
        GMRES returns a zero right-hand side as it is; a negative pivot of
        the LU factors turns +0.0 into -0.0, and a factorization that fails
        maps it to nothing."""
        if self._factor(i, self._direct):
            return False
        if self._keeps_zero is None:
            self._keeps_zero = self._lu is None or not np.signbit(
                self._lu.solve(np.zeros(self._lu.shape[0]))).any()
        return self._keeps_zero

    def solve_values(self, rhs: np.ndarray, i: int, failures: list) -> np.ndarray:
        """Every rung's solve of its view of ``rhs``: the direct rungs' in
        one block solve, the others' column by column.  The failures go
        into the marcher's record ``failures``; the rows of a failed column
        are meaningless."""
        width = rhs.shape[-1]
        live = [r for r in self._direct if len(failures[r]) < width]
        for r, exc in self._factor(i, live).items():
            _fail(failures[r], exc, width)
        out = np.empty(rhs.shape)
        if self._lu is not None:
            y = self._lu.solve(rhs[self._block_rows])
            if self._block_columns is None and len(y) == len(out):
                out = y                  # one rung, the whole state
            else:
                out[self._block_rows if self._block_columns is None
                    else self._block_columns] = y
            if not np.isfinite(y).all():
                for r in self._block:
                    _abort_nonfinite(out[self._rows[r]], failures[r],
                                     "factorized solve", i)
        for r in self._gmres:
            op, rows = self._iterative(r, i), self._rows[r]
            for k in range(width):
                if k in failures[r]:
                    continue
                try:
                    out[rows, k] = op._solve_iterative(
                        np.ascontiguousarray(rhs[rows, k]), i)
                except SolveFailure as exc:
                    failures[r][k] = _aborted(exc)
        return out


REFERENCE_MODES = ("spectral-const-coef", "fine-grid")


def reference_marcher(problem: DifferentialProblem, grid: TorusGrid,
                      xi: np.ndarray, mode: str = "spectral-const-coef",
                      refine: int = 3) -> tuple[Marcher, int]:
    """Marcher of the reference time scheme for ``grid`` and the restriction
    factor that maps its one lattice's state (``operators.states``) onto
    ``grid``.

    spectral-const-coef marches :class:`SpectralOperators` on ``grid``
    itself, exactly per mode; fine-grid marches the centred scheme on a
    one-rung :class:`FiniteDifferenceOperators` ladder, a 2**refine times
    finer lattice.  Either way its failure record holds one dict.
    """
    if mode not in REFERENCE_MODES:
        raise ValueError(f"unknown reference mode {mode!r}; "
                         f"choose from {REFERENCE_MODES}")
    tau = problem.T / xi.shape[0]
    if mode == "fine-grid":
        fine = grid.refined(2 ** refine)
        return Marcher(problem, xi, FiniteDifferenceOperators(
            problem, [fine], tau)), 2 ** refine
    return Marcher(problem, xi, SpectralOperators(problem, grid, tau)), 1


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
    marcher, factor = reference_marcher(
        problem, grid, increment_columns(problem, n, [increments]), mode, refine)
    return Trajectory(grid=grid, tau=problem.T / n, values=_march_path(
        marcher, np.empty((n + 1,) + grid.shape), n, factor))


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
