"""Discrete operators, the implicit Euler step, and the scheme runners.

The implicit step solves ``(I - tau L) v_i = rhs`` where the stochastic and
free terms on the right-hand side are taken explicitly at the previous index:

    v_i = v_{i-1} + (L v_i + f_i) tau + sum_rho (M^rho v_{i-1} + g^rho_{i-1}) xi^rho_i

There is one implementation of that step, :class:`Marcher`, and it steps
``S`` Wiener paths at once: its state is one ``grid.shape + (S,)`` array
with a column per path.  The operator kernels (``_apply_M_values``, the
lattice and spectral solves) act on the spatial axes and carry the trailing
column axis along, so every column gets the same bits as a run of that path
alone.  ``apply_L`` is a one-field wrapper over the lattice operator.
``run_space_time_scheme`` and ``run_reference_time_scheme`` march one
column and return its states as a :class:`Trajectory`, one
``(n + 1,) + grid.shape`` array.  The corrector
system marches on the same class, from a zero state and with its own
forcing in place of the free terms f and g.  Such a marcher skips the
steps whose forcing is zero while its state is still the +0.0 it started
from, where the operators' solve maps a zero right-hand side to +0.0: the
step would leave the state as it is, so the bits are those of the step.
The lattice shifts inside ``_apply_M_values`` are gathers through cached
wrap indices (``grids._shifted``).

L^h has one form: its expansion into weighted shifts
(``_expansion_terms``), assembled once per operator into the sparse matrix
of ``I - tau L^h``.  That matrix gives the forward action, the sparse LU
factorization below a size threshold (one factorized solve for all
columns), and the matrix-vector product of GMRES above it (column by
column).  GMRES is preconditioned by the FFT inverse of the circulant with
the mean weights, which is exact when the coefficients are constant.
Failures surface as :class:`SolveFailure` (the scheme is only solvable for
small enough tau), including a step whose result holds a NaN or inf, and
are never papered over by regularization.

The reference solution of the time-discretized PDE is realized exactly per
Fourier mode when the coefficients are constant in space (an FFT over the
spatial axes of every column), or by the centred scheme on a finer lattice,
restricted at every step, otherwise.  Every FFT over the spatial axes goes
through ``_fft``, the one-axis transforms that ``np.fft.fftn`` runs, in its
order, without its per-call argument handling.
"""

import functools
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
    _symmetric_values,
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


def _apply_M_values(arrays: dict, values: np.ndarray, h: float, rho: int,
                    dim: int) -> np.ndarray:
    """M^{h,rho} over the first ``dim`` axes of ``values``, per column."""
    out = np.zeros(values.shape)
    for (lam, r), coef in arrays["b"].items():
        if r == rho:
            out += coef[..., None] * _symmetric_values(values, lam, h, dim)
    return out


def apply_L(scheme: DifferenceScheme, phi: GridField, h: float, i: int,
            sampler: SchemeSampler | None = None) -> GridField:
    """Second-order difference operator:

    L phi = sum_{lam,mu} a^{lam mu} d_lam d_mu phi
            + sum_{lam != 0} (p^lam d_{h,lam} phi - q^lam d_{-h,lam} phi)

    with d_lam the centred difference (identity for lam = 0) and d_{+-h,lam}
    the one-sided differences.
    """
    if h == 0:
        raise GridError("apply_L needs h != 0")
    if sampler is None:
        sampler = SchemeSampler(scheme, phi.grid)
    L = _assemble(_expansion_terms(sampler.arrays(i), h, phi.grid.dim),
                  phi.grid.shape)
    return GridField(phi.grid, (L @ phi.values.ravel()).reshape(phi.grid.shape))


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
    return np.fft.irfftn(hat / symbol, s=shape, axes=axes).ravel()


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

    def __init__(self, scheme, grid, tau, h, i, mode="auto",
                 sampler: SchemeSampler | None = None):
        if tau < 0:
            raise SolveFailure("tau must be nonnegative")
        if h == 0:
            raise GridError("implicit operator needs h != 0")
        if mode not in ("auto", "direct", "iterative"):
            raise ValueError(f"unknown solver mode {mode!r}")
        if mode == "auto":
            mode = "direct" if grid.npoints <= DIRECT_SOLVE_MAX_UNKNOWNS else "iterative"
        self.scheme = scheme
        self.grid = grid
        self.tau = float(tau)
        self.h = float(h)
        self.i = i
        self.mode = mode
        self.sampler = sampler or SchemeSampler(scheme, grid)
        terms = _expansion_terms(self.sampler.arrays(i), h, grid.dim)
        self.matrix = _assemble(terms, grid.shape, self.tau)
        if mode == "direct":
            try:
                self._lu = spla.splu(self.matrix.tocsc())
            except RuntimeError as exc:
                raise SolveFailure(f"factorization failed ({exc}); "
                                   "tau may not be small enough", step=i) from exc
        else:
            n = grid.npoints
            symbol = _circulant_symbol(terms, grid.shape, self.tau)
            self._A = spla.aslinearoperator(self.matrix)
            # no reference back to self: a cycle would keep every step's
            # matrix alive until the cyclic garbage collector runs
            self._M = spla.LinearOperator(
                (n, n), matvec=functools.partial(_circulant_solve, symbol, grid.shape),
                dtype=float)

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
        resid = np.linalg.norm(self.matrix @ x - b)
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
    terms.  ``xi`` holds one row per driver and one entry per column; where
    an increment is zero its term is skipped, so that column matches a run
    that never saw the driver.
    """
    rhs = v + tau * f[..., None]
    for rho, xi_rho in enumerate(xi, start=1):
        nonzero = xi_rho != 0.0
        if not nonzero.any():
            continue
        term = apply_M(v, rho)
        for part in g[rho - 1]:
            term = term + part[..., None]
        if nonzero.all():
            rhs = rhs + term * xi_rho
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


class Marcher:
    """The implicit Euler recursion for ``S`` Wiener paths in lock-step.

    The state ``v`` is one ``grid.shape + (S,)`` array, a column per path,
    starting from the problem's u0, or from zero with ``zero_start``.
    ``operators`` supplies M^rho and the implicit solve (lattice or
    spectral); the right-hand side is assembled here for both.  A failure of
    the whole step (a singular operator) fails every column; a column whose
    own solve fails is recorded in ``failures`` under its path index and
    dropped, while the others march on.  ``columns`` lists the path indices
    still in ``v``.

    A marcher started from zero skips every step whose forcing (``f`` and
    every part of ``g``) is zero for as long as its state has never left
    zero: such a step's right-hand side is +0.0, and where
    ``operators.keeps_zero`` says the solve maps that to +0.0, the state
    it would compute is the one it has.  A state that returns to zero
    later is stepped as usual, since its zeros may carry a sign.

    When the problem's f and every g^rho are plain numbers (or g^rho is
    absent), the free-term arrays are built once and serve every step; a
    callable free term is evaluated at every step.
    """

    def __init__(self, problem: DifferentialProblem, grid: TorusGrid,
                 xi: np.ndarray, operators, zero_start: bool = False):
        self.problem = problem
        self.grid = grid
        self.tau = problem.T / xi.shape[0]
        self.xi = xi
        self.operators = operators
        self.columns = np.arange(xi.shape[-1])
        self._at_zero = zero_start
        if zero_start:
            self.v = np.zeros(grid.shape + (xi.shape[-1],))
        else:
            self.v = np.repeat(grid.sample(problem.u0).values[..., None],
                               xi.shape[-1], axis=-1)
        self.failures = {}
        self.i = 0
        self._free = None
        if isinstance(problem.f, _Constant) and all(
                isinstance(ev, _Constant) for ev in problem.g.values()):
            self._free = self._free_terms(1)

    def _free_terms(self, i: int) -> tuple:
        """The problem's f_i and, per driver, the parts of g^rho_{i-1}."""
        p, x, shape = self.problem, self.grid.coordinates, self.grid.shape
        return (p.f(i, x) * np.ones(shape),
                [(p.g_at(rho, i - 1, x) * np.ones(shape),)
                 for rho in range(1, p.d1 + 1)])

    def advance(self, f: np.ndarray | None = None, g: list | None = None) -> None:
        """Step every live column from index i to i + 1.

        ``f`` (a ``grid.shape`` array) and ``g`` (per driver, the arrays
        that make up g^rho) stand in for the problem's free terms f_{i+1}
        and g^rho_i; each is the same for every column.
        """
        i = self.i = self.i + 1
        if not self.columns.size:
            return
        if f is None or g is None:
            free_f, free_g = self._free or self._free_terms(i)
            f = free_f if f is None else f
            g = free_g if g is None else g
        if self._at_zero and not f.any() \
                and not any(part.any() for parts in g for part in parts) \
                and self.operators.keeps_zero(i):
            return
        self._at_zero = False
        rhs = _explicit_rhs(
            self.v, self.tau, f, g, self.xi[i - 1][:, self.columns],
            lambda v, rho: self.operators.apply_M_values(v, rho, i - 1))
        try:
            v, failed = self.operators.solve_values(rhs, i)
        except SolveFailure as exc:
            v, failed = rhs, dict.fromkeys(range(self.columns.size), exc)
        else:
            failed = {k: _aborted(exc) for k, exc in failed.items()}
        if failed:
            for k, exc in failed.items():
                self.failures[int(self.columns[k])] = exc
            keep = np.ones(self.columns.size, dtype=bool)
            keep[list(failed)] = False
            self.columns, v = self.columns[keep], v[..., keep]
        self.v = v


def _march_path(marcher: Marcher, states: np.ndarray, stop: int,
                factor: int = 1, f=None, g=None) -> np.ndarray:
    """Step a one-column marcher to index ``stop``, storing each state from
    its current one on, restricted by ``factor`` per axis, in row i of
    ``states``; the first failure is raised.  ``f`` and ``g``, if given,
    hold the :meth:`Marcher.advance` arguments of those steps a row each
    (``g`` per driver, its parts)."""
    dim = states.ndim - 1
    states[marcher.i] = _restricted(marcher.v[..., 0], factor, dim)
    for r in range(stop - marcher.i):
        marcher.advance(*(() if f is None else
                          (f[r], [[part[r] for part in parts] for parts in g])))
        if marcher.failures:
            raise marcher.failures[0]
        states[marcher.i] = _restricted(marcher.v[..., 0], factor, dim)
    return states


def run_space_time_scheme(problem: DifferentialProblem, scheme: DifferenceScheme,
                          grid: TorusGrid, n: int,
                          increments: BrownianIncrements | None = None,
                          solver_mode: str = "auto") -> Trajectory:
    """Run the fully discrete scheme for i = 1..n from v_0 = u0 on the grid."""
    if n < 1:
        raise ValueError("need at least one time step")
    tau = problem.T / n
    ops = FiniteDifferenceOperators(problem, grid, tau, scheme, solver_mode)
    marcher = Marcher(problem, grid, increment_columns(problem, n, [increments]),
                      ops)
    return Trajectory(grid=grid, tau=tau, values=_march_path(
        marcher, np.empty((n + 1,) + grid.shape), n))


# ---------------------------------------------------------------------------
# Reference realization of the time scheme (exact in space)
# ---------------------------------------------------------------------------

def _fft(values: np.ndarray, axes: tuple, inverse: bool = False) -> np.ndarray:
    """``np.fft.fftn`` (or ``ifftn``) of ``values`` over ``axes``.

    The one-axis transforms run last axis first, the loop that ``fftn``
    runs, so the bits are the same; what is skipped is ``fftn``'s argument
    handling on every call.
    """
    transform = np.fft.ifft if inverse else np.fft.fft
    for axis in reversed(axes):
        values = transform(values, axis=axis)
    return values


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
    The ``*_values`` methods act on the first ``d`` axes of an array with one
    column per trailing index.
    """

    def __init__(self, problem: DifferentialProblem, grid: TorusGrid, tau: float):
        self.problem = problem
        self.grid = grid
        self.tau = float(tau)
        self._freq = _frequency_mesh(grid)
        self._axes = tuple(range(grid.dim))
        self._cache = {}
        self._keeps_zero = {}

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

    def _solve(self, rhs: np.ndarray, i: int) -> np.ndarray:
        symL, _ = self.symbols(i)
        denom = 1.0 - self.tau * symL
        if float(np.min(np.abs(denom))) < 1e-12:
            raise SolveFailure("spectral implicit operator is singular; "
                               "tau may not be small enough", step=i)
        hat = _fft(rhs, self._axes) / denom[..., None]
        return np.real(_fft(hat, self._axes, inverse=True))

    def solve_values(self, rhs: np.ndarray, i: int) -> tuple[np.ndarray, dict]:
        """(I - tau L)^{-1} per column, exactly per Fourier mode; returns the
        solution and the failures keyed by column."""
        x = self._solve(rhs, i)
        return x, _nonfinite_columns(x, self.grid.dim, "spectral solve", i)

    def keeps_zero(self, i: int) -> bool:
        """Whether the solve at step i maps a +0.0 right-hand side to +0.0,
        found by solving one zero column once per set of symbols.  It does
        not for every grid: FFT lengths that pocketfft transforms by
        Bluestein's algorithm (89 points, say) leave -0.0 entries."""
        key = 0 if self.problem.time_independent else i
        if key not in self._keeps_zero:
            try:
                x = self._solve(np.zeros(self.grid.shape + (1,)), i)
            except SolveFailure:
                return False
            self._keeps_zero[key] = not np.signbit(x).any()
        return self._keeps_zero[key]

    def apply_M_values(self, values: np.ndarray, rho: int, i: int) -> np.ndarray:
        _, symM = self.symbols(i)
        hat = _fft(values, self._axes)
        return np.real(_fft(symM[rho - 1][..., None] * hat, self._axes,
                            inverse=True))



class FiniteDifferenceOperators:
    """Lattice operators of a difference scheme on one grid: M^rho, and the
    implicit solve by sparse LU or GMRES.  Without a scheme, the centred
    scheme at the grid's own (fine) mesh stands in for the continuous L and
    M^rho.  The ``*_values`` methods act on the first ``d`` axes of an array
    with one column per trailing index."""

    def __init__(self, problem: DifferentialProblem, grid: TorusGrid, tau: float,
                 scheme: DifferenceScheme | None = None, mode: str = "auto"):
        self.problem = problem
        self.grid = grid
        self.tau = float(tau)
        self.scheme = build_scheme_example1(problem) if scheme is None else scheme
        self.mode = mode
        self.sampler = SchemeSampler(self.scheme, grid)
        self._op = None
        self._op_index = None

    def _operator(self, i: int) -> ImplicitOperator:
        if self._op is None or (not self.scheme.time_independent
                                and self._op_index != i):
            self._op = ImplicitOperator(self.scheme, self.grid, self.tau,
                                        self.grid.h, i, mode=self.mode,
                                        sampler=self.sampler)
            self._op_index = i
        return self._op

    def solve_values(self, rhs: np.ndarray, i: int) -> tuple[np.ndarray, dict]:
        return self._operator(i).solve_columns(rhs, i)

    def keeps_zero(self, i: int) -> bool:
        """Whether the solve at step i maps a +0.0 right-hand side to +0.0."""
        try:
            return self._operator(i).keeps_zero
        except SolveFailure:
            return False

    def apply_M_values(self, values: np.ndarray, rho: int, i: int) -> np.ndarray:
        if not 1 <= rho <= self.scheme.d1:
            raise GridError(f"driver index {rho} out of range 1..{self.scheme.d1}")
        return _apply_M_values(self.sampler.arrays(i), values, self.grid.h, rho,
                               self.grid.dim)


REFERENCE_MODES = ("spectral-const-coef", "fine-grid")


def reference_marcher(problem: DifferentialProblem, grid: TorusGrid,
                      xi: np.ndarray, mode: str = "spectral-const-coef",
                      refine: int = 3) -> tuple[Marcher, int]:
    """Marcher of the reference time scheme for ``grid`` and the restriction
    factor that maps its state onto ``grid``.

    spectral-const-coef marches on ``grid`` itself, exactly per mode;
    fine-grid marches the centred scheme on a 2**refine times finer lattice.
    """
    if mode not in REFERENCE_MODES:
        raise ValueError(f"unknown reference mode {mode!r}; "
                         f"choose from {REFERENCE_MODES}")
    tau = problem.T / xi.shape[0]
    if mode == "fine-grid":
        fine = grid.refined(2 ** refine)
        return Marcher(problem, fine, xi,
                       FiniteDifferenceOperators(problem, fine, tau)), 2 ** refine
    return Marcher(problem, grid, xi, SpectralOperators(problem, grid, tau)), 1


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
    short or too long raises ``ValueError``; a non-finite payload raises
    :class:`GridError`."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_TRAJ_MAGIC))
        if magic != _TRAJ_MAGIC:
            raise ValueError(f"not a trajectory dump: {path}")
        header = fh.read(32)
        if len(header) != 32:
            raise ValueError(f"truncated trajectory dump: {path}")
        dim, n, h, tau = struct.unpack("<QQdd", header)
        shape = fh.read(8 * dim)
        if len(shape) != 8 * dim:
            raise ValueError(f"truncated trajectory dump: {path}")
        payload = fh.read()
    grid = TorusGrid(int(dim), float(h), struct.unpack(f"<{dim}Q", shape))
    if len(payload) != 8 * (n + 1) * grid.npoints:
        raise ValueError(f"truncated trajectory dump: {path}")
    values = np.frombuffer(payload, dtype="<f8").astype(float)
    return Trajectory(grid=grid, tau=float(tau),
                      values=values.reshape((n + 1,) + grid.shape))
