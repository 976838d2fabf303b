"""Expansion operators, the corrector system, and the expansion residual.

The solution of the fully discrete scheme expands around the time-scheme
solution in powers of the mesh width,

    v^h_i = sum_{j<=k} (h^j / j!) v^(j)_i + remainder,

where v^(0) is the reference time-scheme solution and the corrector fields
v^(1..k) solve a lower-triangular system of time-discretized equations whose
forcing is built from the operators obtained by differentiating the discrete
operators with respect to h at h = 0.  For symmetric schemes (no one-sided
terms) every odd-order operator vanishes, hence so do the odd correctors;
that is what makes base-4 extrapolation possible.

Spatial derivatives here act on smooth reference-grid fields and are realized
by Fourier spectral differentiation, which is exact for band-limited data; a
mode-energy check rejects fields the reference grid cannot resolve.

Every trajectory is a :class:`stepper.Trajectory`, one ``(n + 1,) +
grid.shape`` array with a row per time index.  Corrector p is marched by
:class:`stepper.Marcher` from a zero state, with its forcing in place of the
free terms; the marcher skips the steps whose forcing is zero while its
state is still zero, so a vanishing corrector (every odd one of a symmetric
scheme) costs its forcing but no solve.  The forcing of FORCING_BLOCK_ROWS
consecutive steps is computed together: the rows of each lower-order
trajectory that the block reads are transformed by one FFT over the spatial
axes (``stepper._fft``, the transforms of ``np.fft.fftn``), the resolution
check reads each row's mode energy from that spectrum, and every derivative
term is one inverse FFT of the block times the coefficient arrays of its
rows.  The block kernels sit behind :func:`corrector_operator_L` and
:func:`corrector_operator_M`, which also take a single field.  The
expansion residual subtracts strided views of the corrector arrays and
reduces the remainder row by row.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .grids import GridField, TorusGrid, _norms, _require_finite
from .problems import DifferenceScheme, DifferentialProblem
from .stepper import (
    FiniteDifferenceOperators,
    Marcher,
    SchemeSampler,
    SolveFailure,
    SpectralOperators,
    Trajectory,
    _fft,
    _frequency_mesh,
    _march_path,
    increment_columns,
    reference_marcher,
)

RESOLUTION_ENERGY_TOL = 1e-10
# time steps whose forcing is computed together: large enough to batch the
# FFTs, small enough that the blocks add little to the resident set
FORCING_BLOCK_ROWS = 16


class ResolutionError(ValueError):
    """Field carries energy at the highest retained modes; the reference grid
    cannot resolve the spectral derivatives requested."""


def expansion_constants(p: int, r: int) -> tuple[float, float]:
    """Constants (B_p, A_{p,r}) of the h-derivatives of the differences at 0.

    B_p is 1 for even p and 0 for odd p.  A_{p,r} is p!/((r+1)!(p-r+1)!) when
    both p and r are even, else 0.
    """
    if p < 0 or r < 0:
        raise ValueError("expansion constants need nonnegative orders")
    if r > p:
        raise ValueError(f"constant A_{{p,r}} needs r <= p, got p={p}, r={r}")
    B = 1.0 if p % 2 == 0 else 0.0
    if p % 2 == 0 and r % 2 == 0:
        A = math.factorial(p) / (math.factorial(r + 1) * math.factorial(p - r + 1))
    else:
        A = 0.0
    return B, A


def _top_mode_fractions(hat: np.ndarray) -> np.ndarray:
    """Energy fraction carried by the highest retained modes per axis, for
    each row of a ``(rows,) + shape`` stack of spectra."""
    power = np.abs(hat) ** 2
    shape = hat.shape[1:]
    mask = np.zeros(shape, dtype=bool)
    for axis, n in enumerate(shape):
        k = np.abs(np.fft.fftfreq(n) * n)
        top = k >= (n // 2 - 1)
        dims = [1] * len(shape)
        dims[axis] = n
        mask |= top.reshape(dims)
    # each row is summed along a contiguous axis, which gives the bits of
    # that row summed alone (a boolean index returns Fortran order)
    total = power.reshape(len(power), -1).sum(axis=1)
    high = np.ascontiguousarray(power[:, mask]).sum(axis=1)
    return np.divide(high, total, out=np.zeros(len(power)), where=total != 0.0)


def _require_resolved(fractions: np.ndarray, tol: float) -> None:
    """Raise :class:`ResolutionError` for the first row over ``tol``."""
    bad = np.flatnonzero(fractions > tol)
    if bad.size:
        raise ResolutionError(
            f"highest retained modes carry {fractions[bad[0]]:.2e} of the field "
            f"energy (limit {tol:g}); refine the reference grid")


@dataclass
class _Spectra:
    """A stack of fields on one grid, one row per time index, with their
    Fourier transforms over the spatial axes; derivatives of every row come
    from one inverse FFT of the stack."""

    grid: TorusGrid
    values: np.ndarray   # (rows,) + grid.shape
    hat: np.ndarray
    freq: list

    @property
    def axes(self) -> tuple:
        return tuple(range(1, self.grid.dim + 1))

    def rows(self, window: slice) -> "_Spectra":
        return replace(self, values=self.values[window], hat=self.hat[window])

    def check_resolution(self) -> None:
        _require_resolved(_top_mode_fractions(self.hat), RESOLUTION_ENERGY_TOL)

    def _factor(self, lam) -> np.ndarray:
        acc = np.zeros(self.grid.shape)
        for c, xi in zip(lam, self.freq):
            if c:
                acc = acc + c * xi
        return 1j * acc

    def directional(self, lam, order: int) -> np.ndarray:
        return np.real(_fft(self._factor(lam) ** order * self.hat, self.axes,
                            inverse=True))

    def mixed(self, lam, order_lam: int, mu, order_mu: int) -> np.ndarray:
        mult = self._factor(lam) ** order_lam * self._factor(mu) ** order_mu
        return np.real(_fft(mult * self.hat, self.axes, inverse=True))


def _spectra(grid: TorusGrid, values: np.ndarray, freq=None) -> _Spectra:
    """Spectra of a ``(rows,) + grid.shape`` stack: one forward FFT."""
    return _Spectra(grid, values, _fft(values, tuple(range(1, grid.dim + 1))),
                    _frequency_mesh(grid) if freq is None else freq)


def _operand(phi, i) -> tuple[_Spectra, list]:
    """Spectra and time indices of an operator's input: one field at index
    ``i``, or a block of rows whose indices ``i`` lists."""
    if isinstance(phi, GridField):
        return _spectra(phi.grid, phi.values[None]), [i]
    return phi, i


def _coefficients(sampler: SchemeSampler, steps) -> dict:
    """The scheme's coefficient arrays at the time indices ``steps``: those
    of one index when the scheme is time-independent, else each stacked to
    ``(len(steps),) + grid.shape``."""
    if sampler.scheme.time_independent:
        return sampler.arrays(0)
    at = [sampler.arrays(i) for i in steps]
    return {kind: {key: np.stack([a[kind][key] for a in at]) for key in at[0][kind]}
            for kind in at[0]}


def corrector_operator_L(p: int, scheme: DifferenceScheme, phi, i,
                         sampler: SchemeSampler | None = None):
    """p-th h-derivative of the discrete operator L^h at h = 0, applied to a
    smooth field with spectral accuracy.

    ``phi`` is one :class:`GridField` at time index ``i``, and the result
    is a GridField; or the spectra of a block of rows of one trajectory,
    ``i`` listing their time indices, and the result is one array per row.
    Every row is checked for resolution first.
    p = 0 is the first case of the general formula: with A_{0,0} = B_0 = 1
    it is the continuous operator itself (by the consistency identities),
    and the zero-zero term, which does not depend on h, enters only there.
    Odd p vanishes identically for schemes without one-sided terms.
    """
    if p < 0:
        raise ValueError("operator order must be >= 0")
    der, steps = _operand(phi, i)
    if sampler is None:
        sampler = SchemeSampler(scheme, der.grid)
    arrays = _coefficients(sampler, steps)
    der.check_resolution()
    out = np.zeros(der.values.shape)
    B_p, _ = expansion_constants(p, 0)

    for (lam, mu), coef in arrays["a"].items():
        lam_nz, mu_nz = any(lam), any(mu)
        if lam_nz and mu_nz:
            for j in range(0, p + 1):
                _, A = expansion_constants(p, j)
                if A:
                    out += A * coef * der.mixed(lam, j + 1, mu, p - j + 1)
        elif lam_nz != mu_nz:
            # cross terms a^{lam,0} + a^{0,mu}: one centred difference left
            if B_p:
                vec = lam if lam_nz else mu
                out += (B_p / (p + 1)) * coef * der.directional(vec, p + 1)
        elif p == 0:
            out += coef * der.values
    for lam, coef in arrays["p"].items():
        out += coef / (p + 1) * der.directional(lam, p + 1)
    for lam, coef in arrays["q"].items():
        out += ((-1) ** (p + 1) / (p + 1)) * coef * der.directional(lam, p + 1)
    return GridField(phi.grid, out[0]) if isinstance(phi, GridField) else out


def corrector_operator_M(p: int, rho: int, scheme: DifferenceScheme, phi, i,
                         sampler: SchemeSampler | None = None):
    """p-th h-derivative of M^{h,rho} at h = 0; identically zero for odd p.

    ``phi`` and ``i`` are one field and its time index or a block of rows
    and their indices, as for :func:`corrector_operator_L`.
    """
    if p < 0:
        raise ValueError("operator order must be >= 0")
    if not 1 <= rho <= scheme.d1:
        raise ValueError(f"driver index {rho} out of range 1..{scheme.d1}")
    B_p, _ = expansion_constants(p, 0)
    if B_p == 0.0:
        if isinstance(phi, GridField):
            return phi.grid.zeros()
        return np.zeros(phi.values.shape)
    der, steps = _operand(phi, i)
    if sampler is None:
        sampler = SchemeSampler(scheme, der.grid)
    arrays = _coefficients(sampler, steps)
    der.check_resolution()
    out = np.zeros(der.values.shape)
    for (lam, r), coef in arrays["b"].items():
        if r != rho:
            continue
        if any(lam):
            out += (1.0 / (p + 1)) * coef * der.directional(lam, p + 1)
        elif p == 0:
            out += coef * der.values
        # the zero-vector term is h-independent: nothing for p >= 1
    return GridField(phi.grid, out[0]) if isinstance(phi, GridField) else out


@dataclass
class CorrectorSet:
    """Reference trajectory v^(0) and corrector trajectories v^(1..k), all
    on ``grid`` with step ``tau``; ``cs[j]`` is v^(j)."""

    grid: TorusGrid
    tau: float
    k: int
    trajectories: list

    def __getitem__(self, j: int) -> Trajectory:
        return self.trajectories[j]

    @property
    def n(self) -> int:
        return self.trajectories[0].n


def minimum_resolution(k: int) -> int:
    """Heuristic points-per-axis for derivatives up to order 3k + 2."""
    return 8 * (3 * k + 2)


def _corrector_forcing(p: int, scheme: DifferenceScheme, sampler: SchemeSampler,
                       trajectories: list, xi: np.ndarray):
    """Yield, for each step i = 1..n of corrector p, the ``(f, g)`` that
    stand in for the free terms in :meth:`Marcher.advance`:

        f_i          = sum_{j=1..p} C(p,j) L_j v^(p-j)_i
        g^rho_{i-1}  = the terms C(p,j) M_{j,rho} v^(p-j)_{i-1}, even j

    (M_j vanishes for odd j; the terms are added to M^rho v one by one).
    ``trajectories`` holds v^(0..p-1) and ``xi`` the ``(n, d1)``
    increments.  The forcing is computed FORCING_BLOCK_ROWS steps at a
    time: the rows of every lower-order trajectory that the block reads are
    transformed by one FFT, and each derivative term is one inverse FFT of
    the block.
    """
    grid = sampler.grid
    n = trajectories[0].n
    freq = _frequency_mesh(grid)
    now, before = slice(1, None), slice(None, -1)
    for start in range(1, n + 1, FORCING_BLOCK_ROWS):
        steps = range(start, min(start + FORCING_BLOCK_ROWS, n + 1))
        spectra = [_spectra(grid, traj.values[start - 1:steps.stop], freq)
                   for traj in trajectories[:p]]
        f = np.zeros((len(steps),) + grid.shape)
        for j in range(1, p + 1):
            f += math.comb(p, j) * corrector_operator_L(
                j, scheme, spectra[p - j].rows(now), steps, sampler)
        g = []
        for rho in range(1, xi.shape[1] + 1):
            if not xi[start - 1:steps.stop - 1, rho - 1].any():
                g.append(())
                continue
            g.append([math.comb(p, j) * corrector_operator_M(
                j, rho, scheme, spectra[p - j].rows(before),
                range(start - 1, steps.stop - 1), sampler)
                for j in range(2, p + 1, 2)])
        for values in (f, *(part for parts in g for part in parts)):
            _require_finite(values)
        for r in range(len(steps)):
            yield f[r], [tuple(part[r] for part in parts) for parts in g]


def run_corrector_system(k: int, problem: DifferentialProblem,
                         scheme: DifferenceScheme, refgrid: TorusGrid, n: int,
                         increments=None, reference_mode: str = "spectral-const-coef",
                         refine: int = 3) -> CorrectorSet:
    """Solve the corrector system for v^(1..k) above the reference run v^(0).

    Each corrector satisfies the implicit recursion driven by the operators
    of lower order applied to the already-known correctors: the L-side forcing
    enters at the new index i, the M-side forcing at i-1, both weighted by
    C(p, j); initial data are zero.  The recursion is the
    reference's own :class:`Marcher` started from zero, with that forcing
    in place of the free terms, so the implicit solve is the reference
    realization of (I - tau L): exact per mode for constant coefficients,
    the centred lattice on the reference grid otherwise.

    While a corrector's forcing is zero and its state has never left zero,
    its steps are skipped: no right-hand side, no M^rho, no solve.  The
    state stays the +0.0 array those steps would return; the operators'
    ``keeps_zero`` checks, once per operator, that their solve does return
    +0.0, and where it leaves -0.0 entries the steps run as before.  The
    forcing is still computed, and checked, block by block.  So a vanishing
    corrector marches no solve, and a corrector whose forcing starts late
    starts solving when it does.
    """
    if k < 0:
        raise ValueError("expansion order k must be >= 0")
    if n < 1:
        raise ValueError("need at least one time step")
    if min(refgrid.shape) < minimum_resolution(k):
        warnings.warn(
            f"reference grid has {min(refgrid.shape)} points per axis; "
            f"the heuristic floor for k={k} is {minimum_resolution(k)} "
            "(corrector derivatives may be under-resolved)",
            RuntimeWarning, stacklevel=2)
    tau = problem.T / n
    xi = increment_columns(problem, n, [increments])

    marcher, factor = reference_marcher(problem, refgrid, xi, reference_mode,
                                        refine)
    trajectories = [Trajectory(grid=refgrid, tau=tau,
                               values=_march_path(marcher, n, refgrid, factor))]
    if reference_mode == "spectral-const-coef":
        ops = SpectralOperators(problem, refgrid, tau)
    else:
        ops = FiniteDifferenceOperators(problem, refgrid, tau)
    sampler = SchemeSampler(scheme, refgrid)
    for p in range(1, k + 1):
        marcher = Marcher(problem, refgrid, xi, ops, zero_start=True)
        forcing = _corrector_forcing(p, scheme, sampler, trajectories,
                                     xi[..., 0])
        try:
            values = _march_path(marcher, n, refgrid, forcing=forcing)
        except SolveFailure as exc:
            # report a failed solve in the solver's own words, not as an
            # aborted column of a path
            if isinstance(exc.__cause__, SolveFailure):
                raise exc.__cause__ from None
            raise
        trajectories.append(Trajectory(grid=refgrid, tau=tau, values=values))
    return CorrectorSet(grid=refgrid, tau=tau, k=k, trajectories=trajectories)


@dataclass
class ResidualReport:
    """Norm history of the expansion remainder over the time grid."""

    sup_per_step: np.ndarray
    l2h_per_step: np.ndarray

    @property
    def max_sup(self) -> float:
        return float(np.max(self.sup_per_step))

    @property
    def max_l2h(self) -> float:
        return float(np.max(self.l2h_per_step))


def _weighted(terms: list, h: float) -> list:
    """The expansion terms (h^m/m!) terms[m]; the first, weight 1, as is."""
    return [term if m == 0 else (h ** m / math.factorial(m)) * term
            for m, term in enumerate(terms)]


def _remainder(v: np.ndarray, weighted: list) -> np.ndarray:
    """v less the weighted expansion terms, subtracted in order: the
    remainder of :func:`expansion_residual` and of the studies' rungs."""
    for term in weighted:
        v = v - term
    return v


def expansion_residual(vh: Trajectory, cs: CorrectorSet, h: float | None = None,
                       k: int | None = None) -> ResidualReport:
    """Remainder v^h_i - sum_{j<=k} (h^j/j!) v^(j)_i on the trajectory's grid.

    The corrector fields live on the reference grid, which must refine the
    trajectory's grid by one common integer factor per axis; restriction is
    exact sub-sampling.  The trajectory and the correctors must share the
    time grid: the same number of steps and the same step size.
    """
    if k is None:
        k = cs.k
    if k > cs.k:
        raise ValueError(f"corrector set only carries orders up to {cs.k}")
    if h is None:
        h = vh.grid.h
    if vh.n != cs.n:
        raise ValueError("trajectory and correctors use different time grids")
    if abs(vh.tau - cs.tau) > 1e-12 * max(abs(vh.tau), abs(cs.tau)):
        raise ValueError(f"trajectory step size {vh.tau!r} differs from the "
                         f"correctors' {cs.tau!r}")
    factors = set()
    for a, b in zip(cs.grid.shape, vh.grid.shape):
        if a % b:
            raise ValueError(
                f"reference grid shape {cs.grid.shape} is not a multiple "
                f"refinement of {vh.grid.shape}")
        factors.add(a // b)
    if len(factors) != 1:
        raise ValueError("reference grid uses different refinement factors "
                         "per axis")
    coarse = (slice(None),) + (slice(None, None, factors.pop()),) * vh.grid.dim

    acc = _remainder(vh.values, _weighted([cs[j].values[coarse]
                                           for j in range(k + 1)], h))
    sups, l2hs = _norms(acc.reshape(len(acc), -1), vh.grid.h ** vh.grid.dim)
    return ResidualReport(sup_per_step=sups, l2h_per_step=l2hs)


def export_corrector_set(cs: CorrectorSet, directory, basename: str,
                         fmt: str = "csv") -> list:
    """Write one trajectory file per expansion order; returns the paths."""
    from pathlib import Path

    from .stepper import export_trajectory_binary, export_trajectory_csv

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for j, traj in enumerate(cs.trajectories):
        if fmt == "csv":
            path = directory / f"{basename}_order{j}.csv"
            export_trajectory_csv(traj, path)
        elif fmt == "binary":
            path = directory / f"{basename}_order{j}.bin"
            export_trajectory_binary(traj, path)
        else:
            raise ValueError(f"unknown export format {fmt!r}")
        paths.append(path)
    return paths
