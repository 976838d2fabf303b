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

Those operators are read off the h-free expansion of L^h and M^{h,rho}
that the lattice marches weigh (``stepper._L_terms``, ``_M_terms``): a
stencil of shifts s h^-k T_{hv} has the p-th h-derivative at 0 with the
Fourier multiplier sum s p!/(p+k)! (i v . xi)^(p+k) (``stepper._multiplier``),
one per (stencil, p); p = 0 is the continuous operator the exact rungs march.

Spatial derivatives here act on smooth reference-grid fields and are realized
by Fourier spectral differentiation, which is exact for band-limited data; a
mode-energy check rejects fields the reference grid cannot resolve.

Every trajectory is a :class:`stepper.Trajectory`, one ``(n + 1,) +
grid.shape`` array with a row per time index.  The system is lower-triangular
in the order and causal in time, so it is marched in one pass over blocks of
``stepper.BLOCK_ROWS`` time indices: the reference first, then each
corrector p by a marcher from a zero state, its forcing in place of the
free terms.  An odd corrector of a symmetric scheme vanishes identically
(its forcing is +0.0, by the expansion identities above), so it gets no
marcher, and its trajectory is +0.0.  Each marcher takes the real forcing
of a block and gives its real states in one :meth:`stepper.Marcher.march`
call; its operators put the forcing in their own form.  The forcing of
the steps to the indices of a block reads the lower orders at those
indices and the one before: each such block gets one ``np.fft.fftn`` over
the spatial axes and one sum of its rows' mode energies for the
resolution check, which every higher order reuses.  The expansion
operators ``corrector_operator_L``/``_M`` take such a block and its rows'
time indices and return one array per row; each derivative term is one
``np.fft.ifftn`` of the block times its rows' coefficient arrays, and each
Fourier multiplier is built once per system (:class:`_Multipliers`); a
term whose multiplier vanishes costs no transform.  The scheme's
coefficient arrays are read once per time key of a block, and not again
where the block before read that key (:func:`_read_arrays`); a block's
rows get them stacked once for its steps and once for the indices before
them (:func:`_coefficients`), and every operator call of the block shares
those.

A block with no nonzero entry costs nothing: no FFT, zero energy
fractions, and no operator reads it, since every term made from it is +0.0,
which adds nothing to the forcing.  Each operator that reads a nonzero
block checks it, even one that vanishes, so an unresolved field is reported
where it always was.  A block of forcing with no nonzero entry is None in
the marcher's form, so a spectral marcher transforms each block of forcing
once, a zero one not at all, and no marcher adds it.
The expansion residual subtracts strided views of the corrector arrays and
measures the remainder with one norm call.
"""

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .grids import TorusGrid, _norms, _require_finite, _restricted
from .problems import DifferenceScheme, DifferentialProblem
from .stepper import (
    Marcher,
    SolveFailure,
    Trajectory,
    _L_terms,
    _M_terms,
    _blocks,
    _frequency_mesh,
    _multiplier,
    _scheme_arrays,
    _time_key,
    export_trajectory,
    increment_columns,
    lattice_operators,
    reference_marcher,
)

RESOLUTION_ENERGY_TOL = 1e-10


class ResolutionError(ValueError):
    """Field carries energy at the highest retained modes; the reference grid
    cannot resolve the spectral derivatives requested."""


def _top_mode_mask(shape: tuple) -> np.ndarray:
    """True at the highest retained modes along any axis of ``shape``."""
    mask = np.zeros(shape, dtype=bool)
    for axis, n in enumerate(shape):
        k = np.abs(np.fft.fftfreq(n) * n)
        top = k >= (n // 2 - 1)
        dims = [1] * len(shape)
        dims[axis] = n
        mask |= top.reshape(dims)
    return mask


def _top_mode_fractions(hat: np.ndarray, mask: np.ndarray | None = None
                        ) -> np.ndarray:
    """Energy fraction carried by the highest retained modes per axis, for
    each row of a ``(rows,) + shape`` stack of spectra; ``mask`` is
    ``_top_mode_mask(shape)``, made here if not given."""
    power = np.abs(hat) ** 2
    if mask is None:
        mask = _top_mode_mask(hat.shape[1:])
    # each row is summed along a contiguous axis, which gives the bits of
    # that row summed alone (a boolean index returns Fortran order)
    total = power.reshape(len(power), -1).sum(axis=1)
    high = np.ascontiguousarray(power[:, mask]).sum(axis=1)
    return np.divide(high, total, out=np.zeros(len(power)), where=total != 0.0)


class _Multipliers:
    """The multipliers of the expansion stencils on one grid
    (:func:`stepper._multiplier`) and its top-mode mask, each built once
    when first asked for: one object serves every block of a corrector system."""

    def __init__(self, grid: TorusGrid):
        self.freq = _frequency_mesh(grid)
        self.top = _top_mode_mask(grid.shape)
        self._made = {}

    def derivative(self, stencil: tuple, p: int) -> np.ndarray | None:
        """m_p of a stencil, or None where it vanishes, from the cache."""
        if (stencil, p) not in self._made:
            self._made[stencil, p] = _multiplier(stencil, p, self.freq)
        return self._made[stencil, p]


@dataclass
class _Spectra:
    """A stack of fields on one grid, one row per time index, with their
    Fourier transforms over the spatial axes; derivatives of every row come
    from one inverse FFT of the stack.  A stack with no nonzero entry has
    no transform (``hat`` is None): its derivatives are zeros."""

    grid: TorusGrid
    values: np.ndarray   # (rows,) + grid.shape
    hat: np.ndarray | None
    multipliers: _Multipliers
    fractions: np.ndarray   # per row, from _top_mode_fractions

    def rows(self, window: slice) -> "_Spectra":
        return replace(self, values=self.values[window],
                       hat=None if self.hat is None else self.hat[window],
                       fractions=self.fractions[window])

    def check_resolution(self) -> None:
        """Raise :class:`ResolutionError` for the first unresolved row."""
        bad = np.flatnonzero(self.fractions > RESOLUTION_ENERGY_TOL)
        if bad.size:
            raise ResolutionError(
                f"highest retained modes carry {self.fractions[bad[0]]:.2e} of "
                f"the field energy (limit {RESOLUTION_ENERGY_TOL:g}); refine "
                "the reference grid")

    def derivative(self, p: int, terms: list) -> np.ndarray:
        """The p-th h-derivative at h = 0 of the expansion ``terms`` (of
        :func:`stepper._L_terms`) on every row: the sum of coef F^-1[m_p
        hat], one inverse FFT per term whose multiplier does not vanish."""
        out = np.zeros(self.values.shape)
        for coef, stencil in terms:
            m = self.multipliers.derivative(stencil, p)
            if m is not None and self.hat is not None:
                out += coef * np.real(np.fft.ifftn(
                    m * self.hat, axes=tuple(range(1, self.grid.dim + 1))))
        return out


def _spectra(grid: TorusGrid, values: np.ndarray,
             multipliers: _Multipliers | None = None) -> _Spectra:
    """Spectra of a ``(rows,) + grid.shape`` stack and the top-mode energy
    fraction of each row: one forward FFT and one energy sum, or neither
    for a stack with no nonzero entry, whose fractions are zeros."""
    multipliers = multipliers or _Multipliers(grid)
    if not values.any():
        return _Spectra(grid, values, None, multipliers, np.zeros(len(values)))
    hat = np.fft.fftn(values, axes=tuple(range(1, grid.dim + 1)))
    return _Spectra(grid, values, hat, multipliers,
                    _top_mode_fractions(hat, multipliers.top))


def _read_arrays(scheme: DifferenceScheme, grid: TorusGrid, steps,
                 held: dict | None = None) -> dict:
    """The scheme's coefficient arrays on ``grid`` by time key, for each key
    of the time indices ``steps``: those in ``held`` as they are, the
    others read once each."""
    held = held or {}
    return {key: held[key] if key in held else _scheme_arrays(scheme, grid, key)
            for key in dict.fromkeys(_time_key(scheme, i) for i in steps)}


def _coefficients(scheme: DifferenceScheme, grid: TorusGrid, steps,
                  arrays: dict | None = None) -> dict:
    """The scheme's coefficient arrays on ``grid`` at the time indices
    ``steps``, as the expansion operators take them: those of their one
    time key where they share it, else each stacked to ``(len(steps),) +
    grid.shape``.  ``arrays`` holds them by time key
    (:func:`_read_arrays`); a key it lacks is read here."""
    at = list(_read_arrays(scheme, grid, steps, arrays).values())
    if len(at) == 1:
        return at[0]
    return {kind: {key: np.stack([a[kind][key] for a in at]) for key in at[0][kind]}
            for kind in at[0]}


def corrector_operator_L(p: int, scheme: DifferenceScheme, der: _Spectra,
                         steps, coefficients: dict | None = None) -> np.ndarray:
    """p-th h-derivative of the discrete operator L^h at h = 0, applied with
    spectral accuracy to each row of the block ``der`` (from
    :func:`_spectra`), whose time indices ``steps`` lists; one array per row.
    ``coefficients`` holds the scheme's coefficient arrays on ``der.grid``
    at ``steps`` (:func:`_coefficients`), and they are read here if not
    given.

    Every row is checked for resolution first.  p = 0 is the continuous
    operator itself, which an exact rung marches; odd p vanishes for
    schemes without one-sided terms.
    """
    if p < 0:
        raise ValueError("operator order must be >= 0")
    coefficients = coefficients or _coefficients(scheme, der.grid, steps)
    der.check_resolution()
    return der.derivative(p, _L_terms(coefficients))


def corrector_operator_M(p: int, rho: int, scheme: DifferenceScheme,
                         der: _Spectra, steps,
                         coefficients: dict | None = None) -> np.ndarray:
    """p-th h-derivative of M^{h,rho} at h = 0; identically zero for odd p.

    ``der``, ``steps`` and ``coefficients`` are a block of rows, their time
    indices and the coefficient arrays there, as for
    :func:`corrector_operator_L`: each row checked, one array per row.
    """
    if p < 0:
        raise ValueError("operator order must be >= 0")
    if not 1 <= rho <= scheme.d1:
        raise ValueError(f"driver index {rho} out of range 1..{scheme.d1}")
    coefficients = coefficients or _coefficients(scheme, der.grid, steps)
    der.check_resolution()
    return der.derivative(p, _M_terms(coefficients, scheme.d1)[rho - 1])


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


def _corrector_forcing(p: int, scheme: DifferenceScheme, coefficients: list,
                       spectra: list, steps: range, xi: np.ndarray) -> tuple:
    """The ``(f, g)`` that stand in for the free terms of corrector p in
    :meth:`Marcher.advance` at the steps i in ``steps``, row by row:

        f_i          = sum_{j=1..p} C(p,j) L_j v^(p-j)_i
        g^rho_{i-1}  = the terms C(p,j) M_{j,rho} v^(p-j)_{i-1}, even j

    (M_j vanishes for odd j; the terms are added to M^rho v one by one).
    ``spectra`` holds the blocks of v^(0..p-1) at the indices
    ``steps.start - 1 .. steps.stop - 1``, ``coefficients`` the scheme's
    coefficient arrays at ``steps`` and at the indices before them
    (:func:`_coefficients`), ``xi`` the ``(n, d1)`` increments.

    Every term of a block with no nonzero entry is +0.0, so no operator
    reads such a block: its L terms add nothing to f, and its M terms are
    zeros, made as such.
    """
    now, before = slice(1, None), slice(None, -1)
    prev = range(steps.start - 1, steps.stop - 1)
    f = np.zeros((len(steps),) + spectra[0].grid.shape)
    for j in range(1, p + 1):
        if spectra[p - j].hat is not None:
            f += math.comb(p, j) * corrector_operator_L(
                j, scheme, spectra[p - j].rows(now), steps, coefficients[0])
    g = []
    for rho in range(1, xi.shape[1] + 1):
        if not xi[prev.start:prev.stop, rho - 1].any():
            g.append(())
            continue
        g.append([np.zeros(f.shape) if spectra[p - j].hat is None
                  else math.comb(p, j) * corrector_operator_M(
                      j, rho, scheme, spectra[p - j].rows(before), prev,
                      coefficients[1])
                  for j in range(2, p + 1, 2)])
    for values in (f, *(part for parts in g for part in parts)):
        _require_finite(values)
    return f, g


def run_corrector_system(k: int, problem: DifferentialProblem,
                         scheme: DifferenceScheme, refgrid: TorusGrid, n: int,
                         increments=None, reference_mode: str = "spectral-const-coef",
                         refine: int = 3) -> CorrectorSet:
    """Solve the corrector system for v^(1..k) above the reference run v^(0).

    Each corrector satisfies the implicit recursion driven by the operators
    of lower order applied to the already-known correctors: the L-side forcing
    enters at the new index i, the M-side forcing at i-1, both weighted by
    C(p, j); initial data are +0.0.  Each corrector marches a
    :class:`Marcher` from zero, with that forcing in place of the free
    terms.  A spectral reference lends it its own operators, exact per
    mode.  A fine-grid reference marches v^(0) on a lattice 2**refine
    times finer than ``refgrid`` and reads it on ``refgrid``; the
    correctors march the centred scheme on ``refgrid`` itself, on the
    operators :func:`stepper.lattice_operators` chooses.

    All orders march one block of time indices at a time (see the module
    notes): a failure or unresolved field in an earlier block is raised
    first, and within a block, one of a lower order.

    An odd corrector of a symmetric scheme (``scheme.is_symmetric``)
    vanishes identically: every odd-order multiplier of its centred stencils
    is zero, and every other term of its forcing reads an odd corrector of
    lower order.  It is not marched, and its trajectory is +0.0; its
    forcing is still made block by block, so its resolution, finiteness and
    operator checks fire as for any other order.  Every other corrector
    solves every step.  The forcing read from a zero block is made without
    a transform or an operator call.
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

    reference = reference_marcher(problem, refgrid, xi, reference_mode, refine)
    # the correctors solve with a spectral reference's own operators
    ops = reference.operators if reference_mode == "spectral-const-coef" \
        else lattice_operators(problem, [refgrid], tau)
    marchers = [reference] + [
        None if p % 2 and scheme.is_symmetric   # it vanishes: +0.0 throughout
        else Marcher(xi, ops, zero_start=True) for p in range(1, k + 1)]
    values = [np.empty((n + 1,) + refgrid.shape)] + [
        np.zeros((n + 1,) + refgrid.shape) for _ in range(k)]
    multipliers, arrays = _Multipliers(refgrid), {}
    for block in _blocks(n):
        steps = range(max(block.start, 1), block.stop)
        if k:       # the forcing reads the indices steps.start - 1 .. stop - 1
            arrays = _read_arrays(scheme, refgrid,
                                  range(steps.start - 1, steps.stop), arrays)
            coefficients = [_coefficients(scheme, refgrid, rows, arrays) for rows
                            in (steps, range(steps.start - 1, steps.stop - 1))]
        spectra = []
        for p, marcher in enumerate(marchers):
            forcing = None
            if p:
                spectra.append(_spectra(refgrid, values[p - 1][
                    steps.start - 1:steps.stop], multipliers))
                forcing = _corrector_forcing(p, scheme, coefficients, spectra,
                                             steps, xi[..., 0])
                if marcher is None:
                    continue
            states = marcher.march(len(block), forcing)[0][..., 0]
            failure = marcher.failures[0].get(0)
            if failure is not None:
                # a corrector's failed solve is reported in the solver's own
                # words, not as an aborted column of a path
                if p and isinstance(failure.__cause__, SolveFailure):
                    raise failure.__cause__ from None
                raise failure
            values[p][block.start:block.stop] = np.moveaxis(_restricted(
                states, marcher.operators.grids[0], refgrid), -1, 0)
            if p and block.start == 0:
                # its +0.0 datum, not the transform of its zero state
                values[p][0] = 0.0
    return CorrectorSet(grid=refgrid, tau=tau, k=k, trajectories=[
        Trajectory(grid=refgrid, tau=tau, values=v) for v in values])


@dataclass
class ResidualReport:
    """Norm history of the expansion remainder over the time grid."""

    sup_per_step: np.ndarray
    l2h_per_step: np.ndarray

    @property
    def max_sup(self) -> float:
        return float(np.max(self.sup_per_step))


def _weighted(terms: dict, h: float) -> list:
    """The expansion terms (h^m/m!) terms[m], in the order of ``terms``,
    which maps orders m to fields; that of order 0, weight 1, as is."""
    return [term if m == 0 else (h ** m / math.factorial(m)) * term
            for m, term in terms.items()]


def _remainder(v: np.ndarray, weighted: list) -> np.ndarray:
    """v less the weighted expansion terms, subtracted in order into one new
    array (``v`` is left as it is): the remainder of
    :func:`expansion_residual` and of the studies' rungs."""
    out = v - weighted[0]
    for term in weighted[1:]:
        out -= term
    return out


def expansion_residual(vh: Trajectory, cs: CorrectorSet,
                       k: int | None = None) -> ResidualReport:
    """Remainder v^h_i - sum_{j<=k} (h^j/j!) v^(j)_i on the trajectory's grid,
    whose mesh width is h.

    The corrector fields live on the reference grid, which must refine the
    trajectory's grid on its torus by one integer factor on every axis
    (mesh width h / factor); restriction is exact sub-sampling.  The
    trajectory and the correctors must share the time grid: the same
    number of steps and the same step size.  ``k``
    defaults to the set's own order and must lie in 0..cs.k.
    """
    if k is None:
        k = cs.k
    if k < 0:
        raise ValueError("expansion order k must be >= 0")
    if k > cs.k:
        raise ValueError(f"corrector set only carries orders up to {cs.k}")
    if vh.n != cs.n:
        raise ValueError("trajectory and correctors use different time grids")
    if abs(vh.tau - cs.tau) > 1e-12 * max(abs(vh.tau), abs(cs.tau)):
        raise ValueError(f"trajectory step size {vh.tau!r} differs from the "
                         f"correctors' {cs.tau!r}")
    factor = cs.grid.shape[0] // vh.grid.shape[0]
    if cs.grid.shape != tuple(n * factor for n in vh.grid.shape) \
            or abs(cs.grid.h * factor - vh.grid.h) > 1e-14 * vh.grid.h:
        raise ValueError(
            f"reference grid {cs.grid.shape} (h {cs.grid.h!r}) does not refine "
            f"{vh.grid.shape} (h {vh.grid.h!r}) by one factor on its torus")
    coarse = (slice(None),) + (slice(None, None, factor),) * vh.grid.dim

    acc = _remainder(vh.values, _weighted({j: cs[j].values[coarse]
                                           for j in range(k + 1)}, vh.grid.h))
    sups, l2hs = _norms(acc.reshape(len(acc), -1), vh.grid.h ** vh.grid.dim)
    return ResidualReport(sup_per_step=sups, l2h_per_step=l2hs)


def export_corrector_set(cs: CorrectorSet, directory, basename: str,
                         fmt: str = "csv") -> list:
    """Write one trajectory file per expansion order; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [export_trajectory(traj, directory / f"{basename}_order{j}", fmt)
            for j, traj in enumerate(cs.trajectories)]
