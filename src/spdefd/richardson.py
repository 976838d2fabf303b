"""Extrapolation weights, mesh-ladder combination, and order estimation.

Extrapolation forms the weighted average sum_j beta_j v^{h/2^j} whose weights
solve a Vandermonde system: the row sums force sum_j beta_j = 1 while the
remaining rows cancel the leading error powers.  Base 2 cancels h, h^2, ...
(one-sided schemes); base 4 cancels h^2, h^4, ...  and is the right ladder
for symmetric schemes, whose odd-power error terms vanish identically.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import _as_int_vector, _forward_values
from .stepper import Trajectory

MAX_LEVEL = 12


class ExtrapolationError(ValueError):
    """Mismatched ladders, unsupported levels, or bad order data."""


@dataclass(frozen=True)
class RichardsonWeights:
    """Weights beta_0..beta_k for meshes h, h/2, ..., h/2^k."""

    level: int
    base: int
    beta: np.ndarray

    def __post_init__(self):
        if self.beta.shape != (self.level + 1,):
            raise ExtrapolationError("weight vector has wrong length")

    def identity_residual(self) -> float:
        """Max violation of sum beta_j = 1 and sum beta_j base^{-ij} = 0."""
        worst = abs(float(np.sum(self.beta)) - 1.0)
        for i in range(1, self.level + 1):
            powers = float(self.base) ** (-i * np.arange(self.level + 1))
            worst = max(worst, abs(float(self.beta @ powers)))
        return worst


def vandermonde_weights(k: int, base: int) -> RichardsonWeights:
    """Solve the (k+1) x (k+1) Vandermonde system V beta = e_1 with
    V_ij = base^{-(i-1)(j-1)} by direct elimination with partial pivoting.

    Levels above 12 are rejected: the system's conditioning degrades and the
    weights would silently lose precision.
    """
    if k < 0:
        raise ExtrapolationError("extrapolation level must be >= 0")
    if k > MAX_LEVEL:
        raise ExtrapolationError(f"extrapolation level {k} exceeds the "
                                 f"conditioning guard ({MAX_LEVEL})")
    if base not in (2, 4):
        raise ExtrapolationError("base must be 2 or 4")
    i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
    V = float(base) ** (-(i * j).astype(float))
    e1 = np.zeros(k + 1)
    e1[0] = 1.0
    beta = np.linalg.solve(V, e1)
    w = RichardsonWeights(level=k, base=base, beta=beta)
    if w.identity_residual() > 1e-12:
        raise ExtrapolationError("weight identities violated after solve")
    return w


def _check_ladder(solutions, weights):
    if len(solutions) != weights.level + 1:
        raise ExtrapolationError(
            f"need {weights.level + 1} trajectories for level {weights.level}, "
            f"got {len(solutions)}")
    coarse = solutions[0]
    for j, traj in enumerate(solutions):
        if traj.n != coarse.n or abs(traj.tau - coarse.tau) > 1e-14 * coarse.tau:
            raise ExtrapolationError("trajectories do not share the time grid")
        shape, h = tuple(n * 2 ** j for n in coarse.grid.shape), coarse.grid.h / 2 ** j
        if traj.grid.shape != shape or abs(traj.grid.h - h) > 1e-14 * h:
            raise ExtrapolationError(f"ladder rung {j} has shape {traj.grid.shape}, "
                                     f"h {traj.grid.h!r}; expected {shape}, h {h!r}")


def _combine(ladder, beta) -> np.ndarray:
    """sum_j beta_j v_j over the rungs of a ladder, each (mesh h/2^j)
    already restricted onto the coarsest lattice, as a new array; level 0
    (beta = (1)) keeps every bit of v_0, the sign of a zero included."""
    acc = beta[0] * ladder[0]
    for b, values in zip(beta[1:], ladder[1:]):
        acc += b * values
    return acc


def richardson_combine(solutions, weights: RichardsonWeights) -> Trajectory:
    """Combine trajectories at meshes h, h/2, ..., h/2^k into one trajectory
    on the coarsest grid, every time step at once."""
    _check_ladder(solutions, weights)
    coarse = solutions[0]
    values = _combine([traj.restricted(2 ** j).values
                       for j, traj in enumerate(solutions)], weights.beta)
    return Trajectory(grid=coarse.grid, tau=coarse.tau, values=values)


def extrapolate_derivative(solutions, lams, weights: RichardsonWeights) -> Trajectory:
    """Composed one-sided difference (at the coarse mesh) of the combined
    trajectory; by linearity this equals combining the differenced rungs.

    Every time index is differenced in one pass, the time axis riding along
    last; the factors go in the sorted order of
    ``grids.composed_difference``, so each index gets its bits."""
    combined = richardson_combine(solutions, weights)
    grid = combined.grid
    values = np.moveaxis(combined.values, 0, -1)
    for lam in sorted(_as_int_vector(lam, grid.dim) for lam in lams):
        values = _forward_values(values, lam, grid.h, 1, grid.dim)
    return Trajectory(grid=grid, tau=combined.tau,
                      values=np.moveaxis(values, -1, 0))


EXACT_FLOOR = 1e-14
# the default distance allowed between a fitted order and the expected one
ORDER_TOLERANCE = 0.25


@dataclass
class ConvergenceReport:
    """Per-mesh errors with pairwise and least-squares order estimates."""

    hs: list
    sup_errors: list
    l2h_errors: list | None
    pairwise_orders: list
    ls_order: float
    expected_order: float | None = None
    tolerance: float = ORDER_TOLERANCE
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        if self.expected_order is None:
            return True
        return abs(self.ls_order - self.expected_order) <= self.tolerance

    def csv_rows(self):
        """Rows for the documented schema
        (h, sup_error, l2h_error, pairwise_order, ls_order, expected_order, pass)."""
        rows = []
        for idx, h in enumerate(self.hs):
            l2h = (self.l2h_errors[idx] if self.l2h_errors is not None
                   else float("nan"))
            pairwise = (self.pairwise_orders[idx - 1] if idx >= 1
                        else float("nan"))
            rows.append((h, self.sup_errors[idx], l2h, pairwise, self.ls_order,
                         float("nan") if self.expected_order is None
                         else self.expected_order,
                         int(self.passed)))
        return rows


def estimate_order(hs, errors, expected_order: float | None = None,
                   tolerance: float = ORDER_TOLERANCE,
                   l2h_errors=None) -> ConvergenceReport:
    """Pairwise orders log2(e_i / e_{i+1}) and the least-squares slope of
    log e against log h over a halving mesh ladder.

    Errors at or below 1e-14 count as exactly converged; they are excluded
    from the fit and noted, and fewer than two errors above that floor fit
    no order.  That, zero, negative or non-finite errors and mesh widths,
    and ``l2h_errors`` of another length raise :class:`ExtrapolationError`.
    """
    hs = [float(h) for h in hs]
    errors = [float(e) for e in errors]
    if len(hs) != len(errors) or len(hs) < 2:
        raise ExtrapolationError("need matching h and error lists, length >= 2")
    if l2h_errors is not None and len(l2h_errors) != len(errors):
        raise ExtrapolationError("need one l2h error per rung")
    if not np.isfinite(hs + errors).all():
        raise ExtrapolationError("mesh widths and errors must be finite")
    if any(h <= 0 for h in hs):
        raise ExtrapolationError("mesh widths must be positive")
    for a, b in zip(hs, hs[1:]):
        if abs(b - a / 2.0) > 1e-12 * a:
            raise ExtrapolationError("mesh ladder must halve at every rung")
    if any(e < 0 or e == 0 for e in errors):
        raise ExtrapolationError("errors must be positive")

    keep = [i for i, e in enumerate(errors) if e > EXACT_FLOOR]
    if len(keep) < 2:
        raise ExtrapolationError(f"{len(keep)} of {len(errors)} errors lie "
                                 f"above {EXACT_FLOOR:g}; a fit needs two")
    notes = [f"rung h={hs[i]:g} converged exactly "
             f"(error {e:.2e} <= {EXACT_FLOOR:g}); excluded"
             for i, e in enumerate(errors) if e <= EXACT_FLOOR]

    pairwise = [math.log2(errors[i] / errors[i + 1])
                for i in range(len(errors) - 1)]
    logs_h = np.log([hs[i] for i in keep])
    logs_e = np.log([errors[i] for i in keep])
    ls_order = float(np.polyfit(logs_h, logs_e, 1)[0])
    return ConvergenceReport(hs=hs, sup_errors=errors, l2h_errors=l2h_errors,
                             pairwise_orders=pairwise, ls_order=ls_order,
                             expected_order=expected_order,
                             tolerance=tolerance, notes=notes)
