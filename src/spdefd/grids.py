"""Periodic lattice grids, grid functions, shift/difference operators, and norms.

The spatial domain is a d-dimensional torus sampled on a uniform lattice with
one common mesh width ``h`` for every axis.  All difference operators are
built from the shift ``(T phi)(x) = phi(x + h*lam)`` with periodic wraparound,
so every operator identity (commutation, summation by parts, skew-adjointness
of centred differences) holds exactly, with no boundary treatment.

Conventions:

* The mesh width is part of the grid: every operator on a field reads ``h``
  from the field's :class:`TorusGrid`, which rejects an ``h`` that is not
  positive and finite.
* ``forward_difference`` (array kernel ``_forward_values``) is
  ``(T_{h,lam} - I)/h``; with ``sign=-1`` it is the backward-form
  ``(T_{-h,lam} - I)/(-h)``.
* The zero stencil vector maps to the identity operator in all of the above.

The schemes' lattice operators are built in ``stepper`` on ``_shifted``, one
``np.roll``: L^h and M^{h,rho} alike from their expansion into shifts,
free of the mesh width (``stepper._L_terms`` and ``_M_terms``), weighed
on a lattice by ``stepper._shifts``; their sparse matrices take their
column indices from ``_shifted``.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GridError(ValueError):
    """Invalid grid construction or grid/field mismatch."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic lattice: points (j_1*h, ..., j_d*h), indices mod N_a."""

    dim: int
    h: float
    shape: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise GridError("grid dimension must be >= 1")
        if len(self.shape) != self.dim:
            raise GridError("points-per-axis must have one entry per dimension")
        if any(n < 2 for n in self.shape):
            raise GridError("need at least 2 points per axis")
        if not 0 < self.h < math.inf:
            raise GridError("mesh width must be positive and finite")

    @property
    def periods(self) -> tuple[float, ...]:
        return tuple(n * self.h for n in self.shape)

    @property
    def npoints(self) -> int:
        """The number of lattice points, exact: ``np.prod`` wraps in int64."""
        return math.prod(int(n) for n in self.shape)

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Array of shape ``shape + (dim,)`` with the lattice point coordinates."""
        axes = [self.h * np.arange(n) for n in self.shape]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def field(self, values) -> "GridField":
        return GridField(self, np.asarray(values, dtype=float))

    def zeros(self) -> "GridField":
        return GridField(self, np.zeros(self.shape))

    def constant(self, c: float) -> "GridField":
        return GridField(self, np.full(self.shape, float(c)))

    def sample(self, fn) -> "GridField":
        """Evaluate ``fn`` on the lattice; ``fn`` receives the coordinate array."""
        return GridField(self, np.asarray(fn(self.coordinates), dtype=float))

    def refined(self, factor: int) -> "TorusGrid":
        """Grid with the same periods and ``factor`` times as many points per axis."""
        if factor < 1:
            raise GridError("refinement factor must be >= 1")
        return TorusGrid(self.dim, self.h / factor,
                         tuple(n * factor for n in self.shape))


def make_torus_grid(d: int, periods, points) -> TorusGrid:
    """Build an isotropic torus grid from per-axis periods and point counts.

    The mesh width is ``periods[0] / points[0]`` and must agree with
    ``periods[a] / points[a]`` on every axis to 1e-14 relative.
    """
    periods = [float(p) for p in np.atleast_1d(periods)]
    points = [int(n) for n in np.atleast_1d(points)]
    if d < 1:
        raise GridError("grid dimension must be >= 1")
    if len(periods) != d or len(points) != d:
        raise GridError("periods and points must each have d entries")
    if not all(0 < p < math.inf for p in periods):
        raise GridError("periods must be positive and finite")
    if any(n < 2 for n in points):
        raise GridError("need at least 2 points per axis")
    h = periods[0] / points[0]
    for p, n in zip(periods, points):
        if abs(p / n - h) > 1e-14 * max(abs(h), 1.0):
            raise GridError("anisotropic mesh: periods[a]/points[a] must "
                            "agree across axes")
    return TorusGrid(d, h, tuple(points))


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise GridError("grid field contains non-finite values")


class GridField:
    """Real-valued function sampled on a :class:`TorusGrid` (row-major values)."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise GridError(f"values shape {values.shape} does not match grid "
                            f"shape {grid.shape}")
        _require_finite(values)
        self.grid = grid
        self.values = values

    def _check_same_grid(self, other: "GridField"):
        if other.grid is not self.grid and other.grid != self.grid:
            raise GridError("fields live on different grids")

    def __sub__(self, other):
        if isinstance(other, GridField):
            self._check_same_grid(other)
            return GridField(self.grid, self.values - other.values)
        return GridField(self.grid, self.values - other)

    def __repr__(self):
        return f"GridField(shape={self.grid.shape}, h={self.grid.h})"


@dataclass(frozen=True)
class Stencil:
    """Finite set of integer displacement vectors containing the origin."""

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        vecs = tuple(tuple(int(c) for c in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if not vecs:
            raise GridError("stencil must be nonempty")
        dim = len(vecs[0])
        if any(len(v) != dim for v in vecs):
            raise GridError("stencil vectors must share one dimension")
        if len(set(vecs)) != len(vecs):
            raise GridError("stencil contains duplicate vectors")
        if tuple([0] * dim) not in vecs:
            raise GridError("stencil must contain the origin")

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    @property
    def origin(self) -> tuple[int, ...]:
        return tuple([0] * self.dim)

    @property
    def nonzero(self) -> tuple[tuple[int, ...], ...]:
        return tuple(v for v in self.vectors if any(v))


def basis_stencil(d: int) -> Stencil:
    """Origin plus the d coordinate basis vectors."""
    vecs = [tuple([0] * d)]
    for a in range(d):
        e = [0] * d
        e[a] = 1
        vecs.append(tuple(e))
    return Stencil(tuple(vecs))


def _as_int_vector(lam, dim: int) -> tuple[int, ...]:
    arr = np.atleast_1d(lam)
    if arr.shape != (dim,):
        raise GridError(f"stencil vector must have {dim} components")
    out = tuple(int(c) for c in arr)
    if any(c != f for c, f in zip(out, arr)):
        raise GridError("stencil vectors must be integer-valued")
    return out


def _shifted(values: np.ndarray, lam, s: int, dim: int) -> np.ndarray:
    """Values translated by ``s*h*lam`` over the first ``dim`` axes; trailing
    axes (one column per seed) ride along.  One ``np.roll``, so the result
    is always a new array."""
    return np.roll(values, [-s * c for c in lam[:dim]], axis=tuple(range(dim)))


def _forward_values(values: np.ndarray, lam, h: float, sign: int,
                    dim: int) -> np.ndarray:
    if not any(lam):
        return values
    return (_shifted(values, lam, sign, dim) - values) / (sign * h)


def _restricted(values: np.ndarray, lattice: TorusGrid,
                grid: TorusGrid) -> np.ndarray:
    """View of ``values`` on ``lattice`` (first axes; trailing ones ride
    along) at the points of ``grid``, a coarser lattice of the same
    torus: every (N_lattice / N_grid)-th point per axis."""
    factor = lattice.shape[0] // grid.shape[0]
    if factor == 1:
        return values
    return values[(slice(None, None, factor),) * grid.dim]


def forward_difference(phi: GridField, lam, sign: int = 1) -> GridField:
    """One-sided difference ``(phi(x + sign*h*lam) - phi(x)) / (sign*h)`` at
    the mesh width ``h`` of the field's grid.

    ``lam = 0`` is the identity.  ``sign=-1`` gives the backward form used in
    the first-order upwind terms.
    """
    if sign not in (1, -1):
        raise GridError("sign must be +1 or -1")
    lam = _as_int_vector(lam, phi.grid.dim)
    if not any(lam):
        return phi
    return GridField(phi.grid, _forward_values(phi.values, lam, phi.grid.h,
                                               sign, phi.grid.dim))


def composed_difference(phi: GridField, lams) -> GridField:
    """Product of one-sided differences over the given stencil vectors.

    The factors commute, so they are applied in a canonical (sorted) order;
    this makes the result independent of the input ordering bit-for-bit.
    An empty list is the identity.
    """
    out = phi
    for lam in sorted(_as_int_vector(lam, phi.grid.dim) for lam in lams):
        out = forward_difference(out, lam)
    return out


def _norms(columns: np.ndarray, weight: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(sup, l2h)`` of a C-contiguous ``(S, npoints)`` array.

    Each row is summed along the contiguous last axis, which gives the same
    bits as summing that row alone as a flat array.
    """
    sup = np.max(np.abs(columns), axis=1)
    l2h = np.sqrt(weight * np.sum(columns ** 2, axis=1))
    return sup, l2h


def grid_norms(phi: GridField) -> tuple[float, float]:
    """Return ``(sup, l2h)``: max absolute value and sqrt(h^d * sum of squares)."""
    sup, l2h = _norms(phi.values.reshape(1, -1), phi.grid.h ** phi.grid.dim)
    return float(sup[0]), float(l2h[0])


def _coarse_grid(grid: TorusGrid, factor: int) -> TorusGrid:
    """The grid keeping every ``factor``-th point of ``grid`` per axis."""
    if factor < 1:
        raise GridError("subsample factor must be >= 1")
    if any(n % factor for n in grid.shape):
        raise GridError(f"points per axis {grid.shape} not divisible by {factor}")
    return TorusGrid(grid.dim, grid.h * factor,
                     tuple(n // factor for n in grid.shape))


def subsample(phi: GridField, factor: int) -> GridField:
    """Exact restriction onto the coarser grid keeping every ``factor``-th
    point per axis (index 0 kept, so lattice points coincide)."""
    coarse = _coarse_grid(phi.grid, factor)
    if factor == 1:
        return phi
    return GridField(coarse, _restricted(phi.values, phi.grid, coarse).copy())


def discrete_sobolev_norm(phi: GridField, stencil: Stencil, r: int) -> float:
    """Discrete Sobolev norm summing l2h norms of all r-fold differences.

    Square root of the sum, over every r-tuple of stencil vectors, of the
    squared l2h norm of the corresponding composed one-sided difference.
    ``r = 0`` reduces to the plain l2h norm.
    """
    if r < 0:
        raise GridError("difference order r must be >= 0")
    total = 0.0
    for combo in itertools.product(stencil.vectors, repeat=r):
        total += grid_norms(composed_difference(phi, combo))[1] ** 2
    return float(np.sqrt(total))
