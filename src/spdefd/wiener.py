"""Wiener increments shared across all spatial meshes at a fixed time step.

Increments are produced by a counter-based deterministic generator: each
entry is a pure function of ``(seed, step index, driver index)``, so the
matrix can be generated in any order (or in parallel) with identical results,
and adding drivers never perturbs existing columns.  The uniform-to-normal
map is the inverse CDF evaluated with P.J. Acklam's rational approximation
(relative error below 1.15e-9), chosen over library samplers for bit-exact
cross-platform reproducibility.
"""

import math
from dataclasses import dataclass

import numpy as np


class IncrementError(ValueError):
    """Invalid increment parameters."""


# SplitMix64 finalizer constants
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = (z + _GOLDEN).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


# Acklam's inverse normal CDF coefficients.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_inverse_cdf(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile function (Acklam's approximation)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise IncrementError("quantile argument must lie strictly in (0, 1)")
    out = np.empty_like(p)

    low = p < _P_LOW
    tail = low | (p > 1.0 - _P_LOW)
    mid = ~tail

    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        out[mid] = num * q / den
    if np.any(tail):
        # one polynomial for both tails, in the distance to the near end;
        # the high tail is the low one mirrored
        q = np.sqrt(-2.0 * np.log(np.where(low, p, 1.0 - p)[tail]))
        num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        out[tail] = np.where(low[tail], num, -num) / den
    return out


@dataclass(frozen=True)
class BrownianIncrements:
    """Matrix xi[i-1, rho-1] of N(0, tau) Wiener increments, i = 1..n."""

    n: int
    d1: int
    tau: float
    seed: int
    xi: np.ndarray

    def __post_init__(self):
        if self.xi.shape != (self.n, self.d1):
            raise IncrementError("increment matrix shape mismatch")

    def step(self, i: int) -> np.ndarray:
        """Increments (xi^1_i, ..., xi^{d1}_i) for step i in 1..n."""
        if not 1 <= i <= self.n:
            raise IncrementError(f"step index {i} out of range 1..{self.n}")
        return self.xi[i - 1]


def _uniforms(seed: int, n: int, d1: int) -> np.ndarray:
    key = _splitmix64(np.uint64(seed % (1 << 64)) * np.ones(1, dtype=np.uint64))[0]
    ii = (np.arange(1, n + 1, dtype=np.uint64) << np.uint64(32))[:, None]
    rr = np.arange(1, d1 + 1, dtype=np.uint64)[None, :]
    counters = _splitmix64(ii + rr)
    bits = _splitmix64(counters ^ key)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _check_parameters(n: int, d1: int, tau: float) -> None:
    if n < 1:
        raise IncrementError("number of steps must be >= 1")
    if d1 < 0:
        raise IncrementError("number of drivers must be >= 0")
    if not 0 < tau < math.inf:
        raise IncrementError("step size tau must be positive and finite")


def sample_increments(n: int, d1: int, tau: float, seed: int) -> BrownianIncrements:
    """Draw the n x d1 matrix of i.i.d. N(0, tau) increments.

    Entry (i, rho) depends only on (seed, i, rho); d1 = 0 yields an empty
    matrix (the scheme then reduces to a deterministic PDE).
    """
    _check_parameters(n, d1, tau)
    if d1 == 0:
        xi = np.zeros((n, 0))
    else:
        xi = np.sqrt(tau) * normal_inverse_cdf(_uniforms(seed, n, d1))
    return BrownianIncrements(n=n, d1=d1, tau=float(tau), seed=int(seed), xi=xi)
