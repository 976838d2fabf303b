"""Continuous problem data, difference-scheme coefficients, and validators.

A :class:`DifferentialProblem` holds black-box coefficient evaluators for

    du = (a^{ab} D_a D_b u + f) dt + sum_r (b^{ar} D_a u + g^r) dw^r

with indices a, b in {0..d} (index 0 meaning the identity) and r in {1..d1}.
A :class:`DifferenceScheme` holds the corresponding lattice coefficients,
keyed by integer stencil vectors.  Coefficients may be plain numbers or
callables ``(i, x) -> array`` where ``x`` carries the point coordinates in
its trailing axis.

The two scheme constructors mirror the standard choices: every derivative
replaced by a centred difference, or centred second-order terms plus an
upwind sign-split of the first-order cross terms.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Stencil, basis_stencil


class ProblemError(ValueError):
    """Invalid problem or scheme data."""


class FactorizationError(ValueError):
    """Matrix is indefinite beyond tolerance; no PSD factor exists."""


class _Constant:
    """The evaluator of a plain-number coefficient or free term; it carries
    its value, so a caller can tell it will not change."""

    def __init__(self, value: float):
        self.value = value

    def __call__(self, i, x) -> np.ndarray:
        return np.full(np.shape(x)[:-1], self.value)


def _as_evaluator(c):
    return c if callable(c) else _Constant(float(c))


def _normalize(mapping):
    return {key: _as_evaluator(val) for key, val in mapping.items()}


@dataclass
class DifferentialProblem:
    """Coefficients, free terms, initial data, and horizon of the SPDE."""

    d: int
    d1: int
    T: float
    a: dict = field(default_factory=dict)    # (alpha, beta) -> evaluator
    b: dict = field(default_factory=dict)    # (alpha, rho)  -> evaluator
    f: object = 0.0
    g: dict = field(default_factory=dict)    # rho -> evaluator
    u0: object = 0.0
    time_independent: bool = True
    constant_coefficients: bool = False
    name: str = ""

    def __post_init__(self):
        if self.d < 1:
            raise ProblemError("spatial dimension must be >= 1")
        if self.d1 < 0:
            raise ProblemError("number of drivers must be >= 0")
        if not (self.T > 0):
            raise ProblemError("horizon T must be positive")
        for alpha, beta in self.a:
            if not (0 <= alpha <= self.d and 0 <= beta <= self.d):
                raise ProblemError(f"a index {(alpha, beta)} out of range")
        for alpha, rho in self.b:
            if not (0 <= alpha <= self.d and 1 <= rho <= self.d1):
                raise ProblemError(f"b index {(alpha, rho)} out of range")
        for rho in self.g:
            if not 1 <= rho <= self.d1:
                raise ProblemError(f"g index {rho} out of range")
        self.a = _normalize(self.a)
        self.b = _normalize(self.b)
        self.g = _normalize(self.g)
        self.f = _as_evaluator(self.f)
        if not callable(self.u0):
            v0 = float(self.u0)
            self.u0 = lambda x, _v=v0: np.full(np.shape(x)[:-1], _v)

    def a_at(self, alpha: int, beta: int, i: int, x) -> np.ndarray:
        ev = self.a.get((alpha, beta))
        return ev(i, x) if ev else np.zeros(np.shape(x)[:-1])

    def b_at(self, alpha: int, rho: int, i: int, x) -> np.ndarray:
        ev = self.b.get((alpha, rho))
        return ev(i, x) if ev else np.zeros(np.shape(x)[:-1])

    def g_at(self, rho: int, i: int, x) -> np.ndarray:
        ev = self.g.get(rho)
        return ev(i, x) if ev else np.zeros(np.shape(x)[:-1])


@dataclass
class DifferenceScheme:
    """Lattice coefficients for the difference operators L^h and M^{h,rho}.

    ``a`` is keyed by pairs of stencil vectors, ``b`` by (vector, driver),
    and ``p``/``q`` by nonzero stencil vectors (both must evaluate
    nonnegative).
    """

    stencil: Stencil
    d1: int
    a: dict = field(default_factory=dict)
    b: dict = field(default_factory=dict)
    p: dict = field(default_factory=dict)
    q: dict = field(default_factory=dict)
    time_independent: bool = True
    constant_coefficients: bool = False

    def __post_init__(self):
        vecs = set(self.stencil.vectors)
        for lam, mu in self.a:
            if lam not in vecs or mu not in vecs:
                raise ProblemError(f"a key {(lam, mu)} not in stencil")
        for lam, rho in self.b:
            if lam not in vecs:
                raise ProblemError(f"b key {lam} not in stencil")
            if not 1 <= rho <= self.d1:
                raise ProblemError(f"driver index {rho} out of range")
        for name, coeffs in (("p", self.p), ("q", self.q)):
            for lam in coeffs:
                if lam not in vecs or not any(lam):
                    raise ProblemError(f"{name} key {lam} must be a nonzero "
                                       "stencil vector")
        self.a = _normalize(self.a)
        self.b = _normalize(self.b)
        self.p = _normalize(self.p)
        self.q = _normalize(self.q)

    @property
    def is_symmetric(self) -> bool:
        """True when there are no one-sided (p/q) terms, so odd-order error
        terms vanish and extrapolation can run on the base-4 ladder."""
        return not self.p and not self.q

    def a_at(self, lam, mu, i, x):
        ev = self.a.get((tuple(lam), tuple(mu)))
        return ev(i, x) if ev else np.zeros(np.shape(x)[:-1])

    def b_at(self, lam, rho, i, x):
        ev = self.b.get((tuple(lam), rho))
        return ev(i, x) if ev else np.zeros(np.shape(x)[:-1])

    def p_at(self, lam, i, x):
        ev = self.p.get(tuple(lam))
        return ev(i, x) if ev else np.zeros(np.shape(x)[:-1])

    def q_at(self, lam, i, x):
        ev = self.q.get(tuple(lam))
        return ev(i, x) if ev else np.zeros(np.shape(x)[:-1])


def _unit(d: int, alpha: int) -> tuple[int, ...]:
    # alpha = 0 maps to the origin, alpha >= 1 to the basis vector e_alpha
    e = [0] * d
    if alpha >= 1:
        e[alpha - 1] = 1
    return tuple(e)


def build_scheme_example1(problem: DifferentialProblem) -> DifferenceScheme:
    """Centred scheme on the basis stencil: every derivative D_a becomes the
    symmetric difference along e_a, coefficients carried over one-to-one."""
    d = problem.d
    a = {(_unit(d, al), _unit(d, be)): ev for (al, be), ev in problem.a.items()}
    b = {(_unit(d, al), rho): ev for (al, rho), ev in problem.b.items()}
    return DifferenceScheme(
        stencil=basis_stencil(d), d1=problem.d1, a=a, b=b,
        time_independent=problem.time_independent,
        constant_coefficients=problem.constant_coefficients)


def build_scheme_example2(problem: DifferentialProblem) -> DifferenceScheme:
    """Centred second-order terms plus sign-split one-sided first-order terms.

    The cross coefficients a^{0,al} + a^{al,0} are carried by the nonnegative
    pair (p, q) via their positive/negative parts, so p - q reproduces the sum
    while both factors stay >= 0 pointwise.
    """
    d = problem.d
    a = {}
    for (al, be), ev in problem.a.items():
        if (al >= 1 and be >= 1) or (al == 0 and be == 0):
            a[(_unit(d, al), _unit(d, be))] = ev
    b = {(_unit(d, al), rho): ev for (al, rho), ev in problem.b.items()}
    p = {}
    q = {}
    for al in range(1, d + 1):
        if (0, al) not in problem.a and (al, 0) not in problem.a:
            continue
        lam = _unit(d, al)

        def cross(i, x, _al=al):
            return problem.a_at(0, _al, i, x) + problem.a_at(_al, 0, i, x)

        p[lam] = lambda i, x, _c=cross: np.maximum(_c(i, x), 0.0)
        q[lam] = lambda i, x, _c=cross: np.maximum(-_c(i, x), 0.0)
    return DifferenceScheme(
        stencil=basis_stencil(d), d1=problem.d1, a=a, b=b, p=p, q=q,
        time_independent=problem.time_independent,
        constant_coefficients=problem.constant_coefficients)


@dataclass
class ConsistencyReport:
    max_residual: float
    tol: float
    violations: list  # (identity, i, x, residual)
    per_identity: dict

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def check_consistency(scheme: DifferenceScheme, problem: DifferentialProblem,
                      sample, tol: float = 1e-10) -> ConsistencyReport:
    """Evaluate the five identities tying scheme coefficients to the PDE
    coefficients at each sample point ``(i, x)`` and report the residuals.

    The identities: the first moments of b-coefficients reproduce b^{ar};
    the zero-vector b equals b^{0r}; the second moments of a-coefficients
    reproduce a^{ab}; the zero-zero a equals a^{00}; and the first moments
    of the a cross terms plus p minus q reproduce a^{a0} + a^{0a}.
    """
    if not sample:
        raise ProblemError("consistency check needs a nonempty sample")
    d = problem.d
    nz = scheme.stencil.nonzero
    origin = scheme.stencil.origin
    violations = []
    per_identity = {}

    def record(identity, i, x, residual):
        residual = float(np.max(np.abs(residual)))
        per_identity[identity] = max(per_identity.get(identity, 0.0), residual)
        if residual > tol:
            violations.append((identity, i, x, residual))

    for i, x in sample:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        for rho in range(1, problem.d1 + 1):
            for al in range(1, d + 1):
                got = sum(scheme.b_at(lam, rho, i, x) * lam[al - 1] for lam in nz)
                record("b_first_moment", i, x, got - problem.b_at(al, rho, i, x))
            record("b_zero_order", i, x,
                   scheme.b_at(origin, rho, i, x) - problem.b_at(0, rho, i, x))
        for al in range(1, d + 1):
            for be in range(1, d + 1):
                got = sum(scheme.a_at(lam, mu, i, x) * lam[al - 1] * mu[be - 1]
                          for lam in nz for mu in nz)
                record("a_second_moment", i, x, got - problem.a_at(al, be, i, x))
        record("a_zero_order", i, x,
               scheme.a_at(origin, origin, i, x) - problem.a_at(0, 0, i, x))
        for al in range(1, d + 1):
            got = sum(scheme.a_at(lam, origin, i, x) * lam[al - 1] for lam in nz)
            got = got + sum(scheme.a_at(origin, mu, i, x) * mu[al - 1] for mu in nz)
            got = got + sum(scheme.p_at(lam, i, x) * lam[al - 1] for lam in nz)
            got = got - sum(scheme.q_at(mu, i, x) * mu[al - 1] for mu in nz)
            want = problem.a_at(al, 0, i, x) + problem.a_at(0, al, i, x)
            record("a_cross_terms", i, x, got - want)

    max_residual = max(per_identity.values(), default=0.0)
    return ConsistencyReport(max_residual, tol, violations, per_identity)


@dataclass
class ParabolicityReport:
    min_eigenvalue: float
    failures: list  # (i, x, min_eig)
    tol: float = 1e-10

    @property
    def passed(self) -> bool:
        return self.min_eigenvalue >= -self.tol


def check_degenerate_parabolicity(problem: DifferentialProblem,
                                  sample) -> ParabolicityReport:
    """Smallest eigenvalue of A = 2a - b b^T (spatial indices only) over the
    sample; the problem is degenerate parabolic when it is >= 0."""
    if not sample:
        raise ProblemError("parabolicity check needs a nonempty sample")
    d = problem.d
    worst = np.inf
    failures = []
    for i, x in sample:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        A = np.zeros((d, d))
        for al in range(1, d + 1):
            for be in range(1, d + 1):
                val = 2.0 * problem.a_at(al, be, i, x)
                for rho in range(1, problem.d1 + 1):
                    val = val - problem.b_at(al, rho, i, x) * problem.b_at(be, rho, i, x)
                A[al - 1, be - 1] = float(np.asarray(val).reshape(()))
        A = 0.5 * (A + A.T)
        lam_min = float(np.linalg.eigvalsh(A)[0])
        if lam_min < worst:
            worst = lam_min
        if lam_min < -1e-10:
            failures.append((i, x, lam_min))
    return ParabolicityReport(worst, failures)


def factorize_psd(M: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Pivoted Cholesky factor of a positive semidefinite matrix.

    Returns sigma with ``sigma @ sigma.T == M`` (to ``tol`` relative); the
    factor has exact rank many leading columns and trailing zero columns.
    Raises :class:`FactorizationError` when M is indefinite beyond tol.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ProblemError("factorize_psd needs a square matrix")
    if not np.allclose(M, M.T, atol=1e-12 * (1.0 + np.max(np.abs(M)))):
        raise ProblemError("factorize_psd needs a symmetric matrix")
    n = M.shape[0]
    scale = max(1.0, float(np.max(np.abs(M))) if n else 1.0)
    A = M.copy()
    L = np.zeros((n, n))
    piv = np.arange(n)
    for k in range(n):
        diag = np.diag(A)[k:]
        j = int(np.argmax(diag)) + k
        if A[j, j] <= tol * scale:
            if np.min(diag) < -tol * scale:
                raise FactorizationError(
                    f"matrix is indefinite: pivot {np.min(diag):.3e}")
            break
        if j != k:
            A[[k, j], :] = A[[j, k], :]
            A[:, [k, j]] = A[:, [j, k]]
            L[[k, j], :] = L[[j, k], :]
            piv[[k, j]] = piv[[j, k]]
        L[k, k] = math.sqrt(A[k, k])
        L[k + 1:, k] = A[k + 1:, k] / L[k, k]
        A[k + 1:, k + 1:] -= np.outer(L[k + 1:, k], L[k + 1:, k])
    sigma = np.zeros((n, n))
    sigma[piv, :] = L
    if np.max(np.abs(sigma @ sigma.T - M), initial=0.0) > tol * (1.0 + scale):
        raise FactorizationError("matrix is indefinite beyond tolerance")
    return sigma


# ---------------------------------------------------------------------------
# Built-in problem library (period-1 torus, u0 = cos(2 pi x) unless noted)
# ---------------------------------------------------------------------------

def _cos_mode(x):
    return np.cos(2.0 * np.pi * x[..., 0])


def heat1d(nu: float = 0.1, T: float = 0.5) -> DifferentialProblem:
    """Deterministic heat equation: a^{11} = nu, everything else zero."""
    return DifferentialProblem(
        d=1, d1=0, T=T, a={(1, 1): nu}, u0=_cos_mode,
        constant_coefficients=True, name="heat1d")


def degenerate1d(beta: float = 0.3, T: float = 0.5) -> DifferentialProblem:
    """Fully degenerate stochastic problem: a^{11} = beta^2/2, b^{11} = beta."""
    return DifferentialProblem(
        d=1, d1=1, T=T, a={(1, 1): 0.5 * beta * beta}, b={(1, 1): beta},
        u0=_cos_mode, constant_coefficients=True, name="degenerate1d")


def stoch_transport(beta: float = 0.3, gamma: float = 0.0,
                    extra_diffusion: float = 0.0,
                    T: float = 0.5) -> DifferentialProblem:
    """Stochastic transport: a^{11} = beta^2/2 + extra_diffusion, b^{11} = beta,
    b^{01} = gamma.  extra_diffusion = 0 is the exactly degenerate case."""
    return DifferentialProblem(
        d=1, d1=1, T=T, a={(1, 1): 0.5 * beta * beta + extra_diffusion},
        b={(1, 1): beta, (0, 1): gamma}, u0=_cos_mode,
        constant_coefficients=True, name="stoch-transport")


def var_coef1d(T: float = 0.5) -> DifferentialProblem:
    """Variable-coefficient diffusion: a^{11}(x) = 1 + sin(2 pi x)/2."""
    return DifferentialProblem(
        d=1, d1=0, T=T,
        a={(1, 1): lambda i, x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x[..., 0])},
        u0=_cos_mode, constant_coefficients=False, name="var-coef1d")


def drift1d(nu: float = 0.1, chi: float = 0.5, T: float = 0.5) -> DifferentialProblem:
    """Drift-diffusion with first-order cross terms: a^{11} = nu and
    a^{01} = a^{10} = chi/2, so the one-sided (p/q) scheme path is exercised."""
    return DifferentialProblem(
        d=1, d1=0, T=T, a={(1, 1): nu, (0, 1): 0.5 * chi, (1, 0): 0.5 * chi},
        u0=_cos_mode, constant_coefficients=True, name="drift1d")


PROBLEM_LIBRARY = {
    "heat1d": heat1d,
    "degenerate1d": degenerate1d,
    "stoch-transport": stoch_transport,
    "var-coef1d": var_coef1d,
    "drift1d": drift1d,
}


def make_problem(name: str, **params) -> DifferentialProblem:
    """Instantiate a library problem by name; unknown names or parameters
    raise :class:`ProblemError`."""
    builder = PROBLEM_LIBRARY.get(name)
    if builder is None:
        raise ProblemError(f"unknown problem {name!r}; available: "
                           f"{sorted(PROBLEM_LIBRARY)}")
    try:
        return builder(**params)
    except TypeError as exc:
        raise ProblemError(f"bad parameters for problem {name!r}: {exc}") from exc
