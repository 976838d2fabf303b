"""Independent oracles shared by the test modules.

These reimplement the operator definitions through dense shift-matrix
algebra and per-mode symbol recursions, deliberately avoiding the rolled-array
code paths of the package, so that agreement is a genuine cross-check.
"""

import numpy as np


def shift_matrix_1d(N, v):
    T = np.zeros((N, N))
    rows = np.arange(N)
    T[rows, (rows + v) % N] = 1.0
    return T


def dense_L_1d(scheme, grid, h, i):
    """Dense matrix of L^h built from shift matrices and diagonal weights."""
    N = grid.npoints
    x = grid.coordinates
    I = np.eye(N)

    def sym(v):
        if v == 0:
            return I
        return (shift_matrix_1d(N, v) - shift_matrix_1d(N, -v)) / (2 * h)

    L = np.zeros((N, N))
    for (lam, mu), ev in scheme.a.items():
        L += np.diag(ev(i, x) * np.ones(N)) @ sym(lam[0]) @ sym(mu[0])
    for lam, ev in scheme.p.items():
        fwd = (shift_matrix_1d(N, lam[0]) - I) / h
        L += np.diag(ev(i, x) * np.ones(N)) @ fwd
    for lam, ev in scheme.q.items():
        bwd = (shift_matrix_1d(N, -lam[0]) - I) / (-h)
        L -= np.diag(ev(i, x) * np.ones(N)) @ bwd
    return L


def dense_L_2d(scheme, grid, h, i):
    """Dense matrix of L^h on a 2-d lattice: 2-d shifts are Kronecker
    products of 1-d shift matrices (row-major raveling), the weights are
    diagonal matrices."""
    N1, N2 = grid.shape
    x = grid.coordinates
    I = np.eye(N1 * N2)

    def shift(v):
        return np.kron(shift_matrix_1d(N1, v[0]), shift_matrix_1d(N2, v[1]))

    def sym(v):
        if not any(v):
            return I
        return (shift(v) - shift(tuple(-c for c in v))) / (2 * h)

    def weight(ev):
        return np.diag((ev(i, x) * np.ones(grid.shape)).ravel())

    L = np.zeros((N1 * N2, N1 * N2))
    for (lam, mu), ev in scheme.a.items():
        L += weight(ev) @ sym(lam) @ sym(mu)
    for lam, ev in scheme.p.items():
        L += weight(ev) @ (shift(lam) - I) / h
    for lam, ev in scheme.q.items():
        L -= weight(ev) @ (shift(tuple(-c for c in lam)) - I) / (-h)
    return L


def dense_M_1d(scheme, grid, h, rho, i):
    N = grid.npoints
    x = grid.coordinates
    I = np.eye(N)
    M = np.zeros((N, N))
    for (lam, r), ev in scheme.b.items():
        if r != rho:
            continue
        if lam[0] == 0:
            D = I
        else:
            D = (shift_matrix_1d(N, lam[0]) - shift_matrix_1d(N, -lam[0])) / (2 * h)
        M += np.diag(ev(i, x) * np.ones(N)) @ D
    return M


def dense_trajectory_1d(problem, scheme, grid, n, increments=None):
    """Implicit Euler recursion via dense assembly and Gaussian elimination."""
    N = grid.npoints
    x = grid.coordinates
    tau = problem.T / n
    v = np.asarray(problem.u0(x), dtype=float)
    out = [v.copy()]
    for i in range(1, n + 1):
        L = dense_L_1d(scheme, grid, grid.h, i)
        rhs = v + tau * (problem.f(i, x) * np.ones(N))
        for rho in range(1, problem.d1 + 1):
            M = dense_M_1d(scheme, grid, grid.h, rho, i - 1)
            g = problem.g_at(rho, i - 1, x) * np.ones(N)
            rhs = rhs + (M @ v + g) * increments.step(i)[rho - 1]
        v = np.linalg.solve(np.eye(N) - tau * L, rhs)
        out.append(v.copy())
    return out


def discrete_symbols_1d(grid, h, a11=0.0, a00=0.0, p1=0.0, q1=0.0,
                        b11=0.0, b01=0.0):
    """Fourier symbols of L^h and M^{h,1} for constant 1-d coefficients on
    the unit stencil."""
    N = grid.shape[0]
    xi = 2 * np.pi * np.fft.fftfreq(N) * N / grid.periods[0]
    sym_centred = 1j * np.sin(xi * h) / h
    symL = (a11 * sym_centred ** 2 + a00
            + p1 * (np.exp(1j * xi * h) - 1.0) / h
            - q1 * (1.0 - np.exp(-1j * xi * h)) / h)
    symM = b11 * sym_centred + b01
    return symL, symM


def spectral_trajectory_1d(problem, grid, n, increments, symL, symM):
    """Per-mode recursion of the fully discrete scheme with given symbols."""
    tau = problem.T / n
    vhat = np.fft.fft(problem.u0(grid.coordinates))
    out = [np.real(np.fft.ifft(vhat))]
    for i in range(1, n + 1):
        growth = np.ones_like(vhat)
        if problem.d1 > 0:
            growth = growth + symM * increments.step(i)[0]
        vhat = vhat * growth / (1.0 - tau * symL)
        out.append(np.real(np.fft.ifft(vhat)))
    return out


def spectral_march(problem, grid, n, xi, u0=None, forcing=None):
    """The spectral recursion of the time scheme on ``grid``, written out
    per step on the full spectrum: the state is transformed by ``fftn``,
    multiplied by the symbols of the constant-coefficient operators,
    transformed back by ``ifftn`` and projected onto its real part, for
    M^rho v_{i-1} and again for the solve of (I - tau L).

    ``xi`` holds the ``(n, d1)`` increments.  ``u0`` (an array) and
    ``forcing(i)``, which gives ``(f_i, [g^rho_{i-1} per driver])``, stand
    in for the problem's initial data and free terms.  Returns the
    ``(n + 1,) + grid.shape`` states.
    """
    x = grid.coordinates
    ones = np.ones(grid.shape)
    tau = problem.T / n
    freq = np.meshgrid(*[2 * np.pi * np.fft.fftfreq(N) * N / P
                         for N, P in zip(grid.shape, grid.periods)],
                       indexing="ij")
    d, d1 = problem.d, problem.d1

    def constant(values):
        return float(np.ravel(values)[0])

    def symbols(i):
        a = lambda al, be: constant(problem.a_at(al, be, i, x))
        b = lambda al, rho: constant(problem.b_at(al, rho, i, x))
        symL = a(0, 0) + 0j * ones
        for al in range(1, d + 1):
            symL = symL + 1j * (a(al, 0) + a(0, al)) * freq[al - 1]
            for be in range(1, d + 1):
                symL = symL - a(al, be) * freq[al - 1] * freq[be - 1]
        symM = [b(0, rho) + 1j * sum(b(al, rho) * freq[al - 1]
                                     for al in range(1, d + 1))
                for rho in range(1, d1 + 1)]
        return symL, symM

    def free(i):
        return (problem.f(i, x) * ones,
                [problem.g_at(rho, i - 1, x) * ones for rho in range(1, d1 + 1)])

    v = problem.u0(x) * ones if u0 is None else np.asarray(u0, dtype=float)
    out = [v]
    for i in range(1, n + 1):
        f, g = (forcing or free)(i)
        symM = symbols(i - 1)[1]
        rhs = v + tau * f
        for rho in range(1, d1 + 1):
            Mv = np.real(np.fft.ifftn(symM[rho - 1] * np.fft.fftn(v)))
            rhs = rhs + (Mv + g[rho - 1]) * xi[i - 1, rho - 1]
        v = np.real(np.fft.ifftn(np.fft.fftn(rhs) / (1.0 - tau * symbols(i)[0])))
        out.append(v)
    return np.stack(out)
