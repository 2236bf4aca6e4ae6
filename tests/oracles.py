"""Independent reference implementations used only by the tests.

Everything here is built from explicit dense operator matrices and
textbook formulas, deliberately avoiding the ladder-slicing code paths of
the package so that agreement between the two is evidence, not tautology.
"""

import cmath
import math

import numpy as np


def dense_a(n):
    """Dense matrix of the mode-a annihilator, sector n -> sector n-1."""
    mat = np.zeros((n, n + 1), dtype=complex)
    for k in range(1, n + 1):
        mat[k - 1, k] = math.sqrt(k)
    return mat


def dense_b(n):
    """Dense matrix of the mode-b annihilator, sector n -> sector n-1."""
    mat = np.zeros((n, n + 1), dtype=complex)
    for k in range(0, n):
        mat[k, k] = math.sqrt(n - k)
    return mat


def lowering_chain(n, n_a, n_b):
    """Dense matrix of b^n_b a^n_a acting on sector n."""
    dim = n + 1
    op = np.eye(dim, dtype=complex)
    sector = n
    for _ in range(n_a):
        if sector == 0:
            return np.zeros((0, dim), dtype=complex)
        op = dense_a(sector) @ op
        sector -= 1
    for _ in range(n_b):
        if sector == 0:
            return np.zeros((0, dim), dtype=complex)
        op = dense_b(sector) @ op
        sector -= 1
    return op


def moment_oracle(amplitudes, p, q, r, s):
    """<a^dag^p b^dag^q b^r a^s> on a pure state via dense matrices."""
    amps = np.asarray(amplitudes, dtype=complex)
    n = amps.size - 1
    if p + q != r + s:
        return 0j
    ket_op = lowering_chain(n, s, r)
    bra_op = lowering_chain(n, p, q)
    if ket_op.shape[0] != bra_op.shape[0]:
        return 0j
    return complex(np.vdot(bra_op @ amps, ket_op @ amps))


def density_moment_oracle(matrix, p, q, r, s):
    """Same moment on a sector density, via Tr[rho A^dag B]."""
    rho = np.asarray(matrix, dtype=complex)
    n = rho.shape[0] - 1
    if p + q != r + s:
        return 0j
    bop = lowering_chain(n, s, r)
    aop = lowering_chain(n, p, q)
    if bop.shape[0] != aop.shape[0]:
        return 0j
    return complex(np.trace(aop.conj().T @ bop @ rho))


def css_amplitudes(n, z, phi):
    """Coherent-spin-state amplitudes from the binomial closed form."""
    amps = np.array(
        [
            math.sqrt(math.comb(n, k) * z**k * (1.0 - z) ** (n - k))
            * cmath.exp(1j * k * phi)
            for k in range(n + 1)
        ],
        dtype=complex,
    )
    return amps


def jx_dense(n):
    a = dense_a(n)
    b = dense_b(n)
    return (a.conj().T @ b + b.conj().T @ a) / 2.0


def jy_dense(n):
    a = dense_a(n)
    b = dense_b(n)
    return (a.conj().T @ b - b.conj().T @ a) / 2.0j


def jz_dense(n):
    return np.diag([k - n / 2.0 for k in range(n + 1)]).astype(complex)


def random_pure_amplitudes(rng, n):
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return amps / np.linalg.norm(amps)


def random_density_matrix(rng, n, rank=3):
    """Random mixed sector density as a convex blend of random projectors."""
    dim = n + 1
    weights = rng.dirichlet(np.ones(rank))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        psi = random_pure_amplitudes(rng, n)
        rho += w * np.outer(psi, psi.conj())
    return (rho + rho.conj().T) / 2.0


def coherent_amplitudes_scalar(n, z, phi):
    """One coherent-spin amplitude vector by the one-state log-space formula
    (log binomials, z^{k/2} (1-z)^{(N-k)/2} e^{i k phi}, one renormalization).
    The stacked row builder must reproduce it bit for bit."""
    from bosewit._factorials import log_binomial_row

    if z == 0.0:
        amps = np.zeros(n + 1, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    if z == 1.0:
        amps = np.zeros(n + 1, dtype=np.complex128)
        amps[n] = np.exp(1j * n * phi)
        return amps
    k = np.arange(n + 1)
    half_log = 0.5 * (log_binomial_row(n) + k * math.log(z) + (n - k) * math.log1p(-z))
    amps = np.exp(half_log + 1j * k * phi)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return amps


def dense_density(weights, rows):
    """sum_i w_i |v_i><v_i| accumulated one outer product at a time."""
    rows = np.asarray(rows, dtype=complex)
    rho = np.zeros((rows.shape[1], rows.shape[1]), dtype=complex)
    for w, row in zip(weights, rows):
        rho += w * np.outer(row, row.conj())
    return rho


def qfi_dense(matrix, directions):
    """F_Q of a dense sector density for each row of a (k, 3) direction
    stack, by the full spectral formula

        F_Q = sum_{ij} 2 (lam_i - lam_j)^2 / (lam_i + lam_j) |<i|J_n|j>|^2

    over the whole eigenbasis, pairs with lam_i + lam_j <= 1e-12 skipped,
    and <i|J_n|j> from dense J_x, J_y, J_z built out of the ladder
    operators."""
    rho = np.asarray(matrix, dtype=complex)
    n = rho.shape[0] - 1
    lam, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    lam_i, lam_j = lam[:, None], lam[None, :]
    denom = lam_i + lam_j
    mask = denom > 1e-12
    pair = np.zeros_like(denom)
    np.divide(2.0 * (lam_i - lam_j) ** 2, denom, out=pair, where=mask)
    axes = [vecs.conj().T @ op @ vecs for op in (jx_dense(n), jy_dense(n), jz_dense(n))]
    values = []
    for direction in np.atleast_2d(directions):
        overlap = sum(c * w for c, w in zip(direction, axes))
        values.append(float(np.sum(pair * np.abs(overlap) ** 2)))
    return np.array(values)
