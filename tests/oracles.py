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


def qfi_forms_svd(weights, rows, numbers):
    """The (B, 3, 3) F_Q forms of witnesses._qfi_forms, from a thin SVD of
    each sector's scaled rows S = sqrt(w) v as they come (no amplitude is
    flushed):

        T_ab = 4 sum_i lam_i Re <J_a i|J_b i>
               - 8 sum_{ij} lam_i lam_j / (lam_i + lam_j) Re <i|J_a|j> <j|J_b|i>,

    with lam = sigma^2, eigenvalues at or below 1e-12 set to zero, and the
    pairs of two such eigenvalues skipped. J_x, J_y, J_z act on the first
    numbers[b] + 1 columns through the ladder elements of jx_dense and
    jy_dense, a^dag b |k> = sqrt((k+1)(N-k)) |k+1>, without forming a
    matrix, so sectors of thousands of particles fit."""
    scaled = np.sqrt(np.asarray(weights))[..., None] * np.asarray(rows, dtype=complex)
    _, sigma, support = np.linalg.svd(scaled, full_matrices=False)
    lam = np.where(sigma**2 > 1e-12, sigma**2, 0.0)
    forms = []
    for lam_b, vecs, n in zip(lam, support, numbers):
        vecs = vecs[:, : n + 1]
        k = np.arange(n)
        ladder = np.sqrt((k + 1.0) * (n - k))
        up, down = np.zeros_like(vecs), np.zeros_like(vecs)
        up[:, 1:] = ladder * vecs[:, :-1]
        down[:, :-1] = ladder * vecs[:, 1:]
        actions = [(up + down) / 2.0, (up - down) / 2.0j, vecs * (np.arange(n + 1) - n / 2.0)]
        elements = [vecs.conj() @ action.T for action in actions]
        denom = lam_b[:, None] + lam_b[None, :]
        pair = np.zeros_like(denom)
        np.divide(np.outer(lam_b, lam_b), denom, out=pair, where=denom > 0.0)
        form = np.empty((3, 3))
        for a in range(3):
            for b in range(3):
                spread = np.einsum("i,ik,ik->", lam_b, actions[a].conj(), actions[b]).real
                paired = np.sum(pair * elements[a] * elements[b].T).real
                form[a, b] = 4.0 * spread - 8.0 * paired
        forms.append(form)
    return np.array(forms)


def scan_per_sample(samples, seed, n_total=None, distribution=None, n_components=4,
                    n_directions=10, csi_orders=None):
    """The scan evaluated one sample at a time through the public witnesses:
    ensemble_to_state, integrated_g2m and csi_ratio per order, qfi over the
    direction stack, spin_squeezing of the ensemble. Draws the same
    directions, child seeds and ensembles as run_scan.

    Returns {bound name: [one value per sample, in sample order]}, None
    marking a skip; for qfi the value is the largest over the directions.
    """
    from bosewit.errors import WitnessError
    from bosewit.scan import _draw_directions
    from bosewit.separable import ensemble_to_state, sample_ensemble, sample_fluctuating_ensemble
    from bosewit.witnesses import csi_ratio, integrated_g2m, qfi, spin_squeezing

    master = np.random.default_rng(seed)
    directions = _draw_directions(master, n_directions)
    sample_seeds = master.integers(2**63, size=samples)
    if n_total is not None:
        orders = csi_orders or range(1, n_total // 2 + 1)
    else:
        orders = csi_orders or (1,)
    values = {f"csi_order_{m}": [] for m in orders}
    values["qfi"], values["spin_squeezing"] = [], []
    for child_seed in sample_seeds:
        if n_total is not None:
            ensemble = sample_ensemble(int(child_seed), n_total, n_components)
        else:
            ensemble = sample_fluctuating_ensemble(int(child_seed), distribution, n_components)
        state = ensemble_to_state(ensemble)
        for m in orders:
            try:
                values[f"csi_order_{m}"].append(csi_ratio(integrated_g2m(state, m)))
            except WitnessError:
                values[f"csi_order_{m}"].append(None)
        values["qfi"].append(float(np.max(qfi(state, directions))))
        try:
            values["spin_squeezing"].append(spin_squeezing(ensemble))
        except WitnessError:
            values["spin_squeezing"].append(None)
    return values


def bound_summary(values, bound, direction, tolerance):
    """evaluations, skipped, violations, worst value and its first sample
    index of one bound's per-sample values (None = skipped), in the order
    a sequential scan meets them; a non-finite value is a violation."""
    evaluated = [(i, v) for i, v in enumerate(values) if v is not None]
    finite = [(i, v) for i, v in evaluated if math.isfinite(v)]
    if direction == "upper":
        violations = sum(v > bound + tolerance for _, v in finite)
        worst = max(finite, key=lambda item: (item[1], -item[0]), default=(None, None))
    else:
        violations = sum(v < bound - tolerance for _, v in finite)
        worst = min(finite, key=lambda item: (item[1], item[0]), default=(None, None))
    return {
        "evaluations": len(evaluated),
        "skipped": len(values) - len(evaluated),
        "violations": violations + len(evaluated) - len(finite),
        "worst_index": worst[0],
        "worst_value": worst[1],
    }


def spin_moments_loop(ensemble):
    """(<J_x>, <J_y>, Var J_z) of a SeparableEnsemble or FluctuatingEnsemble
    by a plain loop over components and sectors in Python floats: the
    closed form of analytic_spin_moments, accumulated from 0.0. A fixed N
    is the one sector of weight 1."""
    from bosewit.separable import SeparableEnsemble

    if isinstance(ensemble, SeparableEnsemble):
        number_weights = ((ensemble.n_total, 1.0),)
        per_sector = {ensemble.n_total: ensemble}
    else:
        number_weights, per_sector = ensemble.number_weights, ensemble.per_sector
    jx = jy = mu = 0.0
    sectors = []
    for n, p in number_weights:
        components = per_sector[n].components
        s_cos = s_sin = mean_z = 0.0
        for w, comp in components:
            radius = math.sqrt(comp.z * (1.0 - comp.z))
            s_cos += w * radius * math.cos(comp.phi)
            s_sin += w * radius * math.sin(comp.phi)
            mean_z += w * comp.z
        spread = squares = 0.0
        for w, comp in components:
            spread += w * (comp.z * (1.0 - comp.z))
            deviation = comp.z - mean_z
            squares += w * deviation * deviation
        jx += p * n * s_cos
        jy += -p * n * s_sin
        shift = n * (mean_z - 0.5)
        mu += p * shift
        sectors.append((p, n * spread + n * n * squares, shift))
    var_z = 0.0
    for p, within, shift in sectors:
        between = shift - mu
        var_z += p * (within + between * between)
    return jx, jy, var_z


def _log_sum_exp(terms):
    """log sum exp of a list of floats in plain Python; -inf for none."""
    if not terms:
        return -math.inf
    top = max(terms)
    return top + math.log(math.fsum(math.exp(term - top) for term in terms))


def product_csi_loop(ensemble, m):
    """C_2m of a SeparableEnsemble or FluctuatingEnsemble by plain loops in
    log space over its sectors and components, with no array and no row.

    Every component is a product, so sector n (probability p) gives G_aa =
    p (n)_2m sum_k w_k z_k^2m, G_bb alike with (1 - z_k)^2m and G_ab with
    z_k^m (1 - z_k)^m. Each G is a log-sum-exp over sectors and components
    of log p + log (n)_2m + log w_k + the log of the power, with math.lgamma
    and math.log; the ratio is exp(log G_ab - (log G_aa + log G_bb) / 2).
    Returns None where G_aa G_bb is 0 (no ratio).
    """
    from bosewit.separable import SeparableEnsemble

    if isinstance(ensemble, SeparableEnsemble):
        number_weights = ((ensemble.n_total, 1.0),)
        per_sector = {ensemble.n_total: ensemble}
    else:
        number_weights, per_sector = ensemble.number_weights, ensemble.per_sector
    terms = ([], [], [])
    for n, p in number_weights:
        if 2 * m > n or p == 0.0:
            continue
        base = math.log(p) + math.lgamma(n + 1) - math.lgamma(n - 2 * m + 1)
        for w, comp in per_sector[n].components:
            if w == 0.0:
                continue
            log_z = math.log(comp.z) if comp.z > 0.0 else -math.inf
            log_rest = math.log1p(-comp.z) if comp.z < 1.0 else -math.inf
            for kind, power in enumerate((2 * m * log_z, 2 * m * log_rest, m * (log_z + log_rest))):
                if power > -math.inf:
                    terms[kind].append(base + math.log(w) + power)
    log_aa, log_bb, log_ab = (_log_sum_exp(kind) for kind in terms)
    if log_aa == -math.inf or log_bb == -math.inf:
        return None
    return math.exp(log_ab - 0.5 * (log_aa + log_bb))


def ensemble_payload(ensemble):
    """The report form of an ensemble object, as a scan report carries its
    worst-case samples."""
    from bosewit.separable import SeparableEnsemble

    def components(sector):
        return [{"weight": w, "z": c.z, "phi": c.phi} for w, c in sector.components]

    if isinstance(ensemble, SeparableEnsemble):
        return {"n_total": ensemble.n_total, "components": components(ensemble)}
    return {
        "number_weights": [[n, w] for n, w in ensemble.number_weights],
        "sectors": {str(n): components(s) for n, s in sorted(ensemble.per_sector.items())},
    }


def draw_components_three_calls(rng, n_components):
    """(weights, z, phi) of one sector from three generator calls: z from
    random, phi from uniform on [-pi, pi), the weights from a flat
    Dirichlet draw."""
    z = rng.random(n_components)
    phi = rng.uniform(-math.pi, math.pi, n_components)
    weights = rng.dirichlet(np.ones(n_components))
    return weights, z, phi
