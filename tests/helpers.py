"""Shared test utilities: random states and independent brute-force oracles.

The oracles here deliberately avoid the reshape/einsum tricks used by the
library so that agreement between the two is meaningful.
"""

import math

import numpy as np

from qcausal import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    Hamiltonian,
    JointDistribution,
    Ket,
    ccmi_symmetric,
    embed_operator,
)
from qcausal.instrument import PROBABILITY_FLOOR
from qcausal.qstate import EIG_CLAMP


def random_ket(n_sites, rng):
    amp = rng.standard_normal(2**n_sites) + 1j * rng.standard_normal(2**n_sites)
    return Ket(n_sites, amp / np.linalg.norm(amp))


def random_density(n_sites, rng):
    dim = 2**n_sites
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(n_sites, mat / np.trace(mat))


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def brute_partial_trace(matrix, n_sites, keep):
    """Index-summation partial trace: out[i,j] = sum_m rho[row(i,m), row(j,m)]."""
    keep = list(keep)
    traced = [s for s in range(n_sites) if s not in keep]
    d_keep = 2 ** len(keep)
    d_traced = 2 ** len(traced)

    def full_index(keep_bits, traced_bits):
        idx = 0
        for pos, site in enumerate(keep):
            bit = (keep_bits >> (len(keep) - 1 - pos)) & 1
            idx |= bit << (n_sites - 1 - site)
        for pos, site in enumerate(traced):
            bit = (traced_bits >> (len(traced) - 1 - pos)) & 1
            idx |= bit << (n_sites - 1 - site)
        return idx

    out = np.zeros((d_keep, d_keep), dtype=complex)
    for i in range(d_keep):
        for j in range(d_keep):
            for m in range(d_traced):
                out[i, j] += matrix[full_index(i, m), full_index(j, m)]
    return out


def matrix_log_entropy(matrix):
    """-Tr[rho log2 rho] via spectral projector reconstruction of log2(rho)."""
    values, vectors = np.linalg.eigh(matrix)
    log_rho = np.zeros_like(matrix)
    for lam, vec in zip(values, vectors.T):
        if lam > 1e-12:
            log_rho += np.log2(lam) * np.outer(vec, vec.conj())
    return float(np.real(-np.trace(matrix @ log_rho)))


def _site_bits_of(index, n_sites, sites):
    """The bits of `sites` in basis index `index` as a number, first site highest."""
    value = 0
    for site in sites:
        value = (value << 1) | ((index >> (n_sites - 1 - site)) & 1)
    return value


def brute_embed(op, n_sites, sites):
    """op on `sites`, identity elsewhere, entry by entry from the basis-index bits:
    <i|E|j> = op[bits_sites(i), bits_sites(j)] when i and j agree off `sites`, else 0."""
    dim = 2**n_sites
    mask = sum(1 << (n_sites - 1 - site) for site in sites)
    embedded = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            if i & ~mask == j & ~mask:
                row, col = (_site_bits_of(k, n_sites, sites) for k in (i, j))
                embedded[i, j] = op[row, col]
    return embedded


def brute_apply_instrument(matrix, n_sites, sites, operators):
    """Outcome probabilities and reduced states: M rho M^dagger on the whole
    register with M embedded by `brute_embed`, then `brute_partial_trace`."""
    keep = [s for s in range(n_sites) if s not in sites]
    results = []
    for op in operators:
        embedded = brute_embed(op, n_sites, sites)
        hit = embedded @ matrix @ embedded.conj().T
        p = float(np.real(np.trace(hit)))
        reduced = brute_partial_trace(hit, n_sites, keep)
        results.append((p, reduced / p if p > 1e-12 else None))
    return results


def _pair_entropy(p, rest):
    """Entropy in bits of the weight pairs (p, rest); a weight at or below
    EIG_CLAMP adds nothing, as in the library."""
    total = np.zeros_like(p)
    for q in (p, rest):
        kept = q > EIG_CLAMP
        total -= np.where(kept, q * np.log2(np.where(kept, q, 1.0)), 0.0)
    return total


def single_excitation_weights(n_sites, coupling, times):
    """|U_j0|^2 on an XX chain started in |10...0>: a (sites, times) array."""
    k = np.arange(1, n_sites + 1)  # also j + 1 for the sites j = 0..N-1
    phi = np.sqrt(2.0 / (n_sites + 1)) * np.sin(np.pi * np.outer(k, k) / (n_sites + 1))  # phi[j, k - 1]
    energies = 2.0 * coupling * np.cos(np.pi * k / (n_sites + 1))
    return np.abs((phi * phi[0]) @ np.exp(-1j * np.outer(energies, times))) ** 2


def single_excitation_qcmi(n_sites, coupling, times, distance, protocol):
    """Closed-form directional QCMI of sender 0 and receiver `distance` on an
    XX chain started in |10...0>, at every time in `times`.

    One excitation hops with amplitude J, so U_j0 = sum_k phi_k(j) phi_k(0)
    exp(-i eps_k t) with phi_k(j) = sqrt(2/(N+1)) sin(pi k (j+1)/(N+1)) and
    eps_k = 2J cos(pi k/(N+1)) (`single_excitation_weights`); the field only
    adds a global phase. In a one-excitation state every site set S has the
    entropy of the pair (p_S, p_rest), its weight and that of the other
    sites, each summed from its own sites' weights (not taken as 1 - the
    other: a weight near EIG_CLAMP keeps its relative precision).
    measure-at-t: finding site 0 up leaves a product state (I = 0), and the
    other branch, over sites 1..N-1, has weight w = sum_{j>0} |U_j0|^2 and
    weights |U_j0|^2 / w; a w below PROBABILITY_FLOOR is dropped.
    quench-at-zero keeps the excitation, so w = 1 and site 0 is one of the
    other sites. Then, with B = {d} and C = {1..d-1},

        I_d = w [H(B) + H(C) - H(BC)].
    """
    n = n_sites
    weights = single_excitation_weights(n, coupling, times)
    present = np.arange(n) > 0 if protocol == "measure-at-t" else np.ones(n, dtype=bool)
    w = weights[present].sum(axis=0) if protocol == "measure-at-t" else np.ones(len(times))
    kept = w >= PROBABILITY_FLOOR
    w_safe = np.where(kept, w, 1.0)

    def entropy(sites):
        inside = np.isin(np.arange(n), sites)
        p = weights[inside].sum(axis=0) / w_safe
        return _pair_entropy(p, weights[present & ~inside].sum(axis=0) / w_safe)

    c = list(range(1, distance))
    values = w * (entropy([distance]) + entropy(c) - entropy(c + [distance]))
    return np.where(kept & (values > 0.0), values, 0.0)


def stable_rank_bins(values, bins):
    """Equiquantal labels from a stable argsort and its inverse permutation.

    Ties keep sample order; an all-equal series maps to bin 0.
    """
    values = np.asarray(values, dtype=float)
    if values.min() == values.max():
        return np.zeros(values.size, dtype=np.intp)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.intp)
    ranks[order] = np.arange(values.size)
    return ranks * bins // values.size


def dense_series_ccmi(driver, response, horizon, delay, bins):
    """Series CMI from a dense bins^5 probability table and ccmi_symmetric.

    Keep bins**5 small: the table is allocated in full.
    """
    start, stop = 2 * delay, len(driver) - horizon
    columns = (
        driver[start:stop],
        response[start + horizon : stop + horizon],
        response[start:stop],
        response[start - delay : stop - delay],
        response[start - 2 * delay : stop - 2 * delay],
    )
    binned = [stable_rank_bins(column, bins) for column in columns]
    counts = np.zeros([bins] * len(columns))
    np.add.at(counts, tuple(binned), 1.0)
    names = ("a", "b", "c_now", "c_past1", "c_past2")
    dist = JointDistribution(names, counts / (stop - start))
    return ccmi_symmetric(dist, ("a",), ("b",), names[2:])


def _bond_operator(pair_op, bond, n_sites):
    left = np.eye(2**bond)
    right = np.eye(2 ** (n_sites - bond - 2))
    return np.kron(np.kron(left, pair_op), right)


def dense_tfim(n_sites, coupling, field):
    """TFIM matrix summed from Kronecker-embedded Pauli terms (complex)."""
    dim = 2**n_sites
    matrix = np.zeros((dim, dim), dtype=complex)
    zz = np.kron(PAULI_Z, PAULI_Z)
    for k in range(n_sites - 1):
        matrix -= coupling * _bond_operator(zz, k, n_sites)
    for k in range(n_sites):
        matrix -= field * embed_operator(PAULI_X, k, n_sites)
    return matrix


def dense_xx(n_sites, coupling, field):
    """XX matrix summed from Kronecker-embedded Pauli terms (complex)."""
    dim = 2**n_sites
    matrix = np.zeros((dim, dim), dtype=complex)
    hop = np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y)
    for k in range(n_sites - 1):
        matrix += 0.5 * coupling * _bond_operator(hop, k, n_sites)
    for k in range(n_sites):
        matrix += field * embed_operator(PAULI_Z, k, n_sites)
    return matrix


def count_eigh(monkeypatch, solver="eigh"):
    """Record the shape of every matrix passed to `np.linalg.<solver>` from now on."""
    shapes = []
    solve = getattr(np.linalg, solver)

    def counted(matrix):
        shapes.append(matrix.shape)
        return solve(matrix)

    monkeypatch.setattr(np.linalg, solver, counted)
    return shapes


def refuse_spectrum(monkeypatch):
    """Make any read of `Hamiltonian.spectrum`, the dense eigenvector matrix, fail."""

    def refuse(hamiltonian):
        raise AssertionError("the dense spectrum was formed")

    monkeypatch.setattr(Hamiltonian, "spectrum", property(refuse))


# An independent kernel oracle for basis-state and ground-state scans: it
# shares no code with the library's bit action, sector blocks, ground state,
# batch evolution, measurement or entropy passes. H acts term by term on the
# ket, the ground state is a Lanczos vector, time steps are Taylor series, a
# measurement zeroes half of the ket and entropies are SVDs.

def _apply_site_operator(kets, op, site, n_sites):
    """op on `site` of every (rows, 2^n) ket, through a (2^site, 2, rest) view."""
    view = kets.reshape(kets.shape[0], 2**site, 2, 2 ** (n_sites - site - 1))
    return np.einsum("ab,xibj->xiaj", op, view).reshape(kets.shape)


def chain_action(kind, n_sites, coupling, field, kets):
    """H applied to every row of `kets`, one Pauli term at a time.

    tfim: H = -J sum_k Z_k Z_{k+1} - h sum_k X_k;
    xx:   H = (J/2) sum_k (X_k X_{k+1} + Y_k Y_{k+1}) + h sum_k Z_k.
    """
    pair_terms = {
        "tfim": [(-coupling, PAULI_Z)],
        "xx": [(0.5 * coupling, PAULI_X), (0.5 * coupling, PAULI_Y)],
    }[kind]
    site_term = {"tfim": (-field, PAULI_X), "xx": (field, PAULI_Z)}[kind]
    out = np.zeros_like(kets)
    for k in range(n_sites - 1):
        for scale, op in pair_terms:
            right = _apply_site_operator(kets, op, k + 1, n_sites)
            out += scale * _apply_site_operator(right, op, k, n_sites)
    for k in range(n_sites):
        out += site_term[0] * _apply_site_operator(kets, site_term[1], k, n_sites)
    return out


def taylor_trajectory(kind, n_sites, coupling, field, kets, times, step=0.05, terms=30):
    """Every row of `kets` evolved to each of the ascending `times`: a
    (times, rows, 2^n) array, stepped from one time to the next in equal
    Taylor steps of at most `step`, each series summed to `terms` terms."""
    out, now, psi = [], 0.0, np.array(kets, dtype=complex)
    for t in times:
        n_steps = math.ceil((t - now) / step)
        for _ in range(n_steps):
            term, total = psi, psi.copy()
            for m in range(1, terms + 1):
                term = chain_action(kind, n_sites, coupling, field, term)
                term *= -1j * (t - now) / n_steps / m
                total += term
            psi = total
        out.append(psi)
        now = t
    return np.array(out)


def zeroed_half(ket, site, n_sites, outcome):
    """The unnormalized ket with `site` found in `outcome`: the other half zeroed."""
    view = ket.reshape(2**site, 2, 2 ** (n_sites - site - 1)).copy()
    view[:, 1 - outcome, :] = 0.0
    return view.reshape(-1)


def svd_entropy(ket, sites, n_sites):
    """Entropy in bits of `sites` in a unit ket, from the SVD of the ket
    reshaped to (subsystem, rest); eigenvalues at or below EIG_CLAMP add nothing."""
    rest = [s for s in range(n_sites) if s not in sites]
    matrix = ket.reshape([2] * n_sites).transpose(list(sites) + rest).reshape(2 ** len(sites), -1)
    weights = np.linalg.svd(matrix, compute_uv=False) ** 2
    weights = weights[weights > EIG_CLAMP]
    return float(-np.sum(weights * np.log2(weights)))


def branch_qcmi(branches, n_sites, receivers):
    """sum_x p_x I(B:C) over (probability, unit ket) branches, each I(B:C)
    clamped at 0: one value per (B site, C sites) receiver."""
    values = []
    for b, c in receivers:
        value = 0.0
        for p, ket in branches:
            sets = ((b,), tuple(c), tuple(sorted((b, *c))))
            s_b, s_c, s_bc = (svd_entropy(ket, sites, n_sites) for sites in sets)
            value += p * max(s_b + s_c - s_bc, 0.0)
        values.append(value)
    return values


def oracle_series(kind, n_sites, coupling, field, initial, times, senders):
    """Directional QCMI from `initial`, the n_sites bits of a basis state or the
    2^n_sites amplitudes of a unit ket, at ascending `times`, for
    each sender a in `senders` against its (B site, C sites) receivers
    senders[a], under both protocols: {(protocol, a): (receivers, times) array}.

    measure-at-t evolves the ket, then measures A; quench-at-zero measures A
    once and evolves each kept branch. One trajectory carries the ket and
    every sender's kept branches. A is measured in place: its site stays in
    the register, in a product state that changes no entropy of B, C or BC.
    """
    if len(initial) == n_sites:
        psi0 = np.zeros(2**n_sites, dtype=complex)
        psi0[int("".join(map(str, initial)), 2)] = 1.0
    else:
        psi0 = np.array(initial, dtype=complex)

    def split(ket, site):
        """(probability, unit ket) of each outcome of `site` kept at or above the floor."""
        halves = [zeroed_half(ket, site, n_sites, x) for x in (0, 1)]
        kept = [(np.vdot(half, half).real, half) for half in halves]
        kept = [(p, half / np.sqrt(p)) for p, half in kept if p >= PROBABILITY_FLOOR]
        total = sum(p for p, _ in kept)
        return [(p / total, half) for p, half in kept]

    quenched = {a: split(psi0, a) for a in senders}
    rows = [psi0] + [ket for a in senders for _, ket in quenched[a]]
    trajectory = taylor_trajectory(kind, n_sites, coupling, field, rows, times)
    series, start = {}, 1
    for a, receivers in senders.items():
        weights = [p for p, _ in quenched[a]]
        stop = start + len(weights)
        measured = [branch_qcmi(split(kets[0], a), n_sites, receivers) for kets in trajectory]
        evolved = [
            branch_qcmi(list(zip(weights, kets[start:stop])), n_sites, receivers)
            for kets in trajectory
        ]
        series["measure-at-t", a] = np.array(measured).T
        series["quench-at-zero", a] = np.array(evolved).T
        start = stop
    return series


def lanczos_ground_state(kind, n_sites, coupling, field, steps=200, seed=0):
    """(E0, unit ket) of the chain from `steps` Lanczos steps with full
    reorthogonalization, H applied by `chain_action` from a seeded random start."""
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(2**n_sites).astype(complex)
    basis = [start / np.linalg.norm(start)]
    alphas, betas = [], []
    for _ in range(steps):
        w = chain_action(kind, n_sites, coupling, field, basis[-1][None, :])[0]
        alphas.append(np.vdot(basis[-1], w).real)
        for v in basis:  # twice is enough: Gram-Schmidt, then the rounding it left
            w -= np.vdot(v, w) * v
        for v in basis:
            w -= np.vdot(v, w) * v
        beta = np.linalg.norm(w)
        if beta < 1e-12 or len(basis) == steps:  # an invariant subspace, or done
            break
        betas.append(beta)
        basis.append(w / beta)
    tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    values, vectors = np.linalg.eigh(tridiagonal)
    ket = vectors[:, 0] @ np.array(basis)
    return float(values[0]), ket / np.linalg.norm(ket)
