"""Dense linear algebra for multi-qubit registers.

Basis convention used everywhere in this package: the basis index b encodes
the bitstring q0 q1 ... q_{N-1} with site 0 as the most significant bit,

    b = sum_s q_s * 2**(N - 1 - s),

so |1000> on four sites sits at index 8 and tensor factors follow np.kron
order (site 0 leftmost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import InvalidInput, NotPositiveSemidefinite

# Dense storage only; 4096 x 4096 complex matrices are the practical ceiling.
MAX_SITES = 12

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
# Eigenvalues below EIG_CLAMP contribute nothing to entropies; anything below
# EIG_NEGATIVE_LIMIT is treated as a genuinely invalid state, not drift.
EIG_CLAMP = 1e-12
EIG_NEGATIVE_LIMIT = -1e-8


def _readonly(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


PAULI_X = _readonly([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = _readonly([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = _readonly([[1.0, 0.0], [0.0, -1.0]])
IDENTITY_2 = _readonly(np.eye(2))


def check_sites(
    sites: Iterable[int], n_sites: int | None = None, *, allow_empty: bool = False
) -> tuple[int, ...]:
    """Validate a strictly increasing site set; n_sites=None skips the upper bound."""
    out = tuple(int(s) for s in sites)
    if not out:
        if allow_empty:
            return out
        raise InvalidInput("site set must not be empty")
    if any(s < 0 for s in out):
        raise InvalidInput(f"site indices must be >= 0, got {out}")
    if n_sites is not None and max(out) >= n_sites:
        raise InvalidInput(f"site indices must lie in [0, {n_sites}), got {out}")
    if any(a >= b for a, b in zip(out, out[1:])):
        raise InvalidInput(f"site indices must be strictly increasing, got {out}")
    return out


def _check_n_sites(n_sites: int) -> int:
    n = int(n_sites)
    if n < 1:
        raise InvalidInput("register needs at least one site")
    if n > MAX_SITES:
        raise InvalidInput(f"dense register capped at {MAX_SITES} sites, got {n}")
    return n


@dataclass(frozen=True)
class Ket:
    """Normalized pure state on an n-qubit register."""

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _check_n_sites(self.n_sites)
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2**n,):
            raise InvalidInput(f"expected {2**n} amplitudes for {n} sites, got shape {amp.shape}")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidInput(f"ket norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "n_sites", n)
        object.__setattr__(self, "amplitudes", _readonly(amp))

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.n_sites, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian trace-one operator on an n-qubit register.

    Hermiticity and trace are checked at construction; positivity is checked
    where eigenvalues are actually consumed (entropies, validation reports),
    since a full eigendecomposition per construction would dominate scans.
    """

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        n = _check_n_sites(self.n_sites)
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2**n
        if mat.shape != (dim, dim):
            raise InvalidInput(f"expected {dim}x{dim} matrix for {n} sites, got shape {mat.shape}")
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > HERMITICITY_TOL:
            raise InvalidInput(f"hermiticity defect {herm:.3e} exceeds {HERMITICITY_TOL}")
        trace = np.trace(mat)
        if abs(trace - 1.0) > TRACE_TOL:
            raise InvalidInput(f"trace {trace!r} deviates from 1 beyond {TRACE_TOL}")
        object.__setattr__(self, "n_sites", n)
        object.__setattr__(self, "matrix", _readonly(mat))

    @property
    def dim(self) -> int:
        return 2**self.n_sites


@dataclass(frozen=True)
class DensityMatrixReport:
    """Defects of a candidate density matrix against explicit tolerances."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    hermitian_ok: bool
    trace_ok: bool
    positive_ok: bool

    @property
    def passed(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.positive_ok


def basis_index(bits: Sequence[int]) -> int:
    """Index of the computational basis state for a bitstring, site 0 first."""
    idx = 0
    for q in bits:
        if q not in (0, 1):
            raise InvalidInput(f"bits must be 0 or 1, got {q!r}")
        idx = (idx << 1) | q
    return idx


def basis_ket(bits: Sequence[int]) -> Ket:
    """Computational basis state |q0 q1 ... q_{N-1}>."""
    bits = list(bits)
    if not bits:
        raise InvalidInput("bit sequence must not be empty")
    n = _check_n_sites(len(bits))
    amp = np.zeros(2**n, dtype=complex)
    amp[basis_index(bits)] = 1.0
    return Ket(n, amp)


def ghz_state(n_sites: int) -> Ket:
    """(|0...0> + |1...1>)/sqrt(2) on n_sites >= 2 qubits."""
    n = int(n_sites)
    if n < 2:
        raise InvalidInput(f"GHZ state needs at least 2 sites, got {n}")
    n = _check_n_sites(n)
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
    return Ket(n, amp)


def embed_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site operator at `site`, identity elsewhere."""
    n = int(n_sites)
    if not 0 <= site < n:
        raise InvalidInput(f"site {site} out of range for {n} sites")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise InvalidInput(f"single-site operator must be 2x2, got shape {op.shape}")
    left = np.eye(2**site)
    right = np.eye(2 ** (n - site - 1))
    return np.kron(np.kron(left, op), right)


def embed_on_sites(op: np.ndarray, sites: Sequence[int], n_sites: int) -> np.ndarray:
    """Embed an operator on a strictly increasing site set, identity elsewhere."""
    n = int(n_sites)
    sites = check_sites(sites, n)
    k = len(sites)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise InvalidInput(f"operator on {k} sites must be {2**k}x{2**k}, got shape {op.shape}")
    if k == n:
        return op.copy()
    full = np.kron(op, np.eye(2 ** (n - k)))
    # Axis s of `full` currently belongs to `order[s]`; permute back to 0..n-1.
    order = list(sites) + [s for s in range(n) if s not in sites]
    perm = [order.index(s) for s in range(n)]
    tensor = full.reshape([2] * (2 * n))
    tensor = tensor.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(tensor.reshape(2**n, 2**n))


def partial_trace_matrix(matrix: np.ndarray, n_sites: int, keep: Sequence[int]) -> np.ndarray:
    """Partial trace on a raw 2^n x 2^n array; kept sites stay in site order."""
    keep = list(keep)
    traced = [s for s in range(n_sites) if s not in keep]
    if not traced:
        return np.array(matrix)
    tensor = matrix.reshape([2] * (2 * n_sites))
    perm = keep + traced
    tensor = tensor.transpose(perm + [p + n_sites for p in perm])
    d_keep = 2 ** len(keep)
    d_traced = 2 ** len(traced)
    tensor = tensor.reshape(d_keep, d_traced, d_keep, d_traced)
    return np.einsum("ibjb->ij", tensor)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduce `rho` to the subsystem `keep`, relabeling sites 0..len(keep)-1."""
    keep = check_sites(keep, rho.n_sites)
    reduced = partial_trace_matrix(rho.matrix, rho.n_sites, keep)
    return DensityMatrix(len(keep), reduced)


def entropy_from_eigenvalues(eigenvalues: np.ndarray) -> float:
    """-sum(lam * log2(lam)) with the clamp rules applied."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    lowest = float(eigenvalues.min())
    if lowest < EIG_NEGATIVE_LIMIT:
        raise NotPositiveSemidefinite(f"eigenvalue {lowest:.3e} below {EIG_NEGATIVE_LIMIT}")
    lam = eigenvalues[eigenvalues > EIG_CLAMP]
    if lam.size == 0:
        return 0.0
    value = float(-np.sum(lam * np.log2(lam)))
    return value if value > 0.0 else 0.0


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits."""
    return entropy_from_eigenvalues(np.linalg.eigvalsh(rho.matrix))


def validate_density_matrix(
    matrix: np.ndarray | DensityMatrix,
    hermiticity_tol: float = HERMITICITY_TOL,
    trace_tol: float = TRACE_TOL,
    positivity_tol: float = 1e-10,
) -> DensityMatrixReport:
    """Report hermiticity, trace and positivity defects of a candidate state."""
    if isinstance(matrix, DensityMatrix):
        matrix = matrix.matrix
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {mat.shape}")
    dim = mat.shape[0]
    if dim < 2 or dim & (dim - 1) != 0:
        raise InvalidInput(f"dimension {dim} is not a power of two")
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    trace = float(abs(np.trace(mat) - 1.0))
    min_eig = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min())
    return DensityMatrixReport(
        hermiticity_defect=herm,
        trace_defect=trace,
        min_eigenvalue=min_eig,
        hermitian_ok=herm <= hermiticity_tol,
        trace_ok=trace <= trace_tol,
        positive_ok=min_eig >= -positivity_tol,
    )
