"""Chain Hamiltonians (transverse-field Ising, XX) and exact time evolution.

Both models are open-boundary and dense; evolution goes through the cached
spectral decomposition so that propagators at many times are cheap. Units:
hbar = 1, couplings dimensionless, time in units of 1/J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InvalidInput, NumericalInstability
from .qstate import (
    MAX_SITES,
    NORM_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    Ket,
    embed_operator,
)

BUILD_HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-9
DEGENERACY_GAP = 1e-10

MODEL_KINDS = ("tfim", "xx")


@dataclass(frozen=True)
class ChainModel:
    """Nearest-neighbor chain parameters: kind, length N, coupling J, field h."""

    kind: str
    n_sites: int
    coupling: float
    field: float

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidInput(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if not 2 <= self.n_sites <= MAX_SITES:
            raise InvalidInput(f"chain length must lie in [2, {MAX_SITES}], got {self.n_sites}")
        if not (math.isfinite(self.coupling) and math.isfinite(self.field)):
            raise InvalidInput("coupling and field must be finite")


class Hamiltonian:
    """Dense Hermitian chain Hamiltonian with a cached eigendecomposition."""

    def __init__(self, model: ChainModel, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        defect = np.max(np.abs(matrix - matrix.conj().T))
        if defect > BUILD_HERMITICITY_TOL:
            raise InvalidInput(f"hermiticity defect {defect:.3e} exceeds {BUILD_HERMITICITY_TOL}")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self.model = model
        self.matrix = matrix

    @property
    def n_sites(self) -> int:
        return self.model.n_sites

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and phase-fixed orthonormal eigenvectors."""
        values, vectors = np.linalg.eigh(self.matrix)
        vectors = _fix_phases(vectors)
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    # Reproducibility: make the largest-magnitude amplitude of each column
    # real and positive.
    lead = np.argmax(np.abs(vectors), axis=0)
    pivots = vectors[lead, np.arange(vectors.shape[1])]
    return vectors * (pivots.conj() / np.abs(pivots))


def _bond_operator(pair_op: np.ndarray, bond: int, n_sites: int) -> np.ndarray:
    left = np.eye(2**bond)
    right = np.eye(2 ** (n_sites - bond - 2))
    return np.kron(np.kron(left, pair_op), right)


def build_tfim(n_sites: int, coupling: float, field: float) -> Hamiltonian:
    """H = -J sum_k sz_k sz_{k+1} - h sum_k sx_k (open boundaries)."""
    model = ChainModel("tfim", n_sites, coupling, field)
    dim = 2**model.n_sites
    matrix = np.zeros((dim, dim), dtype=complex)
    zz = np.kron(PAULI_Z, PAULI_Z)
    for k in range(model.n_sites - 1):
        matrix -= model.coupling * _bond_operator(zz, k, model.n_sites)
    for k in range(model.n_sites):
        matrix -= model.field * embed_operator(PAULI_X, k, model.n_sites)
    return Hamiltonian(model, matrix)


def build_xx(n_sites: int, coupling: float, field: float) -> Hamiltonian:
    """H = (J/2) sum_k (sx_k sx_{k+1} + sy_k sy_{k+1}) + h sum_k sz_k."""
    model = ChainModel("xx", n_sites, coupling, field)
    dim = 2**model.n_sites
    matrix = np.zeros((dim, dim), dtype=complex)
    hop = np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y)
    for k in range(model.n_sites - 1):
        matrix += 0.5 * model.coupling * _bond_operator(hop, k, model.n_sites)
    for k in range(model.n_sites):
        matrix += model.field * embed_operator(PAULI_Z, k, model.n_sites)
    return Hamiltonian(model, matrix)


def build_model(model: ChainModel) -> Hamiltonian:
    if model.kind == "tfim":
        return build_tfim(model.n_sites, model.coupling, model.field)
    return build_xx(model.n_sites, model.coupling, model.field)


@dataclass(frozen=True)
class GroundState:
    state: Ket
    energy: float
    degenerate: bool


def ground_state(hamiltonian: Hamiltonian) -> GroundState:
    """Lowest-energy eigenvector; flags (near-)degeneracy instead of failing."""
    values, vectors = hamiltonian.spectrum
    degenerate = values.size > 1 and values[1] - values[0] < DEGENERACY_GAP
    ket = Ket(hamiltonian.n_sites, vectors[:, 0])
    return GroundState(state=ket, energy=float(values[0]), degenerate=degenerate)


@dataclass(frozen=True)
class Propagator:
    """Unitary U(t) = exp(-iHt) assembled from the cached spectrum."""

    time: float
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        defect = np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0])))
        if defect > UNITARITY_TOL:
            raise NumericalInstability(f"unitarity defect {defect:.3e} exceeds {UNITARITY_TOL}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def propagator(hamiltonian: Hamiltonian, time: float) -> Propagator:
    if not math.isfinite(time):
        raise InvalidInput(f"time must be finite, got {time!r}")
    values, vectors = hamiltonian.spectrum
    phases = np.exp(-1j * values * time)
    matrix = (vectors * phases) @ vectors.conj().T
    return Propagator(float(time), matrix)


def evolve(rho: DensityMatrix, prop: Propagator) -> DensityMatrix:
    """Conjugate a state by the propagator: U rho U^dagger."""
    if rho.dim != prop.matrix.shape[0]:
        raise InvalidInput(
            f"dimension mismatch: state {rho.dim}, propagator {prop.matrix.shape[0]}"
        )
    evolved = prop.matrix @ rho.matrix @ prop.matrix.conj().T
    # Conjugation keeps hermiticity up to rounding; symmetrize the dust away.
    evolved = 0.5 * (evolved + evolved.conj().T)
    return DensityMatrix(rho.n_sites, evolved)


def evolve_ket(hamiltonian: Hamiltonian, ket: Ket, time: float) -> Ket:
    """Evolve a pure state without forming the full propagator matrix."""
    if ket.n_sites != hamiltonian.n_sites:
        raise InvalidInput(
            f"dimension mismatch: state {ket.n_sites} sites, chain {hamiltonian.n_sites}"
        )
    if not math.isfinite(time):
        raise InvalidInput(f"time must be finite, got {time!r}")
    return Ket(ket.n_sites, _evolve_grid(hamiltonian, ket.amplitudes, np.array([time]))[0])


def _evolve_grid(hamiltonian: Hamiltonian, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows psi(t) = V exp(-iEt) V^dagger psi for every t, as one (T, dim) array.

    The norm of every row is checked once here, so callers that consume the
    rows directly need no per-time `Ket`.
    """
    values, vectors = hamiltonian.spectrum
    coeffs = vectors.conj().T @ amplitudes
    phases = np.outer(times, -1j * values)
    np.exp(phases, out=phases)
    phases *= coeffs
    grid = phases @ vectors.T
    parts = grid.view(float)  # squared row norms without a complex temporary
    defect = np.max(np.abs(np.sqrt(np.einsum("ij,ij->i", parts, parts)) - 1.0))
    if defect > NORM_TOL:
        raise NumericalInstability(f"evolved norm defect {defect:.3e} exceeds {NORM_TOL}")
    return grid


def total_sigma_z(n_sites: int) -> np.ndarray:
    """Total magnetization operator, the conserved charge of the XX chain."""
    out = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for k in range(n_sites):
        out += embed_operator(PAULI_Z, k, n_sites)
    return out
