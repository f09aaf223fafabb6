"""Chain Hamiltonians (transverse-field Ising, XX) and exact time evolution.

Both models are open-boundary, dense and real symmetric: the builders fill a
float64 matrix straight from the bits of the basis indices. The spectrum is
kept as one block per conserved sector that the matrix itself shows (total
magnetization, else spin-flip parity, else one block), each diagonalized on
first use and cached. Pure states evolve block by block, only in the sectors
they occupy; the dense dim x dim eigenvector matrix is formed only for
`spectrum`, which `ground_state`, `propagator` and `evolve` read. Units:
hbar = 1, couplings dimensionless, time in units of 1/J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InvalidInput, NumericalInstability
from .qstate import MAX_SITES, NORM_TOL, DensityMatrix, Ket, check_n_sites, check_real

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
        n = check_n_sites(self.n_sites)
        if n < 2:
            raise InvalidInput(f"chain length must lie in [2, {MAX_SITES}], got {n}")
        check_real(self.coupling, "coupling")
        check_real(self.field, "field")
        object.__setattr__(self, "n_sites", n)


class Hamiltonian:
    """Dense Hermitian chain Hamiltonian (real for the built models).

    Its eigendecomposition is kept per verified sector (`_sectors`), one
    `_Block` each, and each block is diagonalized on first use."""

    def __init__(self, model: ChainModel, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.shape != (2**model.n_sites,) * 2:
            raise InvalidInput(f"matrix shape {matrix.shape} does not fit {model.n_sites} sites")
        matrix = matrix.astype(np.result_type(matrix, float))
        defect = np.max(np.abs(matrix - matrix.conj().T))
        if not defect <= BUILD_HERMITICITY_TOL:  # a NaN entry fails too
            raise InvalidInput(f"hermiticity defect {defect:.3e} exceeds {BUILD_HERMITICITY_TOL}")
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
    def _blocks(self) -> list[_Block]:
        """One `_Block` per sector of `_sectors`, in its order; none diagonalized yet."""
        return [_Block(self.matrix, rows, mirror) for rows, mirror in _sectors(self.matrix)]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and phase-fixed orthonormal eigenvectors.

        The blocks placed into one dense dim x dim matrix, for `ground_state`,
        `propagator` and `evolve`; pure-state evolution reads the blocks.
        Equal eigenvalues keep the sector order of `_sectors` (stable sort).
        """
        blocks = self._blocks
        values = np.concatenate([block.eigen[0] for block in blocks])
        order = np.argsort(values, kind="stable")
        column = np.empty_like(order)
        column[order] = np.arange(order.size)
        vectors = np.zeros_like(self.matrix)
        start = 0
        for block in blocks:
            block.place(vectors, column[start : start + block.rows.size])
            start += block.rows.size
        values = values[order]
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors


class _Block:
    """One verified sector of a Hamiltonian, eigendecomposed on first use.

    mirror 0: the basis states `rows`. mirror +1 or -1: the states
    (|s> + mirror |s~>)/sqrt(2) for s in `rows` (the lower half of the
    basis), s~ = s with every bit flipped.
    """

    def __init__(self, matrix: np.ndarray, rows: np.ndarray, mirror: int):
        self.matrix = matrix
        self.rows = rows
        self.mirror = mirror

    @cached_property
    def eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending values and phase-fixed vectors of the block.

        Each vector holds its column's entries at `rows` exactly as they sit
        in the dense `spectrum`: a mirror vector is scaled by 1/sqrt(2) before
        its phase is fixed (fixing first can flip a sign where two lead
        magnitudes nearly tie), and its entries at the flipped rows are
        mirror times these.
        """
        if self.mirror:
            half = self.rows.size
            top, flipped = self.matrix[:half, :half], self.matrix[:half, half:][:, ::-1]
            block = top + flipped if self.mirror > 0 else top - flipped
        else:
            block = self.matrix[np.ix_(self.rows, self.rows)]
        values, vectors = np.linalg.eigh(block)
        if self.mirror:
            vectors /= math.sqrt(2.0)
        _fix_phases(vectors)
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors

    def _targets(self, dim: int) -> tuple[tuple[np.ndarray, int], ...]:
        """(basis rows, factor) pairs: where the block's coordinates sit in a
        length-dim vector, and the factor they carry there."""
        if self.mirror:
            return (self.rows, 1), (self.rows ^ (dim - 1), self.mirror)
        return ((self.rows, 1),)

    def project(self, amplitudes: np.ndarray) -> np.ndarray:
        """Coordinates of a 2^N ket on the block's basis, up to the 1/sqrt(2)
        that `eigen` folds into mirror vectors."""
        return sum(factor * amplitudes[rows] for rows, factor in self._targets(amplitudes.size))

    def scatter(self, out: np.ndarray, part: np.ndarray) -> None:
        """Add a block-basis `part` (scaled as `eigen`'s vectors) into `out`."""
        for rows, factor in self._targets(out.shape[-1]):
            out[..., rows] += factor * part

    def place(self, out: np.ndarray, columns: np.ndarray) -> None:
        """Write the block's vectors into `columns` of the zero dim x dim `out`."""
        for rows, factor in self._targets(out.shape[0]):
            out[np.ix_(rows, columns)] = factor * self.eigen[1]


def _sectors(matrix: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(rows, mirror) of each conserved sector the matrix verifies; see `_Block`.

    Magnetization sectors (basis states of one popcount, in ascending
    popcount) when no entry couples two popcounts; else the spin-flip parity
    sectors, even first, when H equals H[::-1, ::-1]; else the whole space
    as one block.
    """
    dim = matrix.shape[0]
    popcount = _site_bits(dim.bit_length() - 1).sum(axis=1)
    if np.max(np.abs(matrix[popcount[:, None] != popcount])) <= BUILD_HERMITICITY_TOL:
        return [(np.flatnonzero(popcount == count), 0) for count in np.unique(popcount)]
    if np.max(np.abs(matrix - matrix[::-1, ::-1])) <= BUILD_HERMITICITY_TOL:
        rows = np.arange(dim // 2)
        return [(rows, 1), (rows, -1)]
    return [(np.arange(dim), 0)]


def _fix_phases(vectors: np.ndarray) -> None:
    # Reproducibility: make the first largest-magnitude amplitude of each
    # column real and positive (in place).
    lead = np.argmax(np.abs(vectors), axis=0)
    pivots = vectors[lead, np.arange(vectors.shape[1])]
    vectors *= pivots.conj() / np.abs(pivots)


def _site_bits(n_sites: int) -> np.ndarray:
    """bits[i, k]: occupation of site k in basis state i (site 0 is the top bit)."""
    return (np.arange(2**n_sites)[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1


def build_tfim(n_sites: int, coupling: float, field: float) -> Hamiltonian:
    """H = -J sum_k sz_k sz_{k+1} - h sum_k sx_k (open boundaries)."""
    model = ChainModel("tfim", n_sites, coupling, field)
    spins = 1 - 2 * _site_bits(model.n_sites)
    matrix = np.diag(-model.coupling * np.sum(spins[:, :-1] * spins[:, 1:], axis=1, dtype=float))
    index = np.arange(matrix.shape[0])
    for k in range(model.n_sites):
        matrix[index ^ (1 << (model.n_sites - 1 - k)), index] = -model.field
    return Hamiltonian(model, matrix)


def build_xx(n_sites: int, coupling: float, field: float) -> Hamiltonian:
    """H = (J/2) sum_k (sx_k sx_{k+1} + sy_k sy_{k+1}) + h sum_k sz_k."""
    model = ChainModel("xx", n_sites, coupling, field)
    bits = _site_bits(model.n_sites)
    matrix = np.diag(model.field * (model.n_sites - 2 * bits.sum(axis=1, dtype=float)))
    # sx sx + sy sy = 2(|01><10| + |10><01|): J on every flip of a differing pair.
    for k in range(model.n_sites - 1):
        hop = np.flatnonzero(bits[:, k] != bits[:, k + 1])
        matrix[hop ^ (3 << (model.n_sites - 2 - k)), hop] = model.coupling
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
    """Lowest-energy eigenvector; flags (near-)degeneracy instead of failing.

    Column 0 of `spectrum`, so every sector is diagonalized. An exact tie
    across sectors goes to the first in the fixed order of `_sectors`, on
    every build: TFIM with h = 0 gives |0...0>."""
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
    time = check_real(time, "time")
    values, vectors = hamiltonian.spectrum
    phases = np.exp(-1j * values * time)
    matrix = (vectors * phases) @ vectors.conj().T
    return Propagator(time, matrix)


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
    time = check_real(time, "time")
    return Ket(ket.n_sites, _evolve_grid(hamiltonian, ket.amplitudes, np.array([time]))[0])


def _evolve_grid(hamiltonian: Hamiltonian, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows psi(t) = V exp(-iEt) V^dagger psi for every t, as one (T, dim) array.

    Block by block: psi is projected onto each sector, a sector where the
    projection is exactly zero is skipped (and never diagonalized), and each
    other sector is evolved in its own eigenbasis and scattered back. The
    norm of every row is checked once here, so callers that consume the rows
    directly need no per-time `Ket`.
    """
    grid = np.zeros((times.size, hamiltonian.dim), dtype=complex)
    for block in hamiltonian._blocks:
        inside = block.project(amplitudes)
        if not np.any(inside):
            continue
        values, vectors = block.eigen
        phases = np.outer(times, -1j * values)
        np.exp(phases, out=phases)
        phases *= vectors.conj().T @ inside
        block.scatter(grid, phases @ vectors.T)
    parts = grid.view(float)  # squared row norms without a complex temporary
    defect = np.max(np.abs(np.sqrt(np.einsum("ij,ij->i", parts, parts)) - 1.0))
    if not defect <= NORM_TOL:
        raise NumericalInstability(f"evolved norm defect {defect:.3e} exceeds {NORM_TOL}")
    return grid


def total_sigma_z(n_sites: int) -> np.ndarray:
    """Total magnetization operator, the conserved charge of the XX chain."""
    n_sites = check_n_sites(n_sites)
    return np.diag(n_sites - 2 * _site_bits(n_sites).sum(axis=1)).astype(complex)
