"""Chain Hamiltonians (transverse-field Ising, XX) and exact time evolution.

Both models are open-boundary and real symmetric. A `Hamiltonian` never
forms the 2^N x 2^N matrix: on first use it builds its action on the basis
bits, and each sector block fills its own Q^T H Q straight from that action,
with no temporary of the block's size but the block itself. The sectors are
the popcount when no term changes it (XX; TFIM at h = 0), else the spin-flip
parity, each split once more by site reversal; a block holds its basis as
rows and factors, one pair per symmetry element. Blocks are diagonalized on
first use. `_evolve_grid` is the one pure-state evolution, adding each
occupied block's coordinates through its own rows; `ground_state` reads the
blocks. The one dense form of H is its eigendecomposition `spectrum`, read
by `propagator`.
Units: hbar = 1, couplings dimensionless, time in units of 1/J.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import InvalidInput, NumericalInstability
from .qstate import MAX_SITES, NORM_TOL, TRACE_TOL, DensityMatrix, Ket, check_instance
from .qstate import check_array, check_n_sites, check_real

BUILD_HERMITICITY_TOL = 1e-12
DEGENERACY_GAP = 1e-10

MODEL_KINDS = ("tfim", "xx")


@dataclass(frozen=True)
class ChainModel:
    """Nearest-neighbor chain parameters: kind, length N, coupling J, field h.

    With open boundaries, kind "tfim" is
    H = -J sum_k sz_k sz_{k+1} - h sum_k sx_k, and kind "xx" is
    H = (J/2) sum_k (sx_k sx_{k+1} + sy_k sy_{k+1}) + h sum_k sz_k.
    """

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
    """The real symmetric Hamiltonian of a `ChainModel`, held as its action on
    basis states and eigendecomposed per sector, one `_Block` each."""

    def __init__(self, model: ChainModel):
        self.model = check_instance(model, ChainModel, "model")

    @cached_property
    def _action(self) -> tuple[np.ndarray, np.ndarray]:
        """(masks, amplitudes): H|s> = sum over m of amplitudes[m, s] |s ^ masks[m]>.
        Mask 0 carries the diagonal; every other mask flips the sites it covers."""
        return _ACTIONS[self.model.kind](self.model)

    @property
    def n_sites(self) -> int:
        return self.model.n_sites

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    @cached_property
    def _blocks(self) -> list[_Block]:
        """One `_Block` per sector, in sector order; none diagonalized yet.

        Popcount sectors when no term changes the popcount (XX; TFIM at
        h = 0), else spin-flip parity sectors; each split by site reversal.
        Both models' uniform open chains commute with both by construction;
        the tests hold every block to the Pauli-Kronecker matrix."""
        masks, amplitudes = self._action
        popcount = _popcounts(self.n_sites)
        flipped = popcount[np.arange(popcount.size) ^ masks[:, None]]
        keeps = bool(np.all((amplitudes == 0) | (flipped == popcount)))
        return [_Block(self, *sector) for sector in _orbit_sectors(self.n_sites, popcount=keeps)]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and sign-fixed orthonormal eigenvectors.

        Every block placed (`_Block.place`) into one dense dim x dim matrix,
        for `propagator`; scans read the blocks, and `ground_state` places one
        column. Equal eigenvalues keep the sector order.
        """
        blocks = self._blocks
        values = np.concatenate([block.eigen[0] for block in blocks])
        order = np.argsort(values, kind="stable")
        column = np.empty_like(order)
        column[order] = np.arange(order.size)
        vectors = np.zeros((self.dim, self.dim))
        start = 0
        for block in blocks:
            block.place(vectors, column[start : start + block.size])
            start += block.size
        values = values[order]
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors


class _Block:
    """One sector of a Hamiltonian, eigendecomposed on first use.

    Its orthonormal basis Q is one (rows, factors) pair per element g of the
    symmetry group (identity first), stacked into two (|G|, size) arrays:
    column i of Q is the sum over g of factors[g, i] |rows[g, i]>, where
    rows[g, i] = g(r_i) for the sector's orbit representative r_i (the least
    state of its orbit, ascending) and factors[g, i] = chi(g) / sqrt(|G|
    |stabilizer of r_i|), chi(g) the sector's sign of g. Where g fixes r_i (a
    palindrome under site reversal), several elements hit one row and their
    factors add.
    """

    def __init__(self, hamiltonian: Hamiltonian, rows: np.ndarray, factors: np.ndarray):
        # The action's arrays, not the Hamiltonian: a block that held the
        # Hamiltonian holding it would be a reference cycle, freed only by
        # the cyclic collector, eigenvectors and all.
        self.masks, self.amplitudes = hamiltonian._action
        self.rows, self.factors = rows, factors

    @property
    def size(self) -> int:
        return self.rows.shape[1]

    def matrix(self) -> np.ndarray:
        """Q^T H Q, filled from the Hamiltonian's bit action. H Q stays in the
        sector, so its rows at the orbit representatives give Q^T H Q, row i
        scaled by |G| factors[0, i]. The action is never checked whole, so
        each block is checked for hermiticity here, on the filled cells: an
        empty cell's mirror is empty or filled, so this is max |B - B^T|."""
        rows, factors, size = self.rows, self.factors, self.size
        position = np.full(self.amplitudes.shape[1], -1)
        position[rows[0]] = np.arange(size)
        # hit[g, term, i]: the row the term sends element g's image of column
        # i to, or -1 off the representatives.
        hit = position[rows[:, None, :] ^ self.masks[:, None]]
        element, term, column = np.nonzero(hit >= 0)
        row = hit[element, term, column]
        scale = factors.shape[0] * factors[0]
        sources = rows[element, column]
        weight = factors[element, column] * scale[row] * self.amplitudes[term, sources]
        cells = row * size + column
        block = np.bincount(cells, weight, minlength=size * size).reshape(size, size)
        flat = block.ravel()
        defect = np.max(np.abs(flat[cells] - flat[column * size + row]))
        if not defect <= BUILD_HERMITICITY_TOL:
            raise InvalidInput(
                f"block hermiticity defect {defect:.3e} exceeds {BUILD_HERMITICITY_TOL}"
            )
        return block

    @cached_property
    def eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending values and real vectors in the block's basis, as
        `np.linalg.eigh` gives them: only `place` exposes, and fixes, signs."""
        values, vectors = np.linalg.eigh(self.matrix())
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors

    def project(self, amplitudes: np.ndarray) -> np.ndarray:
        """Q^T psi: the coordinates of a 2^N ket on the block's basis."""
        return np.sum(self.factors * amplitudes[self.rows], axis=0)

    def place(self, out: np.ndarray, columns: np.ndarray) -> None:
        """Add Q V into `columns` of the zero (2^N, k) `out`, V the block's
        first len(columns) vectors, each signed so that the first
        largest-magnitude entry of its placed column is positive.

        A coordinate's largest placed magnitude sits at its representative,
        the least row of its orbit, and is scaled by the factors that land
        there; representatives ascend, so the first such coordinate leads.
        """
        vectors = self.eigen[1][:, : len(columns)]
        landing = np.sum(np.where(self.rows == self.rows[0], np.abs(self.factors), 0.0), axis=0)
        # Vector by vector in rows, so argmax reads contiguous memory.
        lead = np.argmax(np.abs(vectors.T, order="C") * landing, axis=1)
        sign = np.sign(vectors[lead, np.arange(len(columns))])
        for rows, factors in zip(self.rows, self.factors):
            part = factors[:, None] * vectors
            part *= sign
            out[np.ix_(rows, columns)] += part


@lru_cache(maxsize=None)
def _orbit_sectors(n_sites: int, popcount: bool) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """`_Block` (rows, factors) of every nonempty sector, in the fixed order,
    the identity element first. Read-only and made once per (length,
    popcount): every such chain shares them.

    With `popcount` the symmetry group is generated by the site reversal P
    and a sector is a popcount (ascending) and a sign of P; without it the
    global spin flip F joins P, and a sector is a sign of F and a sign of P.
    Signs go +1 before -1. An orbit belongs to a sector unless an element
    that fixes its states has sign -1.
    """
    bits = _site_bits(n_sites)
    states = np.arange(bits.shape[0])
    generators = [] if popcount else [states[::-1]]
    generators.append(bits[:, ::-1] @ (1 << np.arange(n_sites - 1, -1, -1)))
    images = [states]
    for generator in generators:  # the group's elements, identity first
        images += [generator[image] for image in images]
    images = np.stack(images)
    reps = np.flatnonzero(np.all(images >= states, axis=0))  # the least state of each orbit
    edges = [0, reps.size]
    if popcount:  # representatives grouped by popcount, ascending within each
        counts = bits[reps].sum(axis=1)
        reps = reps[np.argsort(counts, kind="stable")]
        edges = np.searchsorted(np.sort(counts), np.arange(n_sites + 2))
    images = images[:, reps]
    fixed = images == reps
    norms = 1.0 / np.sqrt(images.shape[0] * np.sum(fixed, axis=0))
    characters = [np.ones(1)]
    for _ in generators:  # characters[j][g]: sign of element g in sector j
        characters = [np.concatenate([chi, sign * chi]) for chi in characters for sign in (1, -1)]
    allowed = [~np.any(fixed[chi < 0], axis=0) for chi in characters]
    sectors = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        for chi, ok in zip(characters, allowed):
            keep = lo + np.flatnonzero(ok[lo:hi])
            if keep.size:
                sectors.append((images[:, keep], chi[:, None] * norms[keep]))
    for rows, factors in sectors:
        rows.setflags(write=False)
        factors.setflags(write=False)
    return tuple(sectors)


def _site_bits(n_sites: int) -> np.ndarray:
    """bits[i, k]: occupation of site k in basis state i (site 0 is the top bit)."""
    return (np.arange(2**n_sites)[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1


@lru_cache(maxsize=None)
def _popcounts(n_sites: int) -> np.ndarray:
    """The number of ones in each basis state. Read-only and made once per
    length: every sector split and entropy pass reads it."""
    counts = _site_bits(n_sites).sum(axis=1)
    counts.setflags(write=False)
    return counts


def _tfim_action(model: ChainModel) -> tuple[np.ndarray, np.ndarray]:
    n = model.n_sites
    spins = 1 - 2 * _site_bits(n)
    diagonal = -model.coupling * np.sum(spins[:, :-1] * spins[:, 1:], axis=1, dtype=float)
    masks = np.concatenate([[0], 1 << np.arange(n - 1, -1, -1)])
    return masks, np.vstack([diagonal, np.full((n, 2**n), -model.field)])


def _xx_action(model: ChainModel) -> tuple[np.ndarray, np.ndarray]:
    n = model.n_sites
    bits = _site_bits(n)
    diagonal = model.field * (n - 2 * bits.sum(axis=1, dtype=float))
    # sx sx + sy sy = 2(|01><10| + |10><01|): J on every flip of a differing pair.
    masks = np.concatenate([[0], 3 << np.arange(n - 2, -1, -1)])
    hops = np.where(bits[:, :-1] != bits[:, 1:], model.coupling, 0.0).T
    return masks, np.vstack([diagonal, hops])


_ACTIONS = {"tfim": _tfim_action, "xx": _xx_action}


def build_model(model: ChainModel) -> Hamiltonian:
    return Hamiltonian(model)


@dataclass(frozen=True)
class GroundState:
    """The lowest eigenvector, its energy E0 and the gap E1 - E0 to the next
    level; degenerate when the gap is below `DEGENERACY_GAP`."""

    state: Ket
    energy: float
    gap: float

    @property
    def degenerate(self) -> bool:
        return self.gap < DEGENERACY_GAP


def ground_state(hamiltonian: Hamiltonian) -> GroundState:
    """Lowest-energy eigenvector; flags (near-)degeneracy instead of failing.

    Read from the blocks, so every sector is diagonalized but the dense
    `spectrum` is never formed: the state is vector 0 of the block with the
    lowest value, placed and signed as in `spectrum`, the gap the next value
    over all blocks. An exact tie across sectors goes to the first in the
    fixed order of `_orbit_sectors` (ascending popcount, else even parity
    first; reversal-even before odd), as in `spectrum`, on every build: TFIM
    with h = 0 gives |0...0>."""
    blocks = check_instance(hamiltonian, Hamiltonian, "hamiltonian")._blocks
    lowest = blocks[int(np.argmin([block.eigen[0][0] for block in blocks]))]
    energy, above = np.sort(np.concatenate([block.eigen[0][:2] for block in blocks]))[:2]
    amplitudes = np.zeros((hamiltonian.dim, 1))
    lowest.place(amplitudes, [0])
    ket = Ket(hamiltonian.n_sites, amplitudes[:, 0])
    return GroundState(state=ket, energy=float(energy), gap=float(above - energy))


@dataclass(frozen=True)
class Propagator:
    """Unitary U(t) = exp(-iHt) assembled from the cached spectrum."""

    time: float
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "time", check_real(self.time, "time"))
        mat = check_array(self.matrix, "matrix", complex, (None, None)).copy()
        if mat.shape[0] != mat.shape[1]:
            raise InvalidInput(f"propagator must be a square matrix, got shape {mat.shape}")
        defect = np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0])))
        if not defect <= TRACE_TOL:
            raise NumericalInstability(f"unitarity defect {defect:.3e} exceeds {TRACE_TOL}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def propagator(hamiltonian: Hamiltonian, time: float) -> Propagator:
    time = check_real(time, "time")
    values, vectors = check_instance(hamiltonian, Hamiltonian, "hamiltonian").spectrum
    phases = np.exp(-1j * values * time)
    matrix = (vectors * phases) @ vectors.T
    return Propagator(time, matrix)


def evolve(rho: DensityMatrix, prop: Propagator) -> DensityMatrix:
    """Conjugate a state by the propagator: U rho U^dagger, made Hermitian by `DensityMatrix`."""
    check_instance(rho, DensityMatrix, "rho")
    check_instance(prop, Propagator, "prop")
    if rho.dim != prop.matrix.shape[0]:
        raise InvalidInput(
            f"dimension mismatch: state {rho.dim}, propagator {prop.matrix.shape[0]}"
        )
    return DensityMatrix(rho.n_sites, prop.matrix @ rho.matrix @ prop.matrix.conj().T)


def evolve_ket(hamiltonian: Hamiltonian, ket: Ket, time: float) -> Ket:
    """Evolve a pure state without forming the full propagator matrix: one
    `_evolve_grid` time."""
    check_instance(hamiltonian, Hamiltonian, "hamiltonian")
    check_instance(ket, Ket, "ket")
    if ket.n_sites != hamiltonian.n_sites:
        raise InvalidInput(
            f"dimension mismatch: state {ket.n_sites} sites, chain {hamiltonian.n_sites}"
        )
    time = check_real(time, "time")
    states, grid = _evolve_grid(hamiltonian, ket.amplitudes, np.array([time]))
    amplitudes = np.zeros(hamiltonian.dim, dtype=complex)
    amplitudes[states] = grid[0]
    return Ket(ket.n_sites, amplitudes)


def _evolve_grid(hamiltonian: Hamiltonian, amplitudes: np.ndarray, times: np.ndarray) -> tuple:
    """psi(t) = exp(-iHt) psi for every t, as a batch (states, grid): the
    register indices the occupied sectors span, ascending, and grid[t, j]
    the amplitude of states[j]. A TFIM state at h != 0 spans all 2^N; an XX
    basis state with M ones, the C(N, M) of popcount M.

    An XX ket with one excitation (every nonzero amplitude at a popcount-1
    index) evolves in closed form (`_excitation_grid`), building neither the
    bit action nor a block; any other on the sector blocks (`_block_grid`),
    its oracle in the tests. Every row's norm is checked here, so callers
    that consume the rows need no per-time `Ket`.
    """
    psi = np.asarray(amplitudes, dtype=complex)
    excited = np.flatnonzero(psi)  # ascending: index 0, popcount 0, would come first
    xx = hamiltonian.model.kind == "xx"
    single = xx and excited[0] > 0 and not np.any(excited & (excited - 1))
    states, grid = (_excitation_grid if single else _block_grid)(hamiltonian, psi, times)
    parts = grid.view(float)  # squared row norms without a complex temporary
    defect = np.max(np.abs(np.sqrt(np.einsum("ij,ij->i", parts, parts)) - 1.0))
    if not defect <= NORM_TOL:
        raise NumericalInstability(f"evolved norm defect {defect:.3e} exceeds {NORM_TOL}")
    return states, grid


def _block_grid(hamiltonian: Hamiltonian, psi: np.ndarray, times: np.ndarray) -> tuple:
    """The `_evolve_grid` batch of a complex `psi`, V exp(-iEt) V^T psi on the
    sector blocks.

    A sector where psi's projection is exactly zero is skipped (and never
    diagonalized). Every other one is diagonalized before the batch arrays
    take memory, then evolved in its own eigenbasis in real arithmetic
    (`_sector_series`). Its coordinates are added into a (states, times)
    buffer through its own rows and factors, one group element at a time,
    and the buffer is transposed into the batch once.
    """
    occupied = []
    span = np.zeros(hamiltonian.dim, dtype=bool)
    for block in hamiltonian._blocks:
        inside = block.project(psi)
        if np.any(inside):
            occupied.append((block, inside, *block.eigen))
            span[block.rows] = True
    states = np.flatnonzero(span)
    column = np.cumsum(span) - 1  # each spanned state's batch column
    summed = np.zeros((states.size, times.size), dtype=complex)
    pairs = summed.view(float)  # (re, im) per time, as `_sector_series` gives them
    for block, inside, values, vectors in occupied:
        coordinates = _sector_series(values, vectors, inside, times)
        for rows, factors in zip(block.rows, block.factors):
            pairs[column[rows]] += factors[:, None] * coordinates
    return states, np.ascontiguousarray(summed.T)


def _hopping_modes(n_sites: int, coupling: float) -> tuple[np.ndarray, np.ndarray]:
    """Energies eps_k = 2J cos(pi k / (N+1)) and the symmetric mode matrix
    phi[j, k-1] = sqrt(2 / (N+1)) sin(pi k (j+1) / (N+1)), k = 1..N, of one
    excitation hopping with amplitude J along N open sites."""
    k = np.arange(1, n_sites + 1)
    modes = np.sqrt(2.0 / (n_sites + 1)) * np.sin(np.pi / (n_sites + 1) * np.outer(k, k))
    return 2.0 * coupling * np.cos(np.pi / (n_sites + 1) * k), modes


def _excitation_grid(h: Hamiltonian, amplitudes: np.ndarray, times: np.ndarray) -> tuple:
    """The `_evolve_grid` batch of an XX chain's one-excitation `amplitudes`
    in closed form, on states 1 << arange(N), ascending.

    The popcount-1 sector needs no `eigh`: its eigenvectors are the hopping
    modes (`_hopping_modes`) and its energies eps_k + h (N - 2), as the field
    adds only a constant diagonal there (`_xx_action`). It evolves as a block does.
    """
    n = h.n_sites
    energies, modes = _hopping_modes(n, h.model.coupling)
    states = 1 << np.arange(n)
    sites = modes[::-1]  # row j: site n - 1 - j, the site of states[j]
    energies = energies + h.model.field * (n - 2)
    coordinates = _sector_series(energies, sites, amplitudes[states], times).T  # (re, im) rows
    grid = np.empty((times.size, n), dtype=complex)
    grid.real, grid.imag = coordinates[::2], coordinates[1::2]
    return states, grid


def _sector_series(
    values: np.ndarray, vectors: np.ndarray, inside: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """V exp(-iEt) V^T inside for every t, one sector's coordinates as a
    (size, 2 * times) float array of (re, im) pairs: the complex arrays are
    viewed as float pairs, so both products are real GEMMs on V as it is."""
    start = (vectors.T @ inside.view(float).reshape(-1, 2)).view(complex)
    phases = np.empty((values.size, times.size), dtype=complex)  # exp(-iEt), then times start
    np.multiply.outer(-values, times, out=phases.imag)
    np.cos(phases.imag, out=phases.real)
    np.sin(phases.imag, out=phases.imag)
    phases *= start
    # V Phi as (Phi^T V^T)^T: OpenBLAS then packs V as eigh did, where V @ Phi
    # would leave about 1 MiB more of its buffer resident at N = 12.
    return (phases.view(float).T @ vectors.T).T


def total_sigma_z(n_sites: int) -> np.ndarray:
    """Total magnetization operator, the conserved charge of the XX chain."""
    n_sites = check_n_sites(n_sites)
    return np.diag(n_sites - 2 * _popcounts(n_sites)).astype(complex)
