"""Chain Hamiltonians (transverse-field Ising, XX) and exact time evolution.

Both models are open-boundary and real symmetric. A `Hamiltonian` never
forms the 2^N x 2^N matrix: it holds its action on the basis bits, and each
sector block fills its own Q^T H Q straight from that action, with no
temporary of the block's size but the block itself. The sectors are the
popcount when no term changes it (XX; TFIM at h = 0), else the spin-flip
parity, each split once more by site reversal; the sectors of one popcount
(or all parity sectors) share their orbit representatives. Blocks are
diagonalized on first use. A pure state evolves only in the sectors it
occupies, in real arithmetic, into a batch (states, amplitudes): the sorted
register indices those sectors span and a (times, states) array, written
once per symmetry element; `ground_state` is read from the blocks too. The
one dense form of H is its eigendecomposition `spectrum`, read by
`propagator`.
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
    basis states and eigendecomposed per sector, one `_Block` each:
    H|s> = sum over m of _amplitudes[m, s] |s ^ _masks[m]>. Mask 0 carries the
    diagonal; every other mask flips the sites it covers.
    """

    def __init__(self, model: ChainModel):
        self.model = check_instance(model, ChainModel, "model")
        self._masks, self._amplitudes = _ACTIONS[model.kind](model)

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
        popcount = _popcounts(self.n_sites)
        flipped = popcount[np.arange(popcount.size) ^ self._masks[:, None]]
        keeps = bool(np.all((self._amplitudes == 0) | (flipped == popcount)))
        return [_Block(self, *sector) for sector in _orbit_sectors(self.n_sites, popcount=keeps)]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and sign-fixed orthonormal eigenvectors.

        The blocks placed into one dense dim x dim matrix, for `propagator`;
        scans and `ground_state` read the blocks instead. Equal eigenvalues
        keep the sector order.
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

    The sectors of one popcount (or, for the parity sectors, all of them)
    share their orbits: images[g, r] = g(r) for each element g of the
    symmetry group (identity first) and orbit representative r (the least
    state of its orbit, ascending), and norms[r] = 1 / sqrt(|G| |stabilizer
    of r|). A sector has its sign chi(g) per element and keeps the orbits
    `keep`. Its orthonormal basis Q is one (rows, factors) pair per element,
    stacked into two (|G|, size) arrays: column i of Q is the sum over g of
    factors[g, i] |rows[g, i]>, with rows = images[:, keep] and factors =
    chi(g) norms[keep]. Where g fixes r (a palindrome under site reversal),
    several elements hit one row and their factors add.
    """

    def __init__(
        self, hamiltonian: Hamiltonian, images: np.ndarray, norms: np.ndarray,
        signs: np.ndarray, keep: np.ndarray,
    ):
        # The action's arrays, not the Hamiltonian: a block that held the
        # Hamiltonian holding it would be a reference cycle, freed only by
        # the cyclic collector, eigenvectors and all.
        self.masks, self.amplitudes = hamiltonian._masks, hamiltonian._amplitudes
        self.images, self.norms, self.signs, self.keep = images, norms, signs, keep
        self.rows = images[:, keep]
        self.factors = signs[:, None] * norms[keep]

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
        """Ascending values and sign-fixed real vectors in the block's basis.

        The sign rule is the dense one: the first largest-magnitude entry of
        the placed column is positive. A coordinate's largest placed
        magnitude sits at its representative, the least row of its orbit, and
        is scaled by the factors that land there.
        """
        values, vectors = np.linalg.eigh(self.matrix())
        landing = np.sum(np.where(self.rows == self.rows[0], np.abs(self.factors), 0.0), axis=0)
        # Vector by vector in rows, so argmax reads contiguous memory.
        scratch = np.abs(vectors.T, order="C")
        scratch *= landing
        lead = np.argmax(scratch, axis=1)
        vectors *= np.sign(vectors[lead, np.arange(vectors.shape[1])])
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors

    def project(self, amplitudes: np.ndarray) -> np.ndarray:
        """Q^T psi: the coordinates of a 2^N ket on the block's basis."""
        return np.sum(self.factors * amplitudes[self.rows], axis=0)

    def scatter(self, out: np.ndarray, part: np.ndarray) -> None:
        """Add Q part (block coordinates) into the 2^N `out`."""
        for rows, factors in zip(self.rows, self.factors):
            out[rows] += factors * part

    def place(self, out: np.ndarray, columns: np.ndarray) -> None:
        """Add Q times the block's vectors into `columns` of the zero dim x dim `out`."""
        for rows, factors in zip(self.rows, self.factors):
            out[np.ix_(rows, columns)] += factors[:, None] * self.eigen[1]


@lru_cache(maxsize=None)
def _orbit_sectors(n_sites: int, popcount: bool) -> tuple[tuple[np.ndarray, ...], ...]:
    """`_Block` (images, norms, signs, keep) of every nonempty sector, in the
    fixed order; the sectors of one popcount share one images and one norms.
    Read-only and made once per (length, popcount): every such chain shares it.

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
        shared = images[:, lo:hi], norms[lo:hi]
        for chi, ok in zip(characters, allowed):
            keep = np.flatnonzero(ok[lo:hi])
            if keep.size:
                sectors.append((*shared, chi, keep))
    for array in (images, norms, *characters, *(keep for *_, keep in sectors)):
        array.setflags(write=False)
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
    `spectrum` is never placed: the state is column 0 of the block with the
    lowest value, the gap the next value over all blocks. An exact tie across
    sectors goes to the first in the fixed order of `_orbit_sectors`
    (ascending popcount, else even parity first; reversal-even before odd),
    as in `spectrum`, on every build: TFIM with h = 0 gives |0...0>."""
    blocks = check_instance(hamiltonian, Hamiltonian, "hamiltonian")._blocks
    lowest = blocks[int(np.argmin([block.eigen[0][0] for block in blocks]))]
    energy, above = np.sort(np.concatenate([block.eigen[0][:2] for block in blocks]))[:2]
    amplitudes = np.zeros(hamiltonian.dim)
    lowest.scatter(amplitudes, lowest.eigen[1][:, 0])
    ket = Ket(hamiltonian.n_sites, amplitudes)
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
    """Evolve a pure state without forming the full propagator matrix."""
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
    """psi(t) = V exp(-iEt) V^T psi for every t, as a batch (states, grid):
    the register indices the occupied sectors span, ascending, and grid[t, j]
    the amplitude of states[j].

    A sector where psi's projection is exactly zero is skipped (and never
    diagonalized). Every other one is diagonalized before the batch arrays
    take memory, then evolved in its own eigenbasis in real arithmetic
    (`_sector_series`). The sectors that share orbit
    representatives are summed per representative through their signs, one
    group element at a time into one buffer, and each element's sum is
    written into the batch once. Every row's norm is checked here, so
    callers that consume the rows need no per-time `Ket`.
    """
    psi = np.asarray(amplitudes, dtype=complex)
    shared = {}  # the occupied blocks, by the orbits they share
    for block in hamiltonian._blocks:
        inside = block.project(psi)
        if np.any(inside):
            shared.setdefault(id(block.images), []).append((block, inside, *block.eigen))
    groups = []
    span = np.zeros(hamiltonian.dim, dtype=bool)
    for occupied in shared.values():
        used = np.zeros(occupied[0][0].norms.size, dtype=bool)
        for block, *_ in occupied:
            used[block.keep] = True
        images, norms = occupied[0][0].images[:, used], occupied[0][0].norms[used]
        span[images] = True
        groups.append((occupied, used, images, norms))
    states = np.flatnonzero(span)
    column = np.cumsum(span) - 1  # each spanned state's batch column
    grid = np.zeros((times.size, states.size), dtype=complex)
    for occupied, used, images, norms in groups:
        position = np.cumsum(used) - 1
        # coordinates[s, r]: sector s's coordinate on representative r, (re, im) per time.
        coordinates = np.zeros((len(occupied), images.shape[1], 2 * times.size))
        for part, (block, inside, values, vectors) in zip(coordinates, occupied):
            part[position[block.keep]] = _sector_series(values, vectors, inside, times)
        signs = np.stack([block.signs for block, *_ in occupied], axis=1)  # (element, sector)
        stacked = coordinates.reshape(len(occupied), -1)
        summed = np.empty(stacked.shape[1])  # one element's sum over the sectors at a time
        element = summed.view(complex).reshape(-1, times.size)
        for rows, sign in zip(images, signs):
            np.matmul(sign, stacked, out=summed)
            element *= norms[:, None]
            grid[:, column[rows]] += element.T
    parts = grid.view(float)  # squared row norms without a complex temporary
    defect = np.max(np.abs(np.sqrt(np.einsum("ij,ij->i", parts, parts)) - 1.0))
    if not defect <= NORM_TOL:
        raise NumericalInstability(f"evolved norm defect {defect:.3e} exceeds {NORM_TOL}")
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
