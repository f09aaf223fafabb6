"""Chain Hamiltonians (transverse-field Ising, XX) and exact time evolution.

Both models are open-boundary and real symmetric. The builders never form
the 2^N x 2^N matrix: they describe H by its action on the basis bits (a
diagonal, plus flip masks with per-state amplitudes) and fill each sector
block Q^T H Q straight from it. The sectors are the popcount when no term
changes it (XX; TFIM at h = 0), else the spin-flip parity, each split once
more by site reversal; a matrix handed to `Hamiltonian` directly is split
only into the sectors it verifies (popcount, else parity, else one block).
Every sector basis Q has one layout, `_Block`'s (rows, factors) per
symmetry element, which projects, scatters and places vectors. Blocks are
diagonalized on first use and cached. Pure states evolve block by block,
only in the sectors they occupy. The dense matrix (`Hamiltonian.matrix`)
and the dense eigenvector matrix (`spectrum`, which `ground_state`,
`propagator` and `evolve` read) are formed only when read. Units: hbar = 1,
couplings dimensionless, time in units of 1/J.
"""

from __future__ import annotations

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
    """Hermitian chain Hamiltonian (real for the built models).

    Built from a dense matrix, which is checked here and split into the
    sectors it verifies (`_sectors`); the builders instead hand over their
    bit action (`_BitAction`) and never form the matrix. Either way the
    eigendecomposition is kept per sector, one `_Block` each, and each block
    is diagonalized on first use.
    """

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
        self._operator = _Matrix(matrix)

    @classmethod
    def _from_action(cls, model: ChainModel, action: _BitAction) -> Hamiltonian:
        hamiltonian = cls.__new__(cls)
        hamiltonian.model = model
        hamiltonian._operator = action
        return hamiltonian

    @property
    def n_sites(self) -> int:
        return self.model.n_sites

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim matrix (read-only): as given, or placed from the
        bit action on first use. Scans never read it."""
        return self._operator.dense()

    @cached_property
    def _blocks(self) -> list[_Block]:
        """One `_Block` per sector, in sector order; none diagonalized yet."""
        return [_Block(self._operator, rows, factors) for rows, factors in self._operator.sectors()]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and phase-fixed orthonormal eigenvectors.

        The blocks placed into one dense dim x dim matrix, for `ground_state`,
        `propagator` and `evolve`; pure-state evolution reads the blocks.
        Equal eigenvalues keep the sector order (stable sort).
        """
        blocks = self._blocks
        values = np.concatenate([block.eigen[0] for block in blocks])
        order = np.argsort(values, kind="stable")
        column = np.empty_like(order)
        column[order] = np.arange(order.size)
        dtype = np.result_type(*(block.eigen[1] for block in blocks))
        vectors = np.zeros((self.dim, self.dim), dtype=dtype)
        start = 0
        for block in blocks:
            block.place(vectors, column[start : start + block.size])
            start += block.size
        values = values[order]
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors


class _BitAction:
    """A chain Hamiltonian as it acts on basis states, never as a matrix:
    H|s> = sum over m of amplitudes[m, s] |s ^ masks[m]>. Mask 0 carries the
    diagonal; every other mask flips the sites it covers.
    """

    def __init__(self, n_sites: int, masks: np.ndarray, amplitudes: np.ndarray):
        self.n_sites = n_sites
        self.masks = masks
        self.amplitudes = amplitudes

    def dense(self) -> np.ndarray:
        states = np.arange(2**self.n_sites)
        matrix = np.zeros((states.size, states.size))
        matrix[states ^ self.masks[:, None], states] = self.amplitudes
        matrix.setflags(write=False)
        return matrix

    def sectors(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Popcount sectors when no term changes the popcount (XX; TFIM at
        h = 0), else spin-flip parity sectors; each split by site reversal.
        The builders' uniform open chains commute with both by construction;
        the tests hold every block to the Pauli-Kronecker matrix."""
        popcount = _site_bits(self.n_sites).sum(axis=1)
        flipped = popcount[np.arange(popcount.size) ^ self.masks[:, None]]
        keeps = bool(np.all((self.amplitudes == 0) | (flipped == popcount)))
        return _orbit_sectors(self.n_sites, popcount=keeps, flip=not keeps, reversal=True)

    def block(self, rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Q^T H Q of one sector, filled from the bits: H Q at the orbit
        representatives, scaled by `_rep_scale`. No matrix was checked whole,
        so each block is checked for hermiticity here."""
        size = rows.shape[1]
        position = np.full(2**self.n_sites, -1)
        position[rows[0]] = np.arange(size)
        sources = rows[:, None, :]  # (element, term, column)
        hit = position[sources ^ self.masks[:, None]]
        weight = factors[:, None, :] * self.amplitudes[np.arange(self.masks.size)[:, None], sources]
        inside = hit >= 0
        cells = (hit * size + np.arange(size))[inside]
        block = np.bincount(cells, weight[inside], minlength=size * size).reshape(size, size)
        block *= _rep_scale(factors)[:, None]
        defect = np.max(np.abs(block - block.T))
        if not defect <= BUILD_HERMITICITY_TOL:
            raise InvalidInput(
                f"block hermiticity defect {defect:.3e} exceeds {BUILD_HERMITICITY_TOL}"
            )
        return block


class _Matrix:
    """A dense matrix handed to `Hamiltonian`, split into the sectors it verifies."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def dense(self) -> np.ndarray:
        return self.matrix

    def sectors(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return _sectors(self.matrix)

    def block(self, rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Q^T H Q of one sector: H Q at the orbit representatives, gathered
        from the matrix and scaled by `_rep_scale`."""
        block = np.zeros((rows.shape[1],) * 2, dtype=self.matrix.dtype)
        for image, factor in zip(rows, factors):
            part = self.matrix[np.ix_(rows[0], image)]
            part *= factor
            block += part
        block *= _rep_scale(factors)[:, None]
        return block


def _rep_scale(factors: np.ndarray) -> np.ndarray:
    """|G| factors[0]: H Q stays in the sector, so its rows at the orbit
    representatives r give Q^T H Q, row i scaled by |G| factors[0, i]."""
    return factors.shape[0] * factors[0]


class _Block:
    """One sector of a Hamiltonian, eigendecomposed on first use.

    The sector's orthonormal basis Q is one (rows, factors) pair per element
    g of its symmetry group, stacked into two (|G|, size) arrays, identity
    first: column i of Q is the sum over g of factors[g, i] |rows[g, i]>.
    rows[g] = g(r) for the orbit representatives r (the least state of each
    orbit, ascending), and factors[g] = chi(g) / sqrt(|G| |stabilizer of r|).
    Where g fixes r (a palindrome under site reversal), several elements hit
    one row and their factors add.
    """

    def __init__(self, operator: _BitAction | _Matrix, rows: np.ndarray, factors: np.ndarray):
        self.operator = operator
        self.rows = rows
        self.factors = factors

    @property
    def size(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending values and phase-fixed vectors in the block's basis.

        The phase rule is the dense one: the first largest-magnitude entry of
        the placed column is real and positive. A coordinate's largest placed
        magnitude sits at its representative, the least row of its orbit, and
        is scaled by the factors that land there.
        """
        values, vectors = np.linalg.eigh(self.operator.block(self.rows, self.factors))
        landing = np.sum(np.where(self.rows == self.rows[0], np.abs(self.factors), 0.0), axis=0)
        _fix_phases(vectors, landing)
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors

    def project(self, amplitudes: np.ndarray) -> np.ndarray:
        """Q^T psi: the coordinates of a 2^N ket on the block's basis."""
        return np.sum(self.factors * amplitudes[self.rows], axis=0)

    def scatter(self, out: np.ndarray, part: np.ndarray) -> None:
        """Add Q part (rows of block coordinates) into the 2^N rows of `out`."""
        for rows, factors in zip(self.rows, self.factors):
            out[..., rows] += factors * part

    def place(self, out: np.ndarray, columns: np.ndarray) -> None:
        """Add Q times the block's vectors into `columns` of the zero dim x dim `out`."""
        for rows, factors in zip(self.rows, self.factors):
            out[np.ix_(rows, columns)] += factors[:, None] * self.eigen[1]


def _sectors(matrix: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The `_Block` (rows, factors) of each conserved sector the matrix verifies.

    Magnetization sectors (ascending popcount) when no entry couples two
    popcounts; else the spin-flip parity sectors, even first, when H equals
    H[::-1, ::-1]; else the whole space as one block. Both checks read the
    rows of one popcount at a time.
    """
    dim = matrix.shape[0]
    n_sites = dim.bit_length() - 1
    popcount = _site_bits(n_sites).sum(axis=1)
    groups = [np.flatnonzero(popcount == count) for count in range(n_sites + 1)]
    if all(_largest_outside(matrix, rows) <= BUILD_HERMITICITY_TOL for rows in groups):
        return _orbit_sectors(n_sites, popcount=True, flip=False, reversal=False)
    if all(
        np.max(np.abs(matrix[rows] - matrix[dim - 1 - rows, ::-1])) <= BUILD_HERMITICITY_TOL
        for rows in groups
    ):
        return _orbit_sectors(n_sites, popcount=False, flip=True, reversal=False)
    return _orbit_sectors(n_sites, popcount=False, flip=False, reversal=False)


def _largest_outside(matrix: np.ndarray, rows: np.ndarray) -> float:
    """Largest |entry| of `rows` outside the columns `rows` (NaN if any is NaN)."""
    part = np.abs(matrix[rows])
    part[:, rows] = 0.0
    return np.max(part)


def _orbit_sectors(
    n_sites: int, popcount: bool, flip: bool, reversal: bool
) -> list[tuple[np.ndarray, np.ndarray]]:
    """`_Block` (rows, factors) of every nonempty sector, in the fixed order.

    The symmetry group is generated by the global spin flip F (if `flip`)
    and the site reversal P (if `reversal`); a sector is a popcount (if
    `popcount`, ascending) and one sign per generator, +1 before -1. An orbit
    belongs to a sector unless an element that fixes its states has sign -1.
    """
    bits = _site_bits(n_sites)
    states = np.arange(bits.shape[0])
    generators = [states[::-1]] if flip else []
    if reversal:
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
    return sectors


def _fix_phases(vectors: np.ndarray, scale: np.ndarray) -> None:
    # Reproducibility: make the first largest entry of each column, measured
    # as |vector| * scale, real and positive (in place).
    lead = np.argmax(np.abs(vectors) * scale[:, None], axis=0)
    pivots = vectors[lead, np.arange(vectors.shape[1])]
    vectors *= pivots.conj() / np.abs(pivots)


def _site_bits(n_sites: int) -> np.ndarray:
    """bits[i, k]: occupation of site k in basis state i (site 0 is the top bit)."""
    return (np.arange(2**n_sites)[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1


def build_tfim(n_sites: int, coupling: float, field: float) -> Hamiltonian:
    """H = -J sum_k sz_k sz_{k+1} - h sum_k sx_k (open boundaries)."""
    model = ChainModel("tfim", n_sites, coupling, field)
    n = model.n_sites
    spins = 1 - 2 * _site_bits(n)
    diagonal = -model.coupling * np.sum(spins[:, :-1] * spins[:, 1:], axis=1, dtype=float)
    masks = np.concatenate([[0], 1 << np.arange(n - 1, -1, -1)])
    amplitudes = np.vstack([diagonal, np.full((n, 2**n), -model.field)])
    return Hamiltonian._from_action(model, _BitAction(n, masks, amplitudes))


def build_xx(n_sites: int, coupling: float, field: float) -> Hamiltonian:
    """H = (J/2) sum_k (sx_k sx_{k+1} + sy_k sy_{k+1}) + h sum_k sz_k."""
    model = ChainModel("xx", n_sites, coupling, field)
    n = model.n_sites
    bits = _site_bits(n)
    diagonal = model.field * (n - 2 * bits.sum(axis=1, dtype=float))
    # sx sx + sy sy = 2(|01><10| + |10><01|): J on every flip of a differing pair.
    masks = np.concatenate([[0], 3 << np.arange(n - 2, -1, -1)])
    hops = np.where(bits[:, :-1] != bits[:, 1:], model.coupling, 0.0).T
    return Hamiltonian._from_action(model, _BitAction(n, masks, np.vstack([diagonal, hops])))


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
    across sectors goes to the first in the fixed order of `_orbit_sectors`
    (ascending popcount, else even parity first; reversal-even before odd),
    on every build: TFIM with h = 0 gives |0...0>."""
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
