"""Dense linear algebra for multi-qubit registers.

Basis convention used everywhere in this package: the basis index b encodes
the bitstring q0 q1 ... q_{N-1} with site 0 as the most significant bit,

    b = sum_s q_s * 2**(N - 1 - s),

so |1000> on four sites sits at index 8 and tensor factors follow np.kron
order (site 0 leftmost).

The package's input rules live here too: `check_integer`, `check_real`,
`check_instance`, `check_sequence`, `check_array`, `check_n_sites`,
`check_sites` and `check_site_pair`; a violation raises `InvalidInput`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import InvalidInput, NotPositiveSemidefinite

# Dense storage only; 4096 x 4096 complex matrices are the practical ceiling.
MAX_SITES = 12

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
# `validate_density_matrix` counts eigenvalues down to -POSITIVITY_TOL as positive.
POSITIVITY_TOL = 1e-10
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


def check_integer(value, name: str) -> int:
    """`value` as a Python int, never rounded: bools, strings and floats (2.0 too) raise."""
    if isinstance(value, (bool, np.bool_)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None


def check_real(value, name: str) -> float:
    """`value` as a finite Python float; bools, strings, NaN and +-inf raise `InvalidInput`."""
    try:
        if not isinstance(value, (bool, np.bool_)) and math.isfinite(value):
            return float(value)
    except TypeError:  # not a real number at all, e.g. a string
        pass
    raise InvalidInput(f"{name} must be a finite real number, got {value!r}")


def check_instance(value, kind: type, name: str):
    """`value` unchanged if it is a `kind`; any other object raises `InvalidInput`."""
    if not isinstance(value, kind):
        raise InvalidInput(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def check_sequence(value, name: str) -> tuple:
    """`value` as a tuple of its items; anything that cannot be iterated raises `InvalidInput`."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidInput(f"{name} must be a sequence, got {value!r}") from None


def check_array(value, name: str, dtype: type, shape: tuple) -> np.ndarray:
    """`value` as a `dtype` (float or complex) array of `shape`, whose None entries
    match any length. Integer and float arrays pass, complex ones only into a
    complex slot; bools, strings, objects and ragged sequences raise `InvalidInput`."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nested sequence
        array = np.asarray(None)
    if (
        array.dtype.kind not in ("iufc" if dtype is complex else "iuf")
        or array.ndim != len(shape)
        or any(want not in (None, got) for got, want in zip(array.shape, shape))
    ):
        kind = dtype.__name__
        raise InvalidInput(f"{name} must be a {kind} array of shape {shape}, got {value!r:.80}")
    return array.astype(dtype, copy=False)


def check_sites(sites: Iterable[int], n_sites: int | None = None) -> tuple[int, ...]:
    """The one site-set rule: a non-empty, strictly increasing tuple of integer
    sites in [0, n_sites).

    Every public entry that takes sites validates them here; each site and
    n_sites must pass `check_integer`. n_sites=None skips the upper bound.
    """
    out = tuple(check_integer(s, "site index") for s in check_sequence(sites, "site set"))
    if not out:
        raise InvalidInput("site set must not be empty")
    if any(s < 0 for s in out):
        raise InvalidInput(f"site indices must be >= 0, got {out}")
    if n_sites is not None and max(out) >= check_integer(n_sites, "n_sites"):
        raise InvalidInput(f"site indices must lie in [0, {n_sites}), got {out}")
    if any(a >= b for a, b in zip(out, out[1:])):
        raise InvalidInput(f"site indices must be strictly increasing, got {out}")
    return out


def check_site_pair(site_a: int, site_b: int, n_sites: int) -> tuple[int, int]:
    """The sender/receiver rule: two distinct sites, each in [0, n_sites) by `check_sites`."""
    (a,) = check_sites((site_a,), n_sites)
    (b,) = check_sites((site_b,), n_sites)
    if a == b:
        raise InvalidInput(f"the two sites must differ, got {a} and {b}")
    return a, b


def check_n_sites(n_sites: int) -> int:
    """The register-size rule: an integer in [1, MAX_SITES]."""
    n = check_integer(n_sites, "n_sites")
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
        n = check_n_sites(self.n_sites)
        amp = check_array(self.amplitudes, "amplitudes", complex, (2**n,))
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise InvalidInput(f"ket norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "n_sites", n)
        object.__setattr__(self, "amplitudes", _readonly(amp))

    def density_matrix(self) -> "DensityMatrix":
        """The projector onto the normalized ket."""
        unit = self.amplitudes / np.linalg.norm(self.amplitudes)
        return DensityMatrix(self.n_sites, np.outer(unit, unit.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian trace-one operator on an n-qubit register.

    Hermiticity and trace are checked on the input, and the state holds its
    Hermitian part (M + M^dagger)/2, so its partial traces are exactly
    Hermitian. Positivity is checked where eigenvalues are consumed anyway
    (entropies, validation reports), so no state is diagonalized twice.
    """

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        n = check_n_sites(self.n_sites)
        mat = check_array(self.matrix, "matrix", complex, (2**n, 2**n))
        herm = np.max(np.abs(mat - mat.conj().T))
        if not herm <= HERMITICITY_TOL:
            raise InvalidInput(f"hermiticity defect {herm:.3e} exceeds {HERMITICITY_TOL}")
        trace = np.trace(mat)
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise InvalidInput(f"trace {trace!r} deviates from 1 beyond {TRACE_TOL}")
        hermitian = 0.5 * (mat + mat.conj().T)
        hermitian.setflags(write=False)
        object.__setattr__(self, "n_sites", n)
        object.__setattr__(self, "matrix", hermitian)

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
        q = check_integer(q, "bit")
        if q not in (0, 1):
            raise InvalidInput(f"bits must be 0 or 1, got {q!r}")
        idx = (idx << 1) | q
    return idx


def basis_ket(bits: Sequence[int]) -> Ket:
    """Computational basis state |q0 q1 ... q_{N-1}>."""
    bits = check_sequence(bits, "bits")
    n = check_n_sites(len(bits))
    amp = np.zeros(2**n, dtype=complex)
    amp[basis_index(bits)] = 1.0
    return Ket(n, amp)


def ghz_state(n_sites: int) -> Ket:
    """(|0...0> + |1...1>)/sqrt(2) on n_sites >= 2 qubits."""
    n = check_n_sites(n_sites)
    if n < 2:
        raise InvalidInput(f"GHZ state needs at least 2 sites, got {n}")
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
    return Ket(n, amp)


def embed_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site operator at `site`, identity elsewhere."""
    return embed_on_sites(op, (site,), n_sites)


def embed_on_sites(op: np.ndarray, sites: Sequence[int], n_sites: int) -> np.ndarray:
    """Embed an operator on a strictly increasing site set, identity elsewhere."""
    n = check_integer(n_sites, "n_sites")
    sites = check_sites(sites, n)
    k = len(sites)
    op = check_array(op, "operator", complex, (2**k, 2**k))
    if not np.all(np.isfinite(op)):
        raise InvalidInput("operator entries must be finite")
    full = np.kron(op, np.eye(2 ** (n - k)))
    # Axis s of `full` currently belongs to `order[s]`; permute back to 0..n-1.
    order = list(sites) + [s for s in range(n) if s not in sites]
    perm = [order.index(s) for s in range(n)]
    tensor = full.reshape([2] * (2 * n))
    tensor = tensor.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(tensor.reshape(2**n, 2**n))


def _grouped(matrix: np.ndarray, n_sites: int, first: Sequence[int]) -> np.ndarray:
    """A 2^n x 2^n `matrix` as a (2^k, 2^(n-k), 2^k, 2^(n-k)) tensor: on rows
    and on columns, the k sites of `first` in the order given, then the other
    sites in site order."""
    first = list(first)
    order = first + [s for s in range(n_sites) if s not in first]
    tensor = matrix.reshape([2] * (2 * n_sites)).transpose(order + [s + n_sites for s in order])
    d_first, d_rest = 2 ** len(first), 2 ** (n_sites - len(first))
    return tensor.reshape(d_first, d_rest, d_first, d_rest)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduce `rho` to the subsystem `keep`, relabeling sites 0..len(keep)-1:
    out[i, j] = sum_m rho[(i, m), (j, m)], with i, j over `keep` in site order."""
    keep = check_sites(keep, check_instance(rho, DensityMatrix, "rho").n_sites)
    if len(keep) == rho.n_sites:  # the whole register: nothing to trace, and rho is immutable
        return rho
    reduced = np.einsum("ibjb->ij", _grouped(rho.matrix, rho.n_sites, keep))
    return DensityMatrix(len(keep), reduced)


def entropies_from_eigenvalues(eigenvalues: np.ndarray, starts=None) -> np.ndarray:
    """-sum(lam * log2(lam)) over the last axis with the clamp rules applied;
    given `starts`, strictly ascending indices on that axis, one sum per run
    beginning at each, along a new last axis. Both forms sum with one
    `np.add.reduceat`, which adds each run on its own, so a run summed among
    others equals the same run summed alone."""
    lam = np.asarray(eigenvalues, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise NotPositiveSemidefinite("eigenvalues must be finite")
    lowest = float(lam.min())
    if lowest < EIG_NEGATIVE_LIMIT:
        raise NotPositiveSemidefinite(f"eigenvalue {lowest:.3e} below {EIG_NEGATIVE_LIMIT}")
    kept = lam > EIG_CLAMP
    terms = np.where(kept, lam * np.log2(np.where(kept, lam, 1.0)), 0.0)
    values = -np.add.reduceat(terms, [0] if starts is None else starts, axis=-1)
    if starts is None:
        values = values[..., 0]
    return np.where(values > 0.0, values, 0.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits."""
    matrix = check_instance(rho, DensityMatrix, "rho").matrix
    return float(entropies_from_eigenvalues(np.linalg.eigvalsh(matrix)))


def validate_density_matrix(matrix: np.ndarray | DensityMatrix) -> DensityMatrixReport:
    """Report hermiticity, trace and positivity defects of a candidate state."""
    if isinstance(matrix, DensityMatrix):
        matrix = matrix.matrix
    mat = check_array(matrix, "matrix", complex, (None, None))
    dim = mat.shape[0]
    if mat.shape[1] != dim or dim < 2 or dim & (dim - 1) != 0:
        raise InvalidInput(f"expected a square power-of-two matrix, got shape {mat.shape}")
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    trace = float(abs(np.trace(mat) - 1.0))
    # eigvalsh returns arbitrary numbers for non-finite input; NaN fails the check.
    min_eig = math.nan
    if np.all(np.isfinite(mat)):
        min_eig = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min())
    return DensityMatrixReport(
        hermiticity_defect=herm,
        trace_defect=trace,
        min_eigenvalue=min_eig,
        hermitian_ok=herm <= HERMITICITY_TOL,
        trace_ok=trace <= TRACE_TOL,
        positive_ok=min_eig >= -POSITIVITY_TOL,
    )
